//! # perfbench — the repository's end-to-end benchmark
//!
//! Runs one of three closed-loop workloads (one client thread, engine
//! worker defaults) against the builtin marketplace deployments, checks
//! every answer against the semantic oracle, and reports end-to-end and
//! per-layer metrics. `README.md` beside this crate records why each
//! workload exists, the modeled-store-time rule, and which layer metric
//! should move which end-to-end metric.
//!
//! A run is a fixed number of **rounds**. Each round builds a fresh
//! deployment (generation, materialization, warm-up — all set-up time),
//! then executes its own seeded op stream in the timed window. Rounds are
//! independent and deterministic, so every count a run reports repeats
//! exactly for the same seed and size.
//!
//! Stores run with [`Latencies::zero`]; each op's store time is
//! **modeled** by pricing its per-store counter deltas with the linear
//! [`Latencies::datacenter`] calibration (see [`modeled_store_time`]).

use estocada::analyze::analyze_query;
use estocada::frontends::{doc_query, parse_sql, AggregateSpec};
use estocada::{Dataset, DatasetContent, Estocada, Latencies, QueryRequest, QueryResult, SystemId};
use estocada_chase::{pacb_rewrite, RewriteProblem};
use estocada_engine::AggFun;
use estocada_pivot::{Cq, Symbol, Value};
use estocada_simkit::MetricsSnapshot;
use estocada_workloads::marketplace::CATEGORIES;
use estocada_workloads::{
    analytics_sql, analytics_workload, cart_pattern, deploy_baseline, deploy_materialized_join,
    generate_marketplace, pref_sql, rw_workload, stale_fragments, user_orders_sql, w1_workload,
    AnalyticsConfig, AnalyticsQuery, Marketplace, MarketplaceConfig, RwConfig, RwOp, W1Query,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// W1 point lookups (Zipf 0.9) on the baseline deployment, warm.
    Lookup,
    /// The GROUP BY / HAVING family on the materialized-join deployment,
    /// warm.
    Analytics,
    /// W1 reads beside Orders insert/delete and Prefs upsert writes on the
    /// materialized-join deployment.
    MixedRw,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Lookup, Workload::Analytics, Workload::MixedRw];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytics => "analytics",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The size of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the data and of every round's op stream.
    pub seed: u64,
    /// Independent rounds (fresh deployment each).
    pub rounds: usize,
    /// Reads in each round's timed window (`mixed_rw` adds a tenth as
    /// many writes).
    pub ops_per_round: usize,
    /// Marketplace size (the generation seed is overridden from `seed`).
    pub data: MarketplaceConfig,
}

/// Reads in one round of each workload (`mixed_rw` adds a tenth as many
/// writes). `lookup` rounds stay larger than the plan cache's working set:
/// ~1,350 distinct keys per 4,000 queries against 1,024 cache slots.
fn reads_per_round(w: Workload) -> usize {
    match w {
        Workload::Lookup => 4_000,
        Workload::Analytics => 240,
        Workload::MixedRw => 250,
    }
}

/// Nominal timed-window seconds of one round on the reference host (a
/// 2-core x86-64 VM), used only to turn `--seconds` into a round count.
/// The count is a pure function of `--seconds`, so the work a run does —
/// and every count it reports — never depends on host speed.
fn nominal_round_seconds(w: Workload) -> f64 {
    match w {
        Workload::Lookup => 1.8,
        Workload::Analytics => 1.8,
        Workload::MixedRw => 4.0,
    }
}

/// The fewest rounds of a run: three, so that `setup_s` is a median, and
/// enough that the pooled samples leave at least 10 beyond every tail
/// percentile reported — 1,000 reads for the read p99 and, on `mixed_rw`,
/// 100 writes for the write p90. No more writes than that: an Orders write
/// that touches the UserHist join costs two orders of magnitude more than
/// a read.
pub fn min_rounds(w: Workload) -> usize {
    let reads = reads_per_round(w);
    let for_reads = 1_000usize.div_ceil(reads);
    let for_writes = match w {
        Workload::MixedRw => 100usize.div_ceil(reads / 10),
        _ => 0,
    };
    for_reads.max(for_writes).max(3)
}

impl RunConfig {
    /// The full-size configuration for a `--seconds` budget.
    pub fn for_seconds(workload: Workload, seed: u64, seconds: u64) -> RunConfig {
        let rounds = ((seconds as f64 / nominal_round_seconds(workload)).round() as usize)
            .max(min_rounds(workload));
        RunConfig {
            workload,
            seed,
            rounds,
            ops_per_round: reads_per_round(workload),
            data: MarketplaceConfig::default(),
        }
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One operation of a workload stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A W1 read (preference / cart / order-history lookup).
    W1(W1Query),
    /// An analytics aggregate.
    Agg(AnalyticsQuery),
    /// An Orders insert/delete or Prefs upsert.
    Write(RwOp),
}

impl Op {
    /// `true` for reads.
    pub fn is_read(&self) -> bool {
        !matches!(self, Op::Write(_))
    }
}

/// The op stream of round `round`: `cfg.ops_per_round` reads (plus a tenth
/// as many writes on `mixed_rw`) drawn from the front of the workload's
/// generator, seeded per round, and stratified so that each op class gets
/// the share the generator draws it with. Without the quotas the class mix
/// — and with it the round's cost — swings from seed to seed: a full-table
/// rollup costs ~10x a per-user one, and an Orders write that changes the
/// UserHist join ~50x one that does not.
pub fn op_stream(cfg: &RunConfig, m: &Marketplace, round: usize) -> Vec<Op> {
    let (w, n) = (cfg.workload, cfg.ops_per_round);
    let seed = mix(cfg.seed, 1 + round as u64);
    // Candidates to draw from: enough that every quota fills. Heavy Orders
    // deletes are ~0.5% of a `mixed_rw` schedule, hence its longer stream.
    let len = match w {
        Workload::MixedRw => 40 * n,
        _ => 5 * n + 100,
    };
    let (candidates, mut quota): (Vec<(Op, usize)>, Vec<usize>) = match w {
        Workload::Lookup => (
            w1_workload(&m.config, len, seed)
                .into_iter()
                .map(|q| {
                    let class = match q {
                        W1Query::PrefLookup(_) => 0,
                        W1Query::CartLookup(_) => 1,
                        W1Query::UserOrders(_) => 2,
                    };
                    (Op::W1(q), class)
                })
                .collect(),
            // Pref : cart : orders = 3 : 3 : 6, as `w1_workload` draws them.
            vec![n / 4, n / 4, n - 2 * (n / 4)],
        ),
        Workload::Analytics => (
            analytics_workload(&AnalyticsConfig {
                queries: len,
                users: m.config.users,
                seed,
                ..AnalyticsConfig::default()
            })
            .into_iter()
            .map(|q| {
                let class = match q {
                    AnalyticsQuery::CategoryVolume => 0,
                    AnalyticsQuery::BigSpenders { .. } => 1,
                    AnalyticsQuery::TierCategoryMatrix => 2,
                    AnalyticsQuery::CategoryEngagement { .. } => 3,
                    AnalyticsQuery::UserSpendByCategory { .. } => 4,
                };
                (Op::Agg(q), class)
            })
            .collect(),
            // The five templates are equally likely; the remainder goes to
            // the first.
            vec![n - 4 * (n / 5), n / 5, n / 5, n / 5, n / 5],
        ),
        Workload::MixedRw => mixed_candidates(m, n, len, seed, round, cfg.rounds),
    };
    // A skipped insert's order is never live, so a later delete of it is
    // skipped too; every other delete targets an order the taken prefix
    // inserted or the generator seeded, and no taken delete removed.
    let mut never_inserted = HashSet::new();
    let mut out = Vec::new();
    for (op, class) in candidates {
        if quota.iter().all(|q| *q == 0) {
            break;
        }
        if let Op::Write(RwOp::DeleteOrder { oid }) = &op {
            if never_inserted.contains(oid) {
                continue;
            }
        }
        if quota[class] > 0 {
            quota[class] -= 1;
            out.push(op);
        } else if let Op::Write(RwOp::InsertOrder { oid, .. }) = &op {
            never_inserted.insert(*oid);
        }
    }
    assert!(
        quota.iter().all(|q| *q == 0),
        "generator stream too short for the quotas"
    );
    out
}

/// Browsing-history rows at or above which an Orders write counts as
/// heavy: it changes that many UserHist rows, and its cost grows with them
/// (0.2 s for a few rows, 1.4 s for ~300).
const HEAVY_JOIN_ROWS: usize = 50;

/// `mixed_rw` candidates with their classes and quotas. Reads split by
/// kind (equally likely). Writes split by kind (equally likely) and Orders
/// writes further by how many UserHist rows they change — none, some, or
/// at least [`HEAVY_JOIN_ROWS`] — the property that sets their cost. Those
/// shares are exact for the generated data: inserts draw `(uid, category)`
/// uniformly, deletes draw a live order uniformly (almost always one of
/// the marketplace's own orders). Write quotas are set for the whole run and dealt out
/// round by round, so rounding never flips a run's heavy-write count.
fn mixed_candidates(
    m: &Marketplace,
    n: usize,
    len: usize,
    seed: u64,
    round: usize,
    rounds: usize,
) -> (Vec<(Op, usize)>, Vec<usize>) {
    let writes = n / 10;
    let rows = |table: &str| rows_of(Some(&m.sales), table);
    // UserHist joins Orders and WebLog on (uid, category).
    let mut history: HashMap<(Value, Value), usize> = HashMap::new();
    for r in rows("WebLog") {
        *history.entry((r[1].clone(), r[3].clone())).or_default() += 1;
    }
    let bin = |key: &(Value, Value)| match history.get(key).copied().unwrap_or(0) {
        0 => 0,
        k if k < HEAVY_JOIN_ROWS => 1,
        _ => 2,
    };
    let mut insert_bins = [0usize; 3];
    for uid in 0..m.config.users as i64 {
        for cat in CATEGORIES {
            insert_bins[bin(&(Value::Int(uid), Value::str(cat)))] += 1;
        }
    }
    let mut delete_bins = [0usize; 3];
    let mut order_key: HashMap<i64, (Value, Value)> = HashMap::new();
    for r in rows("Orders") {
        let key = (r[1].clone(), r[3].clone());
        delete_bins[bin(&key)] += 1;
        if let Some(oid) = r[0].as_int() {
            order_key.insert(oid, key);
        }
    }
    // Classes: 0-2 read kinds; 3-5 inserts and 6-8 deletes by bin; 9
    // upserts.
    let schedule = rw_workload(
        m,
        RwConfig {
            ops: len,
            write_ratio: writes as f64 / (n + writes) as f64,
            seed,
        },
    );
    let mut candidates = Vec::with_capacity(schedule.len());
    for op in schedule {
        let class = match &op {
            RwOp::Read(W1Query::PrefLookup(_)) => 0,
            RwOp::Read(W1Query::CartLookup(_)) => 1,
            RwOp::Read(W1Query::UserOrders(_)) => 2,
            RwOp::InsertOrder {
                oid, uid, category, ..
            } => {
                let key = (Value::Int(*uid), Value::str(category));
                let class = 3 + bin(&key);
                order_key.insert(*oid, key);
                class
            }
            RwOp::DeleteOrder { oid } => 6 + order_key.get(oid).map(bin).unwrap_or(0),
            RwOp::UpsertPref { .. } => 9,
        };
        let op = match op {
            RwOp::Read(q) => Op::W1(q),
            op => Op::Write(op),
        };
        candidates.push((op, class));
    }
    // This round's part of a whole-run total.
    let deal = |total: usize| total * (round + 1) / rounds - total * round / rounds;
    let mut quota = vec![n / 3, n / 3, n - 2 * (n / 3)];
    let inserts = split((writes - 2 * (writes / 3)) * rounds, &insert_bins);
    let deletes = split(writes / 3 * rounds, &delete_bins);
    quota.extend(inserts.into_iter().chain(deletes).map(deal));
    quota.push(writes / 3);
    (candidates, quota)
}

/// Split `total` in proportion to `weights`, largest remainder first.
fn split(total: usize, weights: &[usize]) -> Vec<usize> {
    let sum = weights.iter().sum::<usize>().max(1);
    let mut out: Vec<usize> = weights.iter().map(|w| total * w / sum).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((total * weights[i]) % sum));
    let short = total - out.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        out[i] += 1;
    }
    out
}

/// The marketplace of a run.
pub fn marketplace(cfg: &RunConfig) -> Marketplace {
    generate_marketplace(MarketplaceConfig {
        seed: mix(cfg.seed, 0),
        ..cfg.data
    })
}

/// The workload's deployment over `m`.
pub fn deploy(w: Workload, m: &Marketplace, latencies: Latencies) -> Estocada {
    match w {
        Workload::Lookup => deploy_baseline(m, latencies),
        Workload::Analytics | Workload::MixedRw => deploy_materialized_join(m, latencies),
    }
}

/// A deployment ready for its timed window.
pub struct Prepared {
    /// The engine.
    pub est: Estocada,
    /// The round's op stream.
    pub ops: Vec<Op>,
    /// Generation + deployment + warm-up + lazy one-time work.
    pub setup: Duration,
    /// Deployment and materialization alone.
    pub deploy: Duration,
}

/// Build round `round` of a run: generate, deploy, warm up. `lookup` and
/// `analytics` warm the plan and lint caches with one planning pass over
/// the round's stream (explain-only: the same cache lookups and inserts, in
/// the same order, as executing it — no store keeps lazy state);
/// `mixed_rw` seeds the write path's maintenance state with a write that
/// leaves the data unchanged, so the first timed write pays no seeding.
pub fn prepare(cfg: &RunConfig, round: usize, latencies: Latencies) -> Prepared {
    let t0 = Instant::now();
    let m = marketplace(cfg);
    let t1 = Instant::now();
    let mut est = deploy(cfg.workload, &m, latencies);
    let deploy = t1.elapsed();
    let ops = op_stream(cfg, &m, round);
    drop(m);
    match cfg.workload {
        Workload::Lookup | Workload::Analytics => {
            for op in &ops {
                let _ = request(&est, op).explain();
            }
        }
        Workload::MixedRw => {
            let row = rows_of(est.datasets().get("sales"), "Prefs")
                .first()
                .cloned()
                .expect("Prefs has rows");
            est.upsert_rows("sales", "Prefs", vec![row])
                .expect("seeding upsert");
        }
    }
    Prepared {
        est,
        ops,
        setup: t0.elapsed(),
        deploy,
    }
}

/// The rows of `<table>` in a relational dataset (empty when absent).
fn rows_of<'a>(ds: Option<&'a Dataset>, table: &str) -> &'a [Vec<Value>] {
    let Some(DatasetContent::Relational(tables)) = ds.map(|d| &d.content) else {
        return &[];
    };
    tables
        .iter()
        .find(|t| t.encoding.relation == Symbol::intern(table))
        .map(|t| t.rows.as_slice())
        .unwrap_or(&[])
}

/// A read as the application issues it.
enum ReadText {
    /// Mini-SQL text.
    Sql(String),
    /// The cart tree pattern of one user.
    Cart(i64),
}

/// The bindings a cart lookup selects.
const CART_SELECT: [&str; 2] = ["pid", "qty"];

fn read_text(op: &Op) -> ReadText {
    match op {
        Op::W1(W1Query::PrefLookup(uid)) => ReadText::Sql(pref_sql(*uid)),
        Op::W1(W1Query::UserOrders(uid)) => ReadText::Sql(user_orders_sql(*uid)),
        Op::W1(W1Query::CartLookup(uid)) => ReadText::Cart(*uid),
        Op::Agg(q) => ReadText::Sql(analytics_sql(q)),
        Op::Write(_) => unreachable!("a write is not a read"),
    }
}

/// The public query request of a read.
fn request<'e>(est: &'e Estocada, op: &Op) -> QueryRequest<'e> {
    match read_text(op) {
        ReadText::Sql(sql) => est.query(&sql),
        ReadText::Cart(uid) => est.query_pattern(&cart_pattern(uid), &CART_SELECT),
    }
}

/// The kind of a write, for per-kind latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Orders insert.
    InsertOrder,
    /// Orders delete.
    DeleteOrder,
    /// Prefs upsert.
    UpsertPref,
}

/// A write resolved to its DML call: the live row of a delete is looked
/// up before the op's clock starts.
fn resolve_write(est: &Estocada, op: &RwOp) -> (WriteKind, Vec<Value>) {
    match op {
        RwOp::InsertOrder {
            oid,
            uid,
            pid,
            category,
            amount,
        } => (
            WriteKind::InsertOrder,
            vec![
                Value::Int(*oid),
                Value::Int(*uid),
                Value::Int(*pid),
                Value::str(category),
                Value::Double(*amount),
            ],
        ),
        RwOp::DeleteOrder { oid } => (
            WriteKind::DeleteOrder,
            rows_of(est.datasets().get("sales"), "Orders")
                .iter()
                .find(|r| r[0] == Value::Int(*oid))
                .cloned()
                .unwrap_or_else(|| panic!("delete of order {oid} not live")),
        ),
        RwOp::UpsertPref {
            uid,
            theme,
            language,
            newsletter,
        } => (
            WriteKind::UpsertPref,
            vec![
                Value::Int(*uid),
                Value::str(theme),
                Value::str(language),
                Value::Bool(*newsletter),
            ],
        ),
        RwOp::Read(_) => unreachable!("reads are Op::W1"),
    }
}

/// The stores a workload can touch, in report order (textstore is left
/// out: no workload issues text search).
pub const STORES: [(SystemId, &str); 4] = [
    (SystemId::Relational, "relstore"),
    (SystemId::Document, "docstore"),
    (SystemId::KeyValue, "kvstore"),
    (SystemId::Parallel, "parstore"),
];

/// Price counter deltas with the linear datacenter calibration — the same
/// model the spin-wait path charges and the cost model assumes:
/// `requests·per_request + tuples_out·per_tuple + bytes_out·per_byte +
/// tuples_scanned·per_scan`, summed over stores.
pub fn modeled_store_time(deltas: &[(SystemId, MetricsSnapshot)]) -> Duration {
    deltas.iter().map(|(s, d)| modeled_of(*s, d)).sum()
}

/// [`modeled_store_time`] of one store's delta.
fn modeled_of(sys: SystemId, d: &MetricsSnapshot) -> Duration {
    let m = Latencies::datacenter().of(sys);
    Duration::from_nanos(
        m.per_request_ns * d.requests
            + m.per_tuple_ns * d.tuples_out
            + m.per_byte_ns * d.bytes_out
            + m.per_scan_ns * d.tuples_scanned,
    )
}

/// Per-store counter deltas between two snapshots.
fn store_deltas(
    after: &[(SystemId, MetricsSnapshot)],
    before: &[(SystemId, MetricsSnapshot)],
) -> Vec<(SystemId, MetricsSnapshot)> {
    after
        .iter()
        .zip(before)
        .map(|((s, a), (_, b))| (*s, a.since(b)))
        .collect()
}

/// What one timed op produced, apart from its answer.
pub struct OpRun {
    /// Client-side wall time of the public call.
    pub wall: Duration,
    /// Per-store counter deltas.
    pub deltas: Vec<(SystemId, MetricsSnapshot)>,
    /// The read's result or the write's report, or the typed error.
    pub outcome: Result<Outcome, estocada::Error>,
}

/// A successful op's payload.
pub enum Outcome {
    /// A read's result.
    Read(Box<QueryResult>),
    /// A write's report.
    Write(WriteKind, estocada::DmlReport),
}

impl OpRun {
    /// Op latency: wall time plus modeled store time.
    pub fn latency(&self) -> Duration {
        self.wall + modeled_store_time(&self.deltas)
    }
}

/// Execute one op with its clock running only around the public call.
pub fn run_op(est: &mut Estocada, op: &Op) -> OpRun {
    let write = match op {
        Op::Write(w) => Some(resolve_write(est, w)),
        _ => None,
    };
    let before = est.stores.metrics();
    let t = Instant::now();
    let outcome = match write {
        None => request(est, op).run().map(|r| Outcome::Read(Box::new(r))),
        Some((kind, row)) => match kind {
            WriteKind::InsertOrder => est.insert_rows("sales", "Orders", vec![row]),
            WriteKind::DeleteOrder => est.delete_rows("sales", "Orders", vec![row]),
            WriteKind::UpsertPref => est.upsert_rows("sales", "Prefs", vec![row]),
        }
        .map(|r| Outcome::Write(kind, r)),
    };
    let wall = t.elapsed();
    let deltas = store_deltas(&est.stores.metrics(), &before);
    OpRun {
        wall,
        deltas,
        outcome,
    }
}

/// A read's conjunctive core as its frontend parses it, plus the SQL
/// aggregation layered on top.
pub struct ParsedRead {
    /// The conjunctive core.
    pub cq: Cq,
    /// GROUP BY / HAVING / aggregates, if any.
    pub aggregate: Option<AggregateSpec>,
}

/// Parse a read through its public frontend (`parse_sql` against
/// `sql_catalog()`, or `doc_query`).
pub fn parse_read(est: &Estocada, op: &Op) -> Result<ParsedRead, String> {
    let sql = match read_text(op) {
        ReadText::Sql(sql) => sql,
        ReadText::Cart(uid) => {
            let q = doc_query(&cart_pattern(uid), &CART_SELECT).map_err(|e| e.to_string())?;
            return Ok(ParsedRead {
                cq: q.cq,
                aggregate: None,
            });
        }
    };
    let p = parse_sql(&sql, &est.sql_catalog()).map_err(|e| e.to_string())?;
    if !p.residuals.is_empty() {
        return Err(format!(
            "{sql}: residual predicates are outside the oracle check"
        ));
    }
    Ok(ParsedRead {
        cq: p.cq,
        aggregate: p.aggregate,
    })
}

/// The expected answer of a read: `oracle_eval` of its core over the
/// current source data, aggregated by brute force when the query
/// aggregates (over the distinct core rows, the SQL frontend's documented
/// semantics).
pub fn expected_rows(est: &Estocada, parsed: &ParsedRead) -> Vec<Vec<Value>> {
    let core = est.oracle_eval(&parsed.cq);
    match &parsed.aggregate {
        None => core,
        Some(spec) => brute_aggregate(&core, spec),
    }
}

/// Group, aggregate, filter by HAVING and project, one row at a time.
fn brute_aggregate(core: &[Vec<Value>], spec: &AggregateSpec) -> Vec<Vec<Value>> {
    let mut groups: BTreeMap<Vec<Value>, Vec<&Vec<Value>>> = BTreeMap::new();
    for row in core {
        groups
            .entry(row[..spec.group_cols].to_vec())
            .or_default()
            .push(row);
    }
    if spec.group_cols == 0 && groups.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    let mut out = Vec::new();
    for (key, rows) in groups {
        let mut full = key;
        for a in &spec.aggs {
            let vals: Vec<&Value> = rows.iter().map(|r| &r[a.col]).collect();
            let sum: f64 = vals.iter().map(|v| v.as_double().unwrap_or(0.0)).sum();
            full.push(match a.fun {
                AggFun::Count => Value::Int(vals.len() as i64),
                AggFun::Sum => Value::Double(sum),
                AggFun::Avg if vals.is_empty() => Value::Null,
                AggFun::Avg => Value::Double(sum / vals.len() as f64),
                AggFun::Min => vals
                    .iter()
                    .min()
                    .map(|v| (*v).clone())
                    .unwrap_or(Value::Null),
                AggFun::Max => vals
                    .iter()
                    .max()
                    .map(|v| (*v).clone())
                    .unwrap_or(Value::Null),
            });
        }
        if spec
            .having
            .iter()
            .all(|(col, op, v)| op.eval(&full[*col], v))
        {
            out.push(spec.select.iter().map(|(_, c)| full[*c].clone()).collect());
        }
    }
    out
}

/// Compare an answer with the expected rows as sorted bags. Doubles agree
/// within a relative 1e-9 (sums accumulate in a different order).
pub fn check_rows(expected: Vec<Vec<Value>>, actual: &[Vec<Value>]) -> Result<(), String> {
    let mut e = expected;
    let mut a = actual.to_vec();
    if e.len() != a.len() {
        return Err(format!("{} rows, expected {}", a.len(), e.len()));
    }
    e.sort();
    a.sort();
    for (re, ra) in e.iter().zip(&a) {
        let same = re.len() == ra.len()
            && re.iter().zip(ra).all(|(x, y)| match (x, y) {
                (Value::Double(p), Value::Double(q)) => {
                    (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                }
                _ => x == y,
            });
        if !same {
            return Err(format!("row {ra:?}, expected {re:?}"));
        }
    }
    Ok(())
}

/// Everything a run measured, by name, in a shape that merges across
/// rounds and crosses a process boundary as plain text.
///
/// `sums` hold totals: whole-number counts (exact — they repeat bit for bit
/// for one seed and size) and times in seconds (keys ending in `_s`).
/// `samples` hold per-op latencies in ms and per-round values.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Totals by name.
    pub sums: BTreeMap<String, f64>,
    /// Samples by name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Every round's op stream, concatenated (in-process runs only).
    pub ops: Vec<Op>,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
}

impl RunStats {
    /// Add to a total.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_default() += v;
    }

    /// Append a sample.
    pub fn push(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    /// A total (0 when never added to).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// The samples of `key` (empty when none).
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The exact counts: every total that is not a time.
    pub fn counts(&self) -> BTreeMap<&str, f64> {
        self.sums
            .iter()
            .filter(|(k, _)| !k.ends_with("_s"))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// Fold another round in.
    pub fn merge(&mut self, other: RunStats) {
        for (k, v) in other.sums {
            *self.sums.entry(k).or_default() += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.ops.extend(other.ops);
        self.wrong = self.wrong.take().or(other.wrong);
    }

    /// Text form: `sum <key> <v>`, `samples <key> <v>...`, `wrong <msg>`
    /// lines. Values print with every digit (`{:?}` round-trips).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.sums {
            out.push_str(&format!("sum {k} {v:?}\n"));
        }
        for (k, vs) in &self.samples {
            out.push_str(&format!("samples {k}"));
            for v in vs {
                out.push_str(&format!(" {v:?}"));
            }
            out.push('\n');
        }
        if let Some(w) = &self.wrong {
            out.push_str(&format!("wrong {}\n", w.replace('\n', " ")));
        }
        out
    }

    /// Parse [`RunStats::to_text`] output.
    pub fn from_text(text: &str) -> Result<RunStats, String> {
        let mut s = RunStats::default();
        for line in text.lines() {
            let mut words = line.splitn(3, ' ');
            let (kind, key) = (words.next(), words.next());
            let rest = words.next().unwrap_or("");
            let num = |w: &str| {
                w.parse::<f64>()
                    .map_err(|_| format!("bad number in {line}"))
            };
            match (kind, key) {
                (Some("sum"), Some(k)) => s.add(k, num(rest)?),
                (Some("samples"), Some(k)) => {
                    let v = s.samples.entry(k.to_string()).or_default();
                    for w in rest.split_whitespace() {
                        v.push(num(w)?);
                    }
                }
                (Some("wrong"), Some(first)) => s.wrong = Some(format!("{first} {rest}")),
                _ => return Err(format!("unreadable line {line:?}")),
            }
        }
        Ok(s)
    }
}

/// Run every round of `cfg` in this process (tests; the command line runs
/// each round in a fresh process, see `main.rs`).
pub fn run(cfg: &RunConfig, trace: bool) -> RunStats {
    let mut s = RunStats::default();
    for round in 0..cfg.rounds {
        s.merge(run_round(cfg, round, trace));
        if s.wrong.is_some() {
            break;
        }
    }
    s
}

/// Build round `round` and run its timed window. With `trace`, each op
/// also gets standalone timings of the layers it passes through, all taken
/// with the op's clock stopped.
pub fn run_round(cfg: &RunConfig, round: usize, trace: bool) -> RunStats {
    let mut s = RunStats::default();
    let Prepared {
        mut est,
        ops,
        setup,
        deploy,
    } = prepare(cfg, round, Latencies::zero());
    s.push("setup_s", setup.as_secs_f64());
    s.push("deploy_s", deploy.as_secs_f64());
    let mut oracle = Oracle::default();
    for op in &ops {
        let r = run_op(&mut est, op);
        record(&mut s, &est, &mut oracle, op, &r, trace);
        if s.wrong.is_some() {
            return s;
        }
    }
    s.ops = ops;
    s
}

/// Expected answers memoized per data epoch: `oracle_eval` is a pure
/// function of the query and the source data, so a read repeated between
/// two writes is checked against the same rows without re-evaluating them.
#[derive(Default)]
struct Oracle {
    epoch: u64,
    rows: HashMap<String, Vec<Vec<Value>>>,
}

impl Oracle {
    fn expected(&mut self, est: &Estocada, op: &Op, parsed: &ParsedRead) -> Vec<Vec<Value>> {
        if self.epoch != est.data_epoch() {
            self.epoch = est.data_epoch();
            self.rows.clear();
        }
        self.rows
            .entry(format!("{op:?}"))
            .or_insert_with(|| expected_rows(est, parsed))
            .clone()
    }
}

/// Fold one op into the run, checking its answer (clock stopped).
fn record(s: &mut RunStats, est: &Estocada, oracle: &mut Oracle, op: &Op, r: &OpRun, trace: bool) {
    let latency = r.latency();
    let ms = latency.as_secs_f64() * 1e3;
    s.add("attempted", 1.0);
    s.add("latency_s", latency.as_secs_f64());
    s.add("wall_s", r.wall.as_secs_f64());
    for (sys, name) in STORES {
        let d = r
            .deltas
            .iter()
            .find(|(x, _)| *x == sys)
            .map(|(_, d)| *d)
            .unwrap_or_default();
        s.add(&format!("{name}.requests"), d.requests as f64);
        s.add(&format!("{name}.tuples_out"), d.tuples_out as f64);
        s.add(&format!("{name}.scanned"), d.tuples_scanned as f64);
        s.add(&format!("{name}.bytes_out"), d.bytes_out as f64);
        s.add(&format!("{name}.busy_s"), d.busy.as_secs_f64());
        s.add(
            &format!("{name}.modeled_s"),
            modeled_of(sys, &d).as_secs_f64(),
        );
    }
    let (count, series) = if op.is_read() {
        ("reads", "read_ms")
    } else {
        ("writes", "write_ms")
    };
    s.add(count, 1.0);
    let outcome = match &r.outcome {
        Ok(o) => o,
        Err(_) => {
            // A failed op misses every latency limit.
            s.add("failed", 1.0);
            s.push(series, f64::INFINITY);
            return;
        }
    };
    s.push(series, ms);
    match outcome {
        Outcome::Read(res) => {
            s.add("rows_read", res.rows.len() as f64);
            let t_parse = Instant::now();
            let parsed = parse_read(est, op);
            let parse = t_parse.elapsed();
            let parsed = match parsed {
                Ok(p) => p,
                Err(e) => {
                    s.wrong = Some(format!("{op:?}: {e}"));
                    return;
                }
            };
            if let Err(e) = check_rows(oracle.expected(est, op, &parsed), &res.rows) {
                s.wrong = Some(format!("{op:?}: wrong answer: {e}"));
                return;
            }
            let rep = &res.report;
            let miss = rep.plan_cache.map(|p| !p.hit);
            match miss {
                Some(false) => s.add("plan_hits", 1.0),
                Some(true) => s.add("plan_misses", 1.0),
                None => {}
            }
            if !trace {
                return;
            }
            match miss {
                Some(true) => s.push("miss_read_ms", ms),
                _ => s.push("hit_read_ms", ms),
            }
            s.add("parse_s", parse.as_secs_f64());
            let t = Instant::now();
            let _ = analyze_query(&parsed.cq, est.schema());
            s.add("lint_s", t.elapsed().as_secs_f64());
            s.add("read_wall_s", r.wall.as_secs_f64());
            s.add("rewrite_s", rep.rewrite_time.as_secs_f64());
            s.add("translate_s", rep.translate_time.as_secs_f64());
            s.add("runtime_s", rep.exec.runtime_time().as_secs_f64());
            let attributed = rep.rewrite_time + rep.translate_time + rep.exec.total_time;
            s.add(
                "unattributed_s",
                r.wall.saturating_sub(attributed).as_secs_f64(),
            );
            s.add("alternatives", rep.alternatives.len() as f64);
            s.add("engine_rows", rep.exec.rows as f64);
            s.add("bind_probes", rep.exec.bind_probes as f64);
            if miss == Some(true) {
                trace_miss(s, est, &parsed, rep.rewrite_time);
            }
        }
        Outcome::Write(kind, rep) => {
            let stale = stale_fragments(est);
            if !stale.is_empty() {
                s.wrong = Some(format!("{op:?}: stale fragments {stale:?}"));
                return;
            }
            let rows: usize = rep
                .fragment_deltas
                .iter()
                .map(|d| d.store_deletes + d.store_inserts)
                .sum();
            s.add("fragment_rows", rows as f64);
            s.add("maintenance_s", rep.maintenance_time.as_secs_f64());
            let series = match kind {
                WriteKind::InsertOrder => "insert_order_ms",
                WriteKind::DeleteOrder => "delete_order_ms",
                WriteKind::UpsertPref => "upsert_pref_ms",
            };
            s.push(series, ms);
        }
    }
}

/// Standalone timings of a plan-cache miss: the termination certificate
/// the planner recomputes, and the same PACB rewrite it ran (same problem,
/// same certified configuration), for its counters.
fn trace_miss(s: &mut RunStats, est: &Estocada, parsed: &ParsedRead, rewrite: Duration) {
    s.add("rewrite_miss_s", rewrite.as_secs_f64());
    let t = Instant::now();
    let cert = est.termination_certificate();
    s.add("certificate_s", t.elapsed().as_secs_f64());
    let mut cfg = est.rewrite_config();
    cfg.chase = cfg.chase.with_certificate(&cert);
    let problem = RewriteProblem {
        query: parsed.cq.clone(),
        views: est.catalog().view_defs(),
        source_constraints: est.schema().constraints.clone(),
        target_constraints: Vec::new(),
        access: est.catalog().access_map(),
    };
    let t = Instant::now();
    let outcome = pacb_rewrite(&problem, &cfg);
    s.add("pacb_s", t.elapsed().as_secs_f64());
    if let Ok(o) = outcome {
        s.add("candidates", o.stats.candidates as f64);
        s.add("accepted", o.stats.accepted as f64);
        let fires = o.stats.forward.tgd_fires + o.stats.backward.chase.tgd_fires;
        s.add("tgd_fires", fires as f64);
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
