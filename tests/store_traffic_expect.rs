//! Committed-snapshot test of the traffic the mediator sends to the stores:
//! every builtin scenario deployment runs a fixed list of W1 and analytics
//! queries, and the rendered traffic must match
//! `tests/snapshots/store_traffic_expect.txt` byte for byte.
//!
//! Per query the snapshot pins:
//!
//! - the per-store `MetricsSnapshot` delta of a fault-free run
//!   (`requests`, `tuples_out`, `tuples_scanned`, `bytes_out`; `busy` is
//!   wall time and excluded), and the rows;
//! - under one fixed seeded [`FaultPlan`] with rules on every store, the
//!   same store delta, the rows (or the typed error), and the full
//!   [`estocada::ResilienceReport`]: plan attempts, retries, store errors,
//!   breaker transitions and translations.
//!
//! The fault-tolerance suite compares two runs of the same build; this file
//! pins the absolute counters and fault traces, so a refactor of the store
//! call path that adds, drops or reorders a single store request shows up
//! as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_EXPECT=1 cargo test --test store_traffic_expect
//! ```

use estocada::{Estocada, FaultKind, FaultPlan, Latencies, QueryResult, RetryPolicy};
use estocada_pivot::{Cq, CqBuilder};
use estocada_workloads::analytics::{analytics_sql, AnalyticsQuery};
use estocada_workloads::marketplace::{generate, MarketplaceConfig, CATEGORIES};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, deploy_materialized_join, personalized_sql,
    pref_sql, user_orders_sql,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// One query of the fixed list.
enum Q {
    Sql(String),
    Cart(i64),
    Pivot(Cq),
}

/// The queries run against every deployment: `(label, query)`.
fn queries() -> Vec<(String, Q)> {
    let mut out: Vec<(String, Q)> = Vec::new();
    for uid in [3i64, 7] {
        out.push((format!("w1 pref {uid}"), Q::Sql(pref_sql(uid))));
        out.push((format!("w1 cart {uid}"), Q::Cart(uid)));
        out.push((format!("w1 orders {uid}"), Q::Sql(user_orders_sql(uid))));
    }
    out.push((
        "personalized".into(),
        Q::Sql(personalized_sql(7, CATEGORIES[0])),
    ));
    // A full-text probe: the price of every product whose title holds one
    // category word (the term index is a BindJoin source).
    out.push((
        "text titles".into(),
        Q::Pivot(
            CqBuilder::new("Q")
                .head_vars(["pid", "price"])
                .atom("Products_Terms", |a| a.c(CATEGORIES[1]).v("pid"))
                .atom("Products", |a| {
                    a.v("pid").v("title").v("category").v("price")
                })
                .build(),
        ),
    ));
    for q in [
        AnalyticsQuery::CategoryVolume,
        AnalyticsQuery::BigSpenders { min_total: 200 },
        AnalyticsQuery::TierCategoryMatrix,
        AnalyticsQuery::CategoryEngagement {
            category: CATEGORIES[1].to_string(),
        },
        AnalyticsQuery::UserSpendByCategory { uid: 7 },
    ] {
        out.push((format!("analytics {q:?}"), Q::Sql(analytics_sql(&q))));
    }
    out
}

fn run(est: &Estocada, q: &Q) -> estocada::Result<QueryResult> {
    match q {
        Q::Sql(sql) => est.query_sql(sql),
        Q::Cart(uid) => est.query_doc(&cart_pattern(*uid), &["pid", "qty"]),
        Q::Pivot(cq) => est.query_cq(cq.clone(), vec!["pid".into(), "price".into()], Vec::new()),
    }
}

/// The fault schedule of the faulted pass: one rule (or more) per store.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(29)
        .random_errors("relational", 0.3, FaultKind::Unavailable)
        .fail_ops("key-value", "get", 2, 3, FaultKind::Timeout)
        .fail_ops("key-value", "mget", 1, 1, FaultKind::Timeout)
        .random_errors("document", 0.3, FaultKind::PartialResponse)
        .outage("text", 1, 2, FaultKind::Unavailable)
        .outage("parallel", 2, 2, FaultKind::Timeout)
}

/// Render one query's store traffic, rows and fault trace.
fn render_query(out: &mut String, est: &Estocada, q: &Q) {
    let before = est.stores.metrics();
    let res = run(est, q);
    let after = est.stores.metrics();
    for ((sys, b), (_, a)) in before.iter().zip(&after) {
        let d = a.since(b);
        if (d.requests, d.tuples_out, d.tuples_scanned, d.bytes_out) != (0, 0, 0, 0) {
            writeln!(
                out,
                "store {}: requests={} tuples_out={} tuples_scanned={} bytes_out={}",
                sys, d.requests, d.tuples_out, d.tuples_scanned, d.bytes_out
            )
            .unwrap();
        }
    }
    match res {
        Ok(r) => {
            writeln!(out, "rows: {}", r.rows.len()).unwrap();
            for row in &r.rows {
                writeln!(out, "  {row:?}").unwrap();
            }
            if let Some(res) = &r.report.resilience {
                writeln!(out, "resilience:").unwrap();
                for a in &res.attempts {
                    writeln!(
                        out,
                        "  attempt {} on {:?}: {} -> {:?}",
                        a.alternative, a.systems, a.rewriting, a.error
                    )
                    .unwrap();
                }
                writeln!(out, "  retries: {}", res.retries).unwrap();
                writeln!(out, "  store errors: {:?}", res.store_errors).unwrap();
                writeln!(out, "  breakers: {:?}", res.breaker_transitions).unwrap();
                writeln!(out, "  translations: {}", res.translations).unwrap();
            }
        }
        Err(e) => writeln!(out, "error: {e}").unwrap(),
    }
}

fn render() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Store traffic expectations. Regenerate with:\n\
         #   UPDATE_EXPECT=1 cargo test --test store_traffic_expect\n"
    )
    .unwrap();
    let m = generate(MarketplaceConfig {
        users: 40,
        products: 25,
        orders: 120,
        log_entries: 200,
        skew: 0.8,
        seed: 7,
    });
    type Deploy = fn(&estocada_workloads::marketplace::Marketplace, Latencies) -> Estocada;
    let deployments: [(&str, Deploy); 3] = [
        ("baseline", deploy_baseline),
        ("kv_migrated", deploy_kv_migrated),
        ("materialized_join", deploy_materialized_join),
    ];
    let queries = queries();
    for (name, deploy) in deployments {
        let clean = deploy(&m, Latencies::zero());
        for (label, q) in &queries {
            writeln!(out, "== {name} / {label} ==").unwrap();
            render_query(&mut out, &clean, q);
            writeln!(out).unwrap();
        }
        // The faulted pass: one engine, the plan installed once, the
        // queries in order (the plan's per-store operation counters run
        // across the whole list).
        let mut faulted = deploy(&m, Latencies::zero());
        let opts = faulted
            .default_query_options()
            .with_retry_policy(RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_micros(5),
                max_backoff: Duration::from_micros(20),
                jitter: true,
            });
        faulted.set_default_query_options(opts);
        faulted.set_fault_plan(Some(fault_plan()));
        for (label, q) in &queries {
            writeln!(out, "== {name} / faulted / {label} ==").unwrap();
            render_query(&mut out, &faulted, q);
            writeln!(out).unwrap();
        }
    }
    out
}

#[test]
fn store_traffic_matches_committed_snapshot() {
    let got = render();
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/store_traffic_expect.txt");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e}\nrun: UPDATE_EXPECT=1 cargo test --test store_traffic_expect",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "store traffic drifted from the committed snapshot; if the change is \
         intentional, regenerate with \
         UPDATE_EXPECT=1 cargo test --test store_traffic_expect and review the diff"
    );
}
