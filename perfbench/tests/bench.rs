//! Tests of the benchmark itself: the answer check catches a wrong answer,
//! modeled store time agrees with what the spin-wait path charges, counts
//! repeat exactly for one seed, and full-size runs are large enough for
//! the tail percentiles they report.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use estocada::Latencies;
use estocada_pivot::Value;
use estocada_workloads::MarketplaceConfig;
use perfbench::{
    check_rows, deploy, expected_rows, marketplace, min_rounds, modeled_store_time, op_stream,
    parse_read, prepare, run, run_op, Op, Outcome, RunConfig, Workload,
};
use std::time::Duration;

/// A marketplace small enough for debug-build tests.
fn small(workload: Workload, seed: u64, ops_per_round: usize) -> RunConfig {
    RunConfig {
        workload,
        seed,
        rounds: 1,
        ops_per_round,
        data: MarketplaceConfig {
            users: 150,
            products: 60,
            orders: 600,
            log_entries: 1_500,
            ..MarketplaceConfig::default()
        },
    }
}

fn busy(deltas: &[(estocada::SystemId, estocada_simkit::MetricsSnapshot)]) -> Duration {
    deltas.iter().map(|(_, d)| d.busy).sum()
}

/// Dropping one row of a correct answer, plain or aggregated, fails the
/// check; the untouched answer passes it.
#[test]
fn a_dropped_row_is_caught() {
    for (workload, wanted) in [(Workload::Lookup, 3), (Workload::Analytics, 3)] {
        let cfg = small(workload, 5, 40);
        let mut p = prepare(&cfg, 0, Latencies::zero());
        let mut caught = 0;
        for op in &p.ops {
            let r = run_op(&mut p.est, op);
            let Ok(Outcome::Read(res)) = r.outcome else {
                panic!("{op:?} failed");
            };
            let expected = expected_rows(&p.est, &parse_read(&p.est, op).unwrap());
            check_rows(expected.clone(), &res.rows).unwrap();
            if res.rows.len() >= 2 {
                let mut short = res.rows.clone();
                short.remove(short.len() / 2);
                assert!(check_rows(expected.clone(), &short).is_err(), "{op:?}");
                // Same length, one row replaced: still caught.
                short.push(vec![Value::str("not a row")]);
                assert!(check_rows(expected, &short).is_err(), "{op:?}");
                caught += 1;
            }
        }
        assert!(
            caught >= wanted,
            "{workload:?}: only {caught} multi-row answers"
        );
    }
}

/// Replay a short `lookup` stream on a datacenter-latency engine: every
/// op's measured store busy time covers its modeled time, and the stream's
/// busy time is the modeled time plus the in-memory work the zero-latency
/// twin measures, within 25%.
#[test]
fn modeled_store_time_matches_the_spin_path() {
    let cfg = small(Workload::Lookup, 9, 120);
    let m = marketplace(&cfg);
    let ops = op_stream(&cfg, &m, 0);
    let mut spin = deploy(cfg.workload, &m, Latencies::datacenter());
    let mut twin = deploy(cfg.workload, &m, Latencies::zero());
    let (mut spin_busy, mut twin_busy, mut modeled) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for op in &ops {
        let a = run_op(&mut spin, op);
        let b = run_op(&mut twin, op);
        let price = modeled_store_time(&a.deltas);
        assert!(busy(&a.deltas) >= price, "{op:?}: busy below modeled time");
        // Same plans, same counters: the substitution prices exactly the
        // work the spin path charges.
        assert_eq!(price, modeled_store_time(&b.deltas), "{op:?}");
        spin_busy += busy(&a.deltas);
        twin_busy += busy(&b.deltas);
        modeled += price;
    }
    let expect = (modeled + twin_busy).as_secs_f64();
    let got = spin_busy.as_secs_f64();
    eprintln!(
        "spin busy {got:.4}s, modeled {:.4}s, in-memory {:.4}s",
        modeled.as_secs_f64(),
        twin_busy.as_secs_f64()
    );
    assert!(modeled > Duration::ZERO);
    assert!(
        (got - expect).abs() <= 0.25 * expect,
        "spin busy {got:.4}s vs modeled + in-memory {expect:.4}s"
    );
}

/// Two runs with one seed repeat the op stream and every count exactly; a
/// different seed changes the stream.
#[test]
fn counts_repeat_for_one_seed() {
    for (workload, n) in [
        (Workload::Lookup, 150),
        (Workload::Analytics, 25),
        (Workload::MixedRw, 40),
    ] {
        let cfg = small(workload, 21, n);
        let a = run(&cfg, true);
        let b = run(&cfg, true);
        assert!(a.wrong.is_none() && b.wrong.is_none(), "{:?}", a.wrong);
        assert_eq!(a.sum("failed"), 0.0);
        assert_eq!(a.ops, b.ops, "{workload:?} op stream");
        assert_eq!(a.counts(), b.counts(), "{workload:?} counts");
        // The counts compared above are live, not all zero.
        let live: &[&str] = match workload {
            Workload::Lookup => &["plan_hits", "relstore.scanned", "docstore.requests"],
            Workload::Analytics => &["plan_hits", "engine_rows", "parstore.requests"],
            Workload::MixedRw => &[
                "plan_misses",
                "candidates",
                "tgd_fires",
                "kvstore.requests",
                "fragment_rows",
            ],
        };
        for key in live {
            assert!(a.sum(key) > 0.0, "{workload:?}: no {key}");
        }
        let c = run(&small(workload, 22, n), false);
        assert_ne!(a.ops, c.ops, "{workload:?}: seed must change the stream");
    }
}

/// Full-size runs leave at least 10 samples beyond every tail percentile
/// they report: read p99 on every workload, write p90 on `mixed_rw`.
#[test]
fn full_size_runs_support_their_tail_percentiles() {
    for (workload, seed) in Workload::ALL
        .into_iter()
        .flat_map(|w| (1..=3).map(move |s| (w, s)))
    {
        let cfg = RunConfig::for_seconds(workload, seed, 1);
        assert_eq!(cfg.rounds, min_rounds(workload));
        let m = marketplace(&cfg);
        let ops: Vec<Op> = (0..cfg.rounds)
            .flat_map(|r| op_stream(&cfg, &m, r))
            .collect();
        let reads = ops.iter().filter(|o| o.is_read()).count();
        let writes = ops.len() - reads;
        assert!(reads >= 1_000, "{workload:?}: {reads} reads");
        if workload == Workload::MixedRw {
            assert!(writes >= 100, "{writes} writes");
        }
    }
}
