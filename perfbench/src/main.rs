//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <lookup|analytics|mixed_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs every round once
//! untraced and once traced and reports the per-layer metrics plus
//! `trace.overhead_frac`. A wrong answer prints `"correct": false` and
//! exits with status 1.
//!
//! Each round runs in a fresh child process (this binary with `--round
//! <i>`), which prints its [`RunStats`] as text. A round's timings then do
//! not depend on the heap an earlier round left behind — scan-heavy
//! `analytics` rounds ran up to 30% slower in a reused process — and each
//! round's peak RSS is its own.

use perfbench::{
    median, peak_rss_mb, percentile, run_round, RunConfig, RunStats, Workload, STORES,
};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Latency reported for a percentile that lands on a failed op: a failed
/// op misses every latency limit, and JSON has no infinity.
const FAILED_MS: f64 = 1e12;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: run this one round and print its stats as text.
    round: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut round = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                }
            }
            "--round" => round = Some(val.parse().map_err(|_| format!("bad round {val}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        round,
    })
}

/// `(name, value, unit)` triples.
type Metrics = Vec<(String, f64, &'static str)>;

fn finite_ms(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        FAILED_MS
    }
}

/// Throughput and latency pool every round's ops; set-up time and peak
/// memory are medians over rounds (one value each per round).
fn end_to_end(s: &RunStats) -> Metrics {
    let attempted = s.sum("attempted");
    let completed = attempted - s.sum("failed");
    vec![
        ("setup_s".into(), median(s.samples("setup_s")), "s"),
        ("ops_per_s".into(), completed / s.sum("latency_s"), "1/s"),
        (
            "read_p50_ms".into(),
            finite_ms(percentile(s.samples("read_ms"), 50.0)),
            "ms",
        ),
        (
            "read_p99_ms".into(),
            finite_ms(percentile(s.samples("read_ms"), 99.0)),
            "ms",
        ),
        ("ok_frac".into(), completed / attempted, "frac"),
        (
            "peak_rss_mb".into(),
            median(s.samples("peak_rss_mb")),
            "MiB",
        ),
    ]
}

fn per_layer(s: &RunStats, untraced: &RunStats) -> Metrics {
    // `key` per unit of the count `base` (0 when nothing was counted).
    let per = |key: &str, base: &str, scale: f64| s.sum(key) * scale / s.sum(base).max(1.0);
    let mean = |key: &str| {
        let v = s.samples(key);
        v.iter().fold(0.0, |a, b| a + b) / v.len().max(1) as f64
    };
    let lookups = s.sum("plan_hits") + s.sum("plan_misses");
    let mut m: Metrics = vec![
        (
            "plancache.hit_ratio".into(),
            s.sum("plan_hits") / lookups.max(1.0),
            "frac",
        ),
        ("plancache.misses".into(), s.sum("plan_misses"), "count"),
        (
            "plancache.hit_read_p99_ms".into(),
            finite_ms(percentile(s.samples("hit_read_ms"), 99.0)),
            "ms",
        ),
        (
            "plancache.miss_read_p50_ms".into(),
            finite_ms(percentile(s.samples("miss_read_ms"), 50.0)),
            "ms",
        ),
        (
            "chase.rewrite_frac".into(),
            s.sum("rewrite_s") / s.sum("read_wall_s").max(f64::MIN_POSITIVE),
            "frac",
        ),
        (
            "analyze.certificate_us".into(),
            per("certificate_s", "plan_misses", 1e6),
            "us",
        ),
        (
            "chase.rewrite_ms_per_miss".into(),
            per("rewrite_miss_s", "plan_misses", 1e3),
            "ms",
        ),
        (
            "chase.pacb_ms_per_miss".into(),
            per("pacb_s", "plan_misses", 1e3),
            "ms",
        ),
        (
            "chase.candidates_per_miss".into(),
            per("candidates", "plan_misses", 1.0),
            "count",
        ),
        (
            "chase.accept_ratio".into(),
            per("accepted", "candidates", 1.0),
            "frac",
        ),
        (
            "chase.tgd_fires_per_miss".into(),
            per("tgd_fires", "plan_misses", 1.0),
            "count",
        ),
        (
            "frontends.parse_us".into(),
            per("parse_s", "reads", 1e6),
            "us",
        ),
        ("analyze.lint_us".into(), per("lint_s", "reads", 1e6), "us"),
        (
            "translate.us_per_read".into(),
            per("translate_s", "reads", 1e6),
            "us",
        ),
        (
            "translate.alternatives_per_read".into(),
            per("alternatives", "reads", 1.0),
            "count",
        ),
        (
            "evaluator.unattributed_us_per_read".into(),
            per("unattributed_s", "reads", 1e6),
            "us",
        ),
        (
            "engine.runtime_us_per_read".into(),
            per("runtime_s", "reads", 1e6),
            "us",
        ),
        (
            "engine.rows_per_read".into(),
            per("engine_rows", "reads", 1.0),
            "count",
        ),
        (
            "engine.bind_probes_per_read".into(),
            per("bind_probes", "reads", 1.0),
            "count",
        ),
    ];
    for (_, name) in STORES {
        let key = |k: &str| format!("{name}.{k}");
        m.push((
            key("requests_per_op"),
            per(&key("requests"), "attempted", 1.0),
            "count",
        ));
        m.push((
            key("tuples_out_per_op"),
            per(&key("tuples_out"), "attempted", 1.0),
            "count",
        ));
        m.push((
            key("scanned_per_op"),
            per(&key("scanned"), "attempted", 1.0),
            "count",
        ));
        m.push((
            key("modeled_ms_per_op"),
            per(&key("modeled_s"), "attempted", 1e3),
            "ms",
        ));
        m.push((
            key("busy_us_per_op"),
            per(&key("busy_s"), "attempted", 1e6),
            "us",
        ));
    }
    m.extend([
        (
            "dml.maintenance_ms_per_write".into(),
            per("maintenance_s", "writes", 1e3),
            "ms",
        ),
        (
            "dml.fragment_rows_per_write".into(),
            per("fragment_rows", "writes", 1.0),
            "count",
        ),
        ("dml.insert_order_ms".into(), mean("insert_order_ms"), "ms"),
        ("dml.delete_order_ms".into(), mean("delete_order_ms"), "ms"),
        ("dml.upsert_pref_ms".into(), mean("upsert_pref_ms"), "ms"),
        (
            "dml.write_p50_ms".into(),
            finite_ms(percentile(s.samples("write_ms"), 50.0)),
            "ms",
        ),
        (
            "dml.write_p90_ms".into(),
            finite_ms(percentile(s.samples("write_ms"), 90.0)),
            "ms",
        ),
        (
            "materialize.deploy_s".into(),
            median(s.samples("deploy_s")),
            "s",
        ),
        (
            "trace.overhead_frac".into(),
            s.sum("latency_s") / untraced.sum("latency_s") - 1.0,
            "frac",
        ),
    ]);
    m
}

fn json(s: &RunStats, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        s.wrong.is_none(),
        s.sum("attempted"),
        s.sum("failed")
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Run one round in a fresh child process and read back its stats.
fn spawn_round(args: &Args, round: usize, trace: bool) -> Result<RunStats, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--round", &round.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning round {round}: {e}"))?;
    let stats = RunStats::from_text(&String::from_utf8_lossy(&out.stdout))?;
    if !out.status.success() && stats.wrong.is_none() {
        return Err(format!("round {round} exited with {}", out.status));
    }
    Ok(stats)
}

/// All rounds of a run, each in its own process, untraced; with `trace`,
/// each round also runs traced right after its untraced twin, so the two
/// sides of `trace.overhead_frac` see the same host conditions. Stops at a
/// wrong answer.
fn run_rounds(args: &Args, cfg: &RunConfig) -> Result<(RunStats, RunStats), String> {
    let (mut untraced, mut traced) = (RunStats::default(), RunStats::default());
    for round in 0..cfg.rounds {
        untraced.merge(spawn_round(args, round, false)?);
        if untraced.wrong.is_some() {
            break;
        }
        if args.trace {
            traced.merge(spawn_round(args, round, true)?);
            if traced.wrong.is_some() {
                break;
            }
        }
    }
    Ok((untraced, traced))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig::for_seconds(args.workload, args.seed, args.seconds);
    if let Some(round) = args.round {
        let mut stats = run_round(&cfg, round, args.trace);
        stats.push("peak_rss_mb", peak_rss_mb());
        print!("{}", stats.to_text());
        return if stats.wrong.is_some() {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }
    eprintln!(
        "perfbench: workload {} seed {} rounds {} x {} reads, trace {}",
        args.workload.name(),
        args.seed,
        cfg.rounds,
        cfg.ops_per_round,
        args.trace
    );
    let (untraced, traced) = match run_rounds(&args, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (stats, metrics) = if !args.trace {
        let m = end_to_end(&untraced);
        (untraced, m)
    } else if untraced.wrong.is_some() {
        (untraced, Vec::new())
    } else {
        let m = per_layer(&traced, &untraced);
        (traced, m)
    };
    if let Some(w) = &stats.wrong {
        eprintln!("perfbench: {w}");
    }
    eprintln!(
        "perfbench: {} ops ({} reads, {} writes, {} failed), wall {:.3}s, latency {:.3}s",
        stats.sum("attempted"),
        stats.sum("reads"),
        stats.sum("writes"),
        stats.sum("failed"),
        stats.sum("wall_s"),
        stats.sum("latency_s")
    );
    println!("{}", json(&stats, &metrics));
    if stats.wrong.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
