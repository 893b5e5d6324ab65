//! Committed-snapshot test of the PACB rewriting outcome: every builtin
//! scenario deployment rewrites a fixed set of W1 and analytics query
//! shapes under the planner's configuration (the deployment's rewrite
//! config with the forward chase lifted by its termination certificate),
//! and the rendered outcomes must match
//! `tests/snapshots/rewrite_expect.txt` byte for byte.
//!
//! Per query the snapshot pins:
//!
//! - the universal plan and every accepted rewriting, in order;
//! - the `complete` flag;
//! - the full [`estocada_chase::RewriteStats`]: forward and backward chase
//!   counters (rounds, TGD fires, EGD merges, memo hits/misses), the
//!   backchase `truncated` flag, and the image/candidate/accepted/rejected
//!   counts.
//!
//! The differential suites compare the engine with itself across worker
//! and memo settings; this file pins the absolute numbers, so a refactor
//! of the chase loops that shifts a single counter shows up as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_EXPECT=1 cargo test --test rewrite_expect
//! ```

use estocada::frontends::{doc_query, parse_sql};
use estocada::{Estocada, Latencies};
use estocada_chase::{pacb_rewrite, RewriteProblem};
use estocada_pivot::{Atom, Cq, Term, Var};
use estocada_workloads::analytics::{analytics_sql, AnalyticsQuery};
use estocada_workloads::marketplace::{generate, MarketplaceConfig, CATEGORIES};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, deploy_materialized_join, personalized_sql,
    pref_sql, user_orders_sql,
};
use std::fmt::Write as _;
use std::path::Path;

/// The query shapes rewritten against every deployment: `(label, core CQ)`.
fn queries(est: &Estocada) -> Vec<(String, Cq)> {
    let mut sqls: Vec<(String, String)> = vec![
        ("w1 pref".into(), pref_sql(7)),
        ("w1 orders".into(), user_orders_sql(7)),
        ("personalized".into(), personalized_sql(7, CATEGORIES[0])),
    ];
    for q in [
        AnalyticsQuery::CategoryVolume,
        AnalyticsQuery::BigSpenders { min_total: 200 },
        AnalyticsQuery::TierCategoryMatrix,
        AnalyticsQuery::CategoryEngagement {
            category: CATEGORIES[1].to_string(),
        },
        AnalyticsQuery::UserSpendByCategory { uid: 7 },
    ] {
        let label = format!("analytics {q:?}");
        sqls.push((label, analytics_sql(&q)));
    }
    let catalog = est.sql_catalog();
    let mut out: Vec<(String, Cq)> = sqls
        .into_iter()
        .map(|(label, sql)| {
            let parsed = parse_sql(&sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            (label, parsed.cq)
        })
        .collect();
    let cart = doc_query(&cart_pattern(7), &["pid", "qty"]).expect("cart pattern");
    // The cart lookup with its item node given a second, unnamed parent:
    // the document model's single-parent EGD merges the two in the forward
    // chase, so the snapshot also pins EGD counters.
    let mut reparented = cart.cq.clone();
    let item = reparented
        .body
        .iter()
        .find(|a| &*a.pred.as_str() == "Carts_Node" && a.args[1] == Term::Const("$item".into()))
        .map(|a| a.args[0].clone())
        .expect("item node");
    let parent = Term::Var(Var(reparented.var_space()));
    reparented
        .body
        .push(Atom::new("Carts_Child", vec![parent, item]));
    out.insert(1, ("w1 cart".into(), cart.cq));
    out.insert(2, ("w1 cart, re-parented item".into(), reparented));
    out
}

fn render() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# PACB rewriting expectations. Regenerate with:\n\
         #   UPDATE_EXPECT=1 cargo test --test rewrite_expect\n"
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
    let deployments: Vec<(&str, Estocada)> = vec![
        ("baseline", deploy_baseline(&m, Latencies::zero())),
        ("kv_migrated", deploy_kv_migrated(&m, Latencies::zero())),
        (
            "materialized_join",
            deploy_materialized_join(&m, Latencies::zero()),
        ),
    ];
    for (name, est) in &deployments {
        // The planner's configuration on a plan-cache miss.
        let mut cfg = est.rewrite_config();
        cfg.chase = cfg.chase.with_certificate(&est.termination_certificate());
        for (label, cq) in queries(est) {
            writeln!(out, "== {name} / {label} ==").unwrap();
            writeln!(out, "query: {cq}").unwrap();
            let problem = RewriteProblem {
                query: cq,
                views: est.catalog().view_defs(),
                source_constraints: est.schema().constraints.clone(),
                target_constraints: Vec::new(),
                access: est.catalog().access_map(),
            };
            match pacb_rewrite(&problem, &cfg) {
                Ok(o) => {
                    writeln!(out, "universal plan: {}", o.universal_plan).unwrap();
                    writeln!(out, "complete: {}", o.complete).unwrap();
                    for rw in &o.rewritings {
                        writeln!(out, "rewriting: {rw}").unwrap();
                    }
                    writeln!(out, "stats: {:?}", o.stats).unwrap();
                }
                Err(e) => writeln!(out, "error: {e}").unwrap(),
            }
            writeln!(out).unwrap();
        }
    }
    out
}

#[test]
fn rewrite_outcomes_match_committed_snapshot() {
    let got = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/rewrite_expect.txt");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e}\nrun: UPDATE_EXPECT=1 cargo test --test rewrite_expect",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "rewriting outcome drifted from the committed snapshot; if the \
         change is intentional, regenerate with \
         UPDATE_EXPECT=1 cargo test --test rewrite_expect and review the diff"
    );
}
