//! The provenance-aware chase: the engine of the PACB backchase.
//!
//! It runs on the same round driver as the restricted chase (see
//! [`mod@crate::chase`]) — same budgets, semi-naive rounds, search/apply
//! phase split and EGD merge loop — under a different firing policy:
//!
//! - every fact carries a monotone-DNF provenance formula over the
//!   provenance variables of the initial (universal-plan) facts;
//! - firing a TGD propagates the *conjunction* of the trigger facts'
//!   provenance to the conclusion facts; re-derivations extend provenance by
//!   *disjunction*;
//! - existential variables are Skolemized per (constraint, frontier binding)
//!   so that re-firing a trigger hits the same conclusion facts — this makes
//!   provenance propagation a well-defined fixpoint computation;
//! - EGDs fire only when the trigger provenance is `⊤` (derivable under
//!   every subset). This is a *conservative* treatment: it can only lose
//!   candidate rewritings, never fabricate them, and PACB verifies every
//!   candidate before reporting it (see `pacb` module docs).
//!
//! Because provenance *growth* also bumps a fact's change epoch (see
//! [`crate::instance::Instance::insert_with_prov`]), re-derivations whose
//! only effect is a wider provenance formula still re-trigger downstream
//! constraints in the driver's semi-naive rounds — the provenance fixpoint
//! is reached exactly as in the naive loop. Firing re-resolves every
//! binding under the live union-find and re-reads live provenance (the
//! Skolem lookup, the trigger-conjunction build and the EGD certainty gate
//! all consult the instance at fire time), so the run — firing order,
//! Skolem naming, provenance formulas, stats, and `Inconsistent` errors —
//! is bit-identical at any search worker count.

use crate::chase::{
    run_rounds, ChaseConfig, ChaseError, ChaseStats, CompiledTgd, Firing, FrontierCache,
};
use crate::hom::{Hom, HomArena};
use crate::instance::{Elem, Instance};
use crate::prov::Dnf;
use estocada_pivot::Constraint;

/// Budget and knobs of a provenance chase run.
#[derive(Debug, Clone, Copy)]
pub struct ProvChaseConfig {
    /// Round/fact budgets, search workers and memo — the knobs of the
    /// shared chase driver. With [`ChaseConfig::memo`] on, the Skolem
    /// table keeps a null-occurrence index so EGD merges garbage-collect
    /// entries keyed on retired nulls, and Skolem hits/misses are counted
    /// in the memo counters; resolved lookup keys never mention a retired
    /// null, so the setting cannot change which Skolem images a trigger
    /// sees.
    pub chase: ChaseConfig,
    /// Cap on the number of DNF clauses kept per fact; beyond it the
    /// smallest clauses win and the run is flagged truncated.
    pub clause_cap: usize,
}

impl Default for ProvChaseConfig {
    /// A tighter budget than the forward chase's (2,000 rounds, 200,000
    /// facts) and a 2,048-clause cap.
    fn default() -> Self {
        ProvChaseConfig {
            chase: ChaseConfig {
                max_rounds: 2_000,
                max_facts: 200_000,
                ..ChaseConfig::default()
            },
            clause_cap: 2_048,
        }
    }
}

/// Outcome counters of a provenance chase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvChaseStats {
    /// Underlying chase counters.
    pub chase: ChaseStats,
    /// Whether any provenance formula was truncated (completeness may be
    /// reduced; soundness is unaffected).
    pub truncated: bool,
}

/// Run the provenance-aware chase to (provenance) fixpoint.
///
/// Every constraint must be well formed: each variable of an EGD's
/// equality occurs in its premise (a violation panics).
pub fn prov_chase(
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ProvChaseConfig,
) -> Result<ProvChaseStats, ChaseError> {
    prov_chase_with(&mut HomArena::new(), instance, constraints, cfg)
}

/// [`prov_chase`] with caller-provided homomorphism scratch.
pub fn prov_chase_with(
    arena: &mut HomArena,
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ProvChaseConfig,
) -> Result<ProvChaseStats, ChaseError> {
    let mut policy = Provenance {
        skolems: FrontierCache::new(cfg.chase.memo),
        count: cfg.chase.memo,
        clause_cap: cfg.clause_cap,
        truncated: false,
    };
    let chase = run_rounds(arena, instance, constraints, &cfg.chase, &mut policy)?;
    Ok(ProvChaseStats {
        chase,
        truncated: policy.truncated,
    })
}

/// The provenance chase's firing policy.
struct Provenance {
    /// The Skolem memo: `(constraint index, resolved frontier images) →
    /// existential images`. An EGD merge retiring null `n` drops exactly
    /// the entries whose *key* mentions `n` — those keys are unreachable
    /// forever (lookup keys are resolved under the live union-find, which
    /// never returns a retired id), so invalidation is pure garbage
    /// collection and behaviour-neutral. Stored *values* may mention
    /// retired nulls; they are re-resolved at every lookup.
    skolems: FrontierCache<Vec<Elem>>,
    /// Count Skolem hits/misses in the memo counters.
    count: bool,
    clause_cap: usize,
    /// Whether any trigger conjunction was truncated to `clause_cap`.
    truncated: bool,
}

impl Firing for Provenance {
    fn fire_tgd(
        &mut self,
        _: &mut HomArena,
        instance: &mut Instance,
        cidx: usize,
        tgd: &CompiledTgd,
        homs: Vec<Hom>,
        stats: &mut ChaseStats,
    ) -> bool {
        let mut changed = false;
        let mut key: Vec<Elem> = Vec::with_capacity(tgd.frontier.len());
        for h in homs {
            // Trigger provenance: conjunction over premise facts.
            let mut trigger = Dnf::tru();
            for fid in &h.fact_ids {
                let (next, trunc) = trigger.and(&instance.fact(*fid).prov, self.clause_cap);
                trigger = next;
                self.truncated |= trunc;
            }
            if trigger.is_false() {
                continue;
            }
            tgd.key(instance, &h, &mut key);
            // Resolve Skolem images for the existentials.
            let exist: Vec<Elem> = match self.skolems.get(cidx, &key) {
                Some(es) => {
                    if self.count {
                        stats.memo_hits += 1;
                    }
                    es.iter().map(|e| instance.resolve(e)).collect()
                }
                None => {
                    if self.count {
                        stats.memo_misses += 1;
                    }
                    let es: Vec<Elem> = (0..tgd.existentials)
                        .map(|_| instance.fresh_null())
                        .collect();
                    self.skolems.insert(cidx, key.clone(), es.clone());
                    es
                }
            };
            for (pred, args) in tgd.conclusion(&key, &exist) {
                if instance.insert_with_prov(pred, args, trigger.clone()).1 {
                    stats.tgd_fires += 1;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Conservative: only fire with certain (⊤) trigger provenance, read
    /// at fire time. A trigger fact killed by an earlier same-round dedup
    /// still shows its pre-join (narrower) formula here — the survivor's
    /// widened formula bumps its epoch, so the skipped merge is
    /// re-searched and fires next round; the fixpoint is unchanged and
    /// stays bit-identical at any worker count.
    fn egd_fires(&self, instance: &Instance, h: &Hom) -> bool {
        h.fact_ids
            .iter()
            .all(|fid| instance.fact(*fid).prov.is_true())
    }

    fn invalidate_null(&mut self, null: u32) {
        self.skolems.invalidate_null(null);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{Atom, Symbol, Term, Tgd};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn c(v: i64) -> Elem {
        Elem::of(v)
    }

    #[test]
    fn provenance_conjoins_along_derivations() {
        // A(x) ∧ B(x) → C(x). A gets p0, B gets p1 ⇒ C has p0∧p1.
        let t = Tgd::new(
            "t",
            vec![
                Atom::new("A", vec![Term::var(0)]),
                Atom::new("B", vec![Term::var(0)]),
            ],
            vec![Atom::new("C", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("B"), vec![c(1)], Dnf::var(1));
        prov_chase(&mut i, &[t.into()], &ProvChaseConfig::default()).unwrap();
        let cid = i.facts_of(sym("C")).next().unwrap();
        let p = &i.fact(cid).prov;
        assert_eq!(p.len(), 1);
        let clause = p.clauses().next().unwrap();
        assert!(clause.contains(&0) && clause.contains(&1));
    }

    #[test]
    fn alternative_derivations_disjoin() {
        // A(x) → C(x); B(x) → C(x). C(1) from either ⇒ p0 ∨ p1.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("C", vec![Term::var(0)])],
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("B", vec![Term::var(0)])],
            vec![Atom::new("C", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("B"), vec![c(1)], Dnf::var(1));
        prov_chase(&mut i, &[t1.into(), t2.into()], &ProvChaseConfig::default()).unwrap();
        let cid = i.facts_of(sym("C")).next().unwrap();
        assert_eq!(i.fact(cid).prov.len(), 2);
    }

    #[test]
    fn skolems_are_reused_across_rounds() {
        // V(x) → ∃y R(x, y), plus A(x) → V(x). V(1) starts with p0; in a
        // later round A enlarges V's provenance to p0 ∨ p1, the backward
        // trigger re-fires — and must hit the SAME Skolem null, leaving a
        // single R fact whose provenance is p0 ∨ p1.
        let bw = Tgd::new(
            "bw",
            vec![Atom::new("V", vec![Term::var(0)])],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let a2v = Tgd::new(
            "a2v",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("V", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert_with_prov(sym("V"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(1));
        prov_chase(
            &mut i,
            &[bw.into(), a2v.into()],
            &ProvChaseConfig::default(),
        )
        .unwrap();
        assert_eq!(i.facts_of(sym("R")).count(), 1);
        let rid = i.facts_of(sym("R")).next().unwrap();
        assert_eq!(i.fact(rid).prov.len(), 2); // p0 ∨ p1
    }

    #[test]
    fn provenance_reaches_fixpoint_through_chains() {
        // A(x) → M(x); M(x) → C(x); and also B(x) → M(x).
        let ts: Vec<Constraint> = vec![
            Tgd::new(
                "a2m",
                vec![Atom::new("A", vec![Term::var(0)])],
                vec![Atom::new("M", vec![Term::var(0)])],
            )
            .into(),
            Tgd::new(
                "m2c",
                vec![Atom::new("M", vec![Term::var(0)])],
                vec![Atom::new("C", vec![Term::var(0)])],
            )
            .into(),
            Tgd::new(
                "b2m",
                vec![Atom::new("B", vec![Term::var(0)])],
                vec![Atom::new("M", vec![Term::var(0)])],
            )
            .into(),
        ];
        let mut i = Instance::new();
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("B"), vec![c(1)], Dnf::var(1));
        prov_chase(&mut i, &ts, &ProvChaseConfig::default()).unwrap();
        let cid = i.facts_of(sym("C")).next().unwrap();
        // C must record both unit derivations p0 ∨ p1.
        assert_eq!(i.fact(cid).prov.len(), 2);
    }

    #[test]
    fn certain_egd_fires_uncertain_egd_skipped() {
        use estocada_pivot::Egd;
        let e: Constraint = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        )
        .into();
        // Uncertain provenance: no merge.
        let mut i = Instance::new();
        let n1 = i.fresh_null();
        let n2 = i.fresh_null();
        i.insert_with_prov(sym("R"), vec![c(1), n1], Dnf::var(0));
        i.insert_with_prov(sym("R"), vec![c(1), n2], Dnf::var(1));
        prov_chase(
            &mut i,
            std::slice::from_ref(&e),
            &ProvChaseConfig::default(),
        )
        .unwrap();
        assert_ne!(i.resolve(&n1), i.resolve(&n2));
        // Certain provenance: merge happens.
        let mut j = Instance::new();
        let m1 = j.fresh_null();
        let m2 = j.fresh_null();
        j.insert(sym("R"), vec![c(1), m1]);
        j.insert(sym("R"), vec![c(1), m2]);
        prov_chase(&mut j, &[e], &ProvChaseConfig::default()).unwrap();
        assert_eq!(j.resolve(&m1), j.resolve(&m2));
    }
}
