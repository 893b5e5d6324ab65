//! The chase round driver and the standard (restricted) chase over
//! instances with labelled nulls.
//!
//! # One driver, two firing policies
//!
//! Both chases of the crate — the restricted chase ([`chase`]) and the
//! provenance-aware backchase ([`crate::pchase::prov_chase`]) — run the
//! same round loop. It owns the round/fact budgets, the semi-naive epoch
//! bookkeeping, the trigger-search phase, the serial apply in constraint
//! order, the EGD merges and fixpoint detection. What differs is how a
//! trigger *fires*, and that is a statically dispatched firing policy:
//!
//! - **restricted** (this module): a TGD trigger fires only when its
//!   conclusion has no image under the trigger's frontier binding
//!   (the applicability probe, memoized — see below), inventing fresh
//!   nulls for the existentials; every EGD trigger merges;
//! - **provenance** ([`crate::pchase`]): a TGD trigger always propagates
//!   the conjunction of its facts' provenance, existentials are Skolemized
//!   per frontier image, and an EGD merges only on certain (`⊤`)
//!   provenance.
//!
//! Each constraint is compiled once per run: conclusion constants are
//! interned and every conclusion slot is resolved to a constant, a
//! frontier position or an existential position.
//!
//! Both chases require well-formed constraints: every variable of an EGD's
//! equality occurs in its premise. The DDL layer rejects EGDs that break
//! this before they reach a chase.
//!
//! # Semi-naive delta evaluation
//!
//! The classic chase loop re-enumerates *every* homomorphism of every
//! premise each round; at fixpoint the final round does a full search only
//! to discover nothing changed. This implementation is **semi-naive**: the
//! instance stamps every fact with the epoch at which it last changed
//! (insertion, EGD argument rewrite, provenance growth — see
//! [`crate::instance::Instance::delta_index`]), the loop advances the epoch
//! once per round, and from the second round on each constraint only
//! searches for triggers that involve at least one fact from the previous
//! round's delta ([`crate::hom::find_homs_delta`]).
//!
//! # The search/apply phase split
//!
//! Each round is an explicit two-phase loop:
//!
//! 1. **Search phase (read-only, parallelizable).** Every constraint's
//!    trigger search runs against the *same frozen* instance — nothing
//!    mutates between searches — so the per-constraint
//!    [`find_trigger_homs_in`] calls are independent pure functions of
//!    `(instance, delta, premise)` and fan out over the shared
//!    [`estocada_parexec`] executor when [`ChaseConfig::search_workers`]
//!    `> 1`. Each worker holds a private [`HomArena`]; results come back
//!    in constraint order, so the apply phase sees the identical trigger
//!    lists at any worker count and the whole run — firing order, invented
//!    nulls, stats, and `Inconsistent` errors — is bit-identical to the
//!    one-worker run.
//! 2. **Apply phase (serial).** Triggers fire in constraint order, then
//!    trigger order. Every trigger is re-resolved through the union-find
//!    at fire time (earlier firings in the same round may have merged
//!    elements), and the firing policy reads the *live* instance — the
//!    restricted policy re-probes applicability, the provenance policy
//!    re-reads provenance — so a trigger another constraint satisfied
//!    moments earlier still does not fire.
//!
//! Deferred same-round discoveries (a trigger whose newest fact was created
//! by an *earlier* constraint in the same round) are picked up in the next
//! round — trigger searches see the round-start snapshot, and facts created
//! during the apply phase carry the current round's epoch, putting them in
//! the next round's delta — so the reached fixpoint is identical to the
//! interleaved loop's; only the number of rounds may differ, never the
//! result instance.
//!
//! # The applicability memo
//!
//! The restricted chase probes, per TGD trigger, whether the conclusion
//! already has an image under the trigger's frontier binding
//! ([`find_one_hom_in`]). Distinct triggers frequently share a frontier
//! image (transitive closure derives the same `(x, z)` pair through every
//! midpoint `y`), and delta rounds re-discover triggers whose probe already
//! succeeded. With [`ChaseConfig::memo`] on (the default), a per-run memo
//! records `(constraint index, resolved frontier images)` pairs proven
//! satisfied — by a successful probe or by the firing itself — and skips
//! the probe for every later trigger with the same key.
//!
//! **Invalidation rule:** satisfaction is monotone as the instance grows
//! (facts only die by deduplication against an identical survivor, and
//! argument rewriting maps any witness image to its resolved form), so an
//! entry can only be disturbed by an EGD merge *retiring one of its keyed
//! elements*. The driver therefore hands every retired null to the firing
//! policy ([`crate::instance::Instance::merge_retired`]), which drops
//! exactly the entries whose key mentions it — the same occurrence-list
//! pattern the instance uses for incremental normalization. Retired ids
//! are never re-issued, so stale keys cannot be misread; memoization
//! changes which probes run, never what fires ([`ChaseStats::core`] is
//! identical with the memo on or off).

use crate::hom::{
    find_homs_delta_anchor_in, find_one_hom_in, find_trigger_homs_in, Hom, HomArena, HomConfig,
};
use crate::instance::{DeltaIndex, Elem, Inconsistent, Instance};
use estocada_parexec::Pool;
use estocada_pivot::{Atom, Constraint, Egd, Symbol, Term, Tgd, Var};
use std::collections::HashMap;
use std::fmt;

/// Resource budget and knobs for a chase run.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Maximum number of full rounds over the constraint set.
    pub max_rounds: usize,
    /// Maximum number of facts the instance may grow to.
    pub max_facts: usize,
    /// Homomorphism search configuration.
    pub hom: HomConfig,
    /// Worker threads for the read-only trigger-search phase (`<= 1` =
    /// search serially on the caller's arena). Any value produces a
    /// bit-identical chase — see the module docs' phase-split contract.
    pub search_workers: usize,
    /// Minimum alive-fact count before the search phase actually fans out
    /// (defaults to [`SEARCH_PARALLEL_MIN_FACTS`]): below it a round's
    /// whole search costs less than spawning and joining the scoped pool,
    /// so small chases — the mediator's per-query universal-plan and
    /// candidate-verification chases are typically tens of facts — search
    /// inline even at `search_workers > 1`. Set to 0 to force fan-out
    /// (the differential suites do, so the parallel branch is genuinely
    /// exercised). Identical outcome either way; only latency changes.
    pub search_min_facts: usize,
    /// Memoize applicability probes across triggers and rounds (see the
    /// module docs); in the provenance chase, index the Skolem table for
    /// invalidation and count its hits/misses. Elides redundant work only;
    /// never changes the result instance or [`ChaseStats::core`].
    pub memo: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 10_000,
            max_facts: 500_000,
            hom: HomConfig::default(),
            search_workers: 1,
            search_min_facts: SEARCH_PARALLEL_MIN_FACTS,
            memo: true,
        }
    }
}

/// Why a chase run failed.
#[derive(Debug, Clone)]
pub enum ChaseError {
    /// Budget exhausted — the constraint set may be non-terminating (run
    /// [`crate::wa::certify`] for a [`crate::wa::TerminationCertificate`]
    /// with a concrete witness cycle).
    Budget {
        /// Rounds executed when the budget ran out.
        rounds: usize,
        /// Facts in the instance when the budget ran out.
        facts: usize,
    },
    /// An EGD forced two distinct constants equal.
    Inconsistent(Inconsistent),
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::Budget { rounds, facts } => write!(
                f,
                "chase budget exhausted after {rounds} rounds / {facts} facts \
                 (constraint set may be non-terminating: run wa::certify for \
                 a termination certificate with a witness cycle)"
            ),
            ChaseError::Inconsistent(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for ChaseError {}

/// Counters reported by a successful chase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Rounds until fixpoint.
    pub rounds: usize,
    /// TGD firings that added facts: fired triggers in the restricted
    /// chase, changed conclusion facts in the provenance chase.
    pub tgd_fires: usize,
    /// EGD firings that merged elements.
    pub egd_merges: usize,
    /// Applicability probes (Skolem lookups, in the provenance chase)
    /// skipped because the memo had already answered them. 0 when the
    /// memo is off.
    pub memo_hits: usize,
    /// Applicability probes actually run (Skolem nulls invented) under the
    /// memo. 0 when the memo is off (probes still run; they just aren't
    /// counted against a memo).
    pub memo_misses: usize,
}

impl ChaseStats {
    /// The memo-independent counters `(rounds, tgd_fires, egd_merges)`.
    ///
    /// Identical for memo-on and memo-off runs of the same chase — the
    /// memo elides redundant applicability probes, never changes what
    /// fires — while the memo hit/miss counters themselves are diagnostic
    /// and differ by construction. Differential suites compare this.
    pub fn core(&self) -> (usize, usize, usize) {
        (self.rounds, self.tgd_fires, self.egd_merges)
    }
}

/// Run the restricted chase of `constraints` over `instance` to fixpoint.
///
/// TGD triggers fire only when the conclusion has no extension in the
/// current instance (restricted-chase applicability); EGDs merge elements
/// through the instance union-find. Deterministic: constraints fire in the
/// given order, round-robin, until a full round changes nothing. The first
/// round searches all triggers; later rounds search semi-naively (see
/// module docs).
///
/// Every constraint must be well formed: each variable of an EGD's
/// equality occurs in its premise (a violation panics).
pub fn chase(
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<ChaseStats, ChaseError> {
    chase_with(&mut HomArena::new(), instance, constraints, cfg)
}

/// [`chase`] with caller-provided homomorphism scratch: every trigger and
/// applicability search of the run reuses `arena`'s buffers. Callers that
/// chase many instances (backchase verification workers) keep one arena per
/// thread.
pub fn chase_with(
    arena: &mut HomArena,
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<ChaseStats, ChaseError> {
    let mut policy = Restricted {
        memo: cfg.memo.then(|| FrontierCache::new(true)),
    };
    run_rounds(arena, instance, constraints, cfg, &mut policy)
}

/// How triggers fire: the part of a chase run the shared round driver
/// ([`run_rounds`]) leaves to the chase variant.
pub(crate) trait Firing {
    /// Fire the pre-searched triggers of TGD `cidx` against the live
    /// instance; returns whether the instance changed.
    fn fire_tgd(
        &mut self,
        arena: &mut HomArena,
        instance: &mut Instance,
        cidx: usize,
        tgd: &CompiledTgd,
        homs: Vec<Hom>,
        stats: &mut ChaseStats,
    ) -> bool;

    /// Whether an EGD trigger fires, read against the live instance.
    fn egd_fires(&self, instance: &Instance, h: &Hom) -> bool;

    /// An EGD merge retired `null`: drop every cached entry keyed on it.
    fn invalidate_null(&mut self, null: u32);
}

/// The chase round driver shared by both chase variants: budget checks,
/// epoch advance and delta index, the read-only trigger search, the serial
/// apply in constraint order, the EGD merges, and fixpoint detection.
pub(crate) fn run_rounds<F: Firing>(
    arena: &mut HomArena,
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
    firing: &mut F,
) -> Result<ChaseStats, ChaseError> {
    let compiled: Vec<Compiled> = constraints.iter().map(Compiled::new).collect();
    let mut stats = ChaseStats::default();
    // One search pool for the whole run: spawned lazily on the first round
    // that actually fans out, then reused by every later round (a chase is
    // a loop of searches — paying a thread spawn/join per round is pure
    // overhead, most visible on few-core hosts).
    let mut pool = LazySearchPool::new(cfg.search_workers, search_item_bound(constraints));
    // Epoch threshold separating "old" facts from the previous round's
    // delta; `None` = first round, search everything.
    let mut threshold: Option<u64> = None;
    loop {
        if stats.rounds >= cfg.max_rounds {
            return Err(ChaseError::Budget {
                rounds: stats.rounds,
                facts: instance.len(),
            });
        }
        stats.rounds += 1;
        let round_epoch = instance.advance_epoch();
        let delta = threshold.map(|t| instance.delta_index(t));
        // Phase 1: read-only trigger search against the frozen round-start
        // instance, fanned out over the search workers.
        let triggers = search_triggers(
            arena,
            instance,
            constraints,
            cfg.hom,
            &mut pool,
            cfg.search_min_facts,
            delta.as_ref(),
        );
        // Phase 2: serial apply in constraint order.
        let mut changed = false;
        for (cidx, (c, homs)) in compiled.iter().zip(triggers).enumerate() {
            changed |= match c {
                Compiled::Tgd(tgd) => firing.fire_tgd(arena, instance, cidx, tgd, homs, &mut stats),
                Compiled::Egd(egd, equal) => {
                    apply_egd(instance, egd, equal, &homs, firing, &mut stats)?
                }
            };
            if instance.len() > cfg.max_facts {
                return Err(ChaseError::Budget {
                    rounds: stats.rounds,
                    facts: instance.len(),
                });
            }
        }
        if !changed {
            return Ok(stats);
        }
        threshold = Some(round_epoch);
    }
}

/// Default of [`ChaseConfig::search_min_facts`] — mirrors pacb's
/// `PARALLEL_CANDIDATE_THRESHOLD` rationale at the chase-round level.
pub const SEARCH_PARALLEL_MIN_FACTS: usize = 512;

/// The premise whose homomorphisms trigger a constraint.
fn constraint_premise(c: &Constraint) -> &[Atom] {
    match c {
        Constraint::Tgd(t) => &t.premise,
        Constraint::Egd(e) => &e.premise,
    }
}

/// The per-chase trigger-search pool, spawned lazily: a chase whose every
/// round searches inline (serial config, single constraint, or an instance
/// that never reaches `search_min_facts`) creates no threads at all, while
/// the first round that fans out spawns the pool once and every later
/// round reuses it.
struct LazySearchPool {
    workers: usize,
    pool: Option<Pool>,
}

impl LazySearchPool {
    /// A pool of up to `workers` threads, capped by `max_items` — the most
    /// work items one search batch can hold. Delta rounds fan out one item
    /// per (constraint, premise anchor), so the bound is the total anchor
    /// count, not the constraint count.
    fn new(workers: usize, max_items: usize) -> LazySearchPool {
        LazySearchPool {
            workers: workers.max(1).min(max_items.max(1)),
            pool: None,
        }
    }

    fn get(&mut self) -> &Pool {
        let workers = self.workers;
        self.pool.get_or_insert_with(|| Pool::new(workers))
    }
}

/// The most work items one trigger-search batch over `constraints` can
/// hold: a delta round fans out one item per (constraint, premise anchor).
/// Sizes the run's [`LazySearchPool`].
fn search_item_bound(constraints: &[Constraint]) -> usize {
    constraints
        .iter()
        .map(|c| constraint_premise(c).len().max(1))
        .sum()
}

/// The read-only search phase: enumerate every constraint's triggers
/// against the frozen instance, in constraint order.
///
/// With `workers <= 1`, a single constraint, or an instance below
/// `min_facts` (see [`ChaseConfig::search_min_facts`]) the searches run
/// inline on the caller's warmed arena — the serial fast path pays
/// nothing for the phase machinery. Otherwise the per-constraint searches
/// fan out over the run's [`LazySearchPool`] (an [`estocada_parexec::Pool`]
/// spawned once per chase and reused every round), each worker holding a
/// private [`HomArena`]; the executor reassembles results in item
/// (= constraint) order, so the returned trigger lists are bit-identical
/// at any worker count — each search is a pure function of
/// `(instance, delta, premise)` and nothing mutates the instance while
/// the phase runs.
fn search_triggers(
    arena: &mut HomArena,
    instance: &Instance,
    constraints: &[Constraint],
    hom: HomConfig,
    pool: &mut LazySearchPool,
    min_facts: usize,
    delta: Option<&DeltaIndex>,
) -> Vec<Vec<Hom>> {
    if pool.workers <= 1 || constraints.len() <= 1 || instance.len() < min_facts {
        return constraints
            .iter()
            .map(|c| find_trigger_homs_in(arena, instance, constraint_premise(c), hom, delta))
            .collect();
    }
    let Some(d) = delta else {
        // First round: one full search per constraint.
        return pool
            .get()
            .map_init(constraints, HomArena::new, |worker_arena, _, c| {
                find_trigger_homs_in(worker_arena, instance, constraint_premise(c), hom, None)
            });
    };
    // Delta rounds fan out one work item per (constraint, premise anchor)
    // with delta facts, not one per constraint: each anchored pass of the
    // semi-naive search is an independent pure function, so a skewed round
    // (one constraint whose every trigger sits behind a single hot
    // predicate) no longer serializes behind one worker. Anchors with no
    // delta facts are skipped up front — same as the serial loop.
    let mut items: Vec<(usize, usize)> = Vec::new();
    for (cidx, c) in constraints.iter().enumerate() {
        let premise = constraint_premise(c);
        for (anchor, atom) in premise.iter().enumerate() {
            if !d.facts_of(atom.pred).is_empty() {
                items.push((cidx, anchor));
            }
        }
    }
    let fixed = HashMap::new();
    let per_item =
        pool.get()
            .map_init(&items, HomArena::new, |worker_arena, _, &(cidx, anchor)| {
                find_homs_delta_anchor_in(
                    worker_arena,
                    instance,
                    constraint_premise(&constraints[cidx]),
                    &fixed,
                    hom,
                    d,
                    anchor,
                )
            });
    // Reassemble per constraint in anchor order, truncated to the hom
    // limit — the same homs, in the same order, as the serial
    // early-stopping anchor loop.
    let mut out: Vec<Vec<Hom>> = vec![Vec::new(); constraints.len()];
    for (&(cidx, _), homs) in items.iter().zip(per_item) {
        let dst = &mut out[cidx];
        for h in homs {
            if dst.len() >= hom.limit {
                break;
            }
            dst.push(h);
        }
    }
    out
}

/// A per-run cache keyed by `(constraint index, resolved images of the
/// conclusion-relevant frontier variables)`: the restricted chase's
/// applicability memo (value `()`) and the provenance chase's Skolem table
/// (value: the existential images).
///
/// With `track` on, a null-occurrence index mirrors the instance's `null →
/// fact ids` index, so a merge retiring null `n` drops exactly the entries
/// whose key mentions `n` — invalidation is exact, not a flush. Lookups
/// borrow the candidate key as a slice (no allocation on a hit).
pub(crate) struct FrontierCache<V> {
    entries: HashMap<usize, HashMap<Vec<Elem>, V>>,
    /// `None` when not tracking.
    occ: Option<NullIndex>,
}

/// null id → `(constraint index, key)` pairs whose key mentions it.
type NullIndex = HashMap<u32, Vec<(usize, Vec<Elem>)>>;

impl<V> FrontierCache<V> {
    pub(crate) fn new(track: bool) -> FrontierCache<V> {
        FrontierCache {
            entries: HashMap::new(),
            occ: track.then(HashMap::new),
        }
    }

    pub(crate) fn get(&self, cidx: usize, key: &[Elem]) -> Option<&V> {
        self.entries.get(&cidx).and_then(|m| m.get(key))
    }

    pub(crate) fn insert(&mut self, cidx: usize, key: Vec<Elem>, value: V) {
        if let Some(occ) = &mut self.occ {
            for e in &key {
                if let Elem::Null(n) = e {
                    occ.entry(*n).or_default().push((cidx, key.clone()));
                }
            }
        }
        self.entries.entry(cidx).or_default().insert(key, value);
    }

    /// Drop every entry whose key mentions the retired null (no-op when
    /// none does, or when not tracking).
    pub(crate) fn invalidate_null(&mut self, retired: u32) {
        let Some(keys) = self.occ.as_mut().and_then(|occ| occ.remove(&retired)) else {
            return;
        };
        for (cidx, key) in keys {
            if let Some(m) = self.entries.get_mut(&cidx) {
                m.remove(key.as_slice());
            }
        }
    }
}

/// One conclusion argument, resolved at compile time.
#[derive(Clone, Copy)]
enum Slot {
    /// A pre-interned constant.
    Const(Elem),
    /// The i-th conclusion-frontier variable ([`CompiledTgd::key`]).
    Key(usize),
    /// The i-th existential variable.
    Exist(usize),
}

/// A TGD compiled once per run for the apply phase.
pub(crate) struct CompiledTgd<'a> {
    /// The source TGD (its conclusion atoms drive the applicability probe).
    tgd: &'a Tgd,
    /// Frontier variables that occur in the conclusion, sorted: the
    /// applicability probe depends on exactly these bindings, and both
    /// caches key on their images.
    pub(crate) frontier: Vec<Var>,
    /// Number of existential variables (conclusion-only, sorted by id).
    pub(crate) existentials: usize,
    conclusion: Vec<(Symbol, Vec<Slot>)>,
}

impl<'a> CompiledTgd<'a> {
    fn new(tgd: &'a Tgd) -> CompiledTgd<'a> {
        let premise_vars = tgd.frontier();
        let mut frontier: Vec<Var> = tgd
            .conclusion
            .iter()
            .flat_map(|a| a.vars())
            .filter(|v| premise_vars.contains(v))
            .collect();
        frontier.sort();
        frontier.dedup();
        let existentials: Vec<Var> = tgd.existentials().into_iter().collect();
        let slot = |t: &Term| match t {
            Term::Const(v) => Slot::Const(Elem::constant(v)),
            Term::Var(v) => match frontier.binary_search(v) {
                Ok(i) => Slot::Key(i),
                Err(_) => Slot::Exist(existentials.binary_search(v).expect("existential")),
            },
        };
        let conclusion = tgd
            .conclusion
            .iter()
            .map(|a| (a.pred, a.args.iter().map(slot).collect()))
            .collect();
        CompiledTgd {
            tgd,
            frontier,
            existentials: existentials.len(),
            conclusion,
        }
    }

    /// Resolve the trigger's frontier images under the live union-find into
    /// `key`.
    pub(crate) fn key(&self, instance: &Instance, h: &Hom, key: &mut Vec<Elem>) {
        key.clear();
        key.extend(self.frontier.iter().map(|v| instance.resolve(&h.map[v])));
    }

    /// The conclusion facts under frontier images `key` and existential
    /// images `exist`, in conclusion order.
    pub(crate) fn conclusion<'b>(
        &'b self,
        key: &'b [Elem],
        exist: &'b [Elem],
    ) -> impl Iterator<Item = (Symbol, Vec<Elem>)> + 'b {
        self.conclusion.iter().map(move |(pred, slots)| {
            let args = slots
                .iter()
                .map(|s| match *s {
                    Slot::Const(e) => e,
                    Slot::Key(i) => key[i],
                    Slot::Exist(i) => exist[i],
                })
                .collect();
            (*pred, args)
        })
    }
}

/// A constraint compiled once per run.
enum Compiled<'a> {
    Tgd(CompiledTgd<'a>),
    /// The EGD (for error reports) and its equality's two sides.
    Egd(&'a Egd, [EqTerm; 2]),
}

/// One side of an EGD equality: a pre-interned constant or a premise
/// variable.
enum EqTerm {
    Const(Elem),
    Var(Var),
}

impl<'a> Compiled<'a> {
    fn new(c: &'a Constraint) -> Compiled<'a> {
        match c {
            Constraint::Tgd(t) => Compiled::Tgd(CompiledTgd::new(t)),
            Constraint::Egd(e) => {
                let side = |t: &Term| match t {
                    Term::Const(v) => EqTerm::Const(Elem::constant(v)),
                    Term::Var(v) => EqTerm::Var(*v),
                };
                Compiled::Egd(e, [side(&e.equal.0), side(&e.equal.1)])
            }
        }
    }
}

/// The restricted chase's firing policy: applicability probe (memoized),
/// fresh nulls, every EGD trigger merges.
struct Restricted {
    memo: Option<FrontierCache<()>>,
}

impl Firing for Restricted {
    fn fire_tgd(
        &mut self,
        arena: &mut HomArena,
        instance: &mut Instance,
        cidx: usize,
        tgd: &CompiledTgd,
        homs: Vec<Hom>,
        stats: &mut ChaseStats,
    ) -> bool {
        let mut changed = false;
        let mut key: Vec<Elem> = Vec::with_capacity(tgd.frontier.len());
        for h in homs {
            // Re-resolve the trigger under the live union-find (earlier
            // firings this round may have merged elements). Only the
            // conclusion-relevant bindings matter from here on.
            tgd.key(instance, &h, &mut key);
            if let Some(m) = &self.memo {
                // A hit skips the probe — the whole remaining cost.
                if m.get(cidx, &key).is_some() {
                    stats.memo_hits += 1;
                    continue;
                }
                stats.memo_misses += 1;
            }
            let fixed: HashMap<Var, Elem> = tgd
                .frontier
                .iter()
                .copied()
                .zip(key.iter().copied())
                .collect();
            let satisfied = find_one_hom_in(arena, instance, &tgd.tgd.conclusion, &fixed).is_some();
            if !satisfied {
                // Fire: fresh nulls for existential variables.
                let exist: Vec<Elem> = (0..tgd.existentials)
                    .map(|_| instance.fresh_null())
                    .collect();
                for (pred, args) in tgd.conclusion(&key, &exist) {
                    changed |= instance.insert(pred, args).1;
                }
                stats.tgd_fires += 1;
            }
            // A successful probe or the firing itself satisfies the
            // conclusion under this frontier image: memoize it so later
            // triggers sharing the key skip their probe entirely.
            if let Some(m) = &mut self.memo {
                m.insert(cidx, key.clone(), ());
            }
        }
        changed
    }

    fn egd_fires(&self, _: &Instance, _: &Hom) -> bool {
        true
    }

    fn invalidate_null(&mut self, null: u32) {
        if let Some(m) = &mut self.memo {
            m.invalidate_null(null);
        }
    }
}

/// Fire the pre-searched triggers of one EGD: resolve each gated trigger's
/// equality under the live union-find, merge, hand any retired null to
/// the firing policy, and render a constant clash with the EGD's name and
/// trigger facts (the `with_trigger` form).
fn apply_egd<F: Firing>(
    instance: &mut Instance,
    egd: &Egd,
    equal: &[EqTerm; 2],
    homs: &[Hom],
    firing: &mut F,
    stats: &mut ChaseStats,
) -> Result<bool, ChaseError> {
    let mut changed = false;
    for h in homs {
        if !firing.egd_fires(instance, h) {
            continue;
        }
        let side = |t: &EqTerm, inst: &Instance| -> Elem {
            match t {
                EqTerm::Const(e) => *e,
                EqTerm::Var(v) => inst.resolve(
                    h.map
                        .get(v)
                        .expect("EGD equality variable must occur in premise"),
                ),
            }
        };
        let a = side(&equal[0], instance);
        let b = side(&equal[1], instance);
        match instance.merge_retired(&a, &b) {
            Ok(Some(retired)) => {
                firing.invalidate_null(retired);
                stats.egd_merges += 1;
                changed = true;
            }
            Ok(None) => {}
            Err(e) => {
                // Name the EGD and its trigger facts: a bare constant
                // clash is undiagnosable in a large constraint set.
                let trigger: Vec<String> = h
                    .fact_ids
                    .iter()
                    .map(|fid| instance.format_fact(*fid))
                    .collect();
                return Err(ChaseError::Inconsistent(e.with_trigger(egd.name, trigger)));
            }
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{Atom, Egd, Symbol, Tgd};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn c(v: i64) -> Elem {
        Elem::of(v)
    }

    #[test]
    fn transitivity_chase_computes_closure() {
        // Edge(a,b) ∧ Path(b,c) → Path(a,c); Edge(a,b) → Path(a,b)
        let edge_to_path = Tgd::new(
            "e2p",
            vec![Atom::new("Edge", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(1)])],
        );
        let trans = Tgd::new(
            "trans",
            vec![
                Atom::new("Edge", vec![Term::var(0), Term::var(1)]),
                Atom::new("Path", vec![Term::var(1), Term::var(2)]),
            ],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(2)])],
        );
        let mut i = Instance::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            i.insert(sym("Edge"), vec![c(a), c(b)]);
        }
        let stats = chase(
            &mut i,
            &[edge_to_path.into(), trans.into()],
            &ChaseConfig::default(),
        )
        .unwrap();
        assert!(stats.rounds >= 2);
        // Paths: 12,23,34,13,24,14 = 6
        assert_eq!(i.facts_of(sym("Path")).count(), 6);
    }

    #[test]
    fn tgd_with_existential_invents_null_once() {
        // Person(x) → HasParent(x, y)
        let t = Tgd::new(
            "parent",
            vec![Atom::new("Person", vec![Term::var(0)])],
            vec![Atom::new("HasParent", vec![Term::var(0), Term::var(1)])],
        );
        let mut i = Instance::new();
        i.insert(sym("Person"), vec![c(1)]);
        chase(&mut i, &[t.clone().into()], &ChaseConfig::default()).unwrap();
        assert_eq!(i.facts_of(sym("HasParent")).count(), 1);
        // Restricted chase: re-chasing adds nothing.
        let stats = chase(&mut i, &[t.into()], &ChaseConfig::default()).unwrap();
        assert_eq!(stats.tgd_fires, 0);
        assert_eq!(i.facts_of(sym("HasParent")).count(), 1);
    }

    #[test]
    fn egd_merges_nulls_into_constants() {
        // R(x, y1) ∧ R(x, y2) → y1 = y2  (functional)
        let e = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let mut i = Instance::new();
        let n = i.fresh_null();
        i.insert(sym("R"), vec![c(1), n]);
        i.insert(sym("R"), vec![c(1), c(9)]);
        let stats = chase(&mut i, &[e.into()], &ChaseConfig::default()).unwrap();
        assert!(stats.egd_merges >= 1);
        assert_eq!(i.resolve(&n), c(9));
        assert_eq!(i.len(), 1); // the two facts collapsed
    }

    #[test]
    fn egd_constant_clash_errors() {
        let e = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let mut i = Instance::new();
        i.insert(sym("R"), vec![c(1), c(8)]);
        i.insert(sym("R"), vec![c(1), c(9)]);
        match chase(&mut i, &[e.into()], &ChaseConfig::default()) {
            Err(ChaseError::Inconsistent(inc)) => {
                // The error names the EGD that fired and its trigger facts.
                assert_eq!(inc.egd, Some(sym("fd")));
                assert_eq!(inc.trigger_facts.len(), 2);
                let msg = inc.to_string();
                assert!(msg.contains("[fd]"), "missing EGD name: {msg}");
                assert!(msg.contains("R(1, "), "missing trigger facts: {msg}");
            }
            other => panic!("expected inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn non_terminating_set_hits_budget() {
        // R(x) → S(x, y); S(x, y) → R(y)  — classic infinite chase.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("R", vec![Term::var(0)])],
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("R", vec![Term::var(1)])],
        );
        let mut i = Instance::new();
        i.insert(sym("R"), vec![c(1)]);
        let cfg = ChaseConfig {
            max_rounds: 50,
            max_facts: 100,
            ..ChaseConfig::default()
        };
        assert!(matches!(
            chase(&mut i, &[t1.into(), t2.into()], &cfg),
            Err(ChaseError::Budget { .. })
        ));
    }

    #[test]
    fn chase_is_idempotent_at_fixpoint() {
        let t = Tgd::new(
            "copy",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("B", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert(sym("A"), vec![c(1)]);
        chase(&mut i, &[t.clone().into()], &ChaseConfig::default()).unwrap();
        let before = i.len();
        let stats = chase(&mut i, &[t.into()], &ChaseConfig::default()).unwrap();
        assert_eq!(i.len(), before);
        assert_eq!(stats.tgd_fires, 0);
    }

    #[test]
    fn seminaive_matches_naive_on_deep_closure() {
        // A 12-node chain: transitive closure needs many delta rounds; the
        // result must be the full closure (n*(n+1)/2 paths over 12 edges).
        let edge_to_path = Tgd::new(
            "e2p",
            vec![Atom::new("Edge", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(1)])],
        );
        let trans = Tgd::new(
            "trans",
            vec![
                Atom::new("Path", vec![Term::var(0), Term::var(1)]),
                Atom::new("Path", vec![Term::var(1), Term::var(2)]),
            ],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(2)])],
        );
        let mut i = Instance::new();
        for k in 0..12 {
            i.insert(sym("Edge"), vec![c(k), c(k + 1)]);
        }
        chase(
            &mut i,
            &[edge_to_path.into(), trans.into()],
            &ChaseConfig::default(),
        )
        .unwrap();
        assert_eq!(i.facts_of(sym("Path")).count(), 12 * 13 / 2);
    }

    /// Closure constraints over a chain — many triggers per frontier
    /// image. The shared testkit workload, so the unit tests, the
    /// differential suite and the e8 bench exercise the same shape.
    fn closure_set() -> (Instance, Vec<Constraint>) {
        crate::testkit::phase_split_workload(1, 8)
    }

    use crate::testkit::dump_state as dump;

    #[test]
    fn memo_on_and_off_reach_identical_fixpoints() {
        let (seed, constraints) = closure_set();
        let mut on = seed.clone();
        let mut off = seed.clone();
        let s_on = chase(&mut on, &constraints, &ChaseConfig::default()).unwrap();
        let s_off = chase(
            &mut off,
            &constraints,
            &ChaseConfig {
                memo: false,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(s_on.core(), s_off.core());
        assert_eq!(dump(&on), dump(&off));
        // The closure workload re-derives pairs through every midpoint:
        // the memo must actually absorb probes.
        assert!(s_on.memo_hits > 0, "no memo hits on closure: {s_on:?}");
        assert_eq!(s_off.memo_hits, 0);
        assert_eq!(s_off.memo_misses, 0);
    }

    #[test]
    fn search_workers_do_not_change_the_chase() {
        let (seed, constraints) = closure_set();
        let mut reference = seed.clone();
        let ref_stats = chase(&mut reference, &constraints, &ChaseConfig::default()).unwrap();
        for workers in [2usize, 4, 8] {
            let mut work = seed.clone();
            let stats = chase(
                &mut work,
                &constraints,
                &ChaseConfig {
                    search_workers: workers,
                    // Force fan-out even on this small instance so the
                    // parallel branch is genuinely exercised.
                    search_min_facts: 0,
                    ..ChaseConfig::default()
                },
            )
            .unwrap();
            // Full stats equality — memo counters included — plus the
            // complete instance state.
            assert_eq!(stats, ref_stats, "stats skew at {workers} search workers");
            assert_eq!(dump(&work), dump(&reference));
        }
    }

    #[test]
    fn memo_invalidation_survives_egd_merges() {
        // t1 invents a null R(x, n); the FD then merges n with the constant
        // 9 — retiring a null that appears in memoized frontier keys of t2
        // (R's second column feeds t2's frontier). The memo must not
        // suppress the downstream fire: S(9) is derivable only after the
        // merge.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let fd = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("S", vec![Term::var(1)])],
        );
        let constraints: Vec<Constraint> = vec![t1.into(), fd.into(), t2.into()];
        let run = |memo: bool| {
            let mut i = Instance::new();
            let n = i.fresh_null();
            i.insert(sym("A"), vec![c(1)]);
            i.insert(sym("R"), vec![c(1), n]);
            i.insert(sym("R"), vec![c(1), c(9)]);
            let cfg = ChaseConfig {
                memo,
                ..ChaseConfig::default()
            };
            let stats = chase(&mut i, &constraints, &cfg).unwrap();
            (dump(&i), stats)
        };
        let (on, s_on) = run(true);
        let (off, s_off) = run(false);
        assert_eq!(on, off);
        assert_eq!(s_on.core(), s_off.core());
        let (inst, _) = run(true);
        assert!(
            inst.iter().any(|(_, f, _, _)| f == "S(9)"),
            "memo suppressed the post-merge derivation: {inst:?}"
        );
    }

    #[test]
    fn inconsistent_error_is_identical_across_memo_and_workers() {
        let e = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let pad = Tgd::new(
            "pad",
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("T", vec![Term::var(0)])],
        );
        let constraints: Vec<Constraint> = vec![pad.into(), e.into()];
        let run = |memo: bool, workers: usize| {
            let mut i = Instance::new();
            i.insert(sym("R"), vec![c(1), c(8)]);
            i.insert(sym("R"), vec![c(1), c(9)]);
            let cfg = ChaseConfig {
                memo,
                search_workers: workers,
                search_min_facts: 0,
                ..ChaseConfig::default()
            };
            chase(&mut i, &constraints, &cfg).unwrap_err().to_string()
        };
        let reference = run(true, 1);
        assert!(reference.contains("[fd]"), "missing EGD name: {reference}");
        for (memo, workers) in [(false, 1), (true, 4), (false, 4), (true, 8)] {
            assert_eq!(
                run(memo, workers),
                reference,
                "error skew at memo={memo} workers={workers}"
            );
        }
    }

    #[test]
    fn seminaive_handles_egd_rewrites_across_rounds() {
        // TGD produces R-pairs; an FD then merges their second columns;
        // the merged fact must re-trigger the downstream TGD.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let fd = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("S", vec![Term::var(1)])],
        );
        let mut i = Instance::new();
        let n = i.fresh_null();
        i.insert(sym("A"), vec![c(1)]);
        i.insert(sym("R"), vec![c(1), n]);
        i.insert(sym("R"), vec![c(1), c(9)]);
        chase(
            &mut i,
            &[t1.into(), fd.into(), t2.into()],
            &ChaseConfig::default(),
        )
        .unwrap();
        // FD merges n with 9 (and the TGD's fresh null too); S(9) derived.
        assert_eq!(i.resolve(&n), c(9));
        assert_eq!(i.facts_of(sym("S")).count(), 1);
    }
}
