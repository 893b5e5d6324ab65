//! The incremental write path: DML (`insert` / `delete` / `upsert`) into
//! registered datasets with **incremental fragment maintenance**.
//!
//! # The maintenance model
//!
//! A DML batch flows through three layers, each maintained from the deltas
//! alone — no fragment is ever rematerialized:
//!
//! 1. **Dataset rows** (the registered [`crate::dataset::Dataset`] content,
//!    the ground truth): deleted rows are removed one instance per request,
//!    inserted rows appended.
//! 2. **The staged fact base**: every dataset row contributes the pivot
//!    facts of [`crate::dataset::TableData::row_facts`]. The maintenance
//!    state counts rows per fact (`fact_counts`); a fact is retracted from
//!    the [`Instance`] only when its count reaches zero and inserted only
//!    on the zero→positive crossing, because the pivot model has set
//!    semantics (two rows can share a `{table}_Terms` fact).
//! 3. **Fragment stores**: each *view* fragment (table / key-value /
//!    doc-rows / par-rows) carries a per-row **support count** — how many
//!    body homomorphisms derive the row. Deltas are discovered with the
//!    semi-naive delta chase ([`find_homs_delta`]): the delete phase
//!    re-stamps the doomed facts into a fresh epoch, enumerates exactly
//!    the homomorphisms flowing through them, and only then retracts;
//!    the insert phase inserts the new facts and enumerates the
//!    homomorphisms they enable. A store row is deleted on the
//!    support's →0 crossing and inserted on the 0→ crossing (counting
//!    solution to the deletion problem — no tombstones needed). *Native*
//!    fragments (native-tables, text-index) mirror the dataset rows 1:1
//!    and receive the raw row deltas directly, preserving physical
//!    duplicate-row parity with a fresh rematerialization.
//!
//! Batches are **net-delta deduplicated** at both levels: a row deleted
//! and re-inserted in one batch cancels out before any store is touched.
//!
//! # Epochs and staleness
//!
//! Every batch bumps the engine's **data epoch** — distinct from the
//! catalog epoch, so cached rewrite plans survive writes — and advances
//! every fragment's **high-water mark** to it once its stores are
//! maintained. `high_water(fragment) == data_epoch()` is the staleness
//! invariant: a reader that observes the data epoch is guaranteed the
//! fragments reflect it, because DML holds `&mut Estocada` (writes are
//! serialized against the shared-read query path at the borrow level).
//!
//! DDL invalidates the maintenance state wholesale (supports were computed
//! against the previous catalog); it is re-seeded lazily on the next write.
//!
//! # Cost
//!
//! Past the one-off seeding, a write's work is proportional to its delta,
//! not to the size of the fragments it maintains: the delta chase
//! enumerates only the homomorphisms through changed facts, the parallel
//! store updates its partitions and key index in place, and each fragment
//! relation's [`FragmentStats`] is read off running statistics (row count,
//! byte sum, per-column value counts) that the store deltas update, never
//! recomputed over the relation's rows.

use crate::catalog::{FragmentSpec, FragmentStats, WhereSpec};
use crate::dataset::DatasetContent;
use crate::error::{Error, Result};
use crate::evaluator::Estocada;
use crate::materialize::{project_head, text_index_stats};
use estocada_chase::{find_homs, find_homs_delta, Elem, HomConfig, Instance};
use estocada_pivot::{Cq, Symbol, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Incremental-maintenance bookkeeping, seeded lazily on the first DML
/// batch and dropped by any DDL operation.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceState {
    /// `(pred, ground args)` → number of dataset rows encoding this fact.
    fact_counts: HashMap<(Symbol, Vec<Elem>), u64>,
    /// Counting (view) fragment relation → distinct head row → number of
    /// body homomorphisms deriving it.
    supports: HashMap<Symbol, HashMap<Vec<Value>, u64>>,
    /// Counting and native-table fragment relation → statistics of its
    /// current rows.
    stats: HashMap<Symbol, RunningStats>,
    /// Fragment id → data epoch through which its stores are maintained.
    high_water: HashMap<String, u64>,
}

impl MaintenanceState {
    /// The data epoch through which `fragment`'s stores are maintained
    /// (`None` for unknown fragments).
    pub fn high_water(&self, fragment: &str) -> Option<u64> {
        self.high_water.get(fragment).copied()
    }

    /// The supported rows of a counting fragment relation (row → support),
    /// `None` for native/raw relations.
    pub fn supported_rows(&self, relation: Symbol) -> Option<&HashMap<Vec<Value>, u64>> {
        self.supports.get(&relation)
    }
}

/// Statistics of one fragment relation's rows, updated row by row.
/// [`RunningStats::stats`] equals
/// [`stats_of_rows`](crate::materialize::stats_of_rows) over the same rows.
#[derive(Debug, Clone)]
struct RunningStats {
    rows: u64,
    bytes: u64,
    /// Per head column: value → number of rows holding it.
    counts: Vec<HashMap<Value, u64>>,
}

impl RunningStats {
    fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>, arity: usize) -> RunningStats {
        let mut s = RunningStats {
            rows: 0,
            bytes: 0,
            counts: vec![HashMap::new(); arity],
        };
        for row in rows {
            s.add(row);
        }
        s
    }

    fn add(&mut self, row: &[Value]) {
        self.rows += 1;
        for (i, v) in row.iter().enumerate() {
            if let Some(c) = self.counts.get_mut(i) {
                *c.entry(v.clone()).or_insert(0) += 1;
            }
            self.bytes += v.approx_size() as u64;
        }
    }

    /// Take back one [`RunningStats::add`]ed row.
    fn remove(&mut self, row: &[Value]) {
        self.rows -= 1;
        for (i, v) in row.iter().enumerate() {
            if let Some(c) = self.counts.get_mut(i) {
                let n = c.get_mut(v).expect("a removed row was added");
                *n -= 1;
                if *n == 0 {
                    c.remove(v);
                }
            }
            self.bytes -= v.approx_size() as u64;
        }
    }

    fn stats(&self) -> FragmentStats {
        FragmentStats {
            rows: self.rows,
            distinct: self.counts.iter().map(|c| c.len() as u64).collect(),
            bytes: self.bytes,
        }
    }
}

/// Per-fragment-relation effect of one DML batch.
#[derive(Debug, Clone)]
pub struct FragmentDelta {
    /// Owning fragment id.
    pub fragment: String,
    /// The maintained fragment relation.
    pub relation: String,
    /// Rows removed from the backing store.
    pub store_deletes: usize,
    /// Rows added to the backing store.
    pub store_inserts: usize,
    /// `"counting"` for view fragments, `"raw"` for native mirrors.
    pub mode: &'static str,
}

/// What one DML batch did: row counts, the new data epoch, and the delta
/// each affected fragment relation absorbed.
#[derive(Debug, Clone)]
pub struct DmlReport {
    /// Target dataset.
    pub dataset: String,
    /// Target table.
    pub table: String,
    /// Rows inserted into the dataset.
    pub inserted: usize,
    /// Rows deleted from the dataset.
    pub deleted: usize,
    /// The data epoch this batch established.
    pub data_epoch: u64,
    /// Store-level deltas, one entry per fragment relation that changed.
    pub fragment_deltas: Vec<FragmentDelta>,
    /// Wall-clock time of the whole batch (validation through stats).
    pub maintenance_time: Duration,
}

/// Whether a fragment's relations are maintained by support counting
/// (view fragments) rather than raw 1:1 row mirroring.
fn is_counting(spec: &FragmentSpec) -> bool {
    matches!(
        spec,
        FragmentSpec::Table { .. }
            | FragmentSpec::KeyValue { .. }
            | FragmentSpec::DocRows { .. }
            | FragmentSpec::ParRows { .. }
    )
}

/// Count every body homomorphism per projected head row — the seed of a
/// counting fragment's support map. The same enumeration (sans counting)
/// drives [`crate::materialize::evaluate_view`], so `supports.keys()` is
/// exactly the materialized distinct row set.
fn row_supports(base: &Instance, view: &Cq) -> HashMap<Vec<Value>, u64> {
    let homs = find_homs(base, &view.body, &HashMap::new(), HomConfig::default());
    let mut out: HashMap<Vec<Value>, u64> = HashMap::new();
    for h in homs {
        if let Some(row) = project_head(view, &h) {
            *out.entry(row).or_insert(0) += 1;
        }
    }
    out
}

/// Ground fact key: `(pred, interned args)`.
fn fact_key(f: &estocada_pivot::Fact) -> (Symbol, Vec<Elem>) {
    (f.pred, f.args.iter().map(Elem::constant).collect())
}

/// Net store-level operations for one fragment relation.
#[derive(Debug, Default)]
struct StoreOps {
    deletes: Vec<Vec<Value>>,
    inserts: Vec<Vec<Value>>,
}

impl Estocada {
    /// Insert rows into a registered relational dataset's table,
    /// maintaining every fragment incrementally. Bumps the data epoch.
    pub fn insert_rows(
        &mut self,
        dataset: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<DmlReport> {
        self.apply_dml(dataset, table, Vec::new(), rows)
    }

    /// Delete rows (each entry removes **one** matching stored row) from a
    /// registered relational dataset's table, maintaining every fragment
    /// incrementally. A row with no match rejects the whole batch
    /// atomically with [`Error::Dml`]. Bumps the data epoch.
    pub fn delete_rows(
        &mut self,
        dataset: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<DmlReport> {
        self.apply_dml(dataset, table, rows, Vec::new())
    }

    /// Upsert rows by the table's declared key: every existing row whose
    /// key matches an upserted row is deleted, then the new rows are
    /// inserted. Requires a declared key ([`Error::Dml`] otherwise).
    /// Bumps the data epoch.
    pub fn upsert_rows(
        &mut self,
        dataset: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<DmlReport> {
        let t = self.table_data(dataset, table)?;
        let key_cols: Vec<usize> = t
            .encoding
            .key
            .as_ref()
            .filter(|k| !k.is_empty())
            .ok_or_else(|| Error::Dml(format!("upsert into {table} needs a declared key")))?
            .iter()
            .filter_map(|k| t.encoding.columns.iter().position(|c| c == k))
            .collect();
        let arity = t.encoding.columns.len();
        for r in &rows {
            if r.len() != arity {
                return Err(Error::Dml(format!(
                    "row arity {} does not match table {table} ({arity} columns)",
                    r.len()
                )));
            }
        }
        let keys: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| key_cols.iter().map(|c| r[*c].clone()).collect())
            .collect();
        let deletes: Vec<Vec<Value>> = t
            .rows
            .iter()
            .filter(|row| {
                let k: Vec<Value> = key_cols.iter().map(|c| row[*c].clone()).collect();
                keys.contains(&k)
            })
            .cloned()
            .collect();
        self.apply_dml(dataset, table, deletes, rows)
    }

    /// The maintenance bookkeeping, once seeded by a first write (`None`
    /// before any DML or right after DDL).
    pub fn maintenance(&self) -> Option<&MaintenanceState> {
        self.maint.as_ref()
    }

    /// Resolve `dataset.table` to its [`crate::dataset::TableData`].
    fn table_data(&self, dataset: &str, table: &str) -> Result<&crate::dataset::TableData> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| Error::UnknownName(dataset.to_string()))?;
        let DatasetContent::Relational(tables) = &ds.content else {
            return Err(Error::Dml(format!(
                "{dataset} is a document dataset; the incremental DML path covers relational datasets"
            )));
        };
        tables
            .iter()
            .find(|t| t.encoding.relation.as_str().as_ref() == table)
            .ok_or_else(|| Error::Dml(format!("unknown table {table} in dataset {dataset}")))
    }

    /// Seed the maintenance state from the current datasets, fact base and
    /// catalog (no-op when already seeded; DDL clears it).
    fn seed_maintenance(&mut self) {
        if self.maint.is_some() {
            return;
        }
        let base = self.base();
        let mut fact_counts: HashMap<(Symbol, Vec<Elem>), u64> = HashMap::new();
        for ds in self.datasets.values() {
            if let DatasetContent::Relational(tables) = &ds.content {
                for t in tables {
                    for row in &t.rows {
                        for f in t.row_facts(row) {
                            *fact_counts.entry(fact_key(&f)).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let mut supports = HashMap::new();
        let mut stats = HashMap::new();
        let mut high_water = HashMap::new();
        for fm in self.catalog.fragments() {
            high_water.insert(fm.id.clone(), self.data_epoch);
            for r in &fm.relations {
                let arity = r.view.view.head.len();
                if is_counting(&fm.spec) {
                    let sup = row_supports(base, &r.view.view);
                    stats.insert(r.name, RunningStats::of_rows(sup.keys(), arity));
                    supports.insert(r.name, sup);
                } else if let (
                    FragmentSpec::NativeTables { dataset, .. },
                    WhereSpec::Table { table, .. },
                ) = (&fm.spec, &r.place)
                {
                    if let Ok(t) = self.table_data(dataset, table) {
                        stats.insert(r.name, RunningStats::of_rows(&t.rows, arity));
                    }
                }
            }
        }
        self.maint = Some(MaintenanceState {
            fact_counts,
            supports,
            stats,
            high_water,
        });
    }

    /// The whole incremental write path: validate, mutate the dataset rows,
    /// net the fact deltas, run the two-phase (deletes, then inserts)
    /// semi-naive delta chase over every counting fragment view, apply the
    /// store deltas, refresh affected statistics, and advance the data
    /// epoch + high-water marks.
    fn apply_dml(
        &mut self,
        dataset: &str,
        table: &str,
        deletes: Vec<Vec<Value>>,
        inserts: Vec<Vec<Value>>,
    ) -> Result<DmlReport> {
        let t0 = Instant::now();

        // -- validate (atomic: reject before any mutation) ------------------
        {
            let t = self.table_data(dataset, table)?;
            let arity = t.encoding.columns.len();
            for r in deletes.iter().chain(inserts.iter()) {
                if r.len() != arity {
                    return Err(Error::Dml(format!(
                        "row arity {} does not match table {table} ({arity} columns)",
                        r.len()
                    )));
                }
            }
            if !deletes.is_empty() {
                // Each delete needs its own stored row: only table rows
                // equal to a target count down its demand.
                let mut need: HashMap<&[Value], usize> = HashMap::new();
                for d in &deletes {
                    *need.entry(d.as_slice()).or_insert(0) += 1;
                }
                for row in &t.rows {
                    if let Some(n) = need.get_mut(row.as_slice()) {
                        *n = n.saturating_sub(1);
                    }
                }
                if let Some(d) = deletes.iter().find(|d| need[d.as_slice()] > 0) {
                    return Err(Error::Dml(format!(
                        "row to delete not found in {table}: {d:?}"
                    )));
                }
            }
        }

        self.seed_maintenance();
        self.base(); // ensure the fact base is built before disjoint borrows

        // -- net fact deltas (batch-level dedup) ----------------------------
        // A fact appearing in both a deleted and an inserted row nets out
        // here, before the instance or any store is touched.
        let (delta, touch_order) = {
            let t = self.table_data(dataset, table)?;
            let mut delta: HashMap<(Symbol, Vec<Elem>), i64> = HashMap::new();
            let mut order: Vec<(Symbol, Vec<Elem>)> = Vec::new();
            let mut note = |key: (Symbol, Vec<Elem>), d: i64| {
                let e = delta.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    0
                });
                *e += d;
            };
            for row in &deletes {
                for f in t.row_facts(row) {
                    note(fact_key(&f), -1);
                }
            }
            for row in &inserts {
                for f in t.row_facts(row) {
                    note(fact_key(&f), 1);
                }
            }
            (delta, order)
        };

        // -- mutate the dataset rows (the ground truth) ---------------------
        {
            let ds = self.datasets.get_mut(dataset).expect("validated above");
            let DatasetContent::Relational(tables) = &mut ds.content else {
                unreachable!("validated above");
            };
            let t = tables
                .iter_mut()
                .find(|t| t.encoding.relation.as_str().as_ref() == table)
                .expect("validated above");
            for d in &deletes {
                let pos = t.rows.iter().position(|r| r == d).expect("validated above");
                t.rows.remove(pos);
            }
            t.rows.extend(inserts.iter().cloned());
        }

        // -- classify fact deltas through the multiplicity counts -----------
        let mut minus: Vec<(Symbol, Vec<Elem>)> = Vec::new();
        let mut plus: Vec<(Symbol, Vec<Elem>)> = Vec::new();
        {
            let maint = self.maint.as_mut().expect("seeded above");
            for key in touch_order {
                let d = delta[&key];
                if d == 0 {
                    continue;
                }
                let c = maint.fact_counts.entry(key.clone()).or_insert(0);
                let before = *c as i64;
                let after = before + d;
                debug_assert!(after >= 0, "fact multiplicity went negative");
                *c = after.max(0) as u64;
                if before > 0 && after <= 0 {
                    maint.fact_counts.remove(&key);
                    minus.push(key);
                } else if before == 0 && after > 0 {
                    plus.push(key);
                }
            }
        }

        // -- two-phase semi-naive delta chase over the fact base ------------
        let base = self.base.get_mut().expect("base built");
        // `(row, ±1)` hom deltas per counting fragment relation, in
        // enumeration order.
        let mut row_deltas: HashMap<Symbol, Vec<(Vec<Value>, i64)>> = HashMap::new();
        let hom_cfg = HomConfig::default();

        // Phase D: stamp the doomed facts into a fresh epoch, enumerate
        // every homomorphism flowing through at least one of them (each
        // exactly once, semi-naively), then retract.
        if !minus.is_empty() {
            let e_del = base.advance_epoch();
            let mut minus_ids = Vec::new();
            for (pred, args) in &minus {
                if let Some(id) = base.find_fact(*pred, args) {
                    base.touch(id);
                    minus_ids.push(id);
                }
            }
            let dix = base.delta_index(e_del);
            for fm in self.catalog.fragments() {
                if !is_counting(&fm.spec) {
                    continue;
                }
                for r in &fm.relations {
                    let view = &r.view.view;
                    for h in find_homs_delta(base, &view.body, &HashMap::new(), hom_cfg, &dix) {
                        if let Some(row) = project_head(view, &h) {
                            row_deltas.entry(r.name).or_default().push((row, -1));
                        }
                    }
                }
            }
            for id in minus_ids {
                base.retract(id);
            }
        }

        // Phase I: insert the new facts and enumerate every homomorphism
        // they enable.
        if !plus.is_empty() {
            let e_ins = base.advance_epoch();
            for (pred, args) in &plus {
                base.insert(*pred, args.clone());
            }
            let dix = base.delta_index(e_ins);
            for fm in self.catalog.fragments() {
                if !is_counting(&fm.spec) {
                    continue;
                }
                for r in &fm.relations {
                    let view = &r.view.view;
                    for h in find_homs_delta(base, &view.body, &HashMap::new(), hom_cfg, &dix) {
                        if let Some(row) = project_head(view, &h) {
                            row_deltas.entry(r.name).or_default().push((row, 1));
                        }
                    }
                }
            }
        }

        // -- roll hom deltas into the support counts; 0-crossings become
        // store operations ---------------------------------------------------
        let mut ops: HashMap<Symbol, StoreOps> = HashMap::new();
        let table_rows = self.table_data(dataset, table)?.rows.len() as u64;
        let maint = self.maint.as_mut().expect("seeded above");
        for (rel, deltas) in &row_deltas {
            // Net per row first: a row deleted and re-derived in one batch
            // must not bounce through the store.
            let mut net: HashMap<&Vec<Value>, i64> = HashMap::new();
            let mut order: Vec<&Vec<Value>> = Vec::new();
            for (row, d) in deltas {
                let e = net.entry(row).or_insert_with(|| {
                    order.push(row);
                    0
                });
                *e += d;
            }
            let sup = maint.supports.entry(*rel).or_default();
            let stats = maint.stats.get_mut(rel).expect("seeded with the supports");
            let o = ops.entry(*rel).or_default();
            for row in order {
                let d = net[row];
                if d == 0 {
                    continue;
                }
                let c = sup.entry(row.clone()).or_insert(0);
                let before = *c as i64;
                let after = before + d;
                debug_assert!(after >= 0, "row support went negative");
                *c = after.max(0) as u64;
                if before > 0 && after <= 0 {
                    sup.remove(row);
                    stats.remove(row);
                    o.deletes.push(row.clone());
                } else if before == 0 && after > 0 {
                    stats.add(row);
                    o.inserts.push(row.clone());
                }
            }
        }

        // -- apply the deltas to the backing stores -------------------------
        // Deletes before inserts per fragment; raw fragments mirror the
        // dataset-row deltas 1:1 (duplicate physical rows and all).
        let mut fragment_deltas: Vec<FragmentDelta> = Vec::new();
        let mut stats_updates: Vec<(String, usize, FragmentStats)> = Vec::new();
        for fm in self.catalog.fragments() {
            for (ri, r) in fm.relations.iter().enumerate() {
                let mut applied: Option<(usize, usize, &'static str)> = None;
                match (&fm.spec, &r.place) {
                    // Counting view fragments.
                    (_, WhereSpec::Table { table: tname, .. }) if is_counting(&fm.spec) => {
                        if let Some(o) = ops.get(&r.name) {
                            if !o.deletes.is_empty() || !o.inserts.is_empty() {
                                if !o.deletes.is_empty() {
                                    self.stores.rel.delete_rows(tname, &o.deletes);
                                }
                                if !o.inserts.is_empty() {
                                    self.stores
                                        .rel
                                        .insert_many(tname, o.inserts.iter().cloned());
                                }
                                applied = Some((o.deletes.len(), o.inserts.len(), "counting"));
                            }
                        }
                    }
                    (_, WhereSpec::Namespace { namespace, .. }) => {
                        if let Some(o) = ops.get(&r.name) {
                            if !o.deletes.is_empty() || !o.inserts.is_empty() {
                                let sup = maint.supports.get(&r.name).expect("seeded");
                                // Repack every key a 0-crossing row touches,
                                // canonically (sorted value tuples — the
                                // same packing materialize writes).
                                let mut affected: Vec<&Value> = o
                                    .deletes
                                    .iter()
                                    .chain(o.inserts.iter())
                                    .map(|row| &row[0])
                                    .collect();
                                affected.sort();
                                affected.dedup();
                                for key in affected {
                                    let mut vrows: Vec<Value> = sup
                                        .keys()
                                        .filter(|row| &row[0] == key)
                                        .map(|row| Value::array(row[1..].iter().cloned()))
                                        .collect();
                                    if vrows.is_empty() {
                                        self.stores.kv.delete(namespace, key);
                                    } else {
                                        vrows.sort();
                                        self.stores.kv.put(
                                            namespace,
                                            key.clone(),
                                            &[Value::array(vrows)],
                                        );
                                    }
                                }
                                applied = Some((o.deletes.len(), o.inserts.len(), "counting"));
                            }
                        }
                    }
                    (
                        _,
                        WhereSpec::Collection {
                            collection,
                            columns,
                        },
                    ) => {
                        if let Some(o) = ops.get(&r.name) {
                            if !o.deletes.is_empty() || !o.inserts.is_empty() {
                                let to_doc = |row: &Vec<Value>| {
                                    Value::object_owned(
                                        columns.iter().cloned().zip(row.iter().cloned()),
                                    )
                                };
                                if !o.deletes.is_empty() {
                                    let dels: Vec<Value> = o.deletes.iter().map(to_doc).collect();
                                    self.stores.doc.remove_docs(collection, &dels);
                                }
                                if !o.inserts.is_empty() {
                                    self.stores
                                        .doc
                                        .insert_many(collection, o.inserts.iter().map(to_doc));
                                }
                                applied = Some((o.deletes.len(), o.inserts.len(), "counting"));
                            }
                        }
                    }
                    (_, WhereSpec::ParDataset { dataset: dname, .. }) => {
                        if let Some(o) = ops.get(&r.name) {
                            if !o.deletes.is_empty() || !o.inserts.is_empty() {
                                if !o.deletes.is_empty() {
                                    self.stores.par.delete_rows(dname, &o.deletes);
                                }
                                if !o.inserts.is_empty() {
                                    self.stores
                                        .par
                                        .insert_rows(dname, o.inserts.iter().cloned());
                                }
                                applied = Some((o.deletes.len(), o.inserts.len(), "counting"));
                            }
                        }
                    }
                    // Raw mirrors of the mutated table.
                    (
                        FragmentSpec::NativeTables { dataset: d, .. },
                        WhereSpec::Table { table: tname, .. },
                    ) if d == dataset
                        && tname == table
                        && (!deletes.is_empty() || !inserts.is_empty()) =>
                    {
                        let stats = maint.stats.get_mut(&r.name).expect("seeded per table");
                        if !deletes.is_empty() {
                            self.stores.rel.delete_rows(tname, &deletes);
                            deletes.iter().for_each(|row| stats.remove(row));
                        }
                        if !inserts.is_empty() {
                            self.stores.rel.insert_many(tname, inserts.iter().cloned());
                            inserts.iter().for_each(|row| stats.add(row));
                        }
                        applied = Some((deletes.len(), inserts.len(), "raw"));
                    }
                    (FragmentSpec::TextIndex { table: tt }, WhereSpec::TextIndex { index })
                        if tt == table && (!deletes.is_empty() || !inserts.is_empty()) =>
                    {
                        let ds = self.datasets.get(dataset).expect("validated above");
                        let DatasetContent::Relational(tables) = &ds.content else {
                            unreachable!()
                        };
                        let t = tables
                            .iter()
                            .find(|t| t.encoding.relation.as_str().as_ref() == table)
                            .expect("validated above");
                        let key_col = t
                            .encoding
                            .key
                            .as_ref()
                            .and_then(|k| k.first())
                            .and_then(|k| t.encoding.columns.iter().position(|c| c == k));
                        let text_cols: Vec<usize> = t
                            .text_columns
                            .iter()
                            .filter_map(|c| t.encoding.columns.iter().position(|x| x == c))
                            .collect();
                        let joined = |row: &Vec<Value>| {
                            let parts: Vec<&str> =
                                text_cols.iter().filter_map(|c| row[*c].as_str()).collect();
                            parts.join(" ")
                        };
                        let keyed = |row: &Vec<Value>| {
                            key_col.map(|k| row[k].clone()).unwrap_or(Value::Null)
                        };
                        if !deletes.is_empty() {
                            let dels: Vec<(Value, String)> =
                                deletes.iter().map(|r| (keyed(r), joined(r))).collect();
                            self.stores.text.remove_documents(index, &dels);
                        }
                        for row in &inserts {
                            self.stores
                                .text
                                .index_document(index, keyed(row), &joined(row));
                        }
                        applied = Some((deletes.len(), inserts.len(), "raw"));
                    }
                    _ => {}
                }
                if let Some((sd, si, mode)) = applied {
                    // Refresh the relation's statistics to what a
                    // rematerialization would compute.
                    let stats = match &fm.spec {
                        FragmentSpec::TextIndex { .. } => text_index_stats(table_rows),
                        _ => maint.stats[&r.name].stats(),
                    };
                    stats_updates.push((fm.id.clone(), ri, stats));
                    fragment_deltas.push(FragmentDelta {
                        fragment: fm.id.clone(),
                        relation: r.name.as_str().to_string(),
                        store_deletes: sd,
                        store_inserts: si,
                        mode,
                    });
                }
            }
        }

        // -- advance the data epoch and every high-water mark ---------------
        self.data_epoch += 1;
        let epoch = self.data_epoch;
        for hw in maint.high_water.values_mut() {
            *hw = epoch;
        }
        for (fid, ri, stats) in stats_updates {
            if let Some(fm) = self
                .catalog
                .fragments_mut()
                .iter_mut()
                .find(|f| f.id == fid)
            {
                fm.stats[ri] = stats;
            }
        }

        Ok(DmlReport {
            dataset: dataset.to_string(),
            table: table.to_string(),
            inserted: inserts.len(),
            deleted: deletes.len(),
            data_epoch: epoch,
            fragment_deltas,
            maintenance_time: t0.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::FragmentSpec;
    use crate::dataset::{Dataset, TableData};
    use crate::error::Error;
    use crate::evaluator::Estocada;
    use crate::system::Latencies;
    use estocada_pivot::encoding::relational::TableEncoding;
    use estocada_pivot::{CqBuilder, Value};

    fn shop(orders: &[(i64, i64, i64)]) -> Dataset {
        Dataset::relational(
            "shop",
            vec![
                TableData {
                    encoding: TableEncoding::new("Users", &["uid", "name"], Some(&["uid"])),
                    rows: vec![
                        vec![Value::Int(1), Value::str("ann")],
                        vec![Value::Int(2), Value::str("bob")],
                    ],
                    text_columns: vec![],
                },
                TableData {
                    encoding: TableEncoding::new(
                        "Orders",
                        &["oid", "uid", "amount"],
                        Some(&["oid"]),
                    ),
                    rows: orders
                        .iter()
                        .map(|(o, u, a)| vec![Value::Int(*o), Value::Int(*u), Value::Int(*a)])
                        .collect(),
                    text_columns: vec![],
                },
                TableData {
                    encoding: TableEncoding::new("Products", &["pid", "title"], Some(&["pid"])),
                    rows: vec![
                        vec![Value::Int(1), Value::str("wireless mouse")],
                        vec![Value::Int(2), Value::str("usb keyboard")],
                    ],
                    text_columns: vec!["title".into()],
                },
                TableData {
                    encoding: TableEncoding::new("Clicks", &["uid", "page"], None),
                    rows: vec![vec![Value::Int(1), Value::str("home")]],
                    text_columns: vec![],
                },
            ],
        )
    }

    /// One fragment of every maintainable kind over the shop dataset.
    fn deploy(ds: Dataset) -> Estocada {
        let mut est = Estocada::new(Latencies::zero());
        est.register_dataset(ds).unwrap();
        est.add_fragment(FragmentSpec::NativeTables {
            dataset: "shop".into(),
            only: None,
        })
        .unwrap();
        est.add_fragment(FragmentSpec::TextIndex {
            table: "Products".into(),
        })
        .unwrap();
        est.add_fragment(FragmentSpec::Table {
            view: CqBuilder::new("BigOrders")
                .head_vars(["uid", "name", "amount"])
                .atom("Users", |a| a.v("uid").v("name"))
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
            index_on: vec![],
        })
        .unwrap();
        est.add_fragment(FragmentSpec::KeyValue {
            view: CqBuilder::new("OrdersKV")
                .head_vars(["uid", "oid", "amount"])
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
        })
        .unwrap();
        est.add_fragment(FragmentSpec::DocRows {
            view: CqBuilder::new("OrderDocs")
                .head_vars(["oid", "uid", "amount"])
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
            index_on: vec![],
        })
        .unwrap();
        est.add_fragment(FragmentSpec::ParRows {
            view: CqBuilder::new("OrdersPar")
                .head_vars(["uid", "oid", "amount"])
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
            index_on: vec!["uid".into()],
            partitions: 0,
        })
        .unwrap();
        est
    }

    /// Canonicalized dump of every store object, parallel key index and
    /// fragment's catalog statistics: `(label, contents)` with rows sorted,
    /// so physical insertion order is factored out.
    fn snapshot(est: &Estocada) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut tables = est.stores.rel.table_names();
        tables.sort();
        for t in tables {
            let mut rows = est.stores.rel.scan(&t).unwrap();
            rows.sort();
            out.push((format!("rel:{t}"), format!("{rows:?}")));
        }
        let mut nss = est.stores.kv.namespace_names();
        nss.sort();
        for ns in nss {
            let mut pairs = est.stores.kv.scan(&ns);
            pairs.sort();
            out.push((format!("kv:{ns}"), format!("{pairs:?}")));
        }
        let mut cols = est.stores.doc.collection_names();
        cols.sort();
        for c in cols {
            let mut docs = est.stores.doc.scan(&c);
            docs.sort();
            out.push((format!("doc:{c}"), format!("{docs:?}")));
        }
        let mut pds = est.stores.par.dataset_names();
        pds.sort();
        for d in pds {
            let ds = est.stores.par.dataset(&d).unwrap();
            let mut rows: Vec<_> = ds.iter_rows().cloned().collect();
            rows.sort();
            out.push((format!("par:{d}"), format!("{rows:?}")));
            if let Some(idx) = &ds.key_index {
                let mut entries: Vec<String> = idx
                    .map
                    .iter()
                    .map(|(key, locs)| {
                        let mut hits: Vec<_> = locs
                            .iter()
                            .map(|&(p, r)| &ds.partitions[p as usize][r as usize])
                            .collect();
                        hits.sort();
                        format!("{key:?} -> {hits:?}")
                    })
                    .collect();
                entries.sort();
                out.push((format!("par-index:{d}"), format!("{entries:?}")));
            }
        }
        let mut docs = est.stores.text.documents("Products");
        docs.sort();
        out.push(("text:Products".into(), format!("{docs:?}")));
        for f in est.catalog().fragments() {
            out.push((format!("stats:{}", f.id), format!("{:?}", f.stats)));
        }
        out
    }

    fn assert_same_stores(incremental: &Estocada, fresh: &Estocada) {
        for (a, b) in snapshot(incremental).iter().zip(snapshot(fresh).iter()) {
            assert_eq!(a.0, b.0, "store object sets differ");
            assert_eq!(a.1, b.1, "{} diverged from rematerialization", a.0);
        }
    }

    #[test]
    fn mixed_dml_matches_a_fresh_rematerialization() {
        let mut est = deploy(shop(&[(1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 2, 20)]));
        est.insert_rows(
            "shop",
            "Orders",
            vec![
                vec![Value::Int(5), Value::Int(1), Value::Int(70)],
                vec![Value::Int(6), Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        est.delete_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(2), Value::Int(1), Value::Int(20)]],
        )
        .unwrap();
        est.upsert_rows(
            "shop",
            "Users",
            vec![vec![Value::Int(2), Value::str("bobby")]],
        )
        .unwrap();
        est.upsert_rows(
            "shop",
            "Products",
            vec![vec![Value::Int(1), Value::str("wireless trackball mouse")]],
        )
        .unwrap();
        assert_eq!(est.data_epoch(), 4);
        let m = est.maintenance().expect("seeded by DML");
        for f in est.catalog().fragments() {
            assert_eq!(m.high_water(&f.id), Some(4));
        }

        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
    }

    #[test]
    fn every_high_water_mark_advances_with_the_data_epoch() {
        let mut est = deploy(shop(&[(1, 1, 10)]));
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(2), Value::Int(2), Value::Int(5)]],
        )
        .unwrap();
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(3), Value::Int(1), Value::Int(7)]],
        )
        .unwrap();
        assert_eq!(est.data_epoch(), 2);
        let m = est.maintenance().unwrap();
        for f in est.catalog().fragments() {
            assert_eq!(
                m.high_water(&f.id),
                Some(2),
                "fragment {} lags the data epoch",
                f.id
            );
        }
    }

    #[test]
    fn rejected_batches_are_atomic() {
        let mut est = deploy(shop(&[(1, 1, 10)]));
        let before = snapshot(&est);
        let err = est
            .delete_rows(
                "shop",
                "Orders",
                vec![
                    vec![Value::Int(1), Value::Int(1), Value::Int(10)],
                    vec![Value::Int(99), Value::Int(9), Value::Int(9)],
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        assert_eq!(
            est.data_epoch(),
            0,
            "rejected batch must not bump the epoch"
        );
        assert_eq!(
            snapshot(&est),
            before,
            "rejected batch must not touch stores"
        );
        let err = est
            .insert_rows("shop", "Orders", vec![vec![Value::Int(7)]])
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        let err = est.insert_rows("nope", "Orders", vec![]).unwrap_err();
        assert!(matches!(err, Error::UnknownName(_)), "got {err}");
    }

    #[test]
    fn upsert_without_a_declared_key_is_rejected() {
        let mut est = deploy(shop(&[(1, 1, 10)]));
        let err = est
            .upsert_rows(
                "shop",
                "Clicks",
                vec![vec![Value::Int(1), Value::str("about")]],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
    }

    #[test]
    fn dml_keeps_cached_plans_and_serves_fresh_rows() {
        let mut est = deploy(shop(&[(1, 1, 10), (2, 2, 20)]));
        let sql = "SELECT o.oid, o.amount FROM Orders o WHERE o.uid = 1";
        let _ = est.query_sql(sql).unwrap();
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(3), Value::Int(1), Value::Int(30)]],
        )
        .unwrap();
        let r = est.query_sql(sql).unwrap();
        assert!(
            r.report.plan_cache.as_ref().is_some_and(|pc| pc.hit),
            "DML must not invalidate the rewrite-plan cache"
        );
        let mut rows = r.rows.clone();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(3), Value::Int(30)],
            ],
            "reader must observe the write"
        );
        // DDL, by contrast, drops the maintenance state with the epoch.
        assert!(est.maintenance().is_some());
        est.add_fragment(FragmentSpec::KeyValue {
            view: CqBuilder::new("UsersKV")
                .head_vars(["uid", "name"])
                .atom("Users", |a| a.v("uid").v("name"))
                .build(),
        })
        .unwrap();
        assert!(est.maintenance().is_none(), "DDL must reset maintenance");
    }

    #[test]
    fn dml_keeps_cached_lints() {
        // The lint cache keys on the catalog epoch alone; a DML batch
        // bumps only the data epoch, so the post-write query must be
        // served from the lint cache — no per-query re-analysis.
        let mut est = deploy(shop(&[(1, 1, 10), (2, 2, 20)]));
        let sql = "SELECT o.oid, o.amount FROM Orders o WHERE o.uid = 1";
        let first = est.query_sql(sql).unwrap();
        let lc = first.report.lint_cache.expect("lint activity");
        assert!(!lc.hit, "first run computes the lints");
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(3), Value::Int(1), Value::Int(30)]],
        )
        .unwrap();
        let before = est.lint_cache_stats();
        let r = est.query_sql(sql).unwrap();
        let lc = r.report.lint_cache.expect("lint activity");
        assert!(lc.hit, "DML must not invalidate the lint cache");
        assert_eq!(
            est.lint_cache_stats().misses,
            before.misses,
            "no lint recomputation after a write"
        );
        // DDL bumps the catalog epoch and genuinely invalidates lints.
        est.add_fragment(FragmentSpec::KeyValue {
            view: CqBuilder::new("UsersKV2")
                .head_vars(["uid", "name"])
                .atom("Users", |a| a.v("uid").v("name"))
                .build(),
        })
        .unwrap();
        let r = est.query_sql(sql).unwrap();
        assert!(
            r.report.lint_cache.is_some_and(|lc| !lc.hit),
            "DDL must invalidate cached lints"
        );
    }

    #[test]
    fn delete_only_touches_support_crossings() {
        // Orders 1 and 2 derive the same BigOrders row (uid, name, amount):
        // deleting one of them must leave the table row in place.
        let mut est = deploy(shop(&[(1, 1, 50), (2, 1, 50), (3, 2, 30)]));
        let r = est
            .delete_rows(
                "shop",
                "Orders",
                vec![vec![Value::Int(1), Value::Int(1), Value::Int(50)]],
            )
            .unwrap();
        let big = r
            .fragment_deltas
            .iter()
            .find(|d| d.relation == "BigOrders")
            .map(|d| (d.store_deletes, d.store_inserts));
        assert!(
            big.is_none(),
            "support 2 -> 1 must not delete the store row (got {big:?})"
        );
        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
        // Deleting the second copy crosses to zero and removes the row.
        let r = est
            .delete_rows(
                "shop",
                "Orders",
                vec![vec![Value::Int(2), Value::Int(1), Value::Int(50)]],
            )
            .unwrap();
        let big = r
            .fragment_deltas
            .iter()
            .find(|d| d.relation == "BigOrders")
            .expect("0-crossing must reach the store");
        assert_eq!((big.store_deletes, big.store_inserts), (1, 0));
        assert_eq!(big.mode, "counting");
        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
    }
}
