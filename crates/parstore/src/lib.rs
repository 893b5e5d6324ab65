//! # estocada-parstore
//!
//! A partitioned, multi-threaded, nested-relational store — the Spark
//! stand-in. Datasets are row partitions (rows may hold nested arrays of
//! objects); delegated subqueries run as parallel filter / broadcast hash
//! join over the partitions; key indexes give the point-lookup path used
//! by the materialized-join fragment of the paper's motivating scenario
//! ("indexed by the user ID and product category").
//! Partition fan-out runs on the shared scoped-thread executor
//! ([`estocada_parexec`]), which merges worker results in partition order —
//! see [`ops`].

#![warn(missing_docs)]

pub mod dataset;
pub mod ops;

pub use dataset::{Dataset, KeyIndex};
pub use ops::{par_filter, par_join};

use estocada_pivot::Value;
use estocada_simkit::{FaultHook, LatencyModel, RequestTimer, StoreError, StoreMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Simple per-column predicate of the store's native scan API.
#[derive(Debug, Clone)]
pub struct ColPred {
    /// Column position.
    pub col: usize,
    /// Operator.
    pub op: ParOp,
    /// Comparison constant.
    pub value: Value,
}

/// Predicate operators of the parallel store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParOp {
    /// Equality.
    Eq,
    /// Strictly less.
    Lt,
    /// Strictly greater.
    Gt,
    /// Less or equal.
    Le,
    /// Greater or equal.
    Ge,
}

impl ColPred {
    fn eval(&self, row: &[Value]) -> bool {
        let v = &row[self.col];
        match self.op {
            ParOp::Eq => v == &self.value,
            ParOp::Lt => v < &self.value,
            ParOp::Gt => v > &self.value,
            ParOp::Le => v <= &self.value,
            ParOp::Ge => v >= &self.value,
        }
    }
}

/// The parallel store: named datasets.
#[derive(Debug, Default)]
pub struct ParStore {
    datasets: RwLock<HashMap<String, Arc<Dataset>>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
    latency: LatencyModel,
    fault: RwLock<Option<Arc<FaultHook>>>,
}

impl ParStore {
    /// A store with no simulated latency.
    pub fn new() -> ParStore {
        ParStore::default()
    }

    /// A store charging `latency` per request.
    pub fn with_latency(latency: LatencyModel) -> ParStore {
        ParStore {
            latency,
            ..ParStore::default()
        }
    }

    /// Default partition count: one per available core, capped at 8.
    pub fn default_partitions() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    }

    /// Create (or replace) a dataset.
    pub fn create_dataset(
        &self,
        name: &str,
        columns: &[&str],
        rows: impl IntoIterator<Item = Vec<Value>>,
        num_partitions: usize,
    ) {
        let ds = Dataset::from_rows(columns, rows, num_partitions);
        self.datasets.write().insert(name.to_string(), Arc::new(ds));
    }

    /// Build a key index over the named columns.
    pub fn build_key_index(&self, name: &str, columns: &[&str]) {
        let mut guard = self.datasets.write();
        let ds = guard
            .get(name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"));
        let mut new = (**ds).clone();
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                new.column_index(c)
                    .unwrap_or_else(|| panic!("unknown column {c} on {name}"))
            })
            .collect();
        new.build_key_index(cols);
        guard.insert(name.to_string(), Arc::new(new));
    }

    /// Handle to a dataset.
    pub fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets.read().get(name).cloned()
    }

    /// Append rows to a dataset (round-robin across its partitions; each
    /// row's location joins the key index in place). Copy-on-write: the
    /// dataset is mutated in place through [`Arc::make_mut`], which copies
    /// it first only while a reader still holds the current snapshot, so
    /// in-flight readers keep theirs. Admin path: no metrics, latency, or
    /// fault hook.
    pub fn insert_rows(&self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        let mut guard = self.datasets.write();
        let ds = guard
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"));
        Arc::make_mut(ds).append_rows(rows);
    }

    /// Delete rows from a dataset: each entry removes **one** matching
    /// stored row, found through the key index when one exists. Returns
    /// how many were removed. Same copy-on-write and admin-path semantics
    /// as [`ParStore::insert_rows`].
    pub fn delete_rows(&self, name: &str, rows: &[Vec<Value>]) -> usize {
        let mut guard = self.datasets.write();
        let ds = guard
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"));
        Arc::make_mut(ds).remove_rows(rows)
    }

    /// Parallel scan with predicates and optional projection. Consults the
    /// fault hook first; a predicate or projection column out of range is
    /// rejected before the simulated request.
    pub fn scan(
        &self,
        name: &str,
        preds: &[ColPred],
        projection: Option<&[usize]>,
    ) -> Result<Vec<Vec<Value>>, StoreError> {
        self.fault_check("scan")?;
        let Some(ds) = self.dataset(name) else {
            return Ok(Vec::new());
        };
        let cols = preds
            .iter()
            .map(|p| p.col)
            .chain(projection.into_iter().flatten().copied());
        check_columns("scan", name, &ds, cols)?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned(ds.len() as u64);
        let out = ops::par_filter(&ds, &|row| preds.iter().all(|p| p.eval(row)), projection);
        let bytes: usize = out
            .iter()
            .map(|r| r.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(out.len() as u64, bytes as u64);
        Ok(out)
    }

    /// Point lookup through the key index (plus residual predicates).
    /// Consults the fault hook first; a dataset without a key index, a key
    /// of the wrong arity, or a predicate column out of range is rejected
    /// before the simulated request.
    pub fn lookup(
        &self,
        name: &str,
        key: &[Value],
        preds: &[ColPred],
    ) -> Result<Vec<Vec<Value>>, StoreError> {
        self.fault_check("lookup")?;
        let Some(ds) = self.dataset(name) else {
            return Ok(Vec::new());
        };
        let indexed = ds.key_index.as_ref().map(|idx| idx.columns.len());
        if indexed != Some(key.len()) {
            let why = match indexed {
                None => format!("dataset {name} has no key index"),
                Some(n) => format!("key of arity {} on dataset {name} keyed by {n}", key.len()),
            };
            return Err(StoreError::internal("parallel", "lookup", why));
        }
        check_columns("lookup", name, &ds, preds.iter().map(|p| p.col))?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let out: Vec<Vec<Value>> = ds
            .index_lookup(key)
            .into_iter()
            .filter(|r| preds.iter().all(|p| p.eval(r)))
            .cloned()
            .collect();
        let bytes: usize = out
            .iter()
            .map(|r| r.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(out.len() as u64, bytes as u64);
        Ok(out)
    }

    /// Parallel equi-join of two datasets (`left ++ right` output).
    /// Consults the fault hook first; an unknown join column or unequal
    /// key lists are rejected before the simulated request.
    pub fn join(
        &self,
        left: &str,
        right: &str,
        left_keys: &[&str],
        right_keys: &[&str],
    ) -> Result<Vec<Vec<Value>>, StoreError> {
        self.fault_check("join")?;
        let (Some(l), Some(r)) = (self.dataset(left), self.dataset(right)) else {
            return Ok(Vec::new());
        };
        if left_keys.len() != right_keys.len() {
            return Err(StoreError::internal(
                "parallel",
                "join",
                format!(
                    "{} left key(s) against {} right key(s)",
                    left_keys.len(),
                    right_keys.len()
                ),
            ));
        }
        let lk = join_columns(left, &l, left_keys)?;
        let rk = join_columns(right, &r, right_keys)?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned((l.len() + r.len()) as u64);
        let out = ops::par_join(&l, &r, &lk, &rk);
        let bytes: usize = out
            .iter()
            .map(|row| row.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(out.len() as u64, bytes as u64);
        Ok(out)
    }

    /// Install (or clear) a fault-injection hook. The query operations
    /// ([`ParStore::scan`], [`ParStore::lookup`], [`ParStore::join`])
    /// consult it before anything else; the admin paths (`insert_rows`,
    /// `delete_rows`, `dataset`, `len`, …) never do.
    pub fn set_fault_hook(&self, hook: Option<Arc<FaultHook>>) {
        *self.fault.write() = hook;
    }

    fn fault_check(&self, op: &str) -> Result<(), StoreError> {
        match self.fault.read().as_ref() {
            Some(h) => h.check(op),
            None => Ok(()),
        }
    }

    /// Row count of a dataset.
    pub fn len(&self, name: &str) -> usize {
        self.dataset(name).map(|d| d.len()).unwrap_or(0)
    }

    /// `true` when missing or empty.
    pub fn is_empty(&self, name: &str) -> bool {
        self.len(name) == 0
    }

    /// Drop a dataset; returns whether it existed.
    pub fn drop_dataset(&self, name: &str) -> bool {
        self.datasets.write().remove(name).is_some()
    }

    /// Names of all datasets.
    pub fn dataset_names(&self) -> Vec<String> {
        self.datasets.read().keys().cloned().collect()
    }
}

/// Reject column positions outside `ds`'s arity.
fn check_columns(
    op: &str,
    name: &str,
    ds: &Dataset,
    mut cols: impl Iterator<Item = usize>,
) -> Result<(), StoreError> {
    match cols.find(|c| *c >= ds.columns.len()) {
        Some(c) => Err(StoreError::internal(
            "parallel",
            op,
            format!(
                "column {c} out of range on dataset {name} of {} column(s)",
                ds.columns.len()
            ),
        )),
        None => Ok(()),
    }
}

/// Resolve join column names to positions on `ds`.
fn join_columns(name: &str, ds: &Dataset, keys: &[&str]) -> Result<Vec<usize>, StoreError> {
    keys.iter()
        .map(|c| {
            ds.column_index(c).ok_or_else(|| {
                StoreError::internal("parallel", "join", format!("unknown column {c} on {name}"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParStore {
        let s = ParStore::new();
        s.create_dataset(
            "visits",
            &["user", "url", "revenue"],
            (0..1000).map(|i| {
                vec![
                    Value::Int(i % 100),
                    Value::str(format!("url{}", i % 10)),
                    Value::Double(i as f64 * 0.01),
                ]
            }),
            4,
        );
        s
    }

    #[test]
    fn scan_with_predicates() {
        let s = store();
        let out = s
            .scan(
                "visits",
                &[ColPred {
                    col: 0,
                    op: ParOp::Eq,
                    value: Value::Int(7),
                }],
                Some(&[1]),
            )
            .unwrap();
        assert_eq!(out.len(), 10);
        assert!(s.metrics.snapshot().tuples_scanned >= 1000);
    }

    #[test]
    fn lookup_via_key_index() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let out = s.lookup("visits", &[Value::Int(7)], &[]).unwrap();
        assert_eq!(out.len(), 10);
        // Residual predicate narrows further.
        let narrowed = s
            .lookup(
                "visits",
                &[Value::Int(7)],
                &[ColPred {
                    col: 1,
                    op: ParOp::Eq,
                    value: Value::str("url7"),
                }],
            )
            .unwrap();
        assert_eq!(narrowed.len(), 10); // user 7 always hits url7
    }

    #[test]
    fn join_across_datasets() {
        let s = store();
        s.create_dataset(
            "users",
            &["uid", "tier"],
            (0..100).map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "gold" } else { "free" }),
                ]
            }),
            2,
        );
        let out = s.join("visits", "users", &["user"], &["uid"]).unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(out[0].len(), 5);
    }

    #[test]
    fn missing_dataset_yields_empty() {
        let s = store();
        assert!(s.scan("ghost", &[], None).unwrap().is_empty());
        assert!(s.join("ghost", "visits", &[], &[]).unwrap().is_empty());
        assert!(!s.drop_dataset("ghost"));
    }

    #[test]
    fn insert_and_delete_rows_swap_in_a_new_snapshot() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let before = s.dataset("visits").unwrap();
        s.insert_rows(
            "visits",
            vec![vec![Value::Int(7), Value::str("url7"), Value::Double(9.9)]],
        );
        // The pre-mutation handle still sees the old snapshot.
        assert_eq!(before.len(), 1000);
        assert_eq!(s.len("visits"), 1001);
        assert_eq!(s.lookup("visits", &[Value::Int(7)], &[]).unwrap().len(), 11);
        let removed = s.delete_rows(
            "visits",
            &[
                vec![Value::Int(7), Value::str("url7"), Value::Double(9.9)],
                vec![Value::Int(-1), Value::str("ghost"), Value::Double(0.0)],
            ],
        );
        assert_eq!(removed, 1);
        assert_eq!(s.len("visits"), 1000);
        assert_eq!(s.lookup("visits", &[Value::Int(7)], &[]).unwrap().len(), 10);
    }

    #[test]
    fn nested_rows_are_supported() {
        let s = ParStore::new();
        s.create_dataset(
            "history",
            &["user", "purchases"],
            vec![vec![
                Value::Int(1),
                Value::array([Value::object([("sku", Value::str("a"))])]),
            ]],
            2,
        );
        s.build_key_index("history", &["user"]);
        let out = s.lookup("history", &[Value::Int(1)], &[]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0][1], Value::Array(_)));
    }

    /// A rejected request: an `Internal` error naming the op, and nothing
    /// charged to the store.
    fn assert_rejected(s: &ParStore, res: Result<Vec<Vec<Value>>, StoreError>, op: &str) {
        let e = res.expect_err("bad input must be rejected");
        assert!(matches!(
            e.kind,
            estocada_simkit::StoreErrorKind::Internal(_)
        ));
        assert_eq!((e.store.as_str(), e.op.as_str()), ("parallel", op));
        assert_eq!(s.metrics.snapshot().requests, 0);
    }

    #[test]
    fn join_on_an_unknown_column_is_an_error() {
        let s = store();
        assert_rejected(&s, s.join("visits", "visits", &["nope"], &["user"]), "join");
        assert_rejected(&s, s.join("visits", "visits", &["user"], &["nope"]), "join");
        assert_rejected(&s, s.join("visits", "visits", &["user"], &[]), "join");
    }

    #[test]
    fn lookup_without_a_key_index_is_an_error() {
        let s = store();
        assert_rejected(&s, s.lookup("visits", &[Value::Int(7)], &[]), "lookup");
    }

    #[test]
    fn lookup_with_a_key_of_the_wrong_arity_is_an_error() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let key = [Value::Int(7), Value::str("url7")];
        assert_rejected(&s, s.lookup("visits", &key, &[]), "lookup");
        assert_rejected(&s, s.lookup("visits", &[], &[]), "lookup");
    }

    #[test]
    fn out_of_range_columns_are_an_error() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let bad = [ColPred {
            col: 3,
            op: ParOp::Eq,
            value: Value::Int(7),
        }];
        assert_rejected(&s, s.scan("visits", &bad, None), "scan");
        assert_rejected(&s, s.scan("visits", &[], Some(&[0, 3])), "scan");
        assert_rejected(&s, s.lookup("visits", &[Value::Int(7)], &bad), "lookup");
    }
}
