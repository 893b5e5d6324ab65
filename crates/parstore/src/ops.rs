//! Parallel dataset operations: scan/filter and broadcast hash join — the
//! delegable operations of the parallel store ("if the DMS has a
//! distributed architecture, the delegated subquery will be evaluated in
//! parallel fashion").
//!
//! Both operators fan their per-partition work out through the shared
//! scoped-thread executor ([`estocada_parexec::scoped_map`]) and merge the
//! results **in partition order**, so every operator is deterministic: the
//! output is identical to a serial partition-by-partition run regardless of
//! worker scheduling.

use crate::dataset::Dataset;
use estocada_parexec::scoped_map;
use estocada_pivot::Value;
use std::collections::HashMap;

/// Parallel filter + projection over all partitions.
///
/// `pred` runs on every row; `projection` (if given) restricts the output
/// columns. Returns the surviving rows (partition order preserved).
pub fn par_filter(
    ds: &Dataset,
    pred: &(dyn Fn(&[Value]) -> bool + Sync),
    projection: Option<&[usize]>,
) -> Vec<Vec<Value>> {
    scoped_map(ds.partitions.len(), &ds.partitions, |_, part| {
        let mut out = Vec::new();
        for row in part {
            if pred(row) {
                out.push(project(row, projection));
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Broadcast hash join: build a hash table of `right` (assumed the smaller
/// side) on `right_keys`, probe `left` partitions in parallel. Output rows
/// are `left ++ right`.
pub fn par_join(
    left: &Dataset,
    right: &Dataset,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Vec<Vec<Value>> {
    assert_eq!(left_keys.len(), right_keys.len(), "join key arity");
    let mut table: HashMap<Vec<Value>, Vec<&Vec<Value>>> = HashMap::new();
    for row in right.iter_rows() {
        let key: Vec<Value> = right_keys.iter().map(|c| row[*c].clone()).collect();
        table.entry(key).or_default().push(row);
    }
    let table = &table;
    scoped_map(left.partitions.len(), &left.partitions, |_, part| {
        let mut out = Vec::new();
        for lrow in part {
            let key: Vec<Value> = left_keys.iter().map(|c| lrow[*c].clone()).collect();
            if let Some(matches) = table.get(&key) {
                for rrow in matches {
                    let mut joined = lrow.clone();
                    joined.extend(rrow.iter().cloned());
                    out.push(joined);
                }
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

fn project(row: &[Value], projection: Option<&[usize]>) -> Vec<Value> {
    match projection {
        None => row.to_vec(),
        Some(cols) => cols.iter().map(|c| row[*c].clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_rows(
            &["id", "grp", "amount"],
            (0..100).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Double((i as f64) * 0.5),
                ]
            }),
            8,
        )
    }

    #[test]
    fn par_filter_matches_sequential() {
        let d = dataset();
        let par = par_filter(&d, &|r| r[1] == Value::Int(2), None);
        let seq: Vec<_> = d
            .iter_rows()
            .filter(|r| r[1] == Value::Int(2))
            .cloned()
            .collect();
        assert_eq!(par.len(), seq.len());
        let mut p = par.clone();
        let mut s = seq;
        p.sort();
        s.sort();
        assert_eq!(p, s);
    }

    #[test]
    fn par_filter_projection() {
        let d = dataset();
        let out = par_filter(&d, &|r| r[0] == Value::Int(5), Some(&[2]));
        assert_eq!(out, vec![vec![Value::Double(2.5)]]);
    }

    #[test]
    fn par_filter_preserves_partition_order() {
        // Identity filter must reproduce the exact row order of iter_rows
        // (which walks partitions in order) — the deterministic fan-in
        // contract of the shared executor.
        let d = dataset();
        let par = par_filter(&d, &|_| true, None);
        let seq: Vec<_> = d.iter_rows().cloned().collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_dataset_ops_yield_empty() {
        let empty = Dataset::from_rows(&["id", "grp", "amount"], Vec::new(), 4);
        assert!(par_filter(&empty, &|_| true, None).is_empty());
        assert!(par_join(&empty, &dataset(), &[1], &[1]).is_empty());
    }

    #[test]
    fn single_partition_runs_inline() {
        let d = Dataset::from_rows(
            &["id"],
            (0..10).map(|i| vec![Value::Int(i)]),
            1, // one partition → executor takes the serial path
        );
        let out = par_filter(&d, &|r| r[0].as_int().unwrap() % 2 == 0, None);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn predicate_panic_propagates() {
        let d = dataset();
        let result = std::panic::catch_unwind(|| {
            par_filter(
                &d,
                &|r| {
                    if r[0] == Value::Int(42) {
                        panic!("bad row");
                    }
                    true
                },
                None,
            )
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn par_join_matches_nested_loop() {
        let left = dataset();
        let right = Dataset::from_rows(
            &["grp", "label"],
            (0..4).map(|g| vec![Value::Int(g), Value::str(format!("g{g}"))]),
            2,
        );
        let joined = par_join(&left, &right, &[1], &[0]);
        assert_eq!(joined.len(), 100); // every row has exactly one group
        for row in &joined {
            assert_eq!(row.len(), 5);
            assert_eq!(row[1], row[3]); // join keys equal
        }
    }

    #[test]
    fn par_join_with_no_matches() {
        let left = dataset();
        let right = Dataset::from_rows(&["grp"], vec![vec![Value::Int(99)]], 1);
        assert!(par_join(&left, &right, &[1], &[0]).is_empty());
    }
}
