//! Partitioned datasets of (possibly nested) rows.

use estocada_pivot::Value;
use std::collections::{HashMap, HashSet};

/// A key index over one or more columns: key values → (partition, row).
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// Indexed column positions.
    pub columns: Vec<usize>,
    /// Key tuple → row locations, sorted in partition order.
    pub map: HashMap<Vec<Value>, Vec<(u32, u32)>>,
}

impl KeyIndex {
    /// The key tuple of `row`.
    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|c| row[*c].clone()).collect()
    }

    /// Record `loc` under `row`'s key, keeping the location list sorted.
    fn add(&mut self, row: &[Value], loc: (u32, u32)) {
        let locs = self.map.entry(self.key_of(row)).or_default();
        let at = locs.binary_search(&loc).unwrap_or_else(|at| at);
        locs.insert(at, loc);
    }

    /// Drop `loc` from `row`'s key, and the key once it has no location.
    fn remove(&mut self, row: &[Value], loc: (u32, u32)) {
        let key = self.key_of(row);
        let locs = self.map.get_mut(&key).expect("indexed row has a key entry");
        let at = locs
            .binary_search(&loc)
            .expect("indexed row has its location");
        locs.remove(at);
        if locs.is_empty() {
            self.map.remove(&key);
        }
    }
}

/// A partitioned dataset. Rows may contain nested values (arrays of
/// objects) — this is the nested-relational model of the parallel store.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Column names.
    pub columns: Vec<String>,
    /// Row partitions.
    pub partitions: Vec<Vec<Vec<Value>>>,
    /// Optional key index.
    pub key_index: Option<KeyIndex>,
}

impl Dataset {
    /// Build a dataset from rows, hash-partitioned round-robin into
    /// `num_partitions` parts.
    pub fn from_rows(
        columns: &[&str],
        rows: impl IntoIterator<Item = Vec<Value>>,
        num_partitions: usize,
    ) -> Dataset {
        let n = num_partitions.max(1);
        let mut partitions: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
        for (i, row) in rows.into_iter().enumerate() {
            assert_eq!(row.len(), columns.len(), "row arity mismatch");
            partitions[i % n].push(row);
        }
        Dataset {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            partitions,
            key_index: None,
        }
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// `true` when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column position by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Build (or rebuild) the key index over `columns`.
    pub fn build_key_index(&mut self, columns: Vec<usize>) {
        let mut map: HashMap<Vec<Value>, Vec<(u32, u32)>> = HashMap::new();
        for (pi, part) in self.partitions.iter().enumerate() {
            for (ri, row) in part.iter().enumerate() {
                let key: Vec<Value> = columns.iter().map(|c| row[*c].clone()).collect();
                map.entry(key).or_default().push((pi as u32, ri as u32));
            }
        }
        self.key_index = Some(KeyIndex { columns, map });
    }

    /// Append rows round-robin across the existing partitions (continuing
    /// from the current total, so growth stays balanced). Each appended
    /// row's location joins the key index in place, when one exists.
    pub fn append_rows(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) {
        let n = self.partitions.len().max(1);
        for (next, row) in (self.len()..).zip(rows) {
            assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
            let p = next % n;
            if let Some(idx) = &mut self.key_index {
                idx.add(&row, (p as u32, self.partitions[p].len() as u32));
            }
            self.partitions[p].push(row);
        }
    }

    /// Remove the first stored row equal to each entry of `rows` (one
    /// instance per request, first in partition order). Returns how many
    /// rows were removed. A removed row's slot is filled by its
    /// partition's last row (`swap_remove`), so partition order is not
    /// kept. With a key index the rows are found through it, one pass over
    /// each target key's locations, and the index is updated in place;
    /// without one the partitions are searched until every row is found.
    pub fn remove_rows(&mut self, rows: &[Vec<Value>]) -> usize {
        let mut want: HashMap<&[Value], usize> = HashMap::new();
        for row in rows {
            *want.entry(row).or_insert(0) += 1;
        }
        let mut doomed: Vec<(usize, usize)> = Vec::new();
        let mut take = |loc: (usize, usize), row: &[Value]| {
            if let Some(n) = want.get_mut(row).filter(|n| **n > 0) {
                *n -= 1;
                doomed.push(loc);
            }
            doomed.len() == rows.len()
        };
        match &self.key_index {
            Some(idx) => {
                let keys: HashSet<Vec<Value>> = rows.iter().map(|r| idx.key_of(r)).collect();
                for locs in keys.iter().filter_map(|k| idx.map.get(k)) {
                    for &(p, r) in locs {
                        let (p, r) = (p as usize, r as usize);
                        take((p, r), &self.partitions[p][r]);
                    }
                }
            }
            None => {
                'scan: for (p, part) in self.partitions.iter().enumerate() {
                    for (r, row) in part.iter().enumerate() {
                        if take((p, r), row) {
                            break 'scan;
                        }
                    }
                }
            }
        }
        // Back to front: every row a removal moves into a freed slot comes
        // from past all doomed slots still to go, so no location goes stale.
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        for &(p, r) in &doomed {
            self.swap_remove_at(p, r);
        }
        doomed.len()
    }

    /// Remove the row at `(p, r)`, moving partition `p`'s last row into
    /// its slot and re-pointing that row's index entry.
    fn swap_remove_at(&mut self, p: usize, r: usize) {
        let last = self.partitions[p].len() - 1;
        let gone = self.partitions[p].swap_remove(r);
        if let Some(idx) = &mut self.key_index {
            idx.remove(&gone, (p as u32, r as u32));
            if r != last {
                let moved = &self.partitions[p][r];
                idx.remove(moved, (p as u32, last as u32));
                idx.add(moved, (p as u32, r as u32));
            }
        }
    }

    /// Rows matching `key` through the key index (panics if the index does
    /// not exist or the key arity mismatches).
    pub fn index_lookup(&self, key: &[Value]) -> Vec<&Vec<Value>> {
        let idx = self.key_index.as_ref().expect("dataset has no key index");
        assert_eq!(key.len(), idx.columns.len(), "key arity mismatch");
        idx.map
            .get(key)
            .map(|locs| {
                locs.iter()
                    .map(|(p, r)| &self.partitions[*p as usize][*r as usize])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Iterate all rows (sequential; the parallel paths live in
    /// [`crate::ops`]).
    pub fn iter_rows(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.partitions.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect()
    }

    #[test]
    fn partitioning_distributes_rows() {
        let d = Dataset::from_rows(&["id", "grp"], rows(10), 4);
        assert_eq!(d.partitions.len(), 4);
        assert_eq!(d.len(), 10);
        // Round-robin keeps partition sizes balanced within one row.
        let sizes: Vec<usize> = d.partitions.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn key_index_lookup() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 3);
        d.build_key_index(vec![1]);
        let hits = d.index_lookup(&[Value::Int(2)]);
        assert_eq!(hits.len(), 3); // ids 2,5,8
        assert!(d.index_lookup(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn composite_key_index() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 2);
        d.build_key_index(vec![0, 1]);
        assert_eq!(d.index_lookup(&[Value::Int(4), Value::Int(1)]).len(), 1);
        assert!(d.index_lookup(&[Value::Int(4), Value::Int(2)]).is_empty());
    }

    #[test]
    fn append_and_remove_maintain_the_key_index() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 3);
        d.build_key_index(vec![1]);
        d.append_rows(vec![vec![Value::Int(11), Value::Int(2)]]);
        assert_eq!(d.len(), 10);
        assert_eq!(d.index_lookup(&[Value::Int(2)]).len(), 4); // ids 2,5,8,11
        let removed = d.remove_rows(&[
            vec![Value::Int(2), Value::Int(2)],
            vec![Value::Int(99), Value::Int(0)], // absent: no-op
        ]);
        assert_eq!(removed, 1);
        assert_eq!(d.index_lookup(&[Value::Int(2)]).len(), 3);
    }

    /// The index as sorted `key → locations` lines, for comparison.
    fn render(idx: &KeyIndex) -> Vec<String> {
        let mut lines: Vec<String> = idx
            .map
            .iter()
            .map(|(k, locs)| format!("{k:?} -> {locs:?}"))
            .collect();
        lines.sort();
        lines
    }

    fn int_rows(raw: &[(i64, i64)]) -> Vec<Vec<Value>> {
        raw.iter()
            .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Appends and removals maintain the key index in place: after
        /// every step it equals an index rebuilt from scratch over the
        /// same partitions, and the rows (indexed or not) equal a multiset
        /// model. The tiny value domain forces duplicate rows, absent rows
        /// and removals of a partition's last row (op 2 removes exactly
        /// that).
        #[test]
        fn in_place_index_matches_a_rebuild(
            parts in 1..4usize,
            keyed in 0..3u8,
            seed in collection::vec((0..4i64, 0..3i64), 0..10),
            steps in collection::vec(
                (0..3u8, collection::vec((0..4i64, 0..3i64), 0..4), 0..4usize),
                1..24,
            ),
        ) {
            let cols = [None, Some(vec![1]), Some(vec![0, 1])][keyed as usize].clone();
            let mut model = int_rows(&seed);
            let mut d = Dataset::from_rows(&["id", "grp"], model.clone(), parts);
            if let Some(cols) = &cols {
                d.build_key_index(cols.clone());
            }
            for (op, raw, part) in steps {
                let batch = match op {
                    0 => {
                        let rows = int_rows(&raw);
                        model.extend(rows.iter().cloned());
                        d.append_rows(rows);
                        Vec::new()
                    }
                    1 => int_rows(&raw),
                    _ => d.partitions[part % parts].last().cloned().into_iter().collect(),
                };
                let mut expected = 0;
                for row in &batch {
                    if let Some(i) = model.iter().position(|m| m == row) {
                        model.swap_remove(i);
                        expected += 1;
                    }
                }
                prop_assert_eq!(d.remove_rows(&batch), expected);
                prop_assert_eq!(d.len(), model.len());
                let mut rows: Vec<_> = d.iter_rows().cloned().collect();
                rows.sort();
                let mut want = model.clone();
                want.sort();
                prop_assert_eq!(rows, want);
                if let Some(cols) = &cols {
                    let mut rebuilt = d.clone();
                    rebuilt.build_key_index(cols.clone());
                    prop_assert_eq!(
                        render(d.key_index.as_ref().unwrap()),
                        render(rebuilt.key_index.as_ref().unwrap())
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no key index")]
    fn lookup_without_index_panics() {
        let d = Dataset::from_rows(&["id"], vec![vec![Value::Int(1)]], 1);
        d.index_lookup(&[Value::Int(1)]);
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        let d = Dataset::from_rows(&["id"], vec![vec![Value::Int(1)]], 0);
        assert_eq!(d.partitions.len(), 1);
    }
}
