//! # estocada-textstore
//!
//! An in-memory full-text store — the SOLR/Lucene stand-in. Documents
//! (keyed by an application value, e.g. product id) are tokenized into an
//! inverted index. The pivot model exposes an index as a `(term, docKey)`
//! relation with an `io` binding pattern: the term must be supplied, and
//! [`TextStore::term_lookup`] returns the keys of the documents holding it
//! — exactly how the mediator integrates full-text fragments.

#![warn(missing_docs)]

pub mod tokenize;

pub use tokenize::tokenize;

use estocada_pivot::Value;
use estocada_simkit::{FaultHook, LatencyModel, RequestTimer, StoreError, StoreMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Default)]
struct TextIndex {
    /// `(key, raw text)` by internal doc id (the text is retained so
    /// documents can be removed by exact content and the index rebuilt).
    docs: Vec<(Value, String)>,
    /// term → ids of the documents holding it, in doc-id order.
    postings: HashMap<String, Vec<u32>>,
}

impl TextIndex {
    fn add(&mut self, key: Value, text: &str) {
        let id = self.docs.len() as u32;
        let mut terms = tokenize(text);
        terms.sort_unstable();
        terms.dedup();
        for term in terms {
            self.postings.entry(term).or_default().push(id);
        }
        self.docs.push((key, text.to_string()));
    }

    /// Rebuild a fresh index from (key, text) pairs — used after removals,
    /// where doc ids shift and postings must be recomputed.
    fn rebuild_from(pairs: Vec<(Value, String)>) -> TextIndex {
        let mut idx = TextIndex::default();
        for (k, t) in pairs {
            idx.add(k, &t);
        }
        idx
    }

    /// Keys of the documents holding `term`, in doc-id order.
    fn lookup(&self, term: &str) -> Vec<Value> {
        self.postings
            .get(term)
            .map(|p| {
                p.iter()
                    .map(|doc| self.docs[*doc as usize].0.clone())
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// The full-text store: named indexes.
#[derive(Debug, Default)]
pub struct TextStore {
    indexes: RwLock<HashMap<String, TextIndex>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
    latency: LatencyModel,
    fault: RwLock<Option<Arc<FaultHook>>>,
}

impl TextStore {
    /// A store with no simulated latency.
    pub fn new() -> TextStore {
        TextStore::default()
    }

    /// A store charging `latency` per request.
    pub fn with_latency(latency: LatencyModel) -> TextStore {
        TextStore {
            latency,
            ..TextStore::default()
        }
    }

    /// Index `text` under `key` in `index` (created on demand).
    pub fn index_document(&self, index: &str, key: Value, text: &str) {
        self.indexes
            .write()
            .entry(index.to_string())
            .or_default()
            .add(key, text);
    }

    /// Remove documents from `index`: each `(key, text)` entry removes
    /// **one** document whose key and exact raw text match. The index is
    /// rebuilt once after the batch (doc ids shift, so postings are
    /// recomputed). Returns how many documents were removed. Admin path: no
    /// metrics, latency, or fault hook — like
    /// [`TextStore::index_document`].
    pub fn remove_documents(&self, index: &str, docs: &[(Value, String)]) -> usize {
        let mut guard = self.indexes.write();
        let Some(idx) = guard.get_mut(index) else {
            return 0;
        };
        let mut pairs = idx.docs.clone();
        let mut removed = 0;
        for (key, text) in docs {
            if let Some(pos) = pairs.iter().position(|(k, t)| k == key && t == text) {
                pairs.remove(pos);
                removed += 1;
            }
        }
        if removed > 0 {
            *idx = TextIndex::rebuild_from(pairs);
        }
        removed
    }

    /// Keys of documents containing `term` — the binding-restricted
    /// relational access path (`Contains(term, docKey)` with pattern `io`).
    /// Consults the fault hook before the simulated request.
    pub fn term_lookup(&self, index: &str, term: &str) -> Result<Vec<Value>, StoreError> {
        if let Some(h) = self.fault.read().as_ref() {
            h.check("term_lookup")?;
        }
        let guard = self.indexes.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let normalized = tokenize(term);
        let out = match (guard.get(index), normalized.first()) {
            (Some(idx), Some(t)) => idx.lookup(t),
            _ => Vec::new(),
        };
        let bytes: usize = out.iter().map(Value::approx_size).sum();
        timer.set_output(out.len() as u64, bytes as u64);
        Ok(out)
    }

    /// Install (or clear) a fault-injection hook. [`TextStore::term_lookup`]
    /// consults it before the simulated request; the admin paths
    /// (`index_document`, `remove_documents`, `documents`, `len`, …) never
    /// do.
    pub fn set_fault_hook(&self, hook: Option<Arc<FaultHook>>) {
        *self.fault.write() = hook;
    }

    /// Dump of an index's `(key, raw text)` documents in insertion order
    /// (admin path: no metrics, no latency, no fault hook). Empty for
    /// unknown indexes.
    pub fn documents(&self, index: &str) -> Vec<(Value, String)> {
        self.indexes
            .read()
            .get(index)
            .map(|i| i.docs.clone())
            .unwrap_or_default()
    }

    /// Number of documents in an index.
    pub fn len(&self, index: &str) -> usize {
        self.indexes
            .read()
            .get(index)
            .map(|i| i.docs.len())
            .unwrap_or(0)
    }

    /// `true` when missing or empty.
    pub fn is_empty(&self, index: &str) -> bool {
        self.len(index) == 0
    }

    /// Drop an index; returns whether it existed.
    pub fn drop_index(&self, index: &str) -> bool {
        self.indexes.write().remove(index).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TextStore {
        let s = TextStore::new();
        s.index_document(
            "catalog",
            Value::Int(1),
            "Wireless optical mouse with USB receiver",
        );
        s.index_document("catalog", Value::Int(2), "Mechanical keyboard, USB");
        s.index_document(
            "catalog",
            Value::Int(3),
            "Wireless keyboard and mouse combo bundle with numeric pad, palm rest and extra cables",
        );
        s
    }

    #[test]
    fn term_lookup_returns_all_keys() {
        let s = store();
        let mut keys = s.term_lookup("catalog", "usb").unwrap();
        keys.sort();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(2)]);
        assert!(s.term_lookup("catalog", "ghost").unwrap().is_empty());
    }

    #[test]
    fn repeated_terms_post_each_document_once() {
        let s = store();
        s.index_document("catalog", Value::Int(4), "USB hub, usb cable, USB");
        assert_eq!(
            s.term_lookup("catalog", "usb").unwrap(),
            vec![Value::Int(1), Value::Int(2), Value::Int(4)]
        );
    }

    #[test]
    fn term_lookup_normalizes_case() {
        let s = store();
        assert_eq!(s.term_lookup("catalog", "USB").unwrap().len(), 2);
    }

    #[test]
    fn missing_index_is_empty() {
        let s = store();
        assert!(s.term_lookup("ghost", "x").unwrap().is_empty());
        assert!(s.is_empty("ghost"));
        assert_eq!(s.len("catalog"), 3);
    }

    #[test]
    fn remove_documents_rebuilds_the_index() {
        let s = store();
        let removed = s.remove_documents(
            "catalog",
            &[
                (
                    Value::Int(1),
                    "Wireless optical mouse with USB receiver".to_string(),
                ),
                (Value::Int(9), "no such document".to_string()),
            ],
        );
        assert_eq!(removed, 1);
        assert_eq!(s.len("catalog"), 2);
        // Postings were recomputed: "mouse" now only hits doc 3, "usb" doc 2.
        assert_eq!(
            s.term_lookup("catalog", "mouse").unwrap(),
            vec![Value::Int(3)]
        );
        assert_eq!(
            s.term_lookup("catalog", "usb").unwrap(),
            vec![Value::Int(2)]
        );
        assert_eq!(s.remove_documents("ghost", &[]), 0);
    }

    #[test]
    fn metrics_record_searches() {
        let s = store();
        s.term_lookup("catalog", "usb").unwrap();
        s.term_lookup("catalog", "ghost").unwrap();
        assert_eq!(s.metrics.snapshot().requests, 2);
    }
}
