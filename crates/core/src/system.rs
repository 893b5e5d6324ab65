//! The underlying DMS instances the mediator drives.

use estocada_docstore::DocStore;
use estocada_kvstore::KvStore;
use estocada_parstore::ParStore;
use estocada_relstore::RelStore;
use estocada_simkit::{LatencyModel, MetricsSnapshot};
use estocada_textstore::TextStore;
use std::fmt;
use std::sync::Arc;

/// Identifies a kind of underlying store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// Relational store (Postgres stand-in).
    Relational,
    /// Key-value store (Redis/Voldemort stand-in).
    KeyValue,
    /// Document store (MongoDB stand-in).
    Document,
    /// Full-text store (SOLR stand-in).
    Text,
    /// Parallel nested-relational store (Spark stand-in).
    Parallel,
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SystemId::Relational => "relational",
            SystemId::KeyValue => "key-value",
            SystemId::Document => "document",
            SystemId::Text => "text",
            SystemId::Parallel => "parallel",
        };
        write!(f, "{s}")
    }
}

/// Per-system latency configuration for a deployment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latencies {
    /// Relational store latency.
    pub relational: LatencyModel,
    /// Key-value store latency.
    pub key_value: LatencyModel,
    /// Document store latency.
    pub document: LatencyModel,
    /// Text store latency.
    pub text: LatencyModel,
    /// Parallel store latency.
    pub parallel: LatencyModel,
}

impl Latencies {
    /// All-zero latencies (unit tests).
    pub fn zero() -> Latencies {
        Latencies::default()
    }

    /// `true` when every model is zero (no simulated latency).
    pub fn is_zero(&self) -> bool {
        [
            self.relational,
            self.key_value,
            self.document,
            self.text,
            self.parallel,
        ]
        .iter()
        .all(|m| *m == LatencyModel::ZERO)
    }

    /// A calibration mimicking typical same-datacenter deployments of the
    /// real systems (documented in EXPERIMENTS.md): the key-value store has
    /// the cheapest per-request cost; the document store pays more per
    /// request and per returned document; the relational store pays a
    /// query-parse/plan overhead per request; the parallel store pays a
    /// job-dispatch overhead per request but little per tuple.
    pub fn datacenter() -> Latencies {
        Latencies {
            relational: LatencyModel {
                per_request_ns: 120_000,
                per_tuple_ns: 250,
                per_byte_ns: 1,
                per_scan_ns: 150,
            },
            key_value: LatencyModel {
                per_request_ns: 25_000,
                per_tuple_ns: 100,
                per_byte_ns: 1,
                per_scan_ns: 0,
            },
            document: LatencyModel {
                per_request_ns: 90_000,
                per_tuple_ns: 600,
                per_byte_ns: 2,
                per_scan_ns: 400,
            },
            text: LatencyModel {
                per_request_ns: 80_000,
                per_tuple_ns: 200,
                per_byte_ns: 1,
                per_scan_ns: 50,
            },
            parallel: LatencyModel {
                per_request_ns: 900_000,
                per_tuple_ns: 60,
                per_byte_ns: 1,
                per_scan_ns: 40,
            },
        }
    }

    /// The model of one system.
    pub fn of(&self, id: SystemId) -> LatencyModel {
        match id {
            SystemId::Relational => self.relational,
            SystemId::KeyValue => self.key_value,
            SystemId::Document => self.document,
            SystemId::Text => self.text,
            SystemId::Parallel => self.parallel,
        }
    }
}

/// The set of store instances of one deployment.
#[derive(Clone)]
pub struct Stores {
    /// Relational store.
    pub rel: Arc<RelStore>,
    /// Key-value store.
    pub kv: Arc<KvStore>,
    /// Document store.
    pub doc: Arc<DocStore>,
    /// Full-text store.
    pub text: Arc<TextStore>,
    /// Parallel store.
    pub par: Arc<ParStore>,
}

impl Stores {
    /// Instantiate all five stores with the given latencies.
    pub fn new(latencies: Latencies) -> Stores {
        Stores {
            rel: Arc::new(RelStore::with_latency(latencies.relational)),
            kv: Arc::new(KvStore::with_latency(latencies.key_value)),
            doc: Arc::new(DocStore::with_latency(latencies.document)),
            text: Arc::new(TextStore::with_latency(latencies.text)),
            par: Arc::new(ParStore::with_latency(latencies.parallel)),
        }
    }

    /// Snapshot every store's metrics.
    pub fn metrics(&self) -> Vec<(SystemId, MetricsSnapshot)> {
        vec![
            (SystemId::Relational, self.rel.metrics.snapshot()),
            (SystemId::KeyValue, self.kv.metrics.snapshot()),
            (SystemId::Document, self.doc.metrics.snapshot()),
            (SystemId::Text, self.text.metrics.snapshot()),
            (SystemId::Parallel, self.par.metrics.snapshot()),
        ]
    }

    /// Reset every store's metrics.
    pub fn reset_metrics(&self) {
        self.rel.metrics.reset();
        self.kv.metrics.reset();
        self.doc.metrics.reset();
        self.text.metrics.reset();
        self.par.metrics.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datacenter_calibration_orders_request_costs() {
        let l = Latencies::datacenter();
        assert!(l.key_value.per_request_ns < l.document.per_request_ns);
        assert!(l.document.per_request_ns < l.parallel.per_request_ns);
        assert_eq!(l.of(SystemId::KeyValue), l.key_value);
    }

    #[test]
    fn stores_construct_and_snapshot() {
        let s = Stores::new(Latencies::zero());
        let m = s.metrics();
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|(_, snap)| snap.requests == 0));
    }

    /// Every query op of every store consults its fault hook first (an
    /// armed hook fails it with the injected error before any request is
    /// charged); no admin op ever consults it.
    #[test]
    fn fault_hooks_guard_exactly_the_query_ops() {
        use estocada_docstore::{DocQuery, Filter, QueryNode};
        use estocada_parstore::{ColPred, ParOp};
        use estocada_pivot::Value;
        use estocada_relstore::{IndexKind, SqlQuery};
        use estocada_simkit::{FaultHook, FaultKind, FaultPlan, StoreError, StoreErrorKind};

        let s = Stores::new(Latencies::zero());
        let row = || vec![Value::Int(1), Value::str("a")];
        s.rel.create_table("t", &["k", "v"]);
        s.rel.insert_many("t", vec![row()]);
        s.kv.put("ns", Value::Int(1), &[Value::str("a")]);
        s.doc.insert("c", Value::object([("k", Value::Int(1))]));
        s.text.index_document("ix", Value::Int(1), "red shoe");
        s.par.create_dataset("d", &["k", "v"], vec![row()], 2);
        s.par.build_key_index("d", &["k"]);

        let mut q = SqlQuery::new();
        q.add_table("t");
        let dq = DocQuery::new("c").with(QueryNode::child("k").bind("k"));
        let pred = [ColPred {
            col: 1,
            op: ParOp::Eq,
            value: Value::str("a"),
        }];
        type Call<'a> = Box<dyn Fn() -> Result<(), StoreError> + 'a>;
        // Each query op, keyed by store and op name, its rows discarded.
        macro_rules! query {
            ($($sys:ident $op:literal => $call:expr,)*) => {
                vec![$((SystemId::$sys, $op, Box::new(|| $call.map(drop)) as Call<'_>),)*]
            };
        }
        let query_ops = query![
            Relational "query" => s.rel.query(&q),
            KeyValue "get" => s.kv.get("ns", &Value::Int(1)),
            KeyValue "mget" => s.kv.mget("ns", &[Value::Int(1)]),
            Document "find" => s.doc.find("c", &Filter::all(), None),
            Document "query" => s.doc.query(&dq),
            Parallel "scan" => s.par.scan("d", &pred, Some(&[0])),
            Parallel "lookup" => s.par.lookup("d", &[Value::Int(1)], &pred),
            Parallel "join" => s.par.join("d", "d", &["k"], &["k"]),
            Text "term_lookup" => s.text.term_lookup("ix", "shoe"),
        ];
        // Unarmed, every op succeeds: a failure below comes from the hook.
        for (sys, op, call) in &query_ops {
            call().unwrap_or_else(|e| panic!("{sys} {op}: {e}"));
        }
        s.reset_metrics();

        let systems = [
            SystemId::Relational,
            SystemId::KeyValue,
            SystemId::Document,
            SystemId::Text,
            SystemId::Parallel,
        ];
        let plan = Arc::new(systems.iter().fold(FaultPlan::new(1), |p, sys| {
            p.down(&sys.to_string(), FaultKind::Unavailable)
        }));
        let hooks: Vec<(SystemId, Arc<FaultHook>)> = systems
            .iter()
            .map(|sys| {
                (
                    *sys,
                    Arc::new(FaultHook::new(plan.clone(), &sys.to_string())),
                )
            })
            .collect();
        let hook = |sys: SystemId| hooks.iter().find(|(s, _)| *s == sys).unwrap().1.clone();
        s.rel.set_fault_hook(Some(hook(SystemId::Relational)));
        s.kv.set_fault_hook(Some(hook(SystemId::KeyValue)));
        s.doc.set_fault_hook(Some(hook(SystemId::Document)));
        s.text.set_fault_hook(Some(hook(SystemId::Text)));
        s.par.set_fault_hook(Some(hook(SystemId::Parallel)));

        for (sys, op, call) in &query_ops {
            let h = hook(*sys);
            let before = h.ops();
            let e = call().expect_err(op);
            assert_eq!(
                (e.store.as_str(), e.op.as_str(), e.op_index, e.kind),
                (h.store(), *op, before + 1, StoreErrorKind::Unavailable),
                "{sys} {op}"
            );
            assert_eq!(h.ops(), before + 1, "{sys} {op}");
        }
        assert!(
            s.metrics().iter().all(|(_, m)| m.requests == 0),
            "a faulted op must not reach the store"
        );

        // Each admin op, named, its result discarded.
        macro_rules! admin {
            ($($name:literal => $call:expr,)*) => {
                vec![$(($name, Box::new(|| { let _ = $call; }) as Box<dyn Fn() + '_>),)*]
            };
        }
        let admin_ops = admin![
            "rel create_table" => s.rel.create_table("t2", &["k"]),
            "rel insert_many" => s.rel.insert_many("t", vec![row()]),
            "rel delete_rows" => s.rel.delete_rows("t", &[row()]),
            "rel create_index" => s.rel.create_index("t", "k", IndexKind::Hash),
            "rel row_count" => s.rel.row_count("t"),
            "rel columns" => s.rel.columns("t"),
            "rel scan" => s.rel.scan("t"),
            "rel analyze" => s.rel.analyze("t"),
            "rel table_names" => s.rel.table_names(),
            "rel drop_table" => s.rel.drop_table("t2"),
            "kv put" => s.kv.put("ns", Value::Int(2), &[Value::str("b")]),
            "kv delete" => s.kv.delete("ns", &Value::Int(2)),
            "kv len" => s.kv.len("ns"),
            "kv is_empty" => s.kv.is_empty("ns"),
            "kv scan" => s.kv.scan("ns"),
            "kv namespace_names" => s.kv.namespace_names(),
            "kv drop_namespace" => s.kv.drop_namespace("ns2"),
            "doc insert" => s.doc.insert("c", Value::Int(2)),
            "doc insert_many" => s.doc.insert_many("c", [Value::Int(3)]),
            "doc remove_docs" => s.doc.remove_docs("c", &[Value::Int(3)]),
            "doc create_index" => s.doc.create_index("c", "k"),
            "doc len" => s.doc.len("c"),
            "doc is_empty" => s.doc.is_empty("c"),
            "doc scan" => s.doc.scan("c"),
            "doc collection_names" => s.doc.collection_names(),
            "doc drop_collection" => s.doc.drop_collection("c2"),
            "text index_document" => s.text.index_document("ix", Value::Int(2), "blue hat"),
            "text remove_documents" =>
                s.text.remove_documents("ix", &[(Value::Int(2), "blue hat".into())]),
            "text documents" => s.text.documents("ix"),
            "text len" => s.text.len("ix"),
            "text is_empty" => s.text.is_empty("ix"),
            "text drop_index" => s.text.drop_index("ix2"),
            "par create_dataset" => s.par.create_dataset("d2", &["k"], Vec::new(), 1),
            "par build_key_index" => s.par.build_key_index("d", &["v"]),
            "par dataset" => s.par.dataset("d"),
            "par insert_rows" => s.par.insert_rows("d", vec![row()]),
            "par delete_rows" => s.par.delete_rows("d", &[row()]),
            "par len" => s.par.len("d"),
            "par is_empty" => s.par.is_empty("d"),
            "par dataset_names" => s.par.dataset_names(),
            "par drop_dataset" => s.par.drop_dataset("d2"),
        ];
        let ops = || hooks.iter().map(|(_, h)| h.ops()).collect::<Vec<_>>();
        for (name, call) in &admin_ops {
            let before = ops();
            call();
            assert_eq!(ops(), before, "admin op {name} consulted a fault hook");
        }
    }
}
