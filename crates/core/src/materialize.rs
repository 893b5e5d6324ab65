//! Fragment materialization: evaluating a view over the application
//! datasets (in the pivot model) and loading the result into the target
//! store, restructuring the data across models as needed — the error-prone
//! manual migration of the motivating scenario, automated.

use crate::catalog::{
    DocRole, FragmentMeta, FragmentRelation, FragmentSpec, FragmentStats, WhereSpec,
};
use crate::dataset::{Dataset, DatasetContent};
use crate::error::{Error, Result};
use crate::system::Stores;
use estocada_chase::{find_homs, Elem, HomConfig, Instance};
use estocada_pivot::encoding::document::DocRelations;
use estocada_pivot::{AccessPattern, Cq, Fact, Symbol, Term, Value, ViewDef};
use estocada_relstore::IndexKind;
use std::collections::{HashMap, HashSet};

/// Build a ground-fact instance (the staging database used to evaluate view
/// definitions).
pub fn fact_base(facts: &[Fact]) -> Instance {
    let mut inst = Instance::new();
    for f in facts {
        inst.insert(f.pred, f.args.iter().map(Elem::constant).collect());
    }
    inst
}

/// Project one homomorphism onto a view's head row (`None` when a head
/// variable maps to a labelled null — never the case over ground bases).
pub(crate) fn project_head(view: &Cq, h: &estocada_chase::Hom) -> Option<Vec<Value>> {
    view.head
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => h.map.get(v).and_then(Elem::as_value),
        })
        .collect()
}

/// Evaluate a view over the fact base: all homomorphic images of the body,
/// projected on the head. Duplicate rows are eliminated (set semantics of
/// the pivot model).
pub fn evaluate_view(base: &Instance, view: &Cq) -> Vec<Vec<Value>> {
    let homs = find_homs(base, &view.body, &HashMap::new(), HomConfig::default());
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for h in homs {
        if let Some(row) = project_head(view, &h) {
            if seen.insert(row.clone()) {
                out.push(row);
            }
        }
    }
    out
}

/// Compute statistics over materialized rows.
pub fn stats_of_rows(rows: &[Vec<Value>], arity: usize) -> FragmentStats {
    let mut distinct: Vec<HashSet<&Value>> = vec![HashSet::new(); arity];
    let mut bytes = 0u64;
    for r in rows {
        for (i, v) in r.iter().enumerate() {
            if i < arity {
                distinct[i].insert(v);
            }
            bytes += v.approx_size() as u64;
        }
    }
    FragmentStats {
        rows: rows.len() as u64,
        distinct: distinct.iter().map(|d| d.len() as u64).collect(),
        bytes,
    }
}

/// Statistics of a text index over `rows` documents (a rough model: ~8
/// indexed terms per document).
pub(crate) fn text_index_stats(rows: u64) -> FragmentStats {
    FragmentStats {
        rows: rows * 8,
        distinct: vec![rows * 4, rows],
        bytes: rows * 64,
    }
}

/// Head column names of a view (variable names, falling back to `c{i}`).
pub fn head_columns(view: &Cq) -> Vec<String> {
    view.head
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Term::Var(v) => {
                let n = view.var_name(*v);
                if n.starts_with('?') {
                    format!("c{i}")
                } else {
                    n
                }
            }
            Term::Const(_) => format!("c{i}"),
        })
        .collect()
}

/// Materialize `spec` as fragment `id`: evaluates views over `base`, loads
/// the target store, and returns the registered metadata.
pub fn materialize(
    id: &str,
    spec: FragmentSpec,
    base: &Instance,
    datasets: &HashMap<String, Dataset>,
    stores: &Stores,
) -> Result<FragmentMeta> {
    let system = spec.system();
    let mut relations = Vec::new();
    let mut stats = Vec::new();

    match &spec {
        FragmentSpec::Table { view, index_on } => {
            check_view(view)?;
            let rows = evaluate_view(base, view);
            let columns = head_columns(view);
            let table = view.name.as_str().to_string();
            let colrefs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
            stores.rel.create_table(&table, &colrefs);
            stores.rel.insert_many(&table, rows.iter().cloned());
            for ix in index_on {
                if !columns.contains(ix) {
                    return Err(Error::BadFragment(format!(
                        "index column {ix} not in view head"
                    )));
                }
                stores.rel.create_index(&table, ix, IndexKind::BTree);
            }
            stats.push(stats_of_rows(&rows, columns.len()));
            relations.push(FragmentRelation {
                name: view.name,
                view: ViewDef::new(view.clone()),
                access: None,
                place: WhereSpec::Table { table, columns },
            });
        }
        FragmentSpec::KeyValue { view } => {
            check_view(view)?;
            if view.head.is_empty() {
                return Err(Error::BadFragment(
                    "key-value view needs a key column".into(),
                ));
            }
            let rows = evaluate_view(base, view);
            let columns = head_columns(view);
            let namespace = view.name.as_str().to_string();
            // Group rows per key: a key maps to the *list* of its value
            // tuples (like a Redis list), so non-unique keys keep every
            // row. Value tuples are sorted within their key so a packed
            // entry is a canonical function of the row *set* — incremental
            // DML maintenance repacks affected keys byte-identically.
            let mut groups: HashMap<Value, Vec<Value>> = HashMap::new();
            for r in &rows {
                groups
                    .entry(r[0].clone())
                    .or_default()
                    .push(Value::array(r[1..].iter().cloned()));
            }
            for (k, mut vrows) in groups {
                vrows.sort();
                stores.kv.put(&namespace, k, &[Value::array(vrows)]);
            }
            let pattern = {
                let mut s = String::from("i");
                s.extend(std::iter::repeat_n('o', columns.len() - 1));
                AccessPattern::parse(&s)
            };
            stats.push(stats_of_rows(&rows, columns.len()));
            relations.push(FragmentRelation {
                name: view.name,
                view: ViewDef::new(view.clone()),
                access: Some(pattern),
                place: WhereSpec::Namespace {
                    namespace,
                    value_columns: columns[1..].to_vec(),
                },
            });
        }
        FragmentSpec::DocRows { view, index_on } => {
            check_view(view)?;
            let rows = evaluate_view(base, view);
            let columns = head_columns(view);
            let collection = view.name.as_str().to_string();
            stores.doc.insert_many(
                &collection,
                rows.iter()
                    .map(|r| Value::object_owned(columns.iter().cloned().zip(r.iter().cloned()))),
            );
            for ix in index_on {
                if !columns.contains(ix) {
                    return Err(Error::BadFragment(format!(
                        "index column {ix} not in view head"
                    )));
                }
                stores.doc.create_index(&collection, ix);
            }
            stats.push(stats_of_rows(&rows, columns.len()));
            relations.push(FragmentRelation {
                name: view.name,
                view: ViewDef::new(view.clone()),
                access: None,
                place: WhereSpec::Collection {
                    collection,
                    columns,
                },
            });
        }
        FragmentSpec::ParRows {
            view,
            index_on,
            partitions,
        } => {
            check_view(view)?;
            let rows = evaluate_view(base, view);
            let columns = head_columns(view);
            let dataset = view.name.as_str().to_string();
            let colrefs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
            let parts = if *partitions == 0 {
                estocada_parstore::ParStore::default_partitions()
            } else {
                *partitions
            };
            stores
                .par
                .create_dataset(&dataset, &colrefs, rows.iter().cloned(), parts);
            let mut indexed = Vec::new();
            if !index_on.is_empty() {
                for ix in index_on {
                    let pos = columns.iter().position(|c| c == ix).ok_or_else(|| {
                        Error::BadFragment(format!("index column {ix} not in view head"))
                    })?;
                    indexed.push(pos);
                }
                let ixrefs: Vec<&str> = index_on.iter().map(|s| s.as_str()).collect();
                stores.par.build_key_index(&dataset, &ixrefs);
            }
            stats.push(stats_of_rows(&rows, columns.len()));
            relations.push(FragmentRelation {
                name: view.name,
                view: ViewDef::new(view.clone()),
                access: None,
                place: WhereSpec::ParDataset {
                    dataset,
                    columns,
                    indexed,
                },
            });
        }
        FragmentSpec::NativeDoc { dataset } => {
            let ds = datasets
                .get(dataset)
                .ok_or_else(|| Error::UnknownName(dataset.clone()))?;
            let docs = match &ds.content {
                DatasetContent::Documents(docs) => docs,
                DatasetContent::Relational(_) => {
                    return Err(Error::BadFragment(format!(
                        "{dataset} is not a document dataset"
                    )))
                }
            };
            stores
                .doc
                .insert_many(dataset, docs.iter().map(|d| d.body.clone()));
            let src = DocRelations::for_collection(dataset);
            let frag = DocRelations::for_collection(&format!("{dataset}F"));
            let roles = [
                (frag.doc, src.doc, DocRole::Doc, 2usize),
                (frag.root, src.root, DocRole::Root, 2),
                (frag.node, src.node, DocRole::Node, 2),
                (frag.child, src.child, DocRole::Child, 2),
                (frag.desc, src.desc, DocRole::Desc, 2),
                (frag.val, src.val, DocRole::Val, 2),
            ];
            for (fname, sname, role, arity) in roles {
                let view = identity_view(fname, sname, arity);
                let nrows = base.facts_of(sname).count() as u64;
                stats.push(FragmentStats {
                    rows: nrows,
                    distinct: vec![nrows; arity],
                    bytes: nrows * 16,
                });
                relations.push(FragmentRelation {
                    name: fname,
                    view: ViewDef::new(view),
                    access: None,
                    place: WhereSpec::NativeDocs {
                        collection: dataset.clone(),
                        role,
                    },
                });
            }
        }
        FragmentSpec::NativeTables { dataset, only } => {
            let ds = datasets
                .get(dataset)
                .ok_or_else(|| Error::UnknownName(dataset.clone()))?;
            let tables = match &ds.content {
                DatasetContent::Relational(tables) => tables,
                DatasetContent::Documents(_) => {
                    return Err(Error::BadFragment(format!(
                        "{dataset} is not a relational dataset"
                    )))
                }
            };
            for t in tables {
                if let Some(keep) = only {
                    if !keep
                        .iter()
                        .any(|k| k.as_str() == t.encoding.relation.as_str().as_ref())
                    {
                        continue;
                    }
                }
                let tname = t.encoding.relation.as_str().to_string();
                let columns = t.encoding.columns.clone();
                let colrefs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
                stores.rel.create_table(&tname, &colrefs);
                stores.rel.insert_many(&tname, t.rows.iter().cloned());
                if let Some(key) = &t.encoding.key {
                    for k in key {
                        stores.rel.create_index(&tname, k, IndexKind::BTree);
                    }
                }
                let fname = Symbol::intern(&format!("{tname}F"));
                let view = identity_view(fname, t.encoding.relation, columns.len());
                stats.push(stats_of_rows(&t.rows, columns.len()));
                relations.push(FragmentRelation {
                    name: fname,
                    view: ViewDef::new(view),
                    access: None,
                    place: WhereSpec::Table {
                        table: tname,
                        columns,
                    },
                });
            }
        }
        FragmentSpec::TextIndex { table } => {
            // Find the owning relational dataset and its text columns.
            let mut found = None;
            for ds in datasets.values() {
                if let DatasetContent::Relational(tables) = &ds.content {
                    for t in tables {
                        if t.encoding.relation.as_str().as_ref() == table.as_str() {
                            found = Some(t.clone());
                        }
                    }
                }
            }
            let t = found.ok_or_else(|| Error::UnknownName(table.clone()))?;
            if t.text_columns.is_empty() {
                return Err(Error::BadFragment(format!(
                    "table {table} declares no text columns"
                )));
            }
            let key_col = t
                .encoding
                .key
                .as_ref()
                .and_then(|k| k.first())
                .and_then(|k| t.encoding.columns.iter().position(|c| c == k))
                .ok_or_else(|| Error::BadFragment(format!("table {table} has no key")))?;
            let text_cols: Vec<usize> = t
                .text_columns
                .iter()
                .filter_map(|c| t.encoding.columns.iter().position(|x| x == c))
                .collect();
            for row in &t.rows {
                let text: Vec<&str> = text_cols.iter().filter_map(|c| row[*c].as_str()).collect();
                stores
                    .text
                    .index_document(table, row[key_col].clone(), &text.join(" "));
            }
            let src = Dataset::terms_relation(table);
            let fname = Symbol::intern(&format!("{table}F_Text"));
            let view = identity_view(fname, src, 2);
            stats.push(text_index_stats(t.rows.len() as u64));
            relations.push(FragmentRelation {
                name: fname,
                view: ViewDef::new(view),
                access: Some(AccessPattern::parse("io")),
                place: WhereSpec::TextIndex {
                    index: table.clone(),
                },
            });
        }
    }

    Ok(FragmentMeta {
        id: id.to_string(),
        system,
        spec,
        relations,
        stats,
        credentials: format!("sim://{id}"),
        use_count: Default::default(),
    })
}

/// Remove a fragment's physical artifacts from the stores.
pub fn drop_fragment(meta: &FragmentMeta, stores: &Stores) {
    for r in &meta.relations {
        match &r.place {
            WhereSpec::Table { table, .. } => {
                stores.rel.drop_table(table);
            }
            WhereSpec::Namespace { namespace, .. } => {
                stores.kv.drop_namespace(namespace);
            }
            WhereSpec::Collection { collection, .. } => {
                stores.doc.drop_collection(collection);
            }
            WhereSpec::NativeDocs { collection, .. } => {
                stores.doc.drop_collection(collection);
            }
            WhereSpec::ParDataset { dataset, .. } => {
                stores.par.drop_dataset(dataset);
            }
            WhereSpec::TextIndex { index } => {
                stores.text.drop_index(index);
            }
        }
    }
}

fn check_view(view: &Cq) -> Result<()> {
    if !view.is_safe() {
        return Err(Error::BadFragment(format!(
            "view {} is not a safe conjunctive query",
            view.name
        )));
    }
    Ok(())
}

/// `V(x1..xn) :- R(x1..xn)` — the identity view of native fragments.
fn identity_view(vname: Symbol, source: Symbol, arity: usize) -> Cq {
    let vars: Vec<Term> = (0..arity as u32).map(Term::var).collect();
    Cq::new(
        vname,
        vars.clone(),
        vec![estocada_pivot::Atom::new(source, vars)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TableData;
    use crate::system::Latencies;
    use estocada_pivot::encoding::relational::TableEncoding;
    use estocada_pivot::{CqBuilder, IdGen};

    fn setup() -> (Instance, HashMap<String, Dataset>, Stores) {
        let ds = Dataset::relational(
            "sales",
            vec![TableData {
                encoding: TableEncoding::new("Users", &["uid", "name", "tier"], Some(&["uid"])),
                rows: (0..20)
                    .map(|i| {
                        vec![
                            Value::Int(i),
                            Value::str(format!("user{i}")),
                            Value::str(if i % 2 == 0 { "gold" } else { "free" }),
                        ]
                    })
                    .collect(),
                text_columns: vec![],
            }],
        );
        let mut ids = IdGen::new();
        let facts = ds.pivot_facts(&mut ids);
        let base = fact_base(&facts);
        let mut datasets = HashMap::new();
        datasets.insert("sales".to_string(), ds);
        (base, datasets, Stores::new(Latencies::zero()))
    }

    #[test]
    fn evaluate_view_projects_and_dedups() {
        let (base, _, _) = setup();
        let v = CqBuilder::new("Tiers")
            .head_vars(["t"])
            .atom("Users", |a| a.v("u").v("n").v("t"))
            .build();
        let rows = evaluate_view(&base, &v);
        assert_eq!(rows.len(), 2); // gold, free
    }

    #[test]
    fn table_fragment_materializes_with_index() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("GoldUsers")
            .head_vars(["uid", "name"])
            .atom("Users", |a| a.v("uid").v("name").c("gold"))
            .build();
        let meta = materialize(
            "f1",
            FragmentSpec::Table {
                view: v,
                index_on: vec!["uid".into()],
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("GoldUsers"), 10);
        assert_eq!(meta.stats[0].rows, 10);
        assert_eq!(meta.stats[0].distinct[0], 10);
    }

    #[test]
    fn kv_fragment_keys_on_first_head_column() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("UserByIdKV")
            .head_vars(["uid", "name", "tier"])
            .atom("Users", |a| a.v("uid").v("name").v("tier"))
            .build();
        let meta = materialize(
            "f2",
            FragmentSpec::KeyValue { view: v },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        // Rows are packed as a list of value tuples under the key.
        assert_eq!(
            stores.kv.get("UserByIdKV", &Value::Int(3)).unwrap(),
            Some(vec![Value::array([Value::array([
                Value::str("user3"),
                Value::str("free")
            ])])])
        );
        assert_eq!(
            format!("{}", meta.relations[0].access.as_ref().unwrap()),
            "ioo"
        );
    }

    #[test]
    fn kv_fragment_keeps_all_rows_of_non_unique_keys() {
        let (base, datasets, stores) = setup();
        // Key on tier: only two keys, many rows each.
        let v = CqBuilder::new("ByTierKV")
            .head_vars(["tier", "uid"])
            .atom("Users", |a| a.v("uid").v("n").v("tier"))
            .build();
        materialize(
            "f8",
            FragmentSpec::KeyValue { view: v },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        let gold = stores
            .kv
            .get("ByTierKV", &Value::str("gold"))
            .unwrap()
            .unwrap();
        match &gold[0] {
            Value::Array(rows) => assert_eq!(rows.len(), 10),
            other => panic!("expected packed rows, got {other}"),
        }
    }

    #[test]
    fn doc_rows_fragment_builds_flat_documents() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("UserDocs")
            .head_vars(["uid", "tier"])
            .atom("Users", |a| a.v("uid").v("n").v("tier"))
            .build();
        materialize(
            "f3",
            FragmentSpec::DocRows {
                view: v,
                index_on: vec!["uid".into()],
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        let found = stores
            .doc
            .find(
                "UserDocs",
                &estocada_docstore::Filter::all().eq("uid", 4i64),
                None,
            )
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get("tier"), Some(&Value::str("gold")));
    }

    #[test]
    fn par_rows_fragment_with_key_index() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("UsersPar")
            .head_vars(["uid", "tier"])
            .atom("Users", |a| a.v("uid").v("n").v("tier"))
            .build();
        let meta = materialize(
            "f4",
            FragmentSpec::ParRows {
                view: v,
                index_on: vec!["uid".into()],
                partitions: 2,
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.par.len("UsersPar"), 20);
        match &meta.relations[0].place {
            WhereSpec::ParDataset { indexed, .. } => assert_eq!(indexed, &vec![0]),
            other => panic!("unexpected place {other:?}"),
        }
    }

    #[test]
    fn native_tables_fragment_loads_and_indexes() {
        let (base, datasets, stores) = setup();
        let meta = materialize(
            "f5",
            FragmentSpec::NativeTables {
                dataset: "sales".into(),
                only: None,
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("Users"), 20);
        assert_eq!(meta.relations.len(), 1);
        assert_eq!(meta.relations[0].name, Symbol::intern("UsersF"));
    }

    #[test]
    fn drop_fragment_removes_artifacts() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("Tmp")
            .head_vars(["uid"])
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .build();
        let meta = materialize(
            "f6",
            FragmentSpec::Table {
                view: v,
                index_on: vec![],
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("Tmp"), 20);
        drop_fragment(&meta, &stores);
        assert_eq!(stores.rel.row_count("Tmp"), 0);
    }

    #[test]
    fn bad_index_column_rejected() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("Bad")
            .head_vars(["uid"])
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .build();
        let err = materialize(
            "f7",
            FragmentSpec::Table {
                view: v,
                index_on: vec!["nope".into()],
            },
            &base,
            &datasets,
            &stores,
        );
        assert!(matches!(err, Err(Error::BadFragment(_))));
    }
}
