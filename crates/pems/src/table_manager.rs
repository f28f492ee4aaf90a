//! The Extended Table Manager (§5.1): owns the named XD-Relations.
//!
//! "The Extended Table Manager allows to define XD-Relations from Serena
//! DDL statements, and to manage their data (insertion and deletion of
//! tuples)." Finite XD-Relations are backed by shared
//! [`TableHandle`]s; infinite ones by one broadcast [`StreamHub`] each —
//! fed by external pushes, checked against the stream's schema, or by a
//! derived stream's plan ([`crate::pems::Pems::define_stream_as`]) — so
//! every query reading a stream at an instant reads one batch.
//!
//! Relations of both kinds, the declared prototypes and the URSA ledger
//! over all of them (§2.3.2) sit behind **one** lock. No tick contends for
//! it: a registered query holds clones of its [`TableHandle`]s and the
//! subscriptions its compile took of the hubs
//! ([`ExtendedTableManager::source_set_for`] hands it one handle per
//! relation it names), so the manager is consulted when a relation is
//! defined, looked up by name, pushed into or exported — never by a tick.
//! Every method takes `&self` (the manager is interior-mutable),
//! a name is fresh across both kinds and an attribute keeps one type
//! across every definition under that one lock, and the maps are ordered,
//! so `export_tables` / `snapshot_environment` walk them in name order as
//! they are.
//!
//! A one-shot statement (§3.2) reads the environment at one instant:
//! [`ExtendedTableManager::snapshot_environment`] hands it, per table it
//! names, the relation the table's handle shares
//! ([`TableHandle::relation`]) — nothing is copied, sorted or re-checked
//! per statement.

use std::collections::BTreeMap;
use std::sync::Arc;

use serena_core::attr::AttrName;
use serena_core::env::Environment;
use serena_core::error::SchemaError;
use serena_core::plan::SchemaCatalog;
use serena_core::prototype::Prototype;
use serena_core::schema::{SchemaRef, XSchema};
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::sync::RwLock;
use serena_core::tuple::Tuple;
use serena_core::value::DataType;
use serena_stream::exec::SourceSet;
use serena_stream::plan::{StreamPlan, StreamSchema};
use serena_stream::source::{StreamHub, TableHandle};

use crate::recovery::{read_count, read_named};

struct StreamDef {
    schema: SchemaRef,
    hub: StreamHub,
    /// The real attributes' types in coordinate order — what a tuple
    /// [`ExtendedTableManager::push_stream`] takes must hold. `None` for a
    /// derived stream, which its plan alone feeds.
    pushed: Option<Box<[DataType]>>,
}

/// What is defined: the named XD-Relations of both kinds (a name is in at
/// most one of the maps), the declared prototypes, and the URSA ledger.
#[derive(Default)]
struct Catalog {
    tables: BTreeMap<String, TableHandle>,
    streams: BTreeMap<String, StreamDef>,
    prototypes: BTreeMap<String, Arc<Prototype>>,
    /// URSA (§2.3.2): an attribute name denotes one type in every relation
    /// schema and prototype defined here — the type, and how many of them
    /// hold it.
    attr_types: BTreeMap<AttrName, (DataType, usize)>,
}

impl Catalog {
    /// Define a relation: `name` must be fresh across both kinds and
    /// `schema` agree with URSA, which it then holds.
    fn admit(&mut self, name: String, schema: &XSchema) -> Result<String, SchemaError> {
        if self.tables.contains_key(&name) || self.streams.contains_key(&name) {
            return Err(SchemaError::DuplicateRelation(name));
        }
        let attrs: Vec<_> = schema.attrs().iter().map(|a| (&a.name, a.ty)).collect();
        self.hold_attrs(&attrs)?;
        Ok(name)
    }

    /// Check every one of `attrs` against the ledger, then hold them all:
    /// a refused definition leaves the ledger as it was.
    fn hold_attrs(&mut self, attrs: &[(&AttrName, DataType)]) -> Result<(), SchemaError> {
        for &(attr, second) in attrs {
            match self.attr_types.get(attr) {
                Some(&(first, _)) if first != second => {
                    return Err(SchemaError::UrsaViolation {
                        attr: attr.clone(),
                        first,
                        second,
                    })
                }
                _ => {}
            }
        }
        for &(attr, ty) in attrs {
            self.attr_types.entry(attr.clone()).or_insert((ty, 0)).1 += 1;
        }
        Ok(())
    }

    /// A relation over `schema` was dropped: an attribute nothing else
    /// holds may be defined with another type again.
    fn release_attrs(&mut self, schema: &XSchema) {
        for a in schema.attrs() {
            if let Some((_, holders)) = self.attr_types.get_mut(&a.name) {
                *holders -= 1;
                if *holders == 0 {
                    self.attr_types.remove(&a.name);
                }
            }
        }
    }
}

/// The PEMS table catalog: named finite tables and infinite streams.
#[derive(Default)]
pub struct ExtendedTableManager {
    catalog: RwLock<Catalog>,
}

impl ExtendedTableManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a prototype; its parameters are held to URSA like a
    /// relation's attributes.
    pub fn declare_prototype(&self, p: Arc<Prototype>) -> Result<(), SchemaError> {
        let mut catalog = self.catalog.write();
        if catalog.prototypes.contains_key(p.name()) {
            return Err(SchemaError::DuplicatePrototype(p.name().to_string()));
        }
        let params = p.input().attrs().chain(p.output().attrs());
        let params: Vec<_> = params.map(|(attr, ty)| (attr, *ty)).collect();
        catalog.hold_attrs(&params)?;
        catalog.prototypes.insert(p.name().to_string(), p);
        Ok(())
    }

    /// Look up a declared prototype.
    pub fn prototype(&self, name: &str) -> Option<Arc<Prototype>> {
        self.catalog.read().prototypes.get(name).cloned()
    }

    /// All declared prototypes, sorted by name.
    pub fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.catalog.read().prototypes.values().cloned().collect()
    }

    /// Define a finite XD-Relation. Returns its shared handle.
    pub fn define_table(
        &self,
        name: impl Into<String>,
        schema: SchemaRef,
    ) -> Result<TableHandle, SchemaError> {
        let mut catalog = self.catalog.write();
        let name = catalog.admit(name.into(), &schema)?;
        let handle = TableHandle::new(schema);
        catalog.tables.insert(name, handle.clone());
        Ok(handle)
    }

    /// Define an infinite XD-Relation fed by external pushes. Returns its
    /// hub.
    pub fn define_push_stream(
        &self,
        name: impl Into<String>,
        schema: SchemaRef,
    ) -> Result<StreamHub, SchemaError> {
        self.define_stream(name.into(), schema, false)
    }

    /// Define an infinite XD-Relation; a `derived` one takes no
    /// [`Self::push_stream`]: its plan alone pushes into the returned hub.
    pub(crate) fn define_stream(
        &self,
        name: String,
        schema: SchemaRef,
        derived: bool,
    ) -> Result<StreamHub, SchemaError> {
        let mut catalog = self.catalog.write();
        let name = catalog.admit(name, &schema)?;
        let hub = StreamHub::new();
        let reals = schema.attrs().iter().filter(|a| a.is_real());
        let def = StreamDef {
            pushed: (!derived).then(|| reals.map(|a| a.ty).collect()),
            schema,
            hub: hub.clone(),
        };
        catalog.streams.insert(name, def);
        Ok(hub)
    }

    /// Handle of a finite table (a cheap `Arc` clone of the shared
    /// state).
    pub fn table(&self, name: &str) -> Option<TableHandle> {
        self.catalog.read().tables.get(name).cloned()
    }

    /// Push a tuple into a pushed stream. `false`, and nothing pushed, if
    /// the stream does not exist, is derived, or the tuple does not fit it:
    /// one value per real attribute, each of the attribute's type.
    pub fn push_stream(&self, name: &str, t: Tuple) -> bool {
        let catalog = self.catalog.read();
        let Some((def, types)) = catalog
            .streams
            .get(name)
            .and_then(|def| Some((def, def.pushed.as_deref()?)))
        else {
            return false;
        };
        let fits =
            t.arity() == types.len() && t.values().zip(types).all(|(v, ty)| v.conforms_to(*ty));
        if fits {
            def.hub.push(t);
        }
        fits
    }

    /// Tuples each stream's hub retains (see [`StreamHub::len`]), in name
    /// order.
    pub fn hub_retention(&self) -> Vec<(String, usize)> {
        let catalog = self.catalog.read();
        let streams = catalog.streams.iter();
        streams
            .map(|(name, def)| (name.clone(), def.hub.len()))
            .collect()
    }

    /// Queue an insertion into a finite table.
    pub fn insert(&self, name: &str, t: Tuple) -> Result<(), SchemaError> {
        match self.table(name) {
            Some(h) => {
                h.insert(t);
                Ok(())
            }
            None => Err(SchemaError::UnknownRelation(name.to_string())),
        }
    }

    /// Queue a deletion from a finite table.
    pub fn delete(&self, name: &str, t: Tuple) -> Result<(), SchemaError> {
        match self.table(name) {
            Some(h) => {
                h.delete(t);
                Ok(())
            }
            None => Err(SchemaError::UnknownRelation(name.to_string())),
        }
    }

    /// Drop a relation (table or stream). Returns whether it existed.
    pub fn drop_relation(&self, name: &str) -> bool {
        let mut catalog = self.catalog.write();
        let table = catalog.tables.remove(name).map(|t| t.schema());
        let Some(schema) = table.or_else(|| catalog.streams.remove(name).map(|s| s.schema)) else {
            return false;
        };
        catalog.release_attrs(&schema);
        true
    }

    /// Build the [`SourceSet`] a continuous plan compiles against: the
    /// shared handle of each relation the plan names — a table's, or a
    /// stream's hub, which the compile subscribes once per leaf over it.
    pub fn source_set_for(&self, plan: &StreamPlan) -> SourceSet {
        let catalog = self.catalog.read();
        let mut sources = SourceSet::new();
        for name in plan.relations() {
            if let Some(handle) = catalog.tables.get(name) {
                sources.add_table(name, handle.clone());
            } else if let Some(def) = catalog.streams.get(name) {
                sources.add_stream(name, def.schema.clone(), def.hub.clone());
            }
        }
        sources
    }

    /// Every finite table, in name order.
    fn tables_by_name(&self) -> Vec<(String, TableHandle)> {
        let catalog = self.catalog.read();
        catalog
            .tables
            .iter()
            .map(|(n, h)| (n.clone(), h.clone()))
            .collect()
    }

    /// Serialize every finite table's dynamic contents (committed state +
    /// pending mutations), in name order. Schemas and stream definitions
    /// are *not* captured — recovery re-runs the DDL, then rehydrates.
    pub fn export_tables(&self, w: &mut Writer) {
        let tables = self.tables_by_name();
        w.usize(tables.len());
        for (name, handle) in &tables {
            w.str(name);
            handle.export_state(w);
        }
    }

    /// Restore table contents written by [`Self::export_tables`] into the
    /// already-defined tables. Errors with [`SnapshotError::Mismatch`] when
    /// the defined table set disagrees with the snapshot.
    pub fn import_tables(&self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let tables = self.tables_by_name();
        read_count(r, "tables", tables.len())?;
        let tables = tables.iter().map(|(name, handle)| (name.as_str(), handle));
        read_named(r, "table", tables, |handle, r| handle.import_state(r))
    }

    /// The environment a one-shot statement evaluates against (§3.2):
    /// every declared prototype and, of the finite tables named in `only`
    /// (all of them for `None`), the relation the table's handle shares —
    /// pending mutations included, and the same `Arc` for every statement
    /// between two writes to the table.
    pub fn snapshot_environment(&self, only: Option<&[&str]>) -> Environment {
        // names are unique per map and URSA was checked over the whole
        // catalog as each entry was defined, so no part of it is refused
        const ADMITTED: &str = "the catalog holds unique names and URSA";
        let catalog = self.catalog.read();
        let mut env = Environment::new();
        for p in catalog.prototypes.values() {
            env.declare_prototype(Arc::clone(p)).expect(ADMITTED);
        }
        let wanted = |name: &str| match only {
            Some(names) => names.contains(&name),
            None => true,
        };
        for (name, handle) in catalog.tables.iter().filter(|(name, _)| wanted(name)) {
            env.define_relation(name.as_str(), handle.relation())
                .expect(ADMITTED);
        }
        env
    }
}

impl SchemaCatalog for ExtendedTableManager {
    fn schema_of(&self, name: &str) -> Option<StreamSchema> {
        let catalog = self.catalog.read();
        if let Some(t) = catalog.tables.get(name) {
            return Some(StreamSchema::finite(t.schema()));
        }
        catalog
            .streams
            .get(name)
            .map(|d| StreamSchema::infinite(d.schema.clone()))
    }

    fn prototype_of(&self, name: &str) -> Option<Arc<Prototype>> {
        self.prototype(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::prototype::examples as protos;
    use serena_core::schema::examples as schemas;
    use serena_core::tuple;

    fn manager() -> ExtendedTableManager {
        let m = ExtendedTableManager::new();
        m.declare_prototype(protos::send_message()).unwrap();
        m.declare_prototype(protos::get_temperature()).unwrap();
        m
    }

    #[test]
    fn define_and_mutate_table() {
        let m = manager();
        m.define_table("contacts", schemas::contacts_schema())
            .unwrap();
        m.insert("contacts", tuple!["Ada", "ada@l.org", "email"])
            .unwrap();
        for missing in [m.insert("ghost", tuple![1]), m.delete("ghost", tuple![1])] {
            let err = missing.unwrap_err();
            assert_eq!(err, SchemaError::UnknownRelation("ghost".into()));
            assert_eq!(err.to_string(), "unknown relation `ghost`");
        }
        let env = m.snapshot_environment(None);
        assert_eq!(env.relation("contacts").unwrap().len(), 1);
    }

    /// URSA (§2.3.2) is checked where a relation or prototype is defined —
    /// whichever comes first keeps the type — so a snapshot has nothing left
    /// to refuse: every table defined is in it.
    #[test]
    fn ursa_is_checked_where_a_relation_or_prototype_is_defined() {
        use serena_core::value::DataType::{Int, Real, Str};
        let over_x = |ty| XSchema::builder().real("x", ty).build().unwrap();
        let violation = |attr: &str, first, second| SchemaError::UrsaViolation {
            attr: attr.into(),
            first,
            second,
        };
        for (first, second) in [(Str, Int), (Int, Str)] {
            let m = manager();
            m.define_table("a", over_x(first)).unwrap();
            for refused in [
                m.define_table("b", over_x(second)).map(|_| ()),
                m.define_push_stream("b", over_x(second)).map(|_| ()),
                m.define_stream("b".into(), over_x(second), true)
                    .map(|_| ()),
            ] {
                assert_eq!(refused.unwrap_err(), violation("x", first, second));
            }
            assert!(m.schema_of("b").is_none());
            // the refusal held nothing: once `a` is gone, so is its claim
            m.define_push_stream("c", over_x(first)).unwrap();
            assert!(m.drop_relation("a"));
            assert!(m.define_table("b", over_x(second)).is_err());
            assert!(m.drop_relation("c"));
            m.define_table("b", over_x(second)).unwrap();
            m.insert("b", tuple![1]).unwrap();
            assert_eq!(m.snapshot_environment(None).relation("b").unwrap().len(), 1);
        }
        // a prototype's parameters and a relation's attributes, either way
        let m = manager();
        let temperature = |ty| XSchema::builder().real("temperature", ty).build().unwrap();
        let err = m.define_table("t", temperature(Int)).err();
        assert_eq!(err, Some(violation("temperature", Real, Int)));
        m.define_table("a", over_x(Str)).unwrap();
        let p = Prototype::declare("p", &[("x", Int)], &[("y", Int)], false).unwrap();
        let err = m.declare_prototype(p).unwrap_err();
        assert_eq!(err, violation("x", Str, Int));
        assert!(m.prototype("p").is_none());
        // … and `y`, checked after `x`, was not held by the refused `p`
        m.define_table("b", XSchema::builder().real("y", Str).build().unwrap())
            .unwrap();
        assert_eq!(m.snapshot_environment(None).len(), 2);
        assert_eq!(m.snapshot_environment(Some(&["b", "t", "b"])).len(), 1);
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let m = manager();
        m.define_table("x", schemas::contacts_schema()).unwrap();
        assert!(m
            .define_push_stream("x", schemas::contacts_schema())
            .is_err());
        assert!(m.define_table("x", schemas::contacts_schema()).is_err());
    }

    #[test]
    fn source_set_subscribes_streams_per_query() {
        let m = manager();
        let schema = serena_core::schema::XSchema::builder()
            .real("x", serena_core::value::DataType::Int)
            .build()
            .unwrap();
        let hub = m.define_push_stream("s", schema).unwrap();
        let plan = StreamPlan::source("s").window(1);
        let mut set1 = m.source_set_for(&plan);
        let mut set2 = m.source_set_for(&plan);
        let mut q1 = serena_stream::exec::ContinuousQuery::compile(&plan, &mut set1).unwrap();
        let mut q2 = serena_stream::exec::ContinuousQuery::compile(&plan, &mut set2).unwrap();
        use serena_core::metrics::NoopMetrics;
        let reg = serena_core::service::fixtures::example_registry();
        hub.push(tuple![1]);
        // both queries observe the same pushed tuple
        assert_eq!(q1.tick_with(&reg, &NoopMetrics).delta.inserts.len(), 1);
        assert_eq!(q2.tick_with(&reg, &NoopMetrics).delta.inserts.len(), 1);
    }

    #[test]
    fn drop_relation_both_kinds() {
        let m = manager();
        m.define_table("t", schemas::contacts_schema()).unwrap();
        m.define_push_stream(
            "s",
            serena_core::schema::XSchema::builder()
                .real("x", serena_core::value::DataType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        assert!(m.drop_relation("t"));
        assert!(m.drop_relation("s"));
        assert!(!m.drop_relation("t"));
    }

    #[test]
    fn xd_catalog_distinguishes_status() {
        let m = manager();
        m.define_table("t", schemas::contacts_schema()).unwrap();
        m.define_push_stream(
            "s",
            serena_core::schema::XSchema::builder()
                .real("x", serena_core::value::DataType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        assert!(!m.schema_of("t").unwrap().infinite);
        assert!(m.schema_of("s").unwrap().infinite);
        assert!(m.schema_of("nope").is_none());
    }

    #[test]
    fn push_stream_only_for_hubs() {
        let m = manager();
        let schema = serena_core::schema::XSchema::builder()
            .real("x", serena_core::value::DataType::Int)
            .build()
            .unwrap();
        m.define_push_stream("hub", schema.clone()).unwrap();
        let derived = m.define_stream("derived".into(), schema, true).unwrap();
        let _reader = derived.subscribe();
        assert!(m.push_stream("hub", tuple![1]));
        assert!(!m.push_stream("derived", tuple![1]));
        assert!(derived.is_empty(), "a derived stream's plan alone pushes");
        assert!(!m.push_stream("nope", tuple![1]));
    }

    /// A pushed tuple holds one value per real attribute, each of its type
    /// (a virtual attribute has no coordinate): a tuple one short, or a
    /// STRING where a REAL goes, is refused, and no reader sees it.
    #[test]
    fn a_pushed_tuple_must_fit_its_stream() {
        use serena_core::metrics::NoopMetrics;
        use serena_core::value::DataType::{Int, Real, Str};
        let m = manager();
        let schema = XSchema::builder()
            .real("x", Int)
            .virt("note", Str)
            .real("y", Real)
            .build()
            .unwrap();
        m.define_push_stream("s", schema).unwrap();
        let plan = StreamPlan::source("s").window(1).project(["y"]);
        let mut sources = m.source_set_for(&plan);
        let mut reader =
            serena_stream::exec::ContinuousQuery::compile(&plan, &mut sources).unwrap();
        assert!(!m.push_stream("s", tuple![1]));
        assert!(!m.push_stream("s", tuple![1, "hot"]));
        assert!(!m.push_stream("s", tuple![1, 2.5, 3.5]));
        assert!(m.push_stream("s", tuple![1, 2.5]));
        let reg = serena_core::service::fixtures::example_registry();
        let report = reader.tick_with(&reg, &NoopMetrics);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.delta.inserts.sorted_occurrences(), [tuple![2.5]]);
    }

    #[test]
    fn exports_are_name_ordered() {
        // Defined out of order; the export is name-ordered (the byte
        // layout every checkpoint so far was written in).
        let m = manager();
        let names = ["zeta", "alpha", "mu", "kappa", "beta17", "omega"];
        for n in names {
            m.define_table(n, schemas::contacts_schema()).unwrap();
        }
        let mut w = Writer::new();
        m.export_tables(&mut w);
        let bytes = w.into_bytes();
        let mut sorted = names;
        sorted.sort_unstable();
        // name order in the byte stream follows the sorted order
        let mut pos = Vec::new();
        for n in sorted {
            let at = bytes
                .windows(n.len())
                .position(|win| win == n.as_bytes())
                .expect("name present in export");
            pos.push(at);
        }
        assert!(pos.windows(2).all(|w| w[0] < w[1]), "{pos:?}");
        // and a fresh identically-defined manager imports it cleanly
        let m2 = manager();
        for n in names {
            m2.define_table(n, schemas::contacts_schema()).unwrap();
        }
        m2.import_tables(&mut Reader::new(&bytes)).unwrap();
    }

    /// Tables and streams defined side by side from eight threads: the
    /// sharded manager took a shard's two locks in opposite orders for the
    /// two kinds, so this could deadlock; under one lock it terminates.
    #[test]
    fn concurrent_definitions_on_disjoint_names() {
        let m = Arc::new(manager());
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (m, start) = (Arc::clone(&m), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..16 {
                        let name = format!("rel_{t}_{i}");
                        if t % 2 == 1 {
                            m.define_push_stream(&name, schemas::contacts_schema())
                                .unwrap();
                            assert!(m.push_stream(&name, tuple!["Ada", "ada@l.org", "email"]));
                            continue;
                        }
                        m.define_table(&name, schemas::contacts_schema()).unwrap();
                        m.insert(&name, tuple!["Ada", "ada@l.org", "email"])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(m.tables_by_name().len(), 64);
        assert_eq!(m.catalog.read().streams.len(), 64);
        assert!(m.schema_of("rel_7_15").unwrap().infinite);
        let env = m.snapshot_environment(None);
        assert_eq!(env.relation("rel_6_15").unwrap().len(), 1);
    }
}
