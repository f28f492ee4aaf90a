//! Service-discovery queries: from directory state to X-Relation rows.
//!
//! §5.1: "The Query Processor also handles service discovery queries: it
//! continuously updates some specific XD-Relations so that they represent
//! the set of services (implementing some given prototypes) that are
//! available" — like the `cameras` X-Relation of the surveillance scenario,
//! or the sensor table of §1.2 whose rows appear and disappear with the
//! devices.
//!
//! A [`DiscoveryQuery`] defines one such relation: one row per
//! currently-registered provider of a prototype, the service-reference
//! attribute holding the provider's reference and the remaining real
//! attributes filled from the directory's per-service metadata (e.g. a
//! sensor's installed location). Local and remote (proxied) services are
//! indistinguishable here, which is what makes discovery
//! transport-agnostic.
//!
//! [`DiscoveryQuery::refresh_in`] evaluates the query: the whole relation
//! from the whole [`NodeDirectory`]. [`DiscoveryQuery::apply`] *maintains*
//! it in a table, as a fold over the directory's change log: it remembers
//! how far into the log it has read and the row it wrote per provider,
//! looks again only at the references logged since, and writes the rows
//! that differ. The invariant is "table = `refresh_in`"; an idle instant
//! costs one position compare.

use std::collections::HashMap;

use serena_core::attr::AttrName;
use serena_core::error::SchemaError;
use serena_core::schema::SchemaRef;
use serena_core::tuple::Tuple;
use serena_core::value::{ServiceRef, Value};
use serena_core::xrelation::XRelation;
use serena_stream::source::TableHandle;

use crate::directory::NodeDirectory;

/// A continuously-refreshable discovery relation.
pub struct DiscoveryQuery {
    prototype: String,
    schema: SchemaRef,
    /// Position of the service-reference attribute among the real ones.
    service_slot: usize,
    /// The other real attributes — the metadata keys a provider must
    /// carry — in schema order.
    metadata_attrs: Vec<String>,
    /// The directory log position `rows` is current to; `None` when the
    /// maintained table must be rebuilt from a full listing.
    cursor: Option<u64>,
    /// The row [`apply`](Self::apply) last wrote per provider.
    rows: HashMap<ServiceRef, Tuple>,
}

/// What one [`DiscoveryQuery::apply`] had to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The query had no usable cursor into the directory's log: it listed
    /// every provider and replaced the table's contents.
    Relisted,
    /// The query looked again at this many references — the distinct ones
    /// logged since the previous call — and wrote the rows that changed.
    Reconciled(usize),
}

impl DiscoveryQuery {
    /// Discovery of providers of `prototype` into `schema`, whose
    /// `service_attr` (a real attribute) receives the reference.
    pub fn new(
        prototype: impl Into<String>,
        schema: SchemaRef,
        service_attr: impl Into<AttrName>,
    ) -> Result<Self, SchemaError> {
        let service_attr = service_attr.into();
        let real = || schema.attrs().iter().filter(|a| a.is_real());
        let Some(service_slot) = real().position(|a| a.name == service_attr) else {
            return Err(SchemaError::ServiceAttrNotReal {
                prototype: "discovery".into(),
                attr: service_attr,
            });
        };
        let metadata_attrs = real()
            .filter(|a| a.name != service_attr)
            .map(|a| a.name.as_str().to_string())
            .collect();
        Ok(DiscoveryQuery {
            prototype: prototype.into(),
            schema,
            service_slot,
            metadata_attrs,
            cursor: None,
            rows: HashMap::new(),
        })
    }

    /// The prototype whose providers are discovered.
    pub fn prototype(&self) -> &str {
        &self.prototype
    }

    /// The target schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn row(&self, reference: &ServiceRef, mut values: Vec<Value>) -> Tuple {
        values.insert(self.service_slot, Value::Service(reference.clone()));
        Tuple::new(values)
    }

    /// Materialize the current provider set from `directory`. Services
    /// lacking metadata for some required real attribute are skipped
    /// (discovered but not yet describable — the refresh after their
    /// metadata arrives picks them up).
    pub fn refresh_in(&self, directory: &NodeDirectory) -> XRelation {
        let mut rel = XRelation::empty(self.schema.clone());
        let (_, providers) = directory.described_providers(&self.prototype, &self.metadata_attrs);
        for (reference, values) in providers {
            rel.insert(self.row(&reference, values));
        }
        rel
    }

    /// Bring `table` up to date with `directory`: afterwards its projected
    /// contents equal [`refresh_in`](Self::refresh_in), given that they did
    /// after the previous call and only this query wrote to it since.
    ///
    /// The references logged since the previous call are the dirty set;
    /// each is looked up in the directory as it is now, and where its row
    /// differs from the one last written the old row is deleted and the
    /// new one inserted. Without a cursor — on the first call, after
    /// [`forget`](Self::forget), or when more was logged in between than
    /// the directory keeps — every reference is dirty: the full listing
    /// replaces the table's contents and the remembered rows.
    pub fn apply(&mut self, directory: &NodeDirectory, table: &TableHandle) -> Applied {
        let dirty = self.cursor.and_then(|after| {
            directory.described_since(after, &self.prototype, &self.metadata_attrs)
        });
        let Some((position, touched)) = dirty else {
            let (position, providers) =
                directory.described_providers(&self.prototype, &self.metadata_attrs);
            let rows = providers.into_iter().map(|(reference, values)| {
                let row = self.row(&reference, values);
                (reference, row)
            });
            self.rows = rows.collect();
            table.replace_with(self.rows.values().cloned());
            self.cursor = Some(position);
            return Applied::Relisted;
        };
        let reconciled = touched.len();
        for (reference, values) in touched {
            let new = values.map(|values| self.row(&reference, values));
            let old = match &new {
                Some(row) => self.rows.insert(reference, row.clone()),
                None => self.rows.remove(&reference),
            };
            if old != new {
                if let Some(row) = old {
                    table.delete(row);
                }
                if let Some(row) = new {
                    table.insert(row);
                }
            }
        }
        self.cursor = Some(position);
        Applied::Reconciled(reconciled)
    }

    /// How many providers' rows the query remembers having written — all
    /// it keeps besides its cursor, and at most the size of the relation.
    pub fn held(&self) -> usize {
        self.rows.len()
    }

    /// Drop the cursor and the remembered rows: the next
    /// [`apply`](Self::apply) takes the full listing. For when the table
    /// was written behind the query's back — a restored checkpoint carries
    /// table contents but not this.
    pub fn forget(&mut self) {
        self.cursor = None;
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::schema::examples::sensors_schema;
    use serena_core::service::fixtures;
    use serena_core::tuple;

    fn setup() -> (NodeDirectory, DiscoveryQuery) {
        let dir = NodeDirectory::new("test");
        dir.register("sensor01", fixtures::temperature_sensor(1));
        dir.register("sensor06", fixtures::temperature_sensor(6));
        dir.set("sensor01", "location", Value::str("corridor"));
        dir.set("sensor06", "location", Value::str("office"));
        let q = DiscoveryQuery::new("getTemperature", sensors_schema(), "sensor").unwrap();
        (dir, q)
    }

    #[test]
    fn refresh_builds_sensor_table() {
        let (dir, q) = setup();
        let rel = q.refresh_in(&dir);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&tuple![Value::service("sensor01"), "corridor"]));
        assert!(rel.contains(&tuple![Value::service("sensor06"), "office"]));
        // the virtual `temperature` column and the BP travel with the schema
        assert!(rel.schema().is_virtual("temperature"));
        assert_eq!(rel.schema().binding_patterns().len(), 1);
    }

    #[test]
    fn churn_is_reflected_on_refresh() {
        let (dir, q) = setup();
        assert_eq!(q.refresh_in(&dir).len(), 2);
        dir.register("sensor22", fixtures::temperature_sensor(22));
        dir.set("sensor22", "location", Value::str("roof"));
        assert_eq!(q.refresh_in(&dir).len(), 3);
        dir.deregister("sensor01");
        assert_eq!(q.refresh_in(&dir).len(), 2);
    }

    #[test]
    fn missing_metadata_skips_service() {
        let (dir, q) = setup();
        dir.register("sensor99", fixtures::temperature_sensor(99));
        // no location metadata yet → not describable → skipped
        assert_eq!(q.refresh_in(&dir).len(), 2);
        dir.set("sensor99", "location", Value::str("basement"));
        assert_eq!(q.refresh_in(&dir).len(), 3);
    }

    #[test]
    fn service_attr_must_be_real() {
        let bad = serena_core::schema::XSchema::builder()
            .virt("sensor", serena_core::value::DataType::Service)
            .real("location", serena_core::value::DataType::Str)
            .build()
            .unwrap();
        assert!(DiscoveryQuery::new("getTemperature", bad, "sensor").is_err());
    }

    #[test]
    fn unrelated_prototypes_not_listed() {
        let (dir, q) = setup();
        dir.register("camera01", fixtures::camera(1));
        dir.set("camera01", "location", Value::str("office"));
        // camera01 implements checkPhoto/takePhoto, not getTemperature
        assert_eq!(q.refresh_in(&dir).len(), 2);
    }
}
