//! Service-discovery queries: from directory state to X-Relation rows.
//!
//! §5.1: "The Query Processor also handles service discovery queries: it
//! continuously updates some specific XD-Relations so that they represent
//! the set of services (implementing some given prototypes) that are
//! available" — like the `cameras` X-Relation of the surveillance scenario,
//! or the sensor table of §1.2 whose rows appear and disappear with the
//! devices.
//!
//! A [`DiscoveryQuery`] materializes one such relation: one row per
//! currently-registered provider of a prototype, the service-reference
//! attribute holding the provider's reference and the remaining real
//! attributes filled from the directory's per-service metadata (e.g. a
//! sensor's installed location). [`DiscoveryQuery::refresh_in`] reads
//! both from one [`NodeDirectory`] in one step — local and remote
//! (proxied) services are indistinguishable here, which is what makes
//! discovery transport-agnostic.

use serena_core::attr::AttrName;
use serena_core::error::SchemaError;
use serena_core::schema::SchemaRef;
use serena_core::tuple::Tuple;
use serena_core::value::Value;
use serena_core::xrelation::XRelation;

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
        })
    }

    /// The target schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Materialize the current provider set from `directory`. Services
    /// lacking metadata for some required real attribute are skipped
    /// (discovered but not yet describable — the refresh after their
    /// metadata arrives picks them up).
    pub fn refresh_in(&self, directory: &NodeDirectory) -> XRelation {
        let mut rel = XRelation::empty(self.schema.clone());
        for (reference, mut values) in
            directory.described_providers(&self.prototype, &self.metadata_attrs)
        {
            values.insert(self.service_slot, Value::Service(reference));
            rel.insert(Tuple::new(values));
        }
        rel
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
