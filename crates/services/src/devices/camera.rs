//! Simulated network cameras (stand-in for the paper's Logitech webcams).
//!
//! A camera implements the two passive prototypes of Table 1:
//! `checkPhoto(area) : (quality, delay)` and
//! `takePhoto(area, quality) : (photo)`. Quality depends on whether the
//! camera covers the requested area (a camera asked about a foreign area
//! answers with quality 0 — it *can* answer, it just sees nothing useful),
//! plus a per-instant seeded wobble; photos are synthetic BLOBs embedding
//! their provenance so scenario harnesses can verify end-to-end plumbing.

use std::sync::Arc;

use serena_core::prototype::{examples as protos, Prototype};
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::Value;

use crate::fleet::mix64;

/// A deterministic simulated camera.
#[derive(Debug, Clone)]
pub struct SimCamera {
    id: String,
    seed: u64,
    /// Areas this camera covers.
    areas: Vec<String>,
}

/// Best quality a camera can deliver (0–10).
const MAX_QUALITY: i64 = 9;
/// Bytes per photo payload.
const PHOTO_SIZE: usize = 256;

impl SimCamera {
    /// A camera named `id` covering `areas`.
    pub fn new(id: impl Into<String>, seed: u64, areas: &[&str]) -> Self {
        SimCamera {
            id: id.into(),
            seed,
            areas: areas.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Quality the camera reports for `area` at `at`: 0 when the area is
    /// not covered, otherwise `MAX_QUALITY` minus a small seeded wobble.
    fn quality_at(&self, area: &str, at: Instant) -> i64 {
        if !self.areas.iter().any(|a| a == area) {
            return 0;
        }
        let wobble = (mix64(self.seed, at.ticks(), area.len() as u64) % 3) as i64;
        (MAX_QUALITY - wobble).max(1)
    }

    /// Expected capture delay in seconds (depends only on the camera).
    pub fn delay(&self) -> f64 {
        0.05 * ((self.seed % 10) as f64 + 1.0)
    }

    /// Wrap into a shareable [`Service`].
    pub fn into_service(self) -> Arc<dyn Service> {
        Arc::new(self)
    }
}

impl Service for SimCamera {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        vec![protos::check_photo(), protos::take_photo()]
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        match prototype.name() {
            "checkPhoto" => {
                let area = input
                    .get(0)
                    .and_then(|v| v.as_str())
                    .ok_or("checkPhoto expects (area STRING)")?;
                Ok(vec![Tuple::new(vec![
                    Value::Int(self.quality_at(area, at)),
                    Value::Real(self.delay()),
                ])])
            }
            "takePhoto" => {
                let area = input
                    .get(0)
                    .and_then(|v| v.as_str())
                    .ok_or("takePhoto expects (area STRING, quality INTEGER)")?;
                let quality = input
                    .get(1)
                    .and_then(|v| v.as_int())
                    .ok_or("takePhoto expects (area STRING, quality INTEGER)")?;
                let header = format!(
                    "IMG|cam={}|area={}|q={}|t={}|",
                    self.id,
                    area,
                    quality,
                    at.ticks()
                );
                let mut payload = header.into_bytes();
                let mut i = 0u64;
                while payload.len() < PHOTO_SIZE {
                    payload.push((mix64(self.seed, at.ticks(), i) & 0xFF) as u8);
                    i += 1;
                }
                Ok(vec![Tuple::new(vec![Value::blob(payload)])])
            }
            other => Err(format!("camera {} cannot serve {other}", self.id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::tuple;

    fn cam() -> SimCamera {
        SimCamera::new("camera01", 1, &["office", "corridor"])
    }

    #[test]
    fn quality_zero_outside_coverage() {
        let c = cam();
        assert_eq!(c.quality_at("roof", Instant(0)), 0);
        assert!(c.quality_at("office", Instant(0)) >= 1);
    }

    #[test]
    fn check_then_take_photo_round_trip() {
        let c = cam().into_service();
        let checked = c
            .invoke(&protos::check_photo(), &tuple!["office"], Instant(2))
            .unwrap();
        let quality = checked[0][0].as_int().unwrap();
        assert!(quality > 0);
        let photo = c
            .invoke(
                &protos::take_photo(),
                &tuple!["office", quality],
                Instant(2),
            )
            .unwrap();
        let blob = photo[0][0].as_blob().unwrap();
        assert_eq!(blob.len(), 256);
        let text = String::from_utf8_lossy(blob);
        assert!(text.starts_with("IMG|cam=camera01|area=office|"));
    }

    #[test]
    fn determinism_at_an_instant() {
        let c = cam().into_service();
        let a = c
            .invoke(&protos::take_photo(), &tuple!["office", 5], Instant(7))
            .unwrap();
        let b = c
            .invoke(&protos::take_photo(), &tuple!["office", 5], Instant(7))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_inputs_rejected() {
        let c = cam().into_service();
        assert!(c
            .invoke(&protos::check_photo(), &tuple![42], Instant(0))
            .is_err());
        assert!(c
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
            .is_err());
    }
}
