//! Simulated temperature sensors (stand-in for the paper's Thermochron
//! iButton DS1921 devices).
//!
//! A sensor's reading is a deterministic function of its configuration and
//! the logical instant: a base temperature, a small seeded fluctuation, and
//! optional scripted *heat events* — the reproduction of the authors
//! "heating sensors over the threshold" with a hair dryer, needed to
//! trigger the surveillance scenario's alerts on cue.

use std::sync::Arc;

use serena_core::prototype::{examples as protos, Prototype};
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::Value;

use crate::fleet::mix64;

/// A scripted heating episode: between `from` and `to` (inclusive) the
/// sensor reads `peak` degrees (ramping is deliberately instantaneous —
/// threshold crossings should be exact for the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatEvent {
    /// First instant of the episode.
    pub from: Instant,
    /// Last instant of the episode.
    pub to: Instant,
    /// Temperature during the episode (°C).
    pub peak: f64,
}

/// A deterministic simulated temperature sensor implementing
/// `getTemperature() : (temperature REAL)`.
#[derive(Debug, Clone)]
pub struct SimTemperatureSensor {
    seed: u64,
    base: f64,
    fluctuation: f64,
    events: Vec<HeatEvent>,
}

impl SimTemperatureSensor {
    /// A sensor reading around `base` °C with ±`fluctuation` seeded noise.
    pub fn new(seed: u64, base: f64, fluctuation: f64) -> Self {
        SimTemperatureSensor {
            seed,
            base,
            fluctuation,
            events: Vec::new(),
        }
    }

    /// Standard room sensor: 19–23 °C.
    pub fn room(seed: u64) -> Self {
        SimTemperatureSensor::new(seed, 21.0, 2.0)
    }

    /// Add a scripted heat event (builder style).
    pub fn with_heat_event(mut self, from: Instant, to: Instant, peak: f64) -> Self {
        self.events.push(HeatEvent { from, to, peak });
        self
    }

    /// The reading at `at` — pure, replayable.
    fn reading_at(&self, at: Instant) -> f64 {
        for ev in &self.events {
            if ev.from <= at && at <= ev.to {
                return ev.peak;
            }
        }
        // fluctuation in [-fluctuation, +fluctuation], quantized to 0.1 °C
        let h = mix64(self.seed, at.ticks(), 0xFEE1) % 2001;
        let unit = (h as f64 / 1000.0) - 1.0;
        let raw = self.base + unit * self.fluctuation;
        (raw * 10.0).round() / 10.0
    }

    /// Wrap into a shareable [`Service`].
    pub fn into_service(self) -> Arc<dyn Service> {
        Arc::new(self)
    }
}

impl Service for SimTemperatureSensor {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        vec![protos::get_temperature()]
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        _input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        if prototype.name() != "getTemperature" {
            return Err(format!(
                "temperature sensor cannot serve {}",
                prototype.name()
            ));
        }
        Ok(vec![Tuple::new(vec![Value::Real(self.reading_at(at))])])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_deterministic_per_instant() {
        let s = SimTemperatureSensor::room(6);
        assert_eq!(s.reading_at(Instant(5)), s.reading_at(Instant(5)));
        // vary over time (with overwhelming likelihood for this seed)
        let varies = (0..20).any(|t| s.reading_at(Instant(t)) != s.reading_at(Instant(t + 1)));
        assert!(varies);
    }

    #[test]
    fn readings_stay_in_band() {
        let s = SimTemperatureSensor::new(3, 21.0, 2.0);
        for t in 0..200 {
            let r = s.reading_at(Instant(t));
            assert!((19.0..=23.0).contains(&r), "reading {r} out of band at {t}");
        }
    }

    #[test]
    fn heat_event_overrides_band() {
        let s = SimTemperatureSensor::room(1).with_heat_event(Instant(10), Instant(12), 40.0);
        assert!(s.reading_at(Instant(9)) < 30.0);
        assert_eq!(s.reading_at(Instant(10)), 40.0);
        assert_eq!(s.reading_at(Instant(12)), 40.0);
        assert!(s.reading_at(Instant(13)) < 30.0);
    }

    #[test]
    fn service_interface() {
        let svc = SimTemperatureSensor::room(6).into_service();
        let out = svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(4))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0][0].as_real().is_some());
        assert!(svc
            .invoke(&protos::send_message(), &Tuple::empty(), Instant(0))
            .is_err());
    }
}
