//! A simple cost model for service-oriented queries.
//!
//! The paper defers "a formal definition of cost models dedicated to
//! pervasive environments" to future work (§7); this module provides the
//! minimal model needed to rank rewritten plans: estimated output
//! cardinality per operator plus a per-invocation charge that dwarfs
//! per-tuple CPU work (remote service calls are orders of magnitude more
//! expensive than local predicates).

use std::collections::BTreeMap;

use crate::error::PlanError;
use crate::plan::{Plan, SchemaCatalog};

/// Tunable cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Default selectivity of a selection predicate.
    pub selectivity: f64,
    /// Join matching factor: |r1 ⋈ r2| ≈ factor · |r1| · |r2| when a join
    /// predicate exists.
    pub join_factor: f64,
    /// Cost charged per service invocation (relative to 1.0 per processed
    /// tuple).
    pub invocation_cost: f64,
    /// Average number of output tuples per invocation.
    pub invocation_fanout: f64,
    /// Cardinality assumed for relations absent from the statistics map.
    pub default_cardinality: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            selectivity: 0.5,
            join_factor: 0.1,
            invocation_cost: 1000.0,
            invocation_fanout: 1.0,
            default_cardinality: 100.0,
        }
    }
}

/// Estimated cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated output cardinality.
    pub rows: f64,
    /// Estimated total number of service invocations.
    pub invocations: f64,
    /// Scalar cost: processed tuples + invocation charges.
    pub cost: f64,
}

/// Per-prototype measured state, assembled from the telemetry subsystem:
/// latency quantiles from the instrumented invoker's histograms, failure
/// rate and breaker state from the health tracker / resilience layer,
/// β-cache hit rate from the metrics registry, and observed fanout from
/// executor statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceObservation {
    /// Median invocation latency (nanoseconds), if measured.
    pub p50_latency_ns: Option<u64>,
    /// Tail invocation latency (nanoseconds), if measured.
    pub p99_latency_ns: Option<u64>,
    /// Fraction of recent invocations that failed, in `[0, 1]`.
    pub failure_rate: f64,
    /// Whether any circuit breaker guarding the prototype's services is
    /// currently open or half-open.
    pub breaker_open: bool,
    /// Fraction of β lookups served from cache, in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Observed output tuples per invocation, if measured.
    pub fanout: Option<f64>,
}

/// Telemetry-fed cost provider (DESIGN § 4, *Adaptive optimization*): ranks
/// plans by *measured* invocation cost instead of the flat
/// [`CostParams::invocation_cost`] guess.
///
/// The per-prototype invocation charge starts from the static baseline and
/// is then
/// - scaled by the measured p50 latency relative to a reference latency
///   (skipped in [deterministic](MeasuredCosts::deterministic) mode —
///   wall-clock inputs would make replans diverge between replays),
/// - inflated by the failure rate (failed calls are retried and their work
///   wasted), and by a large penalty while a breaker is open (calls are
///   rejected or degraded outright),
/// - discounted by the β-cache hit rate (a cached invocation costs no
///   service round-trip).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCosts {
    base: CostParams,
    /// Latency that corresponds to the baseline `invocation_cost` charge.
    reference_latency_ns: u64,
    /// Multiplier applied on top of a fully-failing service's cost.
    failure_penalty: f64,
    /// Multiplier applied while the service's breaker is open.
    breaker_penalty: f64,
    deterministic: bool,
    observations: BTreeMap<String, ServiceObservation>,
    cardinalities: BTreeMap<String, usize>,
}

impl Default for MeasuredCosts {
    fn default() -> Self {
        MeasuredCosts {
            base: CostParams::default(),
            reference_latency_ns: 1_000_000, // 1 ms ≙ the 1000.0 baseline
            failure_penalty: 4.0,
            breaker_penalty: 50.0,
            deterministic: false,
            observations: BTreeMap::new(),
            cardinalities: BTreeMap::new(),
        }
    }
}

impl MeasuredCosts {
    /// A provider with default structural parameters and no observations:
    /// the static model, until fed.
    pub fn new() -> Self {
        MeasuredCosts::default()
    }

    /// Replace the structural baseline parameters.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.base = params;
        self
    }

    /// Restrict the model to replay-stable inputs: latency histograms are
    /// ignored, leaving only logically-timed signals (failure rates,
    /// breaker states, cache hit rates, observed cardinalities). Two runs
    /// with the same fault schedule then rank candidates identically.
    pub fn deterministic(mut self, on: bool) -> Self {
        self.deterministic = on;
        self
    }

    /// Whether the model is restricted to replay-stable inputs.
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }

    /// Record (or replace) the measured state of `prototype`.
    pub fn observe(&mut self, prototype: impl Into<String>, obs: ServiceObservation) {
        self.observations.insert(prototype.into(), obs);
    }

    /// Record the observed cardinality of base relation `name`.
    pub fn observe_cardinality(&mut self, name: impl Into<String>, rows: usize) {
        self.cardinalities.insert(name.into(), rows);
    }

    /// The measured state of `prototype`, if any was recorded.
    pub fn observation(&self, prototype: &str) -> Option<&ServiceObservation> {
        self.observations.get(prototype)
    }

    /// All recorded observations, keyed by prototype name.
    pub fn observations(&self) -> impl Iterator<Item = (&str, &ServiceObservation)> {
        self.observations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Estimate `plan` under this model. In a continuous plan the figures
    /// are *per instant*: a stream's cardinality is its expected tuples per
    /// instant, a window multiplies its operand's rate by its period, and a
    /// sampling invocation `βˢ[k]` amortizes one full scan of its operand
    /// every `k` instants.
    pub fn estimate(
        &self,
        plan: &Plan,
        catalog: &dyn SchemaCatalog,
    ) -> Result<CostEstimate, PlanError> {
        let params = self.base;
        match plan {
            Plan::Relation(name) => {
                // validate existence
                plan.schema(catalog)?;
                let rows = self
                    .cardinalities
                    .get(name)
                    .map_or(params.default_cardinality, |&n| n as f64);
                Ok(CostEstimate {
                    rows,
                    invocations: 0.0,
                    cost: rows,
                })
            }
            Plan::Union(a, b) => {
                let (ea, eb) = (self.estimate(a, catalog)?, self.estimate(b, catalog)?);
                let rows = ea.rows + eb.rows;
                Ok(combine2(ea, eb, rows))
            }
            Plan::Intersect(a, b) => {
                let (ea, eb) = (self.estimate(a, catalog)?, self.estimate(b, catalog)?);
                let rows = ea.rows.min(eb.rows) * params.selectivity;
                Ok(combine2(ea, eb, rows))
            }
            Plan::Difference(a, b) => {
                let (ea, eb) = (self.estimate(a, catalog)?, self.estimate(b, catalog)?);
                let rows = ea.rows * params.selectivity;
                Ok(combine2(ea, eb, rows))
            }
            Plan::Project(p, _)
            | Plan::Rename(p, _, _)
            | Plan::Assign(p, _, _)
            | Plan::Stream(p, _) => {
                let e = self.estimate(p, catalog)?;
                Ok(CostEstimate {
                    rows: e.rows,
                    invocations: e.invocations,
                    cost: e.cost + e.rows,
                })
            }
            Plan::Select(p, _) => {
                let e = self.estimate(p, catalog)?;
                let rows = e.rows * params.selectivity;
                Ok(CostEstimate {
                    rows,
                    invocations: e.invocations,
                    cost: e.cost + e.rows,
                })
            }
            Plan::Join(a, b) => {
                let (ea, eb) = (self.estimate(a, catalog)?, self.estimate(b, catalog)?);
                // does the join have a predicate? (common both-real attributes)
                let sa = a.schema(catalog)?;
                let sb = b.schema(catalog)?;
                let has_predicate = sa
                    .attrs()
                    .iter()
                    .any(|x| x.is_real() && sb.is_real(x.name.as_str()));
                let rows = if has_predicate {
                    (ea.rows * eb.rows * params.join_factor).max(ea.rows.min(eb.rows))
                } else {
                    ea.rows * eb.rows
                };
                Ok(combine2(ea, eb, rows))
            }
            Plan::Invoke(p, proto, _) => {
                let e = self.estimate(p, catalog)?;
                // one invocation per input tuple
                let invocations = e.invocations + e.rows;
                let rows = e.rows * self.invocation_fanout(proto);
                Ok(CostEstimate {
                    rows,
                    invocations,
                    cost: e.cost + e.rows * self.invocation_cost(proto),
                })
            }
            Plan::Aggregate(p, group, _) => {
                let e = self.estimate(p, catalog)?;
                let rows = if group.is_empty() {
                    1.0
                } else {
                    (e.rows * params.selectivity).max(1.0)
                };
                Ok(CostEstimate {
                    rows,
                    invocations: e.invocations,
                    cost: e.cost + e.rows,
                })
            }
            Plan::Window(p, period) => {
                let e = self.estimate(p, catalog)?;
                let rows = e.rows * (*period).max(1) as f64;
                Ok(CostEstimate {
                    rows,
                    invocations: e.invocations,
                    cost: e.cost + rows,
                })
            }
            Plan::SampleInvoke(p, proto, _, period) => {
                let e = self.estimate(p, catalog)?;
                let per = (*period).max(1) as f64;
                Ok(CostEstimate {
                    rows: e.rows * self.invocation_fanout(proto) / per,
                    invocations: e.invocations + e.rows / per,
                    cost: e.cost + (e.rows / per) * self.invocation_cost(proto),
                })
            }
        }
    }

    /// Cost charged per invocation of `prototype` (relative to 1.0 per
    /// processed tuple).
    fn invocation_cost(&self, prototype: &str) -> f64 {
        let Some(obs) = self.observations.get(prototype) else {
            return self.base.invocation_cost;
        };
        let mut cost = self.base.invocation_cost;
        if !self.deterministic {
            if let Some(p50) = obs.p50_latency_ns {
                let scale = p50 as f64 / self.reference_latency_ns as f64;
                cost *= scale.clamp(0.1, 100.0);
            }
        }
        cost *= 1.0 + obs.failure_rate.clamp(0.0, 1.0) * self.failure_penalty;
        if obs.breaker_open {
            cost *= self.breaker_penalty;
        }
        // a cache hit skips the service round-trip entirely; keep a floor
        // so invocations never become free
        cost * (1.0 - obs.cache_hit_rate.clamp(0.0, 0.95))
    }

    /// Expected output tuples per invocation of `prototype`.
    fn invocation_fanout(&self, prototype: &str) -> f64 {
        self.observations
            .get(prototype)
            .and_then(|o| o.fanout)
            .unwrap_or(self.base.invocation_fanout)
    }
}

fn combine2(a: CostEstimate, b: CostEstimate, rows: f64) -> CostEstimate {
    CostEstimate {
        rows,
        invocations: a.invocations + b.invocations,
        cost: a.cost + b.cost + rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::examples::example_environment;
    use crate::plan::examples::{q2, q2_prime};

    fn cards() -> BTreeMap<String, usize> {
        [
            ("cameras".to_string(), 3usize),
            ("contacts".to_string(), 3),
            ("sensors".to_string(), 4),
        ]
        .into_iter()
        .collect()
    }

    /// The static model: default parameters plus known cardinalities, no
    /// observations.
    fn unfed(cards: &BTreeMap<String, usize>) -> MeasuredCosts {
        let mut m = MeasuredCosts::new();
        for (name, n) in cards {
            m.observe_cardinality(name, *n);
        }
        m
    }

    #[test]
    fn pushed_down_plan_costs_less() {
        let env = example_environment();
        let e_opt = unfed(&cards()).estimate(&q2(), &env).unwrap();
        let e_naive = unfed(&cards()).estimate(&q2_prime(), &env).unwrap();
        assert!(
            e_opt.cost < e_naive.cost,
            "Q2 ({}) should be cheaper than Q2' ({})",
            e_opt.cost,
            e_naive.cost
        );
        assert!(e_opt.invocations < e_naive.invocations);
    }

    #[test]
    fn invocation_dominates_cost() {
        let env = example_environment();
        let scan = Plan::relation("cameras");
        let inv = Plan::relation("cameras").invoke("checkPhoto", "camera");
        let e_scan = unfed(&cards()).estimate(&scan, &env).unwrap();
        let e_inv = unfed(&cards()).estimate(&inv, &env).unwrap();
        assert!(e_inv.cost > e_scan.cost * 100.0);
        assert_eq!(e_inv.invocations, 3.0);
    }

    #[test]
    fn default_cardinality_for_unknown_relations() {
        let env = example_environment();
        let params = CostParams::default();
        let e = unfed(&BTreeMap::new())
            .estimate(&Plan::relation("cameras"), &env)
            .unwrap();
        assert_eq!(e.rows, params.default_cardinality);
    }

    #[test]
    fn unfed_model_is_the_static_model() {
        // what the deleted static entry point (`CostParams` + cardinality
        // map) returned for Table 5's pair; every figure is exact in f64,
        // so `==` here is bit-identity
        let env = example_environment();
        let m = unfed(&cards());
        let pushed = CostEstimate {
            rows: 0.75,
            invocations: 2.25,
            cost: 2258.25,
        };
        let naive = CostEstimate {
            rows: 1.5,
            invocations: 4.5,
            cost: 4507.5,
        };
        assert_eq!(m.estimate(&q2(), &env).unwrap(), pushed);
        assert_eq!(m.estimate(&q2_prime(), &env).unwrap(), naive);
    }

    #[test]
    fn degraded_service_inflates_invocation_cost() {
        let env = example_environment();
        let mut m = MeasuredCosts::new();
        let p = Plan::relation("cameras").invoke("checkPhoto", "camera");
        let healthy = m.estimate(&p, &env).unwrap();
        m.observe(
            "checkPhoto",
            ServiceObservation {
                failure_rate: 0.5,
                ..ServiceObservation::default()
            },
        );
        let failing = m.estimate(&p, &env).unwrap();
        assert!(failing.cost > healthy.cost * 2.0);
        m.observe(
            "checkPhoto",
            ServiceObservation {
                breaker_open: true,
                ..ServiceObservation::default()
            },
        );
        let broken = m.estimate(&p, &env).unwrap();
        assert!(broken.cost > failing.cost * 5.0);
    }

    #[test]
    fn cache_hits_discount_invocation_cost() {
        let env = example_environment();
        let mut m = MeasuredCosts::new();
        let p = Plan::relation("cameras").invoke("checkPhoto", "camera");
        let cold = m.estimate(&p, &env).unwrap();
        m.observe(
            "checkPhoto",
            ServiceObservation {
                cache_hit_rate: 0.9,
                ..ServiceObservation::default()
            },
        );
        let warm = m.estimate(&p, &env).unwrap();
        assert!(warm.cost < cold.cost);
    }

    #[test]
    fn deterministic_mode_ignores_latency() {
        let env = example_environment();
        let p = Plan::relation("cameras").invoke("checkPhoto", "camera");
        let slow = ServiceObservation {
            p50_latency_ns: Some(50_000_000), // 50 ms vs 1 ms reference
            ..ServiceObservation::default()
        };
        let mut live = MeasuredCosts::new();
        live.observe("checkPhoto", slow.clone());
        let mut det = MeasuredCosts::new().deterministic(true);
        det.observe("checkPhoto", slow);
        let baseline = MeasuredCosts::new().estimate(&p, &env).unwrap();
        assert!(live.estimate(&p, &env).unwrap().cost > baseline.cost * 10.0);
        assert_eq!(det.estimate(&p, &env).unwrap(), baseline);
    }

    #[test]
    fn measured_costs_widen_the_pushdown_gap_under_degradation() {
        // Table 5's σ-pushdown (Q2 vs Q2') is worth strictly more when the
        // invoked service is degraded: the optimizer should prefer the
        // rewritten plan even harder once the breaker penalty kicks in.
        let env = example_environment();
        let mut healthy = MeasuredCosts::new();
        let mut degraded = MeasuredCosts::new();
        for m in [&mut healthy, &mut degraded] {
            for (name, n) in cards() {
                m.observe_cardinality(name, n);
            }
        }
        degraded.observe(
            "checkPhoto",
            ServiceObservation {
                failure_rate: 0.8,
                breaker_open: true,
                ..ServiceObservation::default()
            },
        );
        let gap = |m: &MeasuredCosts| {
            let opt = m.estimate(&q2(), &env).unwrap().cost;
            let naive = m.estimate(&q2_prime(), &env).unwrap().cost;
            naive - opt
        };
        assert!(gap(&degraded) > gap(&healthy));
    }

    #[test]
    fn degradation_widens_the_sampling_pushdown_gap() {
        // the E20 pair: filter a windowed periodic sampling of the sensors
        // after it, or filter the sensors before sampling them
        let env = example_environment();
        let corridor = || crate::formula::Formula::eq_const("location", "corridor");
        let naive = Plan::source("sensors")
            .sample_invoke("getTemperature", "sensor", 1)
            .window(1)
            .select(corridor());
        let pushed = Plan::source("sensors")
            .select(corridor())
            .sample_invoke("getTemperature", "sensor", 1)
            .window(1);
        let mut healthy = MeasuredCosts::new();
        healthy.observe_cardinality("sensors", 100);
        let mut degraded = healthy.clone();
        degraded.observe(
            "getTemperature",
            ServiceObservation {
                failure_rate: 0.8,
                breaker_open: true,
                ..ServiceObservation::default()
            },
        );
        let gap = |m: &MeasuredCosts| {
            m.estimate(&naive, &env).unwrap().cost - m.estimate(&pushed, &env).unwrap().cost
        };
        assert!(gap(&healthy) > 0.0, "pushdown wins even when healthy");
        assert!(gap(&degraded) > gap(&healthy), "and wins harder degraded");
    }

    #[test]
    fn sampling_period_amortizes_invocations() {
        let env = example_environment();
        let m = MeasuredCosts::new();
        let sampled = |every| {
            Plan::source("sensors")
                .sample_invoke("getTemperature", "sensor", every)
                .window(1)
        };
        let e1 = m.estimate(&sampled(1), &env).unwrap();
        let e4 = m.estimate(&sampled(4), &env).unwrap();
        assert!(e4.invocations < e1.invocations);
        assert!(e4.cost < e1.cost);
    }

    #[test]
    fn cartesian_join_estimates_product() {
        let env = example_environment();
        // sensors ⋈ π_{name,address}(contacts): no common attrs → product
        let p =
            Plan::relation("sensors").join(Plan::relation("contacts").project(["name", "address"]));
        let e = unfed(&cards()).estimate(&p, &env).unwrap();
        assert_eq!(e.rows, 12.0);
    }
}
