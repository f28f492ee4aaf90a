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

/// The static cost model: [`CostParams`] plus the observed cardinalities of
/// base relations (a relation without one is assumed to hold
/// [`CostParams::default_cardinality`] rows).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasuredCosts {
    base: CostParams,
    cardinalities: BTreeMap<String, usize>,
}

impl MeasuredCosts {
    /// A model with default parameters and no observed cardinalities.
    pub fn new() -> Self {
        MeasuredCosts::default()
    }

    /// Replace the structural baseline parameters.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.base = params;
        self
    }

    /// Record the observed cardinality of base relation `name`.
    pub fn observe_cardinality(&mut self, name: impl Into<String>, rows: usize) {
        self.cardinalities.insert(name.into(), rows);
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
            Plan::Invoke(p, _, _) => {
                let e = self.estimate(p, catalog)?;
                // one invocation per input tuple
                let invocations = e.invocations + e.rows;
                let rows = e.rows * params.invocation_fanout;
                Ok(CostEstimate {
                    rows,
                    invocations,
                    cost: e.cost + e.rows * params.invocation_cost,
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
            Plan::SampleInvoke(p, _, _, period) => {
                let e = self.estimate(p, catalog)?;
                let per = (*period).max(1) as f64;
                Ok(CostEstimate {
                    rows: e.rows * params.invocation_fanout / per,
                    invocations: e.invocations + e.rows / per,
                    cost: e.cost + (e.rows / per) * params.invocation_cost,
                })
            }
        }
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
    fn sampling_pushdown_costs_less() {
        // filter a windowed periodic sampling of the sensors after it, or
        // filter the sensors before sampling them
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
        let mut m = MeasuredCosts::new();
        m.observe_cardinality("sensors", 100);
        let (naive, pushed) = (
            m.estimate(&naive, &env).unwrap(),
            m.estimate(&pushed, &env).unwrap(),
        );
        assert!(pushed.cost < naive.cost);
        assert!(pushed.invocations < naive.invocations);
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
