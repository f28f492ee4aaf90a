//! # serena-bench
//!
//! Workload generators and reporting helpers shared by the experiment
//! harnesses (one binary per paper table/figure, see DESIGN.md §5) and the
//! `benches/` targets: micro-benchmarks over [`harness`]'s calibrated timing
//! loop, and the overhead table over its paired measurement and 5 % gate.
//!
//! The paper's own evaluation (§5.2) is qualitative; §7 calls the missing
//! quantitative benchmark out as future work ("we also aim at developing a
//! benchmark for pervasive environments … with objective indicators").
//! [`workload`] is this reproduction's instantiation of that benchmark:
//! scaled pervasive environments with a tunable number of services,
//! tuples, selectivities and churn rates, all deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::sync::Arc;

use serena_core::env::Environment;
use serena_core::formula::Formula;
use serena_core::plan::Plan;
use serena_core::prototype::examples as protos;
use serena_core::schema::examples as schemas;
use serena_core::service::{FnService, StaticRegistry};
use serena_core::tuple::Tuple;
use serena_core::value::Value;
use serena_core::xrelation::XRelation;

pub mod envgen;
pub mod harness;

/// Deterministic scaled workloads.
pub mod workload {
    use super::*;

    /// Areas used by scaled environments.
    pub const AREAS: [&str; 5] = ["office", "corridor", "roof", "lobby", "lab"];

    /// A sensors X-Relation with `n` rows (service references
    /// `s0…s{n-1}`), locations round-robin over [`AREAS`].
    pub fn sensors_relation(n: usize) -> XRelation {
        XRelation::from_tuples(
            schemas::sensors_schema(),
            (0..n).map(|i| {
                Tuple::new(vec![
                    Value::service(format!("s{i}")),
                    Value::str(AREAS[i % AREAS.len()]),
                ])
            }),
        )
    }

    /// A cameras X-Relation with `n` rows.
    pub fn cameras_relation(n: usize) -> XRelation {
        XRelation::from_tuples(
            schemas::cameras_schema(),
            (0..n).map(|i| {
                Tuple::new(vec![
                    Value::service(format!("c{i}")),
                    Value::str(AREAS[i % AREAS.len()]),
                ])
            }),
        )
    }

    /// A contacts X-Relation with `n` rows (all on the `email` messenger).
    pub fn contacts_relation(n: usize) -> XRelation {
        XRelation::from_tuples(
            schemas::contacts_schema(),
            (0..n).map(|i| {
                Tuple::new(vec![
                    Value::str(format!("contact{i}")),
                    Value::str(format!("contact{i}@example.org")),
                    Value::service("email"),
                ])
            }),
        )
    }

    /// An environment with scaled `sensors`, `cameras` and `contacts`
    /// relations.
    pub fn scaled_environment(sensors: usize, cameras: usize, contacts: usize) -> Environment {
        let mut env = Environment::new();
        env.declare_prototype(protos::send_message())
            .expect("fresh environment accepts prototypes");
        env.declare_prototype(protos::check_photo())
            .expect("fresh environment accepts prototypes");
        env.declare_prototype(protos::take_photo())
            .expect("fresh environment accepts prototypes");
        env.declare_prototype(protos::get_temperature())
            .expect("fresh environment accepts prototypes");
        env.define_relation("sensors", sensors_relation(sensors))
            .expect("sensors relation is schema-valid");
        env.define_relation("cameras", cameras_relation(cameras))
            .expect("cameras relation is schema-valid");
        env.define_relation("contacts", contacts_relation(contacts))
            .expect("contacts relation is schema-valid");
        env
    }

    /// A registry serving every reference the scaled environment mentions:
    /// sensors `s{i}`, cameras `c{i}`, the `email`/`jabber` messengers.
    /// All services are pure functions of (seed, instant, input).
    pub fn scaled_registry(sensors: usize, cameras: usize) -> StaticRegistry {
        let reg = StaticRegistry::new();
        for i in 0..sensors {
            let seed = i as u64;
            reg.register(
                format!("s{i}"),
                Arc::new(FnService::new(
                    vec![protos::get_temperature()],
                    move |_, _, at| {
                        let v = 15.0 + ((seed * 13 + at.ticks() * 7) % 20) as f64;
                        Ok(vec![Tuple::new(vec![Value::Real(v)])])
                    },
                )),
            );
        }
        for i in 0..cameras {
            reg.register(
                format!("c{i}"),
                serena_core::service::fixtures::camera(i as u64),
            );
        }
        reg.register("email", serena_core::service::fixtures::messenger());
        reg.register("jabber", serena_core::service::fixtures::messenger());
        reg
    }

    /// The Q2-family plan over the scaled environment, with the `area`
    /// selection either pushed below `checkPhoto` (`pushed = true`, the
    /// paper's Q2) or left above it (Q2').
    pub fn q2_family(pushed: bool, quality_threshold: i64) -> Plan {
        if pushed {
            Plan::relation("cameras")
                .select(Formula::eq_const("area", "office"))
                .invoke("checkPhoto", "camera")
                .select(Formula::ge_const("quality", quality_threshold))
                .invoke("takePhoto", "camera")
                .project(["photo"])
        } else {
            Plan::relation("cameras")
                .invoke("checkPhoto", "camera")
                .select(
                    Formula::eq_const("area", "office")
                        .and(Formula::ge_const("quality", quality_threshold)),
                )
                .invoke("takePhoto", "camera")
                .project(["photo"])
        }
    }
}

/// Plain-text report tables (aligned columns, Markdown-flavoured).
pub mod report {
    /// Render `rows` under `headers` as an aligned Markdown table.
    pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let mut out = fmt_row(&header_cells);
        out.push('\n');
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// A section banner.
    pub fn banner(title: &str) -> String {
        format!("\n=== {title} ===\n")
    }
}

#[cfg(test)]
mod tests {
    use super::workload::*;
    use super::*;
    use serena_core::exec::ExecContext;
    use serena_core::time::Instant;

    #[test]
    fn scaled_environment_is_runnable() {
        let env = scaled_environment(10, 6, 4);
        let reg = scaled_registry(10, 6);
        let plan = Plan::relation("sensors").invoke("getTemperature", "sensor");
        let out = ExecContext::new(&env, &reg, Instant(1))
            .execute(&plan)
            .unwrap();
        assert_eq!(out.relation.len(), 10);
    }

    #[test]
    fn q2_family_is_equivalent_between_variants() {
        let env = scaled_environment(0, 10, 0);
        let reg = scaled_registry(0, 10);
        let a = ExecContext::new(&env, &reg, Instant(0))
            .execute(&q2_family(true, 5))
            .unwrap();
        let b = ExecContext::new(&env, &reg, Instant(0))
            .execute(&q2_family(false, 5))
            .unwrap();
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.actions, b.actions);
    }

    #[test]
    fn report_table_renders() {
        let t = report::table(
            &["n", "value"],
            &[vec!["1".into(), "a".into()], vec!["20".into(), "bb".into()]],
        );
        assert!(t.contains("| n  | value |"));
        assert!(t.lines().count() == 4);
    }
}
