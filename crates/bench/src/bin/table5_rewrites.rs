//! E5 — reproduce **Table 5**: apply every rewrite rule to plans over
//! randomized environments, verify the precondition gating (rules refuse
//! where the paper forbids them) and confirm Definition 9 equivalence
//! empirically for every application.
//!
//! ```sh
//! cargo run -p serena-bench --bin table5_rewrites
//! ```

use serena_bench::{report, workload};
use serena_core::equiv::check_over_instants;
use serena_core::formula::Formula;
use serena_core::plan::Plan;
use serena_core::prelude::*;
use serena_core::rewrite::rules::{Rule, SELECT_PAST_ASSIGN, SELECT_PAST_INVOKE};
use serena_core::rewrite::{apply_everywhere, RULES};

/// The plan family exercised against every rule: σ/π stacked over α, β
/// (passive and active) and ⋈, mirroring Table 5's rows and columns.
fn plan_family() -> Vec<(&'static str, Plan)> {
    vec![
        (
            "σ over α (pushable)",
            Plan::relation("contacts")
                .assign_const("text", "Hi")
                .select(Formula::ne_const("name", "contact0")),
        ),
        (
            "σ over α (blocked: F uses A)",
            Plan::relation("contacts")
                .assign_const("text", "Hi")
                .select(Formula::eq_const("text", "Hi")),
        ),
        (
            "π over α",
            Plan::relation("contacts")
                .assign_const("text", "Hi")
                .project(["name", "text", "messenger"]),
        ),
        (
            "σ over passive β (pushable)",
            Plan::relation("sensors")
                .invoke("getTemperature", "sensor")
                .select(Formula::eq_const("location", "office")),
        ),
        (
            "σ over passive β (blocked: F uses output)",
            Plan::relation("sensors")
                .invoke("getTemperature", "sensor")
                .select(Formula::gt_const("temperature", 20.0)),
        ),
        (
            "σ over ACTIVE β (must never move)",
            Plan::relation("contacts")
                .assign_const("text", "Hi")
                .invoke("sendMessage", "messenger")
                .select(Formula::ne_const("name", "contact0")),
        ),
        (
            "π over passive β",
            Plan::relation("sensors")
                .invoke("getTemperature", "sensor")
                .project(["sensor", "location", "temperature"]),
        ),
        (
            "α over ⋈",
            Plan::relation("contacts")
                .join(Plan::relation("sensors").project(["sensor", "location"]))
                .assign_const("text", "Hi"),
        ),
        (
            "β over ⋈ (passive)",
            Plan::relation("sensors")
                .join(Plan::relation("contacts").project(["name", "address"]))
                .invoke("getTemperature", "sensor"),
        ),
        (
            "σ over ⋈",
            Plan::relation("sensors")
                .join(Plan::relation("contacts").project(["name", "address"]))
                .select(Formula::eq_const("location", "office")),
        ),
    ]
}

fn main() {
    println!(
        "{}",
        report::banner("Table 5 — rewrite rules, empirically verified")
    );
    let env = workload::scaled_environment(8, 5, 4);
    let reg = workload::scaled_registry(8, 5);

    let mut rows = Vec::new();
    let mut total_applications = 0usize;
    let mut total_checks = 0usize;
    for (label, plan) in plan_family() {
        assert!(plan.schema(&env).is_ok(), "{label}: plan must validate");
        for rule in &RULES {
            let (rewritten, n) = apply_everywhere(&plan, rule, &env);
            if n == 0 {
                continue;
            }
            total_applications += n;
            let verdict = check_over_instants(&plan, &rewritten, &env, &reg, (0..4).map(Instant))
                .expect("evaluates");
            total_checks += 1;
            assert!(
                verdict.equivalent(),
                "{label}: rule {} broke equivalence",
                rule.name
            );
            rows.push(vec![
                label.to_string(),
                rule.name.to_string(),
                format!("×{n}"),
                "≡ (results + action sets)".to_string(),
            ]);
        }
    }
    println!(
        "{}",
        report::table(&["plan shape", "rule fired", "times", "verdict"], &rows)
    );

    // the negative space: rules that must NOT fire
    println!(
        "{}",
        report::banner("Precondition gating (rules must refuse)")
    );
    let blocked: Vec<(&str, Rule, Plan)> = vec![
        (
            "σ cannot cross an ACTIVE β (action set would shrink)",
            SELECT_PAST_INVOKE,
            Plan::relation("contacts")
                .assign_const("text", "Hi")
                .invoke("sendMessage", "messenger")
                .select(Formula::ne_const("name", "contact0")),
        ),
        (
            "σ on a β output cannot cross the β",
            SELECT_PAST_INVOKE,
            Plan::relation("sensors")
                .invoke("getTemperature", "sensor")
                .select(Formula::gt_const("temperature", 20.0)),
        ),
        (
            "σ on the α target cannot cross the α",
            SELECT_PAST_ASSIGN,
            Plan::relation("contacts")
                .assign_const("text", "Hi")
                .select(Formula::eq_const("text", "Hi")),
        ),
    ];
    let mut gate_rows = Vec::new();
    for (label, rule, plan) in blocked {
        let (rewritten, n) = apply_everywhere(&plan, &rule, &env);
        assert_eq!(n, 0, "{label}: the rule must refuse");
        assert_eq!(rewritten, plan);
        gate_rows.push(vec![
            label.to_string(),
            rule.name.to_string(),
            "refused ✓".into(),
        ]);
    }
    println!(
        "{}",
        report::table(&["case", "rule", "outcome"], &gate_rows)
    );

    println!(
        "OK: {total_applications} rule applications across {total_checks} plans, all Definition 9-equivalent; all forbidden rewrites refused."
    );
}
