//! E4 — reproduce **Table 4 + Examples 5–7**: the one-shot queries `Q1`,
//! `Q1'`, `Q2`, `Q2'` with their results, action sets and equivalence
//! verdicts; plus the continuous `Q3`/`Q4` run by the stream executor.
//!
//! ```sh
//! cargo run -p serena-bench --bin table4_queries
//! ```

use serena_bench::report;
use serena_core::env::examples::example_environment;
use serena_core::equiv::{check_at, check_over_instants};
use serena_core::exec::ExecContext;
use serena_core::plan::examples::{q1, q1_prime, q2, q2_prime};
use serena_core::prelude::*;
use serena_core::service::fixtures::example_registry;
use serena_core::tuple;

fn main() {
    let env = example_environment();
    let reg = example_registry();

    println!("{}", report::banner("Table 4 — the example queries"));
    for (name, plan) in [
        ("Q1 ", q1()),
        ("Q1'", q1_prime()),
        ("Q2 ", q2()),
        ("Q2'", q2_prime()),
    ] {
        println!("{name} = {plan}");
    }

    println!(
        "{}",
        report::banner("Example 6 — action sets of Q1 and Q1'")
    );
    let out1 = ExecContext::new(&env, &reg, Instant::ZERO)
        .execute(&q1())
        .unwrap();
    println!("Actions(Q1)  = {}", out1.actions);
    let out1p = ExecContext::new(&env, &reg, Instant::ZERO)
        .execute(&q1_prime())
        .unwrap();
    println!("Actions(Q1') = {}", out1p.actions);
    assert_eq!(out1.actions.len(), 2);
    assert_eq!(out1p.actions.len(), 3);
    assert!(out1p
        .actions
        .iter()
        .any(|a| a.input().to_string().contains("carla@elysee.fr")));

    println!("{}", report::banner("Example 7 — equivalence verdicts"));
    let r1 = check_at(&q1(), &q1_prime(), &env, &reg, Instant::ZERO).unwrap();
    println!(
        "Q1 ≡ Q1'?  results_equal={} actions_equal={} → {}",
        r1.results_equal,
        r1.actions_equal,
        if r1.equivalent() {
            "EQUIVALENT"
        } else {
            "NOT equivalent"
        }
    );
    assert!(r1.results_equal && !r1.actions_equal);

    let r2 = check_over_instants(&q2(), &q2_prime(), &env, &reg, (0..10).map(Instant)).unwrap();
    println!(
        "Q2 ≡ Q2'?  results_equal={} actions_equal={} → {}",
        r2.results_equal,
        r2.actions_equal,
        if r2.equivalent() {
            "EQUIVALENT"
        } else {
            "NOT equivalent"
        }
    );
    assert!(r2.equivalent());

    println!("{}", report::banner("Q1 result relation"));
    print!("{}", out1.relation.to_table());

    println!("{}", report::banner("Example 8 — continuous Q3 and Q4"));
    run_continuous();

    println!("\nOK: Examples 5, 6, 7 and 8 reproduced.");
}

fn run_continuous() {
    use serena_stream::plan::examples::{q3, q4};
    use serena_stream::{ContinuousQuery, SourceSet, StreamHub, TableHandle};

    let temps_schema = serena_core::schema::XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();
    // scripted stream: hot spike at τ2, cold dip at τ4, pushed before each
    // tick
    let temperatures = StreamHub::new();
    let script = |t: u64| match t {
        2 => temperatures.push(tuple!["office", 40.0]),
        4 => temperatures.push(tuple!["office", 5.0]),
        _ => temperatures.push(tuple!["office", 21.0]),
    };
    let reg = example_registry();

    println!("Q3 = {}", q3());
    let mut sources = SourceSet::new();
    sources.add_stream("temperatures", temps_schema.clone(), temperatures.clone());
    sources.add_table(
        "contacts",
        TableHandle::with_tuples(
            serena_core::schema::examples::contacts_schema(),
            serena_core::xrelation::examples::contacts().into_tuples(),
        ),
    );
    let mut q3 = ContinuousQuery::compile(&q3(), &mut sources).unwrap();
    for t in 0..6u64 {
        script(t);
        let r = q3.tick_with(&reg, &NoopMetrics);
        if !r.actions.is_empty() {
            println!("  τ={t}: {} alert(s): {}", r.actions.len(), r.actions);
        }
    }

    println!("Q4 = {}", q4());
    let mut sources = SourceSet::new();
    sources.add_stream("temperatures", temps_schema, temperatures.clone());
    sources.add_table(
        "cameras",
        TableHandle::with_tuples(
            serena_core::schema::examples::cameras_schema(),
            serena_core::xrelation::examples::cameras().into_tuples(),
        ),
    );
    let mut q4 = ContinuousQuery::compile(&q4(), &mut sources).unwrap();
    for t in 0..6u64 {
        script(t);
        let r = q4.tick_with(&reg, &NoopMetrics);
        if !r.batch.is_empty() {
            println!("  τ={t}: photo stream emitted {} blob(s)", r.batch.len());
        }
    }
}
