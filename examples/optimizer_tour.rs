//! Query rewriting and optimization (§3.3, Table 5).
//!
//! Shows the heuristic optimizer turning the naive `Q2'` into the
//! pushed-down `Q2` shape, the invocation savings counted by executing both
//! plans, and — the paper's central caveat — why `Q1'` must *not* be
//! rewritten: its selection sits above an *active* invocation, and moving
//! it would change the action set (Example 6).
//!
//! ```sh
//! cargo run --example optimizer_tour
//! ```

use serena::core::env::examples::example_environment;
use serena::core::eval::CountingInvoker;
use serena::core::plan::examples::{q1_prime, q2, q2_prime};
use serena::core::prelude::*;
use serena::core::rewrite::optimize;
use serena::core::service::fixtures::example_registry;

fn main() {
    let env = example_environment();
    let registry = example_registry();

    // --- optimizing the passive pipeline Q2' ---
    let naive = q2_prime();
    println!("naive      : {naive}");
    let report = optimize(&naive, &env);
    println!("optimized  : {}", report.plan);
    println!("rules applied:");
    for (rule, n) in &report.applied {
        println!("  {rule} ×{n}");
    }

    let count = |plan: &Plan| {
        let counter = CountingInvoker::new(&registry);
        ExecContext::new(&env, &counter, Instant::ZERO)
            .execute(plan)
            .expect("evaluates");
        counter.snapshot()
    };
    println!("\ninvocations (naive)     : {:?}", count(&naive));
    println!("invocations (optimized) : {:?}", count(&report.plan));
    println!("invocations (paper's Q2): {:?}", count(&q2()));

    // --- the active-invocation wall ---
    let q1p = q1_prime();
    println!("\nQ1' = {q1p}");
    let report = optimize(&q1p, &env);
    println!("optimized Q1' = {}", report.plan);
    let before = ExecContext::new(&env, &registry, Instant::ZERO)
        .execute(&q1p)
        .unwrap();
    let after = ExecContext::new(&env, &registry, Instant::ZERO)
        .execute(&report.plan)
        .unwrap();
    assert_eq!(before.actions, after.actions);
    println!(
        "action set unchanged ({} messages — Carla is still messaged, exactly as Q1' demands)",
        after.actions.len()
    );
}
