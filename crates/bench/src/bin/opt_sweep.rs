//! E9 — optimizer effect, quantified: invocation counts and wall time for
//! the Q2 family (naive vs Table-5-rewritten) as the environment and the
//! selectivity scale. The paper's qualitative claim — pushing selections
//! below passive invocations is the dominant win — becomes a measured
//! curve; the cost model's prediction is printed alongside.
//!
//! ```sh
//! cargo run --release -p serena-bench --bin opt_sweep
//! ```

use std::time::Instant as WallClock;

use serena_bench::{report, workload};
use serena_core::eval::CountingInvoker;
use serena_core::prelude::*;
use serena_core::rewrite::{optimize, CostParams, MeasuredCosts};

fn main() {
    println!(
        "{}",
        report::banner("E9a — invocations vs #cameras (selectivity fixed: 1 area of 5)")
    );
    let mut rows = Vec::new();
    for n in [5usize, 10, 20, 50, 100, 200] {
        let env = workload::scaled_environment(0, n, 0);
        let reg = workload::scaled_registry(0, n);
        let naive = workload::q2_family(false, 5);
        let optimized = optimize(&naive, &env).plan;

        let measure = |plan: &Plan| {
            let counter = CountingInvoker::new(&reg);
            let t0 = WallClock::now();
            ExecContext::new(&env, &counter, serena_core::time::Instant(1))
                .execute(plan)
                .unwrap();
            (counter.total(), t0.elapsed())
        };
        let (inv_naive, t_naive) = measure(&naive);
        let (inv_opt, t_opt) = measure(&optimized);

        let mut costs = MeasuredCosts::new().with_params(CostParams {
            selectivity: 1.0 / 5.0,
            ..CostParams::default()
        });
        costs.observe_cardinality("cameras", n);
        let c_naive = costs.estimate(&naive, &env).unwrap();
        let c_opt = costs.estimate(&optimized, &env).unwrap();

        rows.push(vec![
            format!("{n}"),
            format!("{inv_naive}"),
            format!("{inv_opt}"),
            format!("{:.2}×", inv_naive as f64 / inv_opt as f64),
            format!("{:.1}µs", t_naive.as_secs_f64() * 1e6),
            format!("{:.1}µs", t_opt.as_secs_f64() * 1e6),
            format!("{:.0}/{:.0}", c_naive.invocations, c_opt.invocations),
        ]);
        assert!(inv_opt < inv_naive, "pushdown must reduce invocations");
    }
    println!(
        "{}",
        report::table(
            &[
                "cameras",
                "invocations naive",
                "invocations optimized",
                "saving",
                "time naive",
                "time optimized",
                "cost-model inv (naive/opt)"
            ],
            &rows
        )
    );

    println!(
        "{}",
        report::banner("E9b — invocations vs selectivity (100 cameras)")
    );
    let n = 100usize;
    let env = workload::scaled_environment(0, n, 0);
    let reg = workload::scaled_registry(0, n);
    let mut rows = Vec::new();
    // selectivity is driven by how many areas the filter keeps; we emulate
    // by ORing area predicates (1 of 5 .. 5 of 5).
    for keep in 1..=5usize {
        let mut f = serena_core::formula::Formula::eq_const("area", workload::AREAS[0]);
        for a in &workload::AREAS[1..keep] {
            f = f.or(serena_core::formula::Formula::eq_const("area", *a));
        }
        let naive = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .select(
                f.clone()
                    .and(serena_core::formula::Formula::ge_const("quality", 5)),
            )
            .invoke("takePhoto", "camera")
            .project(["photo"]);
        let optimized = optimize(&naive, &env).plan;
        let count = |plan: &Plan| {
            let counter = CountingInvoker::new(&reg);
            ExecContext::new(&env, &counter, serena_core::time::Instant(1))
                .execute(plan)
                .unwrap();
            counter.count_of("checkPhoto")
        };
        let (cn, co) = (count(&naive), count(&optimized));
        rows.push(vec![
            format!("{}/5 areas", keep),
            format!("{cn}"),
            format!("{co}"),
            format!("{:.2}×", cn as f64 / co as f64),
        ]);
    }
    println!(
        "{}",
        report::table(
            &[
                "selectivity",
                "checkPhoto naive",
                "checkPhoto optimized",
                "saving"
            ],
            &rows
        )
    );
    println!(
        "OK: savings shrink as selectivity approaches 1 — the crossover the cost model predicts."
    );
}
