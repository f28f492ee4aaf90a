//! E9 — optimizer effect, measured: both plans of the Q2 family (naive and
//! Table-5-rewritten by the heuristic optimizer) are executed against a
//! counting invoker as the environment and the selectivity scale. The
//! paper's qualitative claim — pushing selections below passive
//! invocations is the dominant win — becomes counted calls and wall time.
//!
//! The run fails (panics) unless the optimized plan makes fewer calls on
//! every E9a row, no more `checkPhoto` calls on every E9b row, and its E9b
//! saving never grows as the filter keeps more areas. It ends with one
//! `OK:` line of counts only, so two runs print it byte for byte.
//!
//! ```sh
//! cargo run --release -p serena-bench --bin opt_sweep
//! ```

use std::time::Instant as WallClock;

use serena_bench::{report, workload};
use serena_core::eval::CountingInvoker;
use serena_core::prelude::*;
use serena_core::rewrite::optimize;

fn main() {
    println!(
        "{}",
        report::banner("E9a — invocations vs #cameras (selectivity fixed: 1 area of 5)")
    );
    let mut rows = Vec::new();
    let mut counts_a = (Vec::new(), Vec::new());
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

        rows.push(vec![
            format!("{n}"),
            format!("{inv_naive}"),
            format!("{inv_opt}"),
            format!("{:.2}×", inv_naive as f64 / inv_opt as f64),
            format!("{:.1}µs", t_naive.as_secs_f64() * 1e6),
            format!("{:.1}µs", t_opt.as_secs_f64() * 1e6),
        ]);
        assert!(
            inv_opt < inv_naive,
            "E9a, {n} cameras: pushdown must reduce invocations ({inv_naive} naive, {inv_opt} optimized)"
        );
        counts_a.0.push(inv_naive);
        counts_a.1.push(inv_opt);
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
                "time optimized"
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
    let mut counts_b = (Vec::new(), Vec::new());
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
        assert!(
            co <= cn,
            "E9b, {keep}/5 areas: the optimized plan calls checkPhoto {co} times, the naive {cn}"
        );
        // saving cn/co against the last row's cp/op, cross-multiplied
        if let (Some(&cp), Some(&op)) = (counts_b.0.last(), counts_b.1.last()) {
            assert!(
                cn * op <= cp * co,
                "E9b, {keep}/5 areas: saving {cn}/{co} grew past {cp}/{op} as the filter kept more"
            );
        }
        counts_b.0.push(cn);
        counts_b.1.push(co);
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
    let joined = |counts: &[u64]| {
        let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
        counts.join("/")
    };
    println!(
        "OK: E9a invocations {} -> {} (5-200 cameras), E9b checkPhoto calls {} -> {} (1-5 of 5 areas); \
         optimized <= naive on every row, saving never grows with selectivity.",
        joined(&counts_a.0),
        joined(&counts_a.1),
        joined(&counts_b.0),
        joined(&counts_b.1)
    );
}
