//! Trust boundary: the depth of the tree the parser builds is bounded.
//!
//! DDL text comes from outside the program. The parser recurses per level
//! of nesting and builds connective chains in a loop, and every walk behind
//! it — schema derivation, the optimizer, compilation, `Drop` — recurses
//! per level of the tree, so unbounded text used to abort the process with
//! a stack overflow. Both tests run on a 2 MiB stack, the size `cargo test`
//! and `std::thread::spawn` give a thread by default; CI runs them in debug
//! and in release, whose frames differ several-fold.

use serena_core::exec::ExecContext;
use serena_core::metrics::NoopMetrics;
use serena_core::plan::Plan;
use serena_core::rewrite::optimize;
use serena_core::schema::XSchema;
use serena_core::service::fixtures::example_registry;
use serena_core::snapshot::{Reader, Writer};
use serena_core::time::Instant;
use serena_core::tuple;
use serena_core::value::DataType;
use serena_ddl::sql::{compile_select, parse_select};
use serena_ddl::{parse_program, parse_query, DdlError, ParseError};
use serena_stream::{ContinuousQuery, SourceSet, StreamHub};

fn on_a_2mib_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("no panic and no stack overflow");
}

/// `n` levels of `open … close` around `core`.
fn wrap(open: &str, n: usize, core: &str, close: &str) -> String {
    format!("{}{core}{}", open.repeat(n), close.repeat(n))
}

/// `n` copies of `term` joined by `connective`.
fn chained(term: &str, connective: &str, n: usize) -> String {
    vec![term; n].join(connective)
}

/// Text that nests or chains 10⁵ deep used to overflow the stack — in the
/// parser's own recursion (parentheses, `NOT`, operators) or, for the
/// chains it builds in a loop, in the first recursive walk behind it. Each
/// is now a positioned parse error.
#[test]
fn hostile_nesting_is_a_positioned_error_not_a_stack_overflow() {
    on_a_2mib_stack(|| {
        const DEEP: usize = 100_000;
        const LONG: usize = 200_000;
        let positioned = |what: &str, err: ParseError| {
            assert!(err.line > 0 && err.col > 0, "{what}: unpositioned {err}");
            assert!(err.message.contains("nested deeper"), "{what}: {err}");
        };
        let select = |formula: String| format!("SELECT[{formula}](r)");
        let algebra = [
            ("(", wrap("(", DEEP, "r", ")")),
            ("NOT", select(format!("{}TRUE", "NOT ".repeat(DEEP)))),
            ("formula (", select(wrap("(", DEEP, "x = 1", ")"))),
            ("SELECT", wrap("SELECT[TRUE](", DEEP, "r", ")")),
            ("JOIN", wrap("JOIN(r, ", DEEP, "r", ")")),
            ("AND", select(chained("x = 1", " AND ", LONG))),
            ("OR", select(chained("x = 1", " OR ", LONG))),
        ];
        for (what, text) in &algebra {
            positioned(what, parse_query(text).unwrap_err());
            positioned(
                what,
                parse_program(&format!("EXECUTE {text};")).unwrap_err(),
            );
        }
        let env = serena_core::env::examples::example_environment();
        let from_r = |rest: String| format!("SELECT a FROM r {rest};");
        // a shallow formula whose 2¹⁷ conjuncts would each lower to a σ
        let mut balanced = "x = 1".to_string();
        for _ in 0..17 {
            balanced = format!("({balanced} AND {balanced})");
        }
        let sql = [
            (
                "WHERE (",
                from_r(format!("WHERE {}", wrap("(", DEEP, "x = 1", ")"))),
            ),
            (
                "WHERE AND",
                from_r(format!("WHERE {}", chained("x = 1", " AND ", LONG))),
            ),
            (
                "WHERE OR",
                from_r(format!("WHERE {}", chained("x = 1", " OR ", LONG))),
            ),
            ("WHERE balanced AND", from_r(format!("WHERE {balanced}"))),
            ("FROM", from_r(chained(", r", "", DEEP))),
            (
                "WITH",
                from_r(format!("WITH {}", chained("a := 1", ", ", DEEP))),
            ),
            (
                "USING",
                from_r(format!("USING {}", chained("p[s]", ", ", DEEP))),
            ),
        ];
        for (what, text) in &sql {
            positioned(what, parse_select(text).unwrap_err());
            let DdlError::Parse(err) = compile_select(text, &env).unwrap_err() else {
                panic!("{what}: not a parse error");
            };
            positioned(what, err);
        }
    });
}

/// The two operands every shape below is written over: the running
/// example's finite `contacts`, and a window over a `readings` stream.
const OPERANDS: [(&str, &str); 2] = [
    ("contacts", "name <> 'Carla'"),
    ("WINDOW[2](readings)", "temperature > 1.0"),
];

/// Algebra text of `shape` at size `n`, one-shot and continuous.
fn algebra(shape: &str, n: usize) -> [String; 2] {
    OPERANDS.map(|(operand, atom)| match shape {
        "(" => wrap("(", n, operand, ")"),
        "SELECT" => wrap(&format!("SELECT[{atom}]("), n, operand, ")"),
        "UNION" => wrap(&format!("UNION({operand}, "), n, operand, ")"),
        "NOT" => format!("SELECT[{}{atom}]({operand})", "NOT ".repeat(n)),
        "formula (" => format!("SELECT[{}]({operand})", wrap("(", n, atom, ")")),
        "AND" => format!("SELECT[{}]({operand})", chained(atom, " AND ", n + 1)),
        "OR" => format!("SELECT[{}]({operand})", chained(atom, " OR ", n + 1)),
        other => panic!("unknown shape {other}"),
    })
}

/// A `SELECT` of `n` conjuncts whose last is `n` `NOT`s tall: the σ levels
/// of the former stack over the formula depth of the latter.
fn sql(n: usize) -> [String; 2] {
    [
        ("contacts", OPERANDS[0].1),
        ("readings WINDOW 2", OPERANDS[1].1),
    ]
    .map(|(from, atom)| {
        format!(
            "SELECT FROM {from} WHERE {} AND {}{atom}",
            chained(atom, " AND ", n),
            "NOT ".repeat(n)
        )
    })
}

/// Everything behind the parser, over one accepted pair of plans.
fn survive(what: &str, one_shot: Plan, continuous: Plan) {
    let env = serena_core::env::examples::example_environment();
    let reg = example_registry();
    one_shot.stream_schema(&env).unwrap();
    let _ = format!("{one_shot} {one_shot:?} {}", one_shot.explain(Some(&env)));
    assert!(one_shot == one_shot.clone());
    drop(optimize(&one_shot, &env));
    let out = ExecContext::new(&env, &reg, Instant::ZERO)
        .execute(&one_shot)
        .unwrap();
    assert!(out.relation.len() <= 3, "{what}");

    let readings = XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();
    let hub = StreamHub::new();
    let sources = || {
        let mut sources = SourceSet::new();
        sources.add_stream("readings", readings.clone(), hub.clone());
        sources
    };
    let push = |at: Instant| hub.push(tuple!["office", at.ticks() as f64]);
    continuous.stream_schema(&sources()).unwrap();
    drop(optimize(&continuous, &sources()));
    let mut query = ContinuousQuery::compile(&continuous, &mut sources()).unwrap();
    for _ in 0..3 {
        push(query.next_instant());
        assert!(query.tick_with(&reg, &NoopMetrics).errors.is_empty());
    }
    let mut w = Writer::new();
    query.write_snapshot(&mut w);
    let mut restored = ContinuousQuery::compile(&continuous, &mut sources()).unwrap();
    restored
        .read_snapshot(&mut Reader::new(&w.into_bytes()))
        .unwrap();
    push(query.next_instant());
    assert_eq!(
        restored.tick_with(&reg, &NoopMetrics).delta,
        query.tick_with(&reg, &NoopMetrics).delta,
        "{what}"
    );
}

/// The deepest tree of each shape the parser still accepts goes through
/// schema derivation, the optimizer, one-shot compile and execute,
/// continuous compile, ticks, checkpoint / restore and `Drop`.
#[test]
fn the_deepest_accepted_trees_survive_everything_downstream() {
    on_a_2mib_stack(|| {
        let env = serena_core::env::examples::example_environment();
        let deepest = |what: &str, parses: &dyn Fn(usize) -> bool| {
            let n = (1..1_000).take_while(|n| parses(*n)).last().unwrap_or(0);
            assert!((16..999).contains(&n), "`{what}`: deepest accepted is {n}");
            n
        };
        for shape in ["(", "SELECT", "UNION", "NOT", "formula (", "AND", "OR"] {
            let n = deepest(shape, &|n| {
                algebra(shape, n).iter().all(|t| parse_query(t).is_ok())
            });
            let [one_shot, continuous] = algebra(shape, n).map(|t| parse_query(&t).unwrap());
            survive(shape, one_shot, continuous);
        }
        let n = deepest("SQL", &|n| {
            sql(n).iter().all(|t| compile_select(t, &env).is_ok())
        });
        let [one_shot, continuous] = sql(n).map(|t| compile_select(&t, &env).unwrap());
        survive("SQL", one_shot, continuous);
    });
}
