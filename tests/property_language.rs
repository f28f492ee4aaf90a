//! Property-based tests of the textual front-ends: DDL round-trips and the
//! Serena SQL lowering semantics.

mod common;

use common::Rng;
use serena::core::formula::{CmpOp, Expr};
use serena::core::ops::{AggFun, AggSpec};
use serena::core::plan::StreamKind;
use serena::core::prelude::*;
use serena::core::schema::{Attribute, XSchema};
use serena::ddl::sql::compile_select;
use serena::ddl::{parse_program, resolve_relation_schema, to_one_shot, Statement};

// ---------------------------------------------------------------------
// DDL round-trip: schema → to_ddl → parse → resolve → compatible schema
// ---------------------------------------------------------------------

const TYPES: [DataType; 6] = [
    DataType::Str,
    DataType::Int,
    DataType::Real,
    DataType::Bool,
    DataType::Blob,
    DataType::Service,
];

fn gen_plain_schema(rng: &mut Rng) -> SchemaRef {
    let specs = rng.vec_of(1, 8, |r| (r.below(12), *r.pick(&TYPES), r.bool()));
    let mut attrs: Vec<Attribute> = Vec::new();
    for (i, ty, virt) in specs {
        let name = format!("a{i}");
        if attrs.iter().any(|a| a.name.as_str() == name) {
            continue;
        }
        attrs.push(if virt {
            Attribute::virt(name.as_str(), ty)
        } else {
            Attribute::real(name.as_str(), ty)
        });
    }
    if attrs.is_empty() {
        attrs.push(Attribute::real("a0", DataType::Int));
    }
    XSchema::from_attrs(attrs, vec![]).expect("no BPs → always valid")
}

#[test]
fn ddl_round_trip_plain_schemas() {
    for case in 0..128u64 {
        let mut rng = Rng::new(0xDD10 + case);
        let schema = gen_plain_schema(&mut rng);
        let ddl = schema.to_ddl("r");
        let stmts = parse_program(&ddl).expect("rendered DDL parses");
        let Statement::ExtendedRelation {
            attrs, bindings, ..
        } = &stmts[0]
        else {
            panic!("unexpected statement for: {ddl}");
        };
        let catalog = serena::core::env::Environment::new();
        let parsed =
            resolve_relation_schema(attrs, bindings, &catalog).expect("rendered DDL resolves");
        assert!(parsed.compatible_with(&schema), "round trip changed: {ddl}");
    }
}

/// The running example's schemas (with binding patterns) round-trip too.
#[test]
fn ddl_round_trip_with_binding_patterns() {
    let env = serena::core::env::examples::example_environment();
    for schema in [
        serena::core::schema::examples::contacts_schema(),
        serena::core::schema::examples::cameras_schema(),
        serena::core::schema::examples::sensors_schema(),
    ] {
        let ddl = schema.to_ddl("r");
        let stmts = parse_program(&ddl).unwrap();
        let Statement::ExtendedRelation {
            attrs, bindings, ..
        } = &stmts[0]
        else {
            panic!()
        };
        let parsed = resolve_relation_schema(attrs, bindings, &env).unwrap();
        assert!(
            parsed.compatible_with(&schema),
            "round trip changed:\n{ddl}"
        );
    }
}

// ---------------------------------------------------------------------
// Serena SQL: the WHERE split never changes passive-query semantics
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Conj {
    Area(&'static str),
    Quality(i64),
    Delay(f64),
}

fn gen_conjs(rng: &mut Rng) -> Vec<Conj> {
    rng.vec_of(0, 4, |r| match r.below(3) {
        #[allow(clippy::explicit_auto_deref)]
        0 => Conj::Area(*r.pick(&["office", "corridor", "roof"])),
        1 => Conj::Quality(r.i64_in(0, 10)),
        _ => Conj::Delay(r.below(10) as f64 / 10.0),
    })
}

/// For passive USING chains, lowering with the WHERE split must be
/// equivalent (results + empty action sets) to the naive plan that
/// applies the whole WHERE after all invocations.
#[test]
fn sql_where_split_is_sound_for_passive_chains() {
    use serena::core::equiv::check_at;

    for case in 0..48u64 {
        let mut rng = Rng::new(0x5018 + case);
        let conjs = gen_conjs(&mut rng);
        let t = rng.u64_in(0, 4);

        let env = serena::core::env::examples::example_environment();
        let reg = serena::core::service::fixtures::example_registry();

        let mut where_parts = Vec::new();
        let mut naive_formula: Option<Formula> = None;
        for c in &conjs {
            let (text, f) = match c {
                Conj::Area(a) => (format!("area = '{a}'"), Formula::eq_const("area", *a)),
                Conj::Quality(q) => (format!("quality >= {q}"), Formula::ge_const("quality", *q)),
                Conj::Delay(d) => (format!("delay < {d:.1}"), Formula::lt_const("delay", *d)),
            };
            where_parts.push(text);
            naive_formula = Some(match naive_formula {
                None => f,
                Some(acc) => acc.and(f),
            });
        }
        let where_clause = if where_parts.is_empty() {
            String::new()
        } else {
            format!("WHERE {}", where_parts.join(" AND "))
        };
        let sql = format!(
            "SELECT photo FROM cameras USING checkPhoto[camera], takePhoto[camera] {where_clause}"
        );
        let split_plan = to_one_shot(&compile_select(&sql, &env).unwrap()).unwrap();

        // naive: every conjunct after the full invocation chain
        let mut naive = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .invoke("takePhoto", "camera");
        if let Some(f) = naive_formula {
            naive = naive.select(f);
        }
        let naive = naive.project(["photo"]);

        let report = check_at(&split_plan, &naive, &env, &reg, Instant(t)).unwrap();
        assert!(
            report.equivalent(),
            "{sql}\nsplit: {split_plan}\nnaive: {naive}"
        );
    }
}

// ---------------------------------------------------------------------
// Parser robustness: arbitrary input must error, never panic
// ---------------------------------------------------------------------

/// Characters drawn for fuzz inputs: printable ASCII plus a few multi-byte
/// code points to exercise UTF-8 boundaries.
fn gen_fuzz_string(rng: &mut Rng, max_len: usize) -> String {
    const EXTRA: [char; 6] = ['é', 'λ', '⋈', '𝒳', '\t', '"'];
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| {
            if rng.below(8) == 0 {
                *rng.pick(&EXTRA)
            } else {
                (0x20u8 + rng.below(0x5F) as u8) as char
            }
        })
        .collect()
}

#[test]
fn parsers_never_panic_on_arbitrary_input() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0xF022 + case);
        let input = gen_fuzz_string(&mut rng, 120);
        let _ = serena::ddl::parse_program(&input);
        let _ = serena::ddl::parse_query(&input);
        let _ = serena::ddl::sql::parse_select(&input);
    }
}

/// Near-miss DDL: statement shapes with random identifiers/punctuation
/// — the parser must return positioned errors, not panic.
#[test]
fn parsers_never_panic_on_near_ddl() {
    const KEYWORDS: [&str; 6] = [
        "PROTOTYPE",
        "SERVICE",
        "EXTENDED RELATION",
        "INSERT INTO",
        "REGISTER QUERY",
        "SELECT",
    ];
    const MIDDLE: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ ,:[]()<>='";
    for case in 0..256u64 {
        let mut rng = Rng::new(0xF023 + case);
        let kw = *rng.pick(&KEYWORDS);
        let len = rng.below(61);
        let middle: String = (0..len)
            .map(|_| MIDDLE[rng.below(MIDDLE.len())] as char)
            .collect();
        let input = format!("{kw} {middle};");
        let _ = serena::ddl::parse_program(&input);
        let _ = serena::ddl::sql::parse_select(&input);
    }
}

/// SQL aggregates match the algebra's γ.
#[test]
fn sql_aggregate_matches_algebra() {
    use serena::core::ops::{AggFun, AggSpec};
    let env = serena::core::env::examples::example_environment();
    let reg = serena::core::service::fixtures::example_registry();
    let sql = to_one_shot(
        &compile_select(
            "SELECT location, avg(temperature) AS mean FROM sensors
             USING getTemperature[sensor] GROUP BY location",
            &env,
        )
        .unwrap(),
    )
    .unwrap();
    let algebra = Plan::relation("sensors")
        .invoke("getTemperature", "sensor")
        .aggregate(
            ["location"],
            vec![AggSpec::new(AggFun::Avg, "temperature").named("mean")],
        );
    let a = ExecContext::new(&env, &reg, Instant(3))
        .execute(&sql)
        .unwrap();
    let b = ExecContext::new(&env, &reg, Instant(3))
        .execute(&algebra)
        .unwrap();
    assert_eq!(a.relation, b.relation);
}

// ---------------------------------------------------------------------
// The parser builds the tree the builder calls build
// ---------------------------------------------------------------------

/// Writes an algebra-language text and, beside it, the [`Plan`] the builder
/// calls give for the same expression. There is no plan → text renderer in
/// the product (`Plan::to_algebra` prints σ / π / ⋈, which the lexer does
/// not read), so the two sides of the pair share nothing but this grammar.
struct Paired {
    rng: Rng,
    /// Every production taken, so the test can tell it drew them all.
    seen: std::collections::BTreeSet<String>,
}

impl Paired {
    fn saw(&mut self, production: impl Into<String>) {
        self.seen.insert(production.into());
    }

    /// A keyword, in any of the cases the lexer folds.
    fn kw(&mut self, word: &str) -> String {
        match self.rng.below(3) {
            0 => word.to_ascii_lowercase(),
            1 => word[..1].to_string() + &word[1..].to_ascii_lowercase(),
            _ => word.to_string(),
        }
    }

    fn attr(&mut self) -> String {
        format!("a{}", self.rng.below(6))
    }

    fn attrs(&mut self, lo: usize, hi: usize) -> Vec<String> {
        let n = lo + self.rng.below(hi - lo);
        (0..n).map(|_| self.attr()).collect()
    }

    fn literal(&mut self) -> (String, Value) {
        match self.rng.below(4) {
            0 => {
                let s = *self.rng.pick(&["", "Carla", "it's", "a b"]);
                self.saw("literal string");
                (format!("'{}'", s.replace('\'', "''")), Value::str(s))
            }
            1 => {
                let i = self.rng.i64_in(0, 100);
                self.saw("literal integer");
                (i.to_string(), Value::Int(i))
            }
            2 => {
                let r = self.rng.below(400) as f64 / 4.0;
                self.saw("literal real");
                (format!("{r:.2}"), Value::Real(r))
            }
            _ => {
                let b = self.rng.bool();
                self.saw("literal boolean");
                (self.kw(if b { "TRUE" } else { "FALSE" }), Value::Bool(b))
            }
        }
    }

    fn term(&mut self) -> (String, Expr) {
        if self.rng.bool() {
            let a = self.attr();
            (a.clone(), Expr::attr(a))
        } else {
            let (text, v) = self.literal();
            (text, Expr::Const(v))
        }
    }

    /// `or := and (OR and)*`, folded to the left like the parser's loop.
    fn formula(&mut self, depth: usize) -> (String, Formula) {
        let (mut text, mut f) = self.conjunction(depth);
        for _ in 0..self.rng.below(3) {
            let (t, g) = self.conjunction(depth);
            text = format!("{text} {} {t}", self.kw("OR"));
            f = f.or(g);
            self.saw("OR");
        }
        (text, f)
    }

    fn conjunction(&mut self, depth: usize) -> (String, Formula) {
        let (mut text, mut f) = self.negation(depth);
        for _ in 0..self.rng.below(3) {
            let (t, g) = self.negation(depth);
            text = format!("{text} {} {t}", self.kw("AND"));
            f = f.and(g);
            self.saw("AND");
        }
        (text, f)
    }

    fn negation(&mut self, depth: usize) -> (String, Formula) {
        match self.rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => {
                self.saw("TRUE");
                (self.kw("TRUE"), Formula::True)
            }
            1 => {
                self.saw("FALSE");
                (self.kw("FALSE"), Formula::False)
            }
            2 => {
                let a = self.attr();
                let needle = *self.rng.pick(&["x", "it's", ""]);
                self.saw("CONTAINS");
                (
                    format!(
                        "{a} {} '{}'",
                        self.kw("CONTAINS"),
                        needle.replace('\'', "''")
                    ),
                    Formula::contains_const(a, needle),
                )
            }
            3 => {
                let (mut lt, mut l) = self.term();
                // a leading TRUE / FALSE would read as the constant formula
                while matches!(l, Expr::Const(Value::Bool(_))) {
                    (lt, l) = self.term();
                }
                let (rt, r) = self.term();
                let (sign, op) = *self.rng.pick(&[
                    ("=", CmpOp::Eq),
                    ("<>", CmpOp::Ne),
                    ("!=", CmpOp::Ne),
                    ("<", CmpOp::Lt),
                    ("<=", CmpOp::Le),
                    (">", CmpOp::Gt),
                    (">=", CmpOp::Ge),
                ]);
                self.saw(format!("comparison {sign}"));
                (format!("{lt} {sign} {rt}"), Formula::Cmp(l, op, r))
            }
            4 => {
                let (t, f) = self.negation(depth - 1);
                self.saw("NOT");
                (format!("{} {t}", self.kw("NOT")), f.not())
            }
            _ => {
                let (t, f) = self.formula(depth - 1);
                self.saw("( formula )");
                (format!("({t})"), f)
            }
        }
    }

    fn agg(&mut self) -> (String, AggSpec) {
        let (name, fun) = *self.rng.pick(&[
            ("COUNT", AggFun::Count),
            ("SUM", AggFun::Sum),
            ("AVG", AggFun::Avg),
            ("MIN", AggFun::Min),
            ("MAX", AggFun::Max),
        ]);
        let a = self.attr();
        let text = format!("{}({a})", self.kw(name));
        let spec = AggSpec::new(fun, a.as_str());
        if self.rng.bool() {
            self.saw("aggregate named by default");
            (text, spec)
        } else {
            let named = self.attr();
            self.saw("aggregate AS");
            (
                format!("{text} {} {named}", self.kw("AS")),
                spec.named(named),
            )
        }
    }

    fn binding(&mut self) -> (String, String) {
        (
            format!("proto{}", self.rng.below(3)),
            format!("svc{}", self.rng.below(3)),
        )
    }

    fn expr(&mut self, depth: usize) -> (String, Plan) {
        let production = if depth == 0 { 0 } else { self.rng.below(16) };
        if production <= 1 {
            let name = format!("r{}", self.rng.below(4));
            self.saw("relation");
            return (name.clone(), Plan::relation(name));
        }
        if production == 2 {
            let (t, p) = self.expr(depth - 1);
            self.saw("( expr )");
            return (format!("({t})"), p);
        }
        if production <= 6 {
            type Binary = fn(Plan, Plan) -> Plan;
            let (name, op) = [
                ("JOIN", Plan::join as Binary),
                ("UNION", Plan::union),
                ("INTERSECT", Plan::intersect),
                ("DIFFERENCE", Plan::difference),
            ][production - 3];
            let ((lt, l), (rt, r)) = (self.expr(depth - 1), self.expr(depth - 1));
            self.saw(name);
            return (format!("{}({lt}, {rt})", self.kw(name)), op(l, r));
        }
        let (name, params, plan): (&str, String, Box<dyn FnOnce(Plan) -> Plan>) = match production {
            7 => {
                let (t, f) = self.formula(2);
                ("SELECT", t, Box::new(|p| p.select(f)))
            }
            8 => {
                let attrs = self.attrs(1, 4);
                ("PROJECT", attrs.join(", "), Box::new(|p| p.project(attrs)))
            }
            9 => {
                let (from, to) = (self.attr(), self.attr());
                (
                    "RENAME",
                    format!("{from} -> {to}"),
                    Box::new(|p| p.rename(from, to)),
                )
            }
            10 => {
                let (a, (t, source)) = (self.attr(), self.term());
                let params = format!("{a} := {t}");
                match source {
                    Expr::Attr(b) => {
                        self.saw("ASSIGN attribute");
                        ("ASSIGN", params, Box::new(|p| p.assign_attr(a, b)))
                    }
                    Expr::Const(v) => {
                        self.saw("ASSIGN constant");
                        ("ASSIGN", params, Box::new(|p| p.assign_const(a, v)))
                    }
                }
            }
            11 => {
                let (proto, svc) = self.binding();
                (
                    "INVOKE",
                    format!("{proto}[{svc}]"),
                    Box::new(|p| p.invoke(proto, svc)),
                )
            }
            12 => {
                let group = self.attrs(0, 3);
                let n = 1 + self.rng.below(3);
                let (texts, specs): (Vec<_>, Vec<_>) = (0..n).map(|_| self.agg()).unzip();
                // the `;` is required only to end a group list
                let sep = if group.is_empty() && self.rng.bool() {
                    self.saw("AGGREGATE without group");
                    ""
                } else {
                    self.saw("AGGREGATE ;");
                    "; "
                };
                (
                    "AGGREGATE",
                    format!("{}{sep}{}", group.join(", "), texts.join(", ")),
                    Box::new(|p| p.aggregate(group, specs)),
                )
            }
            13 => {
                let n = self.rng.u64_in(1, 50);
                ("WINDOW", n.to_string(), Box::new(move |p| p.window(n)))
            }
            14 => {
                let (word, kind) = *self.rng.pick(&[
                    ("insertion", StreamKind::Insertion),
                    ("deletion", StreamKind::Deletion),
                    ("heartbeat", StreamKind::Heartbeat),
                ]);
                self.saw(format!("STREAM {word}"));
                (
                    "STREAM",
                    self.kw(&word.to_ascii_uppercase()),
                    Box::new(move |p| p.stream(kind)),
                )
            }
            _ => {
                let ((proto, svc), n) = (self.binding(), self.rng.u64_in(1, 9));
                (
                    "SAMPLE",
                    format!("{proto}[{svc}], {n}"),
                    Box::new(move |p| p.sample_invoke(proto, svc, n)),
                )
            }
        };
        let (t, p) = self.expr(depth - 1);
        self.saw(name);
        (format!("{}[{params}]({t})", self.kw(name)), plan(p))
    }
}

/// `parse_query(text) == plan` for 512 generated pairs that between them
/// take every production of the expression and formula grammars: all 14
/// operators, every connective and comparison, both `ASSIGN` sources,
/// `AS`-named and defaulted aggregates, the three `STREAM` kinds.
#[test]
fn parser_builds_the_tree_the_builder_calls_build() {
    let mut pairs = Paired {
        rng: Rng::new(0x18_5E7E),
        seen: Default::default(),
    };
    for case in 0..512 {
        let (text, plan) = pairs.expr(4);
        let parsed =
            serena::ddl::parse_query(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(parsed, plan, "case {case}: {text}");
        // and the same tree as a statement of a program
        let program = format!("REGISTER QUERY q{case} AS {text}; EXECUTE {text};");
        let stmts = parse_program(&program).unwrap();
        assert!(
            matches!(&stmts[..], [
                Statement::RegisterQuery { plan: a, .. },
                Statement::Execute { plan: b },
            ] if *a == plan && *b == plan),
            "case {case}: {text}"
        );
    }
    let expected = [
        "relation",
        "( expr )",
        "JOIN",
        "UNION",
        "INTERSECT",
        "DIFFERENCE",
        "SELECT",
        "PROJECT",
        "RENAME",
        "ASSIGN",
        "ASSIGN attribute",
        "ASSIGN constant",
        "INVOKE",
        "AGGREGATE",
        "AGGREGATE ;",
        "AGGREGATE without group",
        "aggregate AS",
        "aggregate named by default",
        "WINDOW",
        "STREAM",
        "STREAM insertion",
        "STREAM deletion",
        "STREAM heartbeat",
        "SAMPLE",
        "OR",
        "AND",
        "NOT",
        "( formula )",
        "TRUE",
        "FALSE",
        "CONTAINS",
        "comparison =",
        "comparison <>",
        "comparison !=",
        "comparison <",
        "comparison <=",
        "comparison >",
        "comparison >=",
        "literal string",
        "literal integer",
        "literal real",
        "literal boolean",
    ];
    let missing: Vec<_> = expected
        .iter()
        .filter(|p| !pairs.seen.contains(**p))
        .collect();
    assert!(missing.is_empty(), "never generated: {missing:?}");
    assert_eq!(pairs.seen.len(), expected.len(), "{:?}", pairs.seen);
}
