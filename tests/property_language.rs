//! Property-based tests of the textual front-ends: DDL round-trips and the
//! Serena SQL lowering semantics.

mod common;

use common::Rng;
use serena::core::formula::{CmpOp, Expr};
use serena::core::ops::{AggFun, AggSpec};
use serena::core::plan::StreamKind;
use serena::core::prelude::*;
use serena::core::schema::{Attribute, XSchema};
use serena::core::tuple;
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

// ---------------------------------------------------------------------
// Serena SQL: a conjunct placed on the FROM items that bind it changes no
// row, no row's position and no action
// ---------------------------------------------------------------------

/// The relations a generated statement reads, with their real attributes;
/// the last two are streams.
const ITEMS: [(&str, &[&str]); 7] = [
    ("contacts", &["name", "address", "messenger"]),
    ("cameras", &["camera", "area"]),
    ("sensors", &["sensor", "location"]),
    ("rooms", &["location", "floor", "owner"]),
    ("floors", &["floor", "wing"]),
    ("temperatures", &["location", "temperature"]),
    ("badges", &["owner", "area"]),
];
const TABLES: usize = 5;

/// The `USING` clauses the generator draws, with the relation that carries
/// the binding pattern and the prototype's output attributes.
const BINDINGS: [(&str, &str, &str, &[&str]); 3] = [
    ("sendMessage", "messenger", "contacts", &["sent"]),
    ("getTemperature", "sensor", "sensors", &["temperature"]),
    ("checkPhoto", "camera", "cameras", &["quality", "delay"]),
];

/// The real attributes of the item named `name`.
fn real_attrs(name: &str) -> &'static [&'static str] {
    ITEMS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a known item")
        .1
}

const ROOMS: [(&str, i64, &str); 8] = [
    ("office", 1, "ada"),
    ("office", 2, "bob"),
    ("corridor", 1, "ada"),
    ("corridor", 3, "carol"),
    ("roof", 3, "bob"),
    ("lab", 0, "carol"),
    ("lab", 2, "ada"),
    ("cellar", 0, "bob"),
];
const FLOORS: [(i64, &str); 4] = [(0, "east"), (1, "east"), (2, "west"), (3, "west")];
const LOCATIONS: [&str; 4] = ["office", "corridor", "roof", "lab"];
const OWNERS: [&str; 3] = ["ada", "bob", "carol"];

/// One generated `SELECT`, kept as parts so that it renders twice: as the
/// text `compile_select` lowers, and as the plan built by hand the way the
/// lowering built it before it placed conjuncts on `FROM` items — join the
/// whole `FROM` list, then filter.
struct Select {
    from: Vec<(&'static str, Option<u64>)>,
    with_text: bool,
    using: Vec<usize>,
    conjuncts: Vec<(String, Formula)>,
    select: Vec<&'static str>,
    emit: bool,
}

/// Where the language puts a conjunct that no `FROM` item takes.
#[derive(PartialEq)]
enum Place {
    BeforeWith,
    BeforeUsing,
    AfterUsing,
}

fn conjunct(rng: &mut Rng) -> (String, Formula) {
    let or = |(at, a): (String, Formula), (bt, b): (String, Formula)| {
        (format!("({at} OR {bt})"), a.or(b))
    };
    let location = |rng: &mut Rng| {
        let l = *rng.pick(&LOCATIONS);
        (
            format!("location = '{l}'"),
            Formula::eq_const("location", l),
        )
    };
    let floor = |rng: &mut Rng| {
        let k = rng.i64_in(0, 4);
        (format!("floor >= {k}"), Formula::ge_const("floor", k))
    };
    let owner = |rng: &mut Rng| {
        let o = *rng.pick(&OWNERS);
        (format!("owner <> '{o}'"), Formula::ne_const("owner", o))
    };
    let wing = || {
        (
            "wing = 'east'".to_string(),
            Formula::eq_const("wing", "east"),
        )
    };
    let area = || {
        (
            "area = 'office'".to_string(),
            Formula::eq_const("area", "office"),
        )
    };
    match rng.below(18) {
        // one attribute; which items bind it depends on the FROM list
        0 | 1 => location(rng),
        2 => floor(rng),
        3 => owner(rng),
        4 => wing(),
        5 => ("name <> 'Carla'".into(), Formula::ne_const("name", "Carla")),
        6 => area(),
        // two attributes of one item
        7 => or(floor(rng), owner(rng)),
        // spanning: no single item has both
        8 => or(owner(rng), wing()),
        9 => or(area(), location(rng)),
        10 => (
            "location = area".into(),
            Formula::cmp_attrs("location", CmpOp::Eq, "area"),
        ),
        // a WITH target
        11..=13 => ("text <> 'Bye'".into(), Formula::ne_const("text", "Bye")),
        // USING outputs (`temperature` is also real in a stream)
        14 => (
            "temperature > 18.0".into(),
            Formula::gt_const("temperature", 18.0),
        ),
        15 | 16 => ("quality >= 4".into(), Formula::ge_const("quality", 4)),
        // attribute-free
        _ => (
            "2 > 1".into(),
            Formula::Cmp(
                Expr::Const(Value::Int(2)),
                CmpOp::Gt,
                Expr::Const(Value::Int(1)),
            ),
        ),
    }
}

impl Select {
    /// A statement over 1–3 `FROM` items — tables only, or at least one
    /// windowed stream — whose clauses mostly fit its items; the ones that
    /// do not must fail the same way under both lowerings.
    fn generate(rng: &mut Rng, windowed: bool) -> Select {
        let mut from: Vec<_> = rng.vec_of(1, 4, |r| {
            let pool = if windowed { ITEMS.len() } else { TABLES };
            let i = r.below(pool);
            (ITEMS[i].0, (i >= TABLES).then(|| r.u64_in(1, 4)))
        });
        if windowed && from.iter().all(|(_, w)| w.is_none()) {
            let i = TABLES + rng.below(ITEMS.len() - TABLES);
            let at = rng.below(from.len());
            from[at] = (ITEMS[i].0, Some(rng.u64_in(1, 4)));
        }
        let has = |name: &str| from.iter().any(|(n, _)| *n == name);
        let stray = |r: &mut Rng| r.below(64) == 0;
        let with_text = if has("contacts") {
            rng.bool()
        } else {
            stray(rng)
        };
        let using: Vec<usize> = (0..BINDINGS.len())
            .filter(|&b| {
                let (proto, _, relation, _) = BINDINGS[b];
                let fits = has(relation)
                    && (proto != "sendMessage" || with_text)
                    && (proto != "getTemperature" || !has("temperatures"));
                if fits {
                    rng.below(3) > 0
                } else {
                    stray(rng)
                }
            })
            .collect();
        // an attribute a conjunct can read without the statement failing
        let readable = |a: &str| {
            from.iter().any(|(n, _)| real_attrs(n).contains(&a))
                || (with_text && a == "text")
                || using.iter().any(|&b| BINDINGS[b].3.contains(&a))
        };
        let mut conjuncts = Vec::new();
        for _ in 0..rng.below(5) {
            for _ in 0..4 {
                let (text, f) = conjunct(rng);
                if f.attrs().iter().all(|a| readable(a.as_str())) || stray(rng) {
                    conjuncts.push((text, f));
                    break;
                }
            }
        }
        let mut select: Vec<&'static str> = Vec::new();
        if rng.bool() {
            for _ in 0..1 + rng.below(3) {
                let of = rng.pick(&from).0;
                let a = *rng.pick(real_attrs(of));
                if !select.contains(&a) {
                    select.push(a);
                }
            }
        }
        Select {
            from,
            with_text,
            using,
            conjuncts,
            select,
            emit: windowed && rng.below(4) == 0,
        }
    }

    fn sql(&self) -> String {
        let from: Vec<String> = self
            .from
            .iter()
            .map(|(n, w)| match w {
                Some(w) => format!("{n} WINDOW {w}"),
                None => n.to_string(),
            })
            .collect();
        let mut sql = format!("SELECT {} FROM {}", self.select.join(", "), from.join(", "));
        if self.with_text {
            sql += " WITH text := 'Hi'";
        }
        if !self.using.is_empty() {
            let using: Vec<String> = self
                .using
                .iter()
                .map(|&b| format!("{}[{}]", BINDINGS[b].0, BINDINGS[b].1))
                .collect();
            sql += &format!(" USING {}", using.join(", "));
        }
        if !self.conjuncts.is_empty() {
            let texts: Vec<&str> = self.conjuncts.iter().map(|(t, _)| t.as_str()).collect();
            sql += &format!(" WHERE {}", texts.join(" AND "));
        }
        if self.emit {
            sql += " EMIT INSERTIONS";
        }
        sql
    }

    fn place(&self, f: &Formula) -> Place {
        let attrs = f.attrs();
        let reads = |names: &[&str]| attrs.iter().any(|a| names.contains(&a.as_str()));
        if self.using.iter().any(|&b| reads(BINDINGS[b].3)) {
            Place::AfterUsing
        } else if self.with_text && reads(&["text"]) {
            Place::BeforeUsing
        } else {
            Place::BeforeWith
        }
    }

    /// How many `FROM` items have every attribute of `f` real — the items
    /// the lowering puts a `σ_f` on, when the list has more than one.
    fn binders(&self, f: &Formula) -> usize {
        let attrs = f.attrs();
        if self.from.len() < 2 || attrs.is_empty() || self.place(f) != Place::BeforeWith {
            return 0;
        }
        let binds = |n: &str| attrs.iter().all(|a| real_attrs(n).contains(&a.as_str()));
        self.from.iter().filter(|(n, _)| binds(n)).count()
    }

    fn join_then_filter(&self) -> Plan {
        let mut items = self.from.iter().map(|(n, w)| match w {
            Some(w) => Plan::source(*n).window(*w),
            None => Plan::source(*n),
        });
        let first = items.next().expect("FROM is never empty");
        let mut plan = items.fold(first, Plan::join);
        let filters = |plan: Plan, place: Place| {
            self.conjuncts
                .iter()
                .filter(|(_, f)| self.place(f) == place)
                .fold(plan, |p, (_, f)| p.select(f.clone()))
        };
        plan = filters(plan, Place::BeforeWith);
        if self.with_text {
            plan = plan.assign_const("text", Value::str("Hi"));
        }
        plan = filters(plan, Place::BeforeUsing);
        for &b in &self.using {
            plan = plan.invoke(BINDINGS[b].0, BINDINGS[b].1);
        }
        plan = filters(plan, Place::AfterUsing);
        if !self.select.is_empty() {
            plan = plan.project(self.select.iter().copied());
        }
        if self.emit {
            plan = plan.stream(StreamKind::Insertion);
        }
        plan
    }
}

/// `σ` nodes with a `⋈` above them: the conjuncts that were placed on an
/// item.
fn selects_under_a_join(plan: &Plan, under: bool) -> usize {
    let here = usize::from(under && matches!(plan, Plan::Select(..)));
    let under = under || matches!(plan, Plan::Join(..));
    here + plan
        .children()
        .iter()
        .map(|c| selects_under_a_join(c, under))
        .sum::<usize>()
}

/// What the placement did over a run of generated statements — the test
/// asserts it met every form it claims to cover.
#[derive(Default, Debug)]
struct Coverage {
    single_item_from: usize,
    on_one_item: usize,
    on_several_items: usize,
    spanning: usize,
    with_target: usize,
    using_output: usize,
    attribute_free: usize,
    active_using: usize,
    refused: usize,
    rows: usize,
    actions: usize,
}

impl Coverage {
    /// Compare the shapes of the two plans and note what the statement
    /// exercised.
    fn check_shape(&mut self, stmt: &Select, lowered: &Plan, oracle: &Plan, sql: &str) {
        if stmt.from.len() == 1 {
            assert_eq!(lowered, oracle, "{sql}");
            self.single_item_from += 1;
        }
        let mut placed = 0;
        for (_, f) in &stmt.conjuncts {
            let binders = stmt.binders(f);
            placed += binders;
            match (stmt.place(f), binders) {
                (Place::AfterUsing, _) => self.using_output += 1,
                (Place::BeforeUsing, _) => self.with_target += 1,
                (Place::BeforeWith, _) if f.attrs().is_empty() => self.attribute_free += 1,
                (Place::BeforeWith, 0) => self.spanning += usize::from(stmt.from.len() > 1),
                (Place::BeforeWith, 1) => self.on_one_item += 1,
                (Place::BeforeWith, _) => self.on_several_items += 1,
            }
        }
        assert_eq!(
            selects_under_a_join(lowered, false),
            placed,
            "{sql}\n{lowered}"
        );
        assert_eq!(selects_under_a_join(oracle, false), 0, "{sql}\n{oracle}");
        self.active_using += usize::from(stmt.using.contains(&0));
    }

    fn assert_every_form_was_drawn(&self, at_least: usize) {
        for (form, n) in [
            ("single-item FROM", self.single_item_from),
            ("conjunct on one item", self.on_one_item),
            ("conjunct on several items", self.on_several_items),
            ("spanning conjunct", self.spanning),
            ("WITH-target conjunct", self.with_target),
            ("USING-output conjunct", self.using_output),
            ("attribute-free conjunct", self.attribute_free),
            ("active USING", self.active_using),
            ("refused statement", self.refused),
            ("rows", self.rows),
            ("actions", self.actions),
        ] {
            assert!(n >= at_least, "{form}: drawn {n} times\n{self:?}");
        }
    }
}

fn placement_environment() -> Environment {
    let mut env = serena::core::env::examples::example_environment();
    let rooms = XSchema::builder()
        .real("location", DataType::Str)
        .real("floor", DataType::Int)
        .real("owner", DataType::Str)
        .build()
        .unwrap();
    let floors = XSchema::builder()
        .real("floor", DataType::Int)
        .real("wing", DataType::Str)
        .build()
        .unwrap();
    let rows = ROOMS.iter().map(|&(l, f, o)| tuple![l, f, o]);
    env.define_relation("rooms", XRelation::from_tuples(rooms, rows))
        .unwrap();
    let rows = FLOORS.iter().map(|&(f, w)| tuple![f, w]);
    env.define_relation("floors", XRelation::from_tuples(floors, rows))
        .unwrap();
    env
}

/// One-shot statements, against an [`Environment`]: the placed lowering
/// returns the join-then-filter plan's rows **in its order**, its schema and
/// its action set (Def. 9) — or fails with its error.
#[test]
fn sql_placement_on_from_items_keeps_rows_order_and_actions() {
    let env = placement_environment();
    let reg = serena::core::service::fixtures::example_registry();
    let mut seen = Coverage::default();
    for case in 0..256u64 {
        let mut rng = Rng::new(0x22_F0 + case);
        let stmt = Select::generate(&mut rng, false);
        let sql = stmt.sql();
        let lowered = compile_select(&sql, &env).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let oracle = stmt.join_then_filter();
        seen.check_shape(&stmt, &lowered, &oracle, &sql);

        let at = Instant(rng.u64_in(0, 6));
        let run = |plan: &Plan| ExecContext::new(&env, &reg, at).execute(plan);
        match (run(&lowered), run(&oracle)) {
            (Ok(a), Ok(b)) => {
                let rows = |o: &EvalOutcome| o.relation.iter().cloned().collect::<Vec<_>>();
                assert_eq!(rows(&a), rows(&b), "{sql}\n{lowered}\n{oracle}");
                assert_eq!(a.relation.schema(), b.relation.schema(), "{sql}");
                assert_eq!(a.actions, b.actions, "{sql}");
                seen.rows += a.relation.len();
                seen.actions += a.actions.len();
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{sql}");
                seen.refused += 1;
            }
            (a, b) => panic!("{sql}\nplaced: {a:?}\njoin-then-filter: {b:?}"),
        }
    }
    seen.assert_every_form_was_drawn(8);
}

/// A runtime holding [`placement_environment`]'s tables and services, plus
/// the two streams.
fn placement_pems() -> serena::pems::Pems {
    use serena::core::service::fixtures;
    let mut pems = serena::pems::Pems::builder()
        .bus(serena::services::bus::BusConfig::instant())
        .build();
    let dir = pems.directory();
    dir.register("email", fixtures::messenger());
    dir.register("jabber", fixtures::messenger());
    for (name, seed) in [
        ("sensor01", 1),
        ("sensor06", 6),
        ("sensor07", 7),
        ("sensor22", 22),
    ] {
        dir.register(name, fixtures::temperature_sensor(seed));
    }
    for (name, seed) in [("camera01", 1), ("camera02", 2), ("webcam07", 7)] {
        dir.register(name, fixtures::camera(seed));
    }
    let env = placement_environment();
    let mut program = String::from(
        "PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
         PROTOTYPE checkPhoto( area STRING ) : ( quality INTEGER, delay REAL );
         PROTOTYPE takePhoto( area STRING, quality INTEGER ) : ( photo BLOB );
         PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION temperatures ( location STRING, temperature REAL ) STREAM;
         EXTENDED RELATION badges ( owner STRING, area STRING ) STREAM;",
    );
    for (name, rel) in env.relations() {
        program += &rel.schema().to_ddl(name);
    }
    pems.run_program(&program).unwrap();
    for (name, rel) in env.relations() {
        for t in rel.iter() {
            pems.tables().insert(name, t.clone()).unwrap();
        }
    }
    pems
}

/// Windowed statements, through [`Pems`] and the table manager's catalog:
/// registered side by side, the placed lowering and the join-then-filter
/// plan report the same delta, batch, action set and error count at every
/// one of eight instants of pushes and table writes.
#[test]
fn sql_placement_on_windowed_items_holds_at_every_instant() {
    let mut seen = Coverage::default();
    for case in 0..128u64 {
        let mut rng = Rng::new(0x22_F1 + case);
        let stmt = Select::generate(&mut rng, true);
        let sql = stmt.sql();
        let mut pems = placement_pems();
        let lowered = compile_select(&sql, pems.tables()).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let oracle = stmt.join_then_filter();
        seen.check_shape(&stmt, &lowered, &oracle, &sql);
        assert!(to_one_shot(&lowered).is_none(), "{sql}");

        match (
            pems.register_query("placed", &lowered),
            pems.register_query("join_then_filter", &oracle),
        ) {
            (Ok(()), Ok(())) => {}
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{sql}");
                seen.refused += 1;
                continue;
            }
            (a, b) => panic!("{sql}\nplaced: {a:?}\njoin-then-filter: {b:?}"),
        }
        for instant in 0..8 {
            for _ in 0..rng.below(5) {
                let reading = tuple![*rng.pick(&LOCATIONS), 10.0 + rng.below(16) as f64];
                assert!(pems.tables().push_stream("temperatures", reading));
            }
            for _ in 0..rng.below(4) {
                let badge = tuple![*rng.pick(&OWNERS), *rng.pick(&["office", "corridor"])];
                assert!(pems.tables().push_stream("badges", badge));
            }
            if rng.below(3) == 0 {
                let (l, f, o) = *rng.pick(&ROOMS);
                if rng.bool() {
                    pems.tables().delete("rooms", tuple![l, f, o]).unwrap();
                } else {
                    pems.tables().insert("rooms", tuple![l, f, o]).unwrap();
                }
            }
            let reports = pems.tick();
            let of = |name: &str| &reports.iter().find(|(n, _)| n == name).unwrap().1;
            let (a, b) = (of("placed"), of("join_then_filter"));
            let sorted = |batch: &[Tuple]| {
                let mut batch = batch.to_vec();
                batch.sort();
                batch
            };
            assert_eq!(a.delta, b.delta, "{sql} at {instant}");
            assert_eq!(sorted(&a.batch), sorted(&b.batch), "{sql} at {instant}");
            assert_eq!(a.actions, b.actions, "{sql} at {instant}");
            assert_eq!(a.errors.len(), b.errors.len(), "{sql} at {instant}");
            seen.rows += a.delta.inserts.len() + a.batch.len();
            seen.actions += a.actions.len();
        }
        let current = |name: &str| pems.processor().current_relation(name);
        assert_eq!(current("placed"), current("join_then_filter"), "{sql}");
    }
    seen.assert_every_form_was_drawn(3);
}
