//! Serena SQL — the declarative surface the paper names but does not
//! present ("the definition of a SQL-like language based on the Serena
//! algebra, namely the Serena SQL, is also not tackled in this paper",
//! §1.1). This module is a concretization faithful to the algebra:
//!
//! ```text
//! SELECT name, temperature
//! FROM   sensors
//! USING  getTemperature[sensor]
//! WHERE  location = 'office' AND temperature > 28.0;
//!
//! SELECT location, avg(temperature) AS mean_temp
//! FROM   temperatures WINDOW 60
//! GROUP BY location;
//!
//! SELECT photo FROM temperatures WINDOW 1, cameras
//! USING checkPhoto[camera], takePhoto[camera]
//! WHERE temperature < 12.0 AND quality >= 5
//! EMIT INSERTIONS;
//! ```
//!
//! ## Lowering semantics
//!
//! * `FROM a, b WINDOW n, c` — each item is an XD-Relation; `WINDOW n`
//!   wraps a stream; each item stands under the `WHERE` conjuncts it binds
//!   (below), and the items are combined left-to-right with natural joins.
//! * `WITH a := v, …` — α assignments, in order.
//! * `USING p[s], …` — β invocations, in order.
//! * `WHERE F` — `F` is split into conjuncts, and each filters as early as
//!   what it reads exists. Both rules are part of the language definition,
//!   not equivalence rewrites — the plan a statement lowers to is the plan
//!   that runs, one-shot or continuous, and no optimizer pass is needed to
//!   reach it:
//!   * A conjunct that references **no output attribute of any USING
//!     prototype** filters *before* the invocations (SQL's WHERE filters
//!     rows before output expressions are computed — this gives `Q1`, not
//!     `Q1'`, for active prototypes), and before the `WITH` assignments too
//!     unless it reads one of their targets; the remaining conjuncts filter
//!     after.
//!   * Of those earliest conjuncts, when the `FROM` list has more than one
//!     item, one that reads at least one attribute becomes a `σ` directly on
//!     **every** item whose schema has all of its attributes *real* — above
//!     the item's `W[n]` — and is not repeated above the joins. This is
//!     Table 5's `σ_F(r1 ⋈ r2) ≡ σ_F(r1) ⋈ r2` for an `F` one operand binds,
//!     and `σ_F(r1) ⋈ σ_F(r2)` for an `F` both bind: the natural join equates
//!     exactly the attributes real in both, so a pair that joins agrees on
//!     everything `F` reads. `σ` keeps its operand's order, so the rows come
//!     out as they would have, in the same order; no `β` is crossed (items
//!     are scans and windows), so the action set (Def. 8) is the same. A
//!     conjunct no single item binds — it spans items, reads a virtual or
//!     unknown attribute, or its relation is unknown to the catalog — stays
//!     above the joins, where the same stage raises the same error as ever.
//!     A single-item `FROM` consults no schema.
//! * `GROUP BY g` + aggregate select items — γ (extension operator).
//! * plain select items — π (omitted for `SELECT *`).
//! * `EMIT INSERTIONS|DELETIONS|HEARTBEAT` — a trailing `S[kind]`,
//!   producing a stream result (continuous queries only).
//!
//! The third example above (the paper's Q4) lowers to
//!
//! ```text
//! S[insertion] (π photo (σ quality >= 5 (β takePhoto[camera] (β checkPhoto[camera]
//!   ((σ temperature < 12.0 (W[1] (temperatures)) ⋈ cameras))))))
//! ```
//!
//! — the cold readings are picked out of the window before they meet the
//! cameras; `quality` is a `checkPhoto` output, so its conjunct waits for
//! the invocations.
//!
//! Lowering asks one [`SchemaCatalog`] for each USING prototype's output
//! schema (for the WHERE split and for documentation-grade errors) and for
//! what each `FROM` item binds.

use serena_core::attr::AttrName;
use serena_core::formula::Formula;
use serena_core::ops::{AggSpec, AssignSource};
use serena_core::plan::{Plan, SchemaCatalog, StreamKind};
use serena_core::schema::SchemaRef;

use crate::lexer::Token;
use crate::parser::{agg_fun, ParseError, Parser};
use crate::resolve::DdlError;

/// One item of the `SELECT` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem {
    /// A plain attribute.
    Attr(String),
    /// `fun(attr) [AS name]`.
    Agg(AggSpec),
}

/// One `FROM` item: an XD-Relation, optionally windowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem {
    /// Relation/stream name.
    pub relation: String,
    /// `WINDOW n`, for stream sources.
    pub window: Option<u64>,
}

/// A parsed Serena SQL `SELECT`. Its clauses hold the algebra's own
/// parameter types; what is left to lowering (in [`compile_select`]) is
/// their placement, which consults the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectAst {
    /// `SELECT` list; empty = `*`.
    pub items: Vec<SelectItem>,
    /// `FROM` items (natural-joined left-to-right).
    pub from: Vec<FromItem>,
    /// `WITH attr := value` assignments.
    pub with: Vec<(String, AssignSource)>,
    /// `USING proto[service]` invocations.
    pub using: Vec<(String, String)>,
    /// `WHERE` formula.
    pub where_: Option<Formula>,
    /// `GROUP BY` attributes.
    pub group_by: Vec<String>,
    /// `EMIT` streaming kind.
    pub emit: Option<StreamKind>,
}

/// Parse one Serena SQL `SELECT` statement (trailing `;` optional).
pub fn parse_select(input: &str) -> Result<SelectAst, ParseError> {
    let mut p = Parser::new(input)?;
    let ast = select(&mut p)?;
    if p.peek() == Some(&Token::Semi) {
        p.bump();
    }
    if !p.at_end() {
        return Err(p.err("trailing input after SELECT statement"));
    }
    Ok(ast)
}

/// Whether a `,` continues the list being read (consumed if so).
fn comma(p: &mut Parser) -> bool {
    let more = p.peek() == Some(&Token::Comma);
    if more {
        p.bump();
    }
    more
}

fn select(p: &mut Parser) -> Result<SelectAst, ParseError> {
    p.eat_kw("SELECT")?;
    // select list; an empty list (SELECT FROM …) means `*`
    let mut items = Vec::new();
    if matches!(p.peek(), Some(t) if !t.is_kw("FROM")) {
        loop {
            items.push(select_item(p)?);
            if !comma(p) {
                break;
            }
        }
    }
    // every FROM / WITH / USING item and every WHERE conjunct lowers to one
    // level of the plan, under the parser's depth bound like the formulas
    p.eat_kw("FROM")?;
    let mut from = Vec::new();
    loop {
        p.deepen()?;
        from.push(from_item(p)?);
        if !comma(p) {
            break;
        }
    }
    let mut with = Vec::new();
    if p.try_kw("WITH") {
        loop {
            p.deepen()?;
            let attr = p.ident()?;
            p.eat(&Token::Assign)?;
            with.push((attr, p.assign_source()?));
            if !comma(p) {
                break;
            }
        }
    }
    let mut using = Vec::new();
    if p.try_kw("USING") {
        loop {
            p.deepen()?;
            using.push(p.binding_ref()?);
            if !comma(p) {
                break;
            }
        }
    }
    let where_ = if p.try_kw("WHERE") {
        let f = p.formula()?;
        for _ in split_conjuncts(&f) {
            p.deepen()?;
        }
        Some(f)
    } else {
        None
    };
    let mut group_by = Vec::new();
    if p.try_kw("GROUP") {
        p.eat_kw("BY")?;
        loop {
            group_by.push(p.ident()?);
            if !comma(p) {
                break;
            }
        }
    }
    let emit = if p.try_kw("EMIT") {
        let kind = p.ident()?;
        Some(match kind.to_ascii_uppercase().as_str() {
            "INSERTIONS" | "INSERTION" => StreamKind::Insertion,
            "DELETIONS" | "DELETION" => StreamKind::Deletion,
            "HEARTBEAT" => StreamKind::Heartbeat,
            other => return Err(p.err(&format!("unknown EMIT kind `{other}`"))),
        })
    } else {
        None
    };
    Ok(SelectAst {
        items,
        from,
        with,
        using,
        where_,
        group_by,
        emit,
    })
}

fn select_item(p: &mut Parser) -> Result<SelectItem, ParseError> {
    let name = p.ident()?;
    match agg_fun(&name) {
        Some(fun) if p.peek() == Some(&Token::LParen) => Ok(SelectItem::Agg(p.agg_args(fun)?)),
        _ => Ok(SelectItem::Attr(name)),
    }
}

fn from_item(p: &mut Parser) -> Result<FromItem, ParseError> {
    let relation = p.ident()?;
    let window = if p.try_kw("WINDOW") {
        Some(p.period("expected positive window period")?)
    } else {
        None
    };
    Ok(FromItem { relation, window })
}

/// Lower a parsed `SELECT` onto the algebra (use
/// [`crate::resolve::to_one_shot`] afterwards for one-shot execution).
fn lower_select(ast: &SelectAst, catalog: &dyn SchemaCatalog) -> Result<Plan, DdlError> {
    if ast.from.is_empty() {
        return Err(DdlError::Value("FROM list is empty".into()));
    }

    // WHERE split: a conjunct filters as early as its attributes allow —
    // on the FROM items that bind it when there are several, before the
    // WITH assignments unless it references an assigned attribute, before
    // the USING invocations unless it references one of their outputs.
    let mut output_attrs: Vec<String> = Vec::new();
    for (proto_name, _) in &ast.using {
        let proto = catalog
            .prototype_of(proto_name)
            .ok_or_else(|| DdlError::UnknownPrototype(proto_name.clone()))?;
        output_attrs.extend(proto.output().names().map(|a| a.to_string()));
    }
    let with_targets: Vec<&str> = ast.with.iter().map(|(a, _)| a.as_str()).collect();
    // what each FROM item binds; a single item is not looked up, it takes
    // its conjuncts where it always did
    let bound: Vec<Option<SchemaRef>> = match ast.from.as_slice() {
        [_] => Vec::new(),
        items => items.iter().map(|i| item_schema(i, catalog)).collect(),
    };
    let mut on_item: Vec<Vec<Formula>> = vec![Vec::new(); ast.from.len()];
    let mut before_with = Vec::new();
    let mut before_using = Vec::new();
    let mut post = Vec::new();
    if let Some(f) = &ast.where_ {
        for conjunct in split_conjuncts(f) {
            let attrs = conjunct.attrs();
            let uses_output = attrs
                .iter()
                .any(|a| output_attrs.iter().any(|o| o == a.as_str()));
            let uses_with = attrs.iter().any(|a| with_targets.contains(&a.as_str()));
            if uses_output {
                post.push(conjunct.clone());
            } else if uses_with {
                before_using.push(conjunct.clone());
            } else {
                let mut placed = false;
                if !attrs.is_empty() {
                    for (schema, filters) in bound.iter().zip(&mut on_item) {
                        let binds = |s: &SchemaRef| attrs.iter().all(|a| s.is_real(a.as_str()));
                        if schema.as_ref().is_some_and(binds) {
                            filters.push(conjunct.clone());
                            placed = true;
                        }
                    }
                }
                if !placed {
                    before_with.push(conjunct.clone());
                }
            }
        }
    }

    // FROM: each item under the conjuncts it binds, natural joins
    // left-to-right
    let mut items = ast
        .from
        .iter()
        .zip(on_item)
        .map(|(item, filters)| filters.into_iter().fold(lower_from(item), Plan::select));
    let first = items.next().expect("FROM list checked non-empty");
    let mut plan = items.fold(first, Plan::join);
    for f in before_with {
        plan = plan.select(f);
    }

    // WITH: α in order
    for (attr, src) in &ast.with {
        plan = Plan::Assign(Box::new(plan), AttrName::new(attr), src.clone());
    }
    for f in before_using {
        plan = plan.select(f);
    }

    // USING: β in order, with post-filters interleaved as soon as their
    // attributes are realized (simple rule: all post filters go after the
    // full chain; the optimizer can sink them further for passive BPs).
    for (proto, service) in &ast.using {
        plan = plan.invoke(proto.clone(), service.as_str());
    }
    for f in post {
        plan = plan.select(f);
    }

    // GROUP BY / aggregates / projection
    let mut attrs = Vec::new();
    let mut specs = Vec::new();
    for item in &ast.items {
        match item {
            SelectItem::Attr(a) => attrs.push(a),
            SelectItem::Agg(spec) => specs.push(spec.clone()),
        }
    }
    if !specs.is_empty() || !ast.group_by.is_empty() {
        if specs.is_empty() {
            return Err(DdlError::Value(
                "GROUP BY requires at least one aggregate select item".into(),
            ));
        }
        // plain select items must be group-by attributes
        if let Some(a) = attrs.iter().find(|a| !ast.group_by.contains(a)) {
            return Err(DdlError::Value(format!(
                "select item `{a}` must appear in GROUP BY"
            )));
        }
        plan = plan.aggregate(ast.group_by.iter().map(AttrName::new), specs);
    } else if !attrs.is_empty() {
        plan = plan.project(attrs.into_iter().map(AttrName::new));
    }

    if let Some(kind) = ast.emit {
        plan = plan.stream(kind);
    }
    Ok(plan)
}

fn lower_from(item: &FromItem) -> Plan {
    let mut plan = Plan::source(item.relation.clone());
    if let Some(n) = item.window {
        plan = plan.window(n);
    }
    plan
}

/// The schema a `FROM` item presents to a `σ` placed on it, when the
/// catalog knows the relation and the item reads it the way its status
/// allows (`WINDOW` on a stream, none on a table); an item validation will
/// refuse is left for validation to refuse.
fn item_schema(item: &FromItem, catalog: &dyn SchemaCatalog) -> Option<SchemaRef> {
    catalog
        .schema_of(&item.relation)
        .filter(|s| s.infinite == item.window.is_some())
        .map(|s| s.schema)
}

fn split_conjuncts(f: &Formula) -> Vec<&Formula> {
    match f {
        Formula::And(a, b) => {
            let mut out = split_conjuncts(a);
            out.extend(split_conjuncts(b));
            out
        }
        other => vec![other],
    }
}

/// Parse + lower in one step.
pub fn compile_select(input: &str, catalog: &dyn SchemaCatalog) -> Result<Plan, DdlError> {
    let ast = parse_select(input)?;
    lower_select(&ast, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::env::examples::example_environment;
    use serena_core::plan::examples as plan_examples;
    use serena_ddl_test_support::*;

    /// Local helper namespace so tests read cleanly.
    mod serena_ddl_test_support {
        pub use crate::resolve::to_one_shot;
    }

    #[test]
    fn q1_as_sql() {
        // WHERE references no sendMessage output → filters BEFORE the
        // invocation: exactly Q1, not Q1'.
        let env = example_environment();
        let plan = compile_select(
            "SELECT name, address, text, messenger, sent
             FROM contacts
             WITH text := 'Bonjour!'
             USING sendMessage[messenger]
             WHERE name <> 'Carla';",
            &env,
        )
        .unwrap();
        let one_shot = to_one_shot(&plan).unwrap();
        // π over Q1 (the projection lists the full schema, harmless)
        let expected =
            plan_examples::q1().project(["name", "address", "text", "messenger", "sent"]);
        assert_eq!(one_shot, expected);
    }

    #[test]
    fn q2_as_sql_splits_where() {
        let env = example_environment();
        let plan = compile_select(
            "SELECT photo
             FROM cameras
             USING checkPhoto[camera], takePhoto[camera]
             WHERE area = 'office' AND quality >= 5;",
            &env,
        )
        .unwrap();
        let rendered = to_one_shot(&plan).unwrap().to_algebra();
        // area conjunct before checkPhoto; quality conjunct after the chain
        assert!(
            rendered.contains("σ area = 'office' (cameras)"),
            "pre-filter missing: {rendered}"
        );
        assert!(
            rendered.starts_with("π photo (σ quality >= 5"),
            "post-filter missing: {rendered}"
        );
    }

    #[test]
    fn sql_evaluates_equal_to_algebra_q2() {
        use serena_core::equiv::check_over_instants;
        use serena_core::service::fixtures::example_registry;
        use serena_core::time::Instant;
        let env = example_environment();
        let sql = to_one_shot(
            &compile_select(
                "SELECT photo FROM cameras
                 USING checkPhoto[camera], takePhoto[camera]
                 WHERE area = 'office' AND quality >= 5;",
                &env,
            )
            .unwrap(),
        )
        .unwrap();
        // note: Q2 invokes takePhoto before filtering quality? No — Q2
        // filters quality before takePhoto; the SQL form filters after.
        // They are equivalent (passive prototypes, same results).
        let report = check_over_instants(
            &sql,
            &plan_examples::q2(),
            &env,
            &example_registry(),
            (0..6).map(Instant),
        )
        .unwrap();
        assert!(report.equivalent());
    }

    #[test]
    fn continuous_sql_with_window_group_by_emit() {
        let ast = parse_select(
            "SELECT location, avg(temperature) AS mean_temp
             FROM temperatures WINDOW 60
             GROUP BY location
             EMIT INSERTIONS",
        )
        .unwrap();
        assert_eq!(ast.from[0].window, Some(60));
        assert_eq!(ast.group_by, vec!["location"]);
        assert_eq!(ast.emit, Some(StreamKind::Insertion));
        let env = example_environment();
        let plan = lower_select(&ast, &env).unwrap();
        let rendered = plan.to_algebra();
        assert!(rendered.starts_with("S[insertion] (γ"));
        assert!(rendered.contains("W[60] (temperatures)"));
    }

    #[test]
    fn select_star_keeps_schema() {
        let env = example_environment();
        let plan = compile_select("SELECT FROM contacts WHERE name <> 'Carla'", &env);
        // empty select list = '*': no projection node
        let rendered = plan.unwrap().to_algebra();
        assert_eq!(rendered, "σ name <> 'Carla' (contacts)");
    }

    #[test]
    fn from_join_is_natural() {
        let env = example_environment();
        let plan = compile_select("SELECT sensor, location FROM sensors, cameras", &env).unwrap();
        assert!(plan.to_algebra().contains("⋈"));
    }

    #[test]
    fn where_conjuncts_go_on_the_from_items_that_bind_them() {
        let env = example_environment();
        let sql = "SELECT sensor, camera FROM sensors, cameras
                   WHERE location = 'office' AND area = 'office' AND location = area";
        // one conjunct per item, the spanning one above the join
        assert_eq!(
            compile_select(sql, &env).unwrap().to_algebra(),
            "π sensor,camera (σ location = area \
             ((σ location = 'office' (sensors) ⋈ σ area = 'office' (cameras))))"
        );
    }

    #[test]
    fn errors_are_informative() {
        let env = example_environment();
        // unknown prototype in USING
        let err =
            compile_select("SELECT FROM contacts USING teleport[messenger]", &env).unwrap_err();
        assert!(matches!(err, DdlError::UnknownPrototype(p) if p == "teleport"));
        // non-grouped select item with aggregates
        let err = compile_select(
            "SELECT location, avg(temperature) FROM sensors GROUP BY sensor",
            &env,
        )
        .unwrap_err();
        assert!(matches!(err, DdlError::Value(_)));
        // trailing garbage
        assert!(parse_select("SELECT FROM a b c").is_err());
        // missing FROM
        assert!(parse_select("SELECT name WHERE x = 1").is_err());
    }

    #[test]
    fn where_split_respects_active_semantics() {
        // For active USING prototypes, output-free WHERE conjuncts filter
        // first → the action set excludes filtered rows (Q1 semantics).
        use serena_core::exec::ExecContext;
        use serena_core::service::fixtures::example_registry;
        use serena_core::time::Instant;
        let env = example_environment();
        let plan = to_one_shot(
            &compile_select(
                "SELECT sent FROM contacts
                 WITH text := 'Bonjour!'
                 USING sendMessage[messenger]
                 WHERE name <> 'Carla'",
                &env,
            )
            .unwrap(),
        )
        .unwrap();
        let out = ExecContext::new(&env, &example_registry(), Instant::ZERO)
            .execute(&plan)
            .unwrap();
        assert_eq!(out.actions.len(), 2, "Carla must not be messaged");
    }
}
