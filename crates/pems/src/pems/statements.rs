//! Statements: Serena DDL programs, Serena SQL and one-shot plans run
//! against the runtime "now".

use serena_core::env::Environment;
use serena_core::error::SchemaError;
use serena_core::eval::EvalOutcome;
use serena_core::exec::{explain_analyze_text, ExecContext};
use serena_core::metrics::{ExecStats, MetricsSink, Tee};
use serena_core::plan::Plan;
use serena_ddl::ast::Statement;
use serena_ddl::resolve::{resolve_prototype, resolve_relation_schema, resolve_tuple, to_one_shot};
use serena_ddl::DdlError;
use serena_stream::source::TableHandle;

use super::{ExecOutcome, Pems, PemsError};

/// A one-shot plan annotated with what its evaluation actually did — the
/// result of [`Pems::explain_analyze`].
#[derive(Debug)]
pub struct ExplainAnalyze {
    /// The evaluation's result (relation + action set).
    pub outcome: EvalOutcome,
    /// Per-node observed statistics, keyed by pre-order node id.
    pub stats: ExecStats,
    /// The plan tree rendered with the observed counts inline.
    pub rendered: String,
}

impl std::fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

impl Pems {
    /// Refuse a DDL write (`INSERT`, `DELETE`, `DROP`) to a table a
    /// discovery maintains. (The discovery fold writes its tables through
    /// [`crate::table_manager::ExtendedTableManager`] directly.)
    fn refuse_discovery_table(&self, relation: &str) -> Result<(), PemsError> {
        match self.discoveries.iter().find(|(t, _)| t == relation) {
            Some((table, query)) => Err(PemsError::DiscoveryMaintained {
                table: table.clone(),
                prototype: query.prototype().to_string(),
            }),
            None => Ok(()),
        }
    }

    /// The table a DDL `INSERT` / `DELETE` writes: it exists and is the
    /// user's to write.
    fn user_table(&self, relation: &str) -> Result<TableHandle, PemsError> {
        self.refuse_discovery_table(relation)?;
        self.tables
            .table(relation)
            .ok_or_else(|| SchemaError::UnknownRelation(relation.to_string()).into())
    }

    /// Execute a parsed statement. An `INSERT` or `DELETE` types every one
    /// of its tuples before it writes any: one that fails writes nothing.
    pub fn run_statement(&mut self, stmt: &Statement) -> Result<ExecOutcome, PemsError> {
        match stmt {
            Statement::Prototype {
                name,
                input,
                output,
                active,
            } => {
                let p = resolve_prototype(name, input, output, *active)?;
                self.tables.declare_prototype(p)?;
                Ok(ExecOutcome::Done)
            }
            // a service exists for the runtime once it registers with the
            // directory; its declaration is stored nowhere, but it may name
            // only declared prototypes
            Statement::Service { prototypes, .. } => {
                if let Some(unknown) = prototypes
                    .iter()
                    .find(|p| self.tables.prototype(p).is_none())
                {
                    return Err(DdlError::UnknownPrototype(unknown.clone()).into());
                }
                Ok(ExecOutcome::Done)
            }
            Statement::ExtendedRelation {
                name,
                attrs,
                bindings,
                stream,
            } => {
                let schema = resolve_relation_schema(attrs, bindings, &self.tables)?;
                if *stream {
                    self.tables.define_push_stream(name.clone(), schema)?;
                } else {
                    self.tables.define_table(name.clone(), schema)?;
                }
                Ok(ExecOutcome::Done)
            }
            Statement::Insert { relation, tuples } | Statement::Delete { relation, tuples } => {
                let table = self.user_table(relation)?;
                let schema = table.schema();
                let rows = tuples
                    .iter()
                    .map(|lits| resolve_tuple(lits, &schema))
                    .collect::<Result<Vec<_>, _>>()?;
                let insert = matches!(stmt, Statement::Insert { .. });
                for t in rows {
                    if insert {
                        table.insert(t);
                    } else {
                        table.delete(t);
                    }
                }
                Ok(ExecOutcome::Done)
            }
            Statement::DropRelation { name } => {
                self.refuse_discovery_table(name)?;
                if !self.tables.drop_relation(name) {
                    return Err(SchemaError::UnknownRelation(name.clone()).into());
                }
                Ok(ExecOutcome::Done)
            }
            Statement::RegisterQuery { name, plan } => {
                self.register_query(name.clone(), plan)?;
                Ok(ExecOutcome::Registered(name.clone()))
            }
            Statement::UnregisterQuery { name } => {
                if !self.processor.deregister(name) {
                    return Err(PemsError::UnknownQuery(name.clone()));
                }
                Ok(ExecOutcome::Done)
            }
            Statement::Execute { plan } => {
                let plan = to_one_shot(plan).ok_or_else(|| {
                    PemsError::Other(
                        "continuous expression (window/stream); use REGISTER QUERY".into(),
                    )
                })?;
                Ok(ExecOutcome::OneShot(self.one_shot(&plan)?))
            }
        }
    }

    /// Execute a Serena SQL `SELECT` (see [`serena_ddl::sql`]): a
    /// statement without window/streaming parts evaluates one-shot;
    /// otherwise it is registered as a continuous query (under `name`, or
    /// an auto-generated `sql_N`).
    pub fn run_sql(&mut self, name: Option<&str>, sql: &str) -> Result<ExecOutcome, PemsError> {
        let plan = serena_ddl::sql::compile_select(sql, &self.tables)?;
        match to_one_shot(&plan) {
            Some(one_shot) => Ok(ExecOutcome::OneShot(self.one_shot(&one_shot)?)),
            None => {
                let name = match name {
                    Some(n) => n.to_string(),
                    None => {
                        self.sql_counter += 1;
                        format!("sql_{}", self.sql_counter)
                    }
                };
                self.register_query(name.clone(), &plan)?;
                Ok(ExecOutcome::Registered(name))
            }
        }
    }

    /// Parse and execute a `;`-separated program, statement by statement.
    /// A program is not a transaction: it stops at its first failing
    /// statement and returns that error, and the statements before it stay
    /// applied. A program that does not parse applies nothing.
    pub fn run_program(&mut self, text: &str) -> Result<Vec<ExecOutcome>, PemsError> {
        let stmts = serena_ddl::parse_program(text)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in &stmts {
            out.push(self.run_statement(s)?);
        }
        Ok(out)
    }

    /// Evaluate a one-shot query "now": against a snapshot of the finite
    /// tables, at the current logical instant, through the live directory.
    pub fn one_shot(&self, plan: &Plan) -> Result<EvalOutcome, PemsError> {
        self.evaluate(plan, &self.telemetry_sink)
    }

    /// Evaluate `plan` one-shot, reporting per-operator observations to
    /// `sink`.
    fn evaluate(&self, plan: &Plan, sink: &dyn MetricsSink) -> Result<EvalOutcome, PemsError> {
        let env = self.tables.snapshot_environment(Some(&plan.relations()));
        let invoker = self.beta.one_shot(&self.directory);
        let ctx = ExecContext::with_metrics(&env, &*invoker, self.clock(), sink)
            .with_options(self.exec_options);
        Ok(ctx.execute(plan)?)
    }

    /// Evaluate `plan` one-shot and return the plan tree annotated with the
    /// observed per-node counts (rows out, tuples in, invocations, β-cache
    /// hits/misses, failures, wall time) — the classic `EXPLAIN ANALYZE`.
    /// Observations also flow to the runtime's metrics registry.
    pub fn explain_analyze(&self, plan: &Plan) -> Result<ExplainAnalyze, PemsError> {
        let stats = ExecStats::new();
        let outcome = self.evaluate(plan, &Tee(&stats, &self.telemetry_sink))?;
        let rendered = explain_analyze_text(plan, &stats);
        Ok(ExplainAnalyze {
            outcome,
            stats,
            rendered,
        })
    }

    /// The one-shot [`Environment`] of every finite table, as it is now —
    /// each relation shared with its table, none copied. A statement takes
    /// the same snapshot of only the tables its plan names.
    pub fn snapshot_environment(&self) -> Environment {
        self.tables.snapshot_environment(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pems::tests::{pems_with_messenger, SETUP};
    use serena_core::error::{EvalError, PlanError};
    use serena_core::time::Instant;
    use serena_core::tuple;
    use serena_core::value::Value;
    use serena_services::bus::BusConfig;
    use std::sync::Arc;

    #[test]
    fn ddl_program_and_one_shot_execute() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        let outcomes = pems
            .run_program(
                "EXECUTE INVOKE[sendMessage[messenger]](ASSIGN[text := 'Hi'](SELECT[name = 'Nicolas'](contacts)));",
            )
            .unwrap();
        let ExecOutcome::OneShot(out) = &outcomes[0] else {
            panic!()
        };
        assert_eq!(out.relation.len(), 1);
        assert_eq!(out.actions.len(), 1);
    }

    #[test]
    fn a_ddl_write_to_a_discovery_table_is_refused() {
        // the write used to be accepted and to last until the next
        // re-listing; the table is the directory's, not the user's
        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        pems.run_program(
            "PROTOTYPE getTemperature( ) : ( temperature REAL );
             EXTENDED RELATION sensors (
               sensor SERVICE, location STRING, temperature REAL VIRTUAL
             ) USING BINDING PATTERNS ( getTemperature[sensor] );
             EXTENDED RELATION rooms ( location STRING, floor INTEGER );",
        )
        .unwrap();
        pems.register_discovery("sensors", "getTemperature", "sensor")
            .unwrap();
        let sensor = serena_core::service::fixtures::temperature_sensor(1);
        pems.directory().register("sensor01", sensor);
        pems.directory()
            .set("sensor01", "location", Value::str("lab"));
        pems.tick();
        let sensors = |pems: &Pems| pems.tables().table("sensors").unwrap().relation();
        let before = sensors(&pems);
        assert_eq!(before.len(), 1);

        for write in [
            "INSERT INTO sensors VALUES ('ghost', 'attic');",
            "DELETE FROM sensors VALUES ('sensor01', 'lab');",
            // refused before its literals are typed against the schema
            "INSERT INTO sensors VALUES (1);",
            // a dropped table would keep its discovery folding into it
            "DROP RELATION sensors;",
        ] {
            let err = pems.run_program(write).unwrap_err();
            assert!(
                matches!(
                    &err,
                    PemsError::DiscoveryMaintained { table, prototype }
                        if table == "sensors" && prototype == "getTemperature"
                ),
                "{write}: {err}"
            );
            let message = err.to_string();
            assert!(message.contains("`sensors`") && message.contains("`getTemperature`"));
            assert_eq!(*sensors(&pems), *before, "{write}");
        }
        pems.tick();
        assert_eq!(*sensors(&pems), *before);

        // an ordinary table beside it is the user's to write
        pems.run_program("INSERT INTO rooms VALUES ('lab', 2), ('attic', 3);")
            .unwrap();
        pems.run_program("DELETE FROM rooms VALUES ('attic', 3);")
            .unwrap();
        assert_eq!(pems.tables().table("rooms").unwrap().relation().len(), 1);
        // and a table that does not exist is still "unknown", not "maintained"
        let err = pems
            .run_program("INSERT INTO ghost VALUES (1);")
            .unwrap_err();
        assert!(
            matches!(err, PemsError::Schema(SchemaError::UnknownRelation(_))),
            "{err}"
        );
    }

    /// A program stops at its first failing statement and leaves the
    /// statements before it applied.
    #[test]
    fn a_failing_statement_leaves_the_earlier_ones_applied() {
        let mut pems = Pems::default();
        let err = pems
            .run_program(
                "EXTENDED RELATION t ( x INTEGER );
                 INSERT INTO t VALUES (1);
                 INSERT INTO ghost VALUES (2);
                 INSERT INTO t VALUES (3);",
            )
            .unwrap_err();
        assert!(
            matches!(&err, PemsError::Schema(SchemaError::UnknownRelation(r)) if r == "ghost"),
            "{err:?}"
        );
        let t = pems.tables().table("t").expect("the table stays defined");
        assert_eq!(t.relation().tuples(), [tuple![1i64]]);
    }

    /// A multi-row write whose last row does not type writes none of its
    /// rows: the table's relation, a one-shot and the next tick's delta of a
    /// query over the table all read as before the statement.
    fn assert_a_failing_write_applies_nothing(write: &str) {
        let mut pems = Pems::default();
        pems.run_program(
            "EXTENDED RELATION t ( x INTEGER );
             INSERT INTO t VALUES (1), (2);
             REGISTER QUERY watch AS t;",
        )
        .unwrap();
        pems.tick();
        let err = pems.run_program(write).unwrap_err();
        assert!(
            matches!(&err, PemsError::Ddl(DdlError::Value(m)) if m.contains("attribute `x`")),
            "{write}: {err:?}"
        );
        let t = pems.tables().table("t").unwrap();
        assert_eq!(
            t.relation().tuples(),
            [tuple![1i64], tuple![2i64]],
            "{write}"
        );
        assert_eq!(first_column(&mut pems, "SELECT x FROM t"), ["1", "2"]);
        let reports = pems.tick();
        assert!(
            reports[0].1.delta.is_empty(),
            "{write}: {:?}",
            reports[0].1.delta
        );
        assert_eq!(t.relation().len(), 2, "{write}");
    }

    #[test]
    fn a_failing_multi_row_insert_applies_nothing() {
        assert_a_failing_write_applies_nothing("INSERT INTO t VALUES (3), (4), ('five');");
    }

    #[test]
    fn a_failing_multi_row_delete_applies_nothing() {
        assert_a_failing_write_applies_nothing("DELETE FROM t VALUES (1), (2), ('three');");
    }

    /// Table 1's program declares every prototype before a service names
    /// it; a misspelt name is refused as `EXTENDED RELATION` refuses it.
    #[test]
    fn a_service_naming_an_undeclared_prototype_is_refused() {
        let mut pems = Pems::default();
        let table_1 = "
            PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
            PROTOTYPE checkPhoto( area STRING ) : ( quality INTEGER, delay REAL );
            PROTOTYPE takePhoto( area STRING, quality INTEGER ) : ( photo BLOB );
            PROTOTYPE getTemperature( ) : ( temperature REAL );
            SERVICE email IMPLEMENTS sendMessage;
            SERVICE jabber IMPLEMENTS sendMessage;
            SERVICE camera01 IMPLEMENTS checkPhoto, takePhoto;
            SERVICE camera02 IMPLEMENTS checkPhoto, takePhoto;
            SERVICE webcam07 IMPLEMENTS checkPhoto, takePhoto;
            SERVICE sensor01 IMPLEMENTS getTemperature;
            SERVICE sensor06 IMPLEMENTS getTemperature;
            SERVICE sensor07 IMPLEMENTS getTemperature;
            SERVICE sensor22 IMPLEMENTS getTemperature;
        ";
        let outcomes = pems.run_program(table_1).unwrap();
        assert_eq!(outcomes.len(), 13);
        for (statement, misspelt) in [
            (
                "SERVICE sensor01 IMPLEMENTS getTemprature;",
                "getTemprature",
            ),
            (
                "SERVICE camera03 IMPLEMENTS checkPhoto, takePhotos;",
                "takePhotos",
            ),
            (
                "EXTENDED RELATION t ( sensor SERVICE, temperature REAL VIRTUAL ) \
                 USING BINDING PATTERNS ( getTemprature[sensor] ( ) : ( temperature ) );",
                "getTemprature",
            ),
        ] {
            let err = pems.run_program(statement).unwrap_err();
            assert!(
                matches!(&err, PemsError::Ddl(DdlError::UnknownPrototype(p)) if p == misspelt),
                "{statement}: {err:?}"
            );
            assert_eq!(err.to_string(), format!("unknown prototype `{misspelt}`"));
        }
    }

    /// A DDL write to, or `DROP` of, a relation nobody defined is the typed
    /// `SchemaError::UnknownRelation` the table manager's API answers with.
    #[test]
    fn a_ddl_statement_on_an_unknown_relation_is_a_typed_error() {
        let mut pems = Pems::default();
        pems.run_program("EXTENDED RELATION t ( x INTEGER );")
            .unwrap();
        for statement in [
            "INSERT INTO ghost VALUES (1);",
            "DELETE FROM ghost VALUES (1);",
            "DROP RELATION ghost;",
        ] {
            let err = pems.run_program(statement).unwrap_err();
            assert!(
                matches!(&err, PemsError::Schema(SchemaError::UnknownRelation(r)) if r == "ghost"),
                "{statement}: {err:?}"
            );
            assert_eq!(err.to_string(), "unknown relation `ghost`");
        }
        // the relation beside it is untouched, and dropped only once
        pems.run_program("INSERT INTO t VALUES (1); DROP RELATION t;")
            .unwrap();
        let err = pems.run_program("DROP RELATION t;").unwrap_err();
        assert!(matches!(
            err,
            PemsError::Schema(SchemaError::UnknownRelation(_))
        ));
    }

    #[test]
    fn insert_delete_via_ddl_affect_queries() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        pems.tick();
        pems.run_program("DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');")
            .unwrap();
        let reports = pems.tick();
        assert_eq!(reports[0].1.delta.deletes.len(), 1);
        assert_eq!(pems.processor().current_relation("watch").unwrap().len(), 1);
    }

    /// First column of a relation's rows, in the order it holds them.
    fn column(rel: &serena_core::xrelation::XRelation) -> Vec<String> {
        rel.iter().map(|t| t[0].to_string()).collect()
    }

    /// First column of a one-shot `SELECT`'s rows, in the order returned.
    fn first_column(pems: &mut Pems, sql: &str) -> Vec<String> {
        let ExecOutcome::OneShot(out) = pems.run_sql(None, sql).unwrap() else {
            panic!("`{sql}` is one-shot")
        };
        column(&out.relation)
    }

    /// A table's instant is shared: the statements between two writes to a
    /// table read one relation — whatever happens to other tables or to the
    /// clock — and a statement straight after a write sees it, while an
    /// environment taken before the write does not.
    #[test]
    fn statements_between_two_writes_share_a_tables_relation() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("EXTENDED RELATION rooms ( room STRING, floor INTEGER );")
            .unwrap();
        const NAMES: &str = "SELECT name FROM contacts";
        let contacts = pems.tables().table("contacts").unwrap();
        let shared = contacts.relation();
        assert_eq!(first_column(&mut pems, NAMES), ["Carla", "Nicolas"]);
        pems.run_program("INSERT INTO rooms VALUES ('lab', 2);")
            .unwrap();
        pems.tick();
        assert_eq!(first_column(&mut pems, NAMES), ["Carla", "Nicolas"]);
        assert!(Arc::ptr_eq(&shared, &contacts.relation()));
        let env = pems.snapshot_environment();
        assert!(std::ptr::eq(env.relation("contacts").unwrap(), &*shared));
        assert_eq!(env.relation("rooms").unwrap().len(), 1);
        drop((shared, env));

        // a row enters at its sorted position, with the relation unheld …
        pems.run_program(
            "INSERT INTO contacts VALUES ('Francois', 'francois@im.gouv.fr', 'email');",
        )
        .unwrap();
        let all = ["Carla", "Francois", "Nicolas"];
        assert_eq!(first_column(&mut pems, NAMES), all);
        // … and leaves behind the back of whoever holds it
        let env = pems.snapshot_environment();
        pems.run_program("DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');")
            .unwrap();
        assert_eq!(first_column(&mut pems, NAMES), ["Francois", "Nicolas"]);
        assert_eq!(column(env.relation("contacts").unwrap()), all);

        // a restore replaces the contents under the relation
        let bytes = pems.snapshot_bytes();
        pems.run_program("DELETE FROM contacts VALUES ('Nicolas', 'nicolas@elysee.fr', 'email');")
            .unwrap();
        assert_eq!(first_column(&mut pems, NAMES), ["Francois"]);
        pems.restore_bytes(&bytes).unwrap();
        assert_eq!(first_column(&mut pems, NAMES), ["Francois", "Nicolas"]);
    }

    /// Discovery writes through the same handle: a statement after the fold
    /// sees the fleet as the tick left it.
    #[test]
    fn a_statement_after_a_discovery_fold_sees_it() {
        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        pems.run_program(
            "PROTOTYPE getTemperature( ) : ( temperature REAL );
             EXTENDED RELATION sensors (
               sensor SERVICE, location STRING, temperature REAL VIRTUAL
             ) USING BINDING PATTERNS ( getTemperature[sensor] );",
        )
        .unwrap();
        pems.register_discovery("sensors", "getTemperature", "sensor")
            .unwrap();
        const SENSORS: &str = "SELECT sensor FROM sensors";
        let lerm = pems.local_erm("lab");
        let mut expected = Vec::new();
        for name in ["sensor07", "sensor02", "sensor05"] {
            let sensor = serena_core::service::fixtures::temperature_sensor(1);
            lerm.register_service(name, sensor, pems.clock());
            pems.directory().set(name, "location", Value::str("lab"));
            pems.tick();
            expected.push(name);
            expected.sort_unstable();
            assert_eq!(first_column(&mut pems, SENSORS), expected);
        }
        lerm.unregister_service("sensor05", pems.clock());
        pems.tick();
        assert_eq!(first_column(&mut pems, SENSORS), ["sensor02", "sensor07"]);
    }

    /// Executing a plan cannot write into a table: a scan lends the table's
    /// relation, ∪ — the one operator that grows an operand — copies a lent
    /// one first, and the one scan that still copies (the schema instance was
    /// replaced since compilation) leaves its source alone too.
    #[test]
    fn executing_a_plan_cannot_write_into_a_table() {
        use serena_core::physical::PhysicalPlan;
        use serena_core::tuple::Tuple;
        use serena_core::xrelation::XRelation;
        let mut pems = Pems::default();
        pems.run_program(
            "EXTENDED RELATION t ( x INTEGER, y STRING );
             EXTENDED RELATION u ( x INTEGER, y STRING );
             EXTENDED RELATION v ( x INTEGER, z STRING );
             INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b');
             INSERT INTO u VALUES (2, 'b'), (4, 'd');
             INSERT INTO v VALUES (1, 'p'), (4, 'q');",
        )
        .unwrap();
        let [t, u, v] = ["t", "u", "v"].map(Plan::relation);
        let plans = [
            (t.clone().union(u.clone()), 4),
            (t.clone().intersect(u.clone()), 1),
            (t.clone().difference(u.clone()), 2),
            (t.clone().join(v), 1),
            (t.clone().union(t), 3),
            (u.clone().union(u.clone()).union(u), 2),
        ];
        let env = pems.snapshot_environment();
        let before: Vec<(String, Vec<Tuple>)> = env
            .relations()
            .map(|(name, rel)| (name.to_string(), rel.tuples().to_vec()))
            .collect();
        let nobody = serena_core::service::StaticRegistry::new();
        // the same tables under equivalent schemas built apart, columns
        // swapped: what a plan compiled against `env` must copy to scan
        let mut replaced = Environment::new();
        for name in ["t", "u", "v"] {
            let rel = env.relation(name).unwrap();
            let attrs = rel.schema().attrs().iter().rev();
            let schema = attrs
                .fold(serena_core::schema::XSchema::builder(), |b, a| {
                    b.real(a.name.as_str(), a.ty)
                })
                .build()
                .unwrap();
            let swapped = rel.iter().map(|t| Tuple::new([t[1].clone(), t[0].clone()]));
            replaced
                .define_relation(name, XRelation::from_tuples(schema, swapped))
                .unwrap();
        }
        let swapped_before: Vec<Vec<Tuple>> = replaced
            .relations()
            .map(|(_, rel)| rel.tuples().to_vec())
            .collect();
        for (plan, rows) in &plans {
            let physical = PhysicalPlan::compile(plan, &env).unwrap();
            let run = |env| physical.execute(&ExecContext::new(env, &nobody, Instant(0)));
            let (first, second) = (run(&env).unwrap(), run(&env).unwrap());
            assert_eq!(first.relation.len(), *rows, "{plan:?}");
            assert_eq!(first.relation.tuples(), second.relation.tuples());
            let copied = run(&replaced).unwrap();
            assert_eq!(copied.relation.tuples(), first.relation.tuples());
            assert_eq!(pems.one_shot(plan).unwrap().relation, first.relation);
        }
        // length, order and identity: each is still the table's own relation
        for (name, tuples) in &before {
            let rel = env.relation(name).unwrap();
            assert_eq!(rel.tuples(), tuples);
            let shared = pems.tables().table(name).unwrap().relation();
            assert!(std::ptr::eq(rel, &*shared), "{name}");
        }
        let swapped_after = replaced.relations().map(|(_, rel)| rel.tuples().to_vec());
        assert_eq!(swapped_after.collect::<Vec<_>>(), swapped_before);
        assert_eq!(first_column(&mut pems, "SELECT x FROM t"), ["1", "2", "3"]);
        assert_eq!(first_column(&mut pems, "SELECT x FROM u"), ["2", "4"]);
    }

    /// URSA is refused where the relation is defined — a defined table is
    /// never "unknown" to a statement — and a write to an undefined table
    /// says so.
    #[test]
    fn a_defined_table_is_known_to_every_statement() {
        let mut pems = Pems::default();
        pems.run_program("EXTENDED RELATION a ( x STRING );")
            .unwrap();
        let err = pems
            .run_program("EXTENDED RELATION b ( x INTEGER, y STRING );")
            .unwrap_err();
        assert!(
            matches!(&err, PemsError::Schema(SchemaError::UrsaViolation { attr, .. }) if attr == "x"),
            "{err}"
        );
        assert!(pems.tables().table("b").is_none());
        pems.run_program(
            "DROP RELATION a;
             EXTENDED RELATION b ( x INTEGER, y STRING );
             EXTENDED RELATION a ( z STRING );
             INSERT INTO b VALUES (1, 'q');",
        )
        .unwrap();
        assert_eq!(first_column(&mut pems, "SELECT y FROM b"), ["q"]);
        let err = pems.tables().insert("ghost", tuple![1]).unwrap_err();
        assert_eq!(err, SchemaError::UnknownRelation("ghost".into()));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut pems = Pems::default();
        assert!(pems.run_program("INSERT INTO ghost VALUES (1);").is_err());
        assert!(pems.run_program("DROP RELATION ghost;").is_err());
        assert!(pems
            .run_program("EXECUTE SELECT[x = 1](WINDOW[1](s));")
            .is_err());
        assert!(pems.run_program("this is not DDL").is_err());
    }

    /// A window/stream operator reaching a one-shot entry point is a typed
    /// plan error; `EXECUTE` says what to do instead.
    #[test]
    fn continuous_plans_are_refused_by_every_one_shot_entry_point() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("EXTENDED RELATION s ( x INTEGER ) STREAM;")
            .unwrap();
        let is_status_mismatch = |e: &PemsError| {
            matches!(
                e,
                PemsError::Eval(EvalError::Plan(PlanError::StreamStatusMismatch { .. }))
            )
        };
        for plan in [
            Plan::source("s").window(1),
            Plan::source("contacts").stream(serena_stream::StreamKind::Heartbeat),
        ] {
            let err = pems.one_shot(&plan).unwrap_err();
            assert!(is_status_mismatch(&err), "{err}");
            let err = pems.explain_analyze(&plan).map(|_| ()).unwrap_err();
            assert!(is_status_mismatch(&err), "{err}");
        }
        let err = pems
            .run_program("EXECUTE SELECT[x = 1](WINDOW[1](s));")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "continuous expression (window/stream); use REGISTER QUERY"
        );
    }

    #[test]
    fn unregister_query_statement() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        assert_eq!(pems.processor().names(), vec!["watch"]);
        pems.run_program("UNREGISTER QUERY watch;").unwrap();
        assert!(pems.processor().names().is_empty());
        assert!(pems.run_program("UNREGISTER QUERY watch;").is_err());
    }

    #[test]
    fn serena_sql_one_shot_and_continuous() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        // one-shot with WHERE-before-invocation semantics
        let outcome = pems
            .run_sql(
                None,
                "SELECT sent FROM contacts
                 WITH text := 'Hi'
                 USING sendMessage[messenger]
                 WHERE name = 'Nicolas'",
            )
            .unwrap();
        let ExecOutcome::OneShot(out) = outcome else {
            panic!()
        };
        assert_eq!(out.actions.len(), 1);
        assert_eq!(out.relation.len(), 1);

        // continuous: windowed source → auto-registered
        pems.run_program(
            "EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;",
        )
        .unwrap();
        let outcome = pems
            .run_sql(
                None,
                "SELECT location FROM readings WINDOW 2 WHERE temperature > 30.0",
            )
            .unwrap();
        let ExecOutcome::Registered(name) = outcome else {
            panic!()
        };
        assert_eq!(name, "sql_1");
        pems.tables()
            .push_stream("readings", tuple!["office", 35.0]);
        let reports = pems.tick();
        let r = reports.iter().find(|(n, _)| *n == name).unwrap();
        assert_eq!(r.1.delta.inserts.len(), 1);

        // explicitly named registration
        let outcome = pems
            .run_sql(Some("hot2"), "SELECT location FROM readings WINDOW 1")
            .unwrap();
        assert!(matches!(outcome, ExecOutcome::Registered(n) if n == "hot2"));
        assert!(pems.processor().names().contains(&"hot2"));
        // name collisions are rejected
        assert!(pems
            .run_sql(Some("hot2"), "SELECT location FROM readings WINDOW 1")
            .is_err());
    }

    #[test]
    fn explain_analyze_totals_match_result_cardinality() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        let plan = Plan::relation("contacts")
            .select(serena_core::formula::Formula::eq_const(
                "name",
                Value::str("Nicolas"),
            ))
            .assign_const("text", Value::str("Hi"))
            .invoke("sendMessage", "messenger");
        let ea = pems.explain_analyze(&plan).unwrap();

        // the annotated root agrees with the relation actually returned
        assert_eq!(
            ea.stats.root_tuples_out(),
            Some(ea.outcome.relation.len() as u64)
        );
        // one tuple survived the select, so exactly one β invocation
        assert_eq!(ea.stats.total_invocations(), 1);
        assert_eq!(ea.stats.total_failures(), 0);
        // rendering: one line per plan node, counts inline
        let lines: Vec<&str> = ea.rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Invoke sendMessage[messenger]"));
        assert!(lines[0].contains("rows=1"));
        assert!(lines[0].contains("invocations=1"));
        assert!(ea.to_string().contains("Relation contacts"));
    }
}
