//! The paper's numbered examples, verbatim.
//!
//! Each test reproduces one example or table from the paper and asserts
//! the exact artifacts it states: Example 3's prototype/service structure,
//! Example 4's δ-projections, Example 6's action sets, Example 7's
//! (non-)equivalence verdicts, Example 8's continuous behaviours.

use serena::core::env::examples::example_environment;
use serena::core::equiv::{check_at, check_over_instants};
use serena::core::plan::examples::{q1, q1_prime, q2, q2_prime};
use serena::core::prelude::*;
use serena::core::service::fixtures::example_registry;
use serena::core::tuple;

/// Table 1: the 4 prototypes and 9 services, via the DDL parser.
#[test]
fn table_1_catalog_parses_and_matches() {
    let program = "
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
    let stmts = serena::ddl::parse_program(program).expect("Table 1 parses");
    assert_eq!(stmts.len(), 13);
    let protos: Vec<_> = stmts
        .iter()
        .filter(|s| matches!(s, serena::ddl::Statement::Prototype { .. }))
        .collect();
    assert_eq!(protos.len(), 4);
    let services: Vec<_> = stmts
        .iter()
        .filter(|s| matches!(s, serena::ddl::Statement::Service { .. }))
        .collect();
    assert_eq!(services.len(), 9);
    // round-trip: resolved prototypes print Table 1's DDL back
    let serena::ddl::Statement::Prototype {
        name,
        input,
        output,
        active,
    } = &stmts[0]
    else {
        panic!()
    };
    let p = serena::ddl::resolve_prototype(name, input, output, *active).unwrap();
    assert_eq!(
        p.to_ddl(),
        "PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;"
    );
}

/// Example 3: prototypes(ω1) = {sendMessage}, prototypes(ω3) = {checkPhoto, takePhoto}.
#[test]
fn example_3_service_prototype_sets() {
    let reg = example_registry();
    assert_eq!(
        reg.providers_of("sendMessage")
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>(),
        vec!["email", "jabber"]
    );
    let cams: Vec<String> = reg
        .providers_of("takePhoto")
        .iter()
        .map(|r| r.to_string())
        .collect();
    assert_eq!(cams, vec!["camera01", "camera02", "webcam07"]);
}

/// Example 4: schema partition and tuple projections of `contacts`.
#[test]
fn example_4_projections() {
    let schema = serena::core::schema::examples::contacts_schema();
    let t = tuple!["Nicolas", "nicolas@elysee.fr", "email"];
    // t[messenger] = (email): attr 4 (1-based), δ(4) = 3 → coordinate 3 (1-based)
    assert_eq!(schema.coord_of("messenger"), Some(2)); // 0-based
    assert_eq!(
        schema.project_tuple_attr(&t, "messenger").unwrap(),
        Value::str("email")
    );
    // t[{address, messenger}] = (nicolas@elysee.fr, email)
    let coords = schema.coords_of(["address", "messenger"]).unwrap();
    assert_eq!(
        t.project_positions(&coords),
        tuple!["nicolas@elysee.fr", "email"]
    );
    // virtual attributes have no coordinate
    assert_eq!(schema.coord_of("text"), None);
    assert_eq!(schema.coord_of("sent"), None);
}

/// Example 5/6: Q1's and Q1''s action sets, literally as printed in the
/// paper.
#[test]
fn example_6_action_sets() {
    let env = example_environment();
    let reg = example_registry();

    let out = ExecContext::new(&env, &reg, Instant::ZERO)
        .execute(&q1())
        .unwrap();
    let rendered: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "(sendMessage[messenger], email, (nicolas@elysee.fr, Bonjour!))",
            "(sendMessage[messenger], jabber, (francois@im.gouv.fr, Bonjour!))",
        ]
    );

    let out = ExecContext::new(&env, &reg, Instant::ZERO)
        .execute(&q1_prime())
        .unwrap();
    let rendered: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "(sendMessage[messenger], email, (carla@elysee.fr, Bonjour!))",
            "(sendMessage[messenger], email, (nicolas@elysee.fr, Bonjour!))",
            "(sendMessage[messenger], jabber, (francois@im.gouv.fr, Bonjour!))",
        ]
    );
}

/// Example 7: Q1 ≢ Q1' (same result, different action sets) while
/// Q2 ≡ Q2' (passive prototypes → both action sets empty).
#[test]
fn example_7_equivalence_verdicts() {
    let env = example_environment();
    let reg = example_registry();

    let report = check_at(&q1(), &q1_prime(), &env, &reg, Instant::ZERO).unwrap();
    assert!(report.results_equal, "the resulting X-Relations coincide");
    assert!(!report.actions_equal, "the action sets differ");
    assert!(!report.equivalent());

    let report = check_over_instants(&q2(), &q2_prime(), &env, &reg, (0..8).map(Instant)).unwrap();
    assert!(report.equivalent());
}

/// §3.2: time dependence — the same query at different instants may give
/// different results; at the same instant it is deterministic.
#[test]
fn time_dependence_and_instant_determinism() {
    let env = example_environment();
    let reg = example_registry();
    let a = ExecContext::new(&env, &reg, Instant(2))
        .execute(&q2())
        .unwrap();
    let b = ExecContext::new(&env, &reg, Instant(2))
        .execute(&q2())
        .unwrap();
    assert_eq!(a.relation, b.relation);
    let differs = (0..6).any(|t| {
        let x = ExecContext::new(&env, &reg, Instant(t))
            .execute(&q2())
            .unwrap();
        let y = ExecContext::new(&env, &reg, Instant(t + 1))
            .execute(&q2())
            .unwrap();
        x.relation != y.relation
    });
    assert!(differs, "photo quality varies over time by construction");
}

/// Example 8 (continuous): Q3 alerts contacts on hot readings, Q4 emits a
/// photo stream on cold readings — via the stream executor.
#[test]
fn example_8_continuous_queries() {
    use serena::core::schema::XSchema;
    use serena::stream::plan::examples::{q3, q4};
    use serena::stream::{ContinuousQuery, SourceSet, StreamHub, TableHandle};

    let temps_schema = XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();

    // the office's reading at `q`'s next instant: `odd` at `at`, else 20.0
    let feed = |hub: &StreamHub, q: &ContinuousQuery, at: u64, odd: f64| {
        let hot_or_cold = q.next_instant() == Instant(at);
        hub.push(tuple!["office", if hot_or_cold { odd } else { 20.0 }]);
    };

    // Q3: hot at τ=2 → 3 contacts alerted once
    let temperatures = StreamHub::new();
    let mut sources = SourceSet::new();
    sources.add_stream("temperatures", temps_schema.clone(), temperatures.clone());
    sources.add_table(
        "contacts",
        TableHandle::with_tuples(
            serena::core::schema::examples::contacts_schema(),
            serena::core::xrelation::examples::contacts().into_tuples(),
        ),
    );
    let mut q3 = ContinuousQuery::compile(&q3(), &mut sources).unwrap();
    assert!(!q3.schema().infinite, "Q3's result is finite (ends in β)");
    let reg = example_registry();
    let mut actions = Vec::new();
    for _ in 0..4 {
        feed(&temperatures, &q3, 2, 36.0);
        actions.push(q3.tick_with(&reg, &NoopMetrics).actions.len());
    }
    assert_eq!(actions, vec![0, 0, 3, 0]);

    // Q4: cold at τ=1 → photos from the office cameras
    let temperatures = StreamHub::new();
    let mut sources = SourceSet::new();
    sources.add_stream("temperatures", temps_schema, temperatures.clone());
    sources.add_table(
        "cameras",
        TableHandle::with_tuples(
            serena::core::schema::examples::cameras_schema(),
            serena::core::xrelation::examples::cameras().into_tuples(),
        ),
    );
    let mut q4 = ContinuousQuery::compile(&q4(), &mut sources).unwrap();
    assert!(q4.schema().infinite, "Q4's result is a stream (ends in S)");
    let mut batches: Vec<Vec<Tuple>> = Vec::new();
    for _ in 0..4 {
        feed(&temperatures, &q4, 1, 5.0);
        batches.push(q4.tick_with(&reg, &NoopMetrics).batch);
    }
    let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
    assert_eq!(sizes, vec![0, 2, 0, 0]); // camera01 + webcam07 cover office
                                         // each photo is taken at the cold instant, not when its camera row
                                         // first reached the plan
    for photo in &batches[1] {
        let blob = photo.get(0).and_then(|v| v.as_blob()).unwrap();
        let header = std::str::from_utf8(blob).unwrap();
        assert!(
            header.starts_with("photo[office|") && header.ends_with("|t=1]"),
            "{header}"
        );
    }
}

/// Table 2's DDL defines schemas identical to the programmatic ones.
#[test]
fn table_2_ddl_equals_programmatic_schemas() {
    let env = example_environment();
    let program = "
        EXTENDED RELATION cameras (
          camera SERVICE,
          area STRING,
          quality INTEGER VIRTUAL,
          delay REAL VIRTUAL,
          photo BLOB VIRTUAL
        )
        USING BINDING PATTERNS (
          checkPhoto[camera] ( area ) : ( quality, delay ),
          takePhoto[camera] ( area, quality ) : ( photo )
        );
    ";
    let stmts = serena::ddl::parse_program(program).unwrap();
    let serena::ddl::Statement::ExtendedRelation {
        attrs, bindings, ..
    } = &stmts[0]
    else {
        panic!()
    };
    let schema = serena::ddl::resolve_relation_schema(attrs, bindings, &env).unwrap();
    assert!(schema.compatible_with(&serena::core::schema::examples::cameras_schema()));
    // and the rendered DDL round-trips structurally
    let ddl = schema.to_ddl("cameras");
    assert!(ddl.contains("checkPhoto[camera] ( area ) : ( quality, delay )"));
    assert!(ddl.contains("takePhoto[camera] ( area, quality ) : ( photo )"));
}
