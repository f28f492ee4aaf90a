//! Where a Serena SQL `WHERE` conjunct lands when the `FROM` list joins:
//! on the items that bind it, under the `⋈` — held here as counts that
//! repeat exactly (no clock), and as the typed errors that must not move.
//! The row-for-row comparison with the join-then-filter lowering over
//! generated statements is in `property_language.rs`.

use serena::core::metrics::{NodeStats, OpKind};
use serena::core::prelude::*;
use serena::ddl::sql::compile_select;
use serena::pems::{ExecOutcome, Pems, PemsError};
use serena::services::bus::BusConfig;

const AREAS: usize = 12;
const SENSORS: usize = 120;
const FLOORS: usize = 4;
const OWNERS: usize = 2;
const ROOMS: usize = AREAS * FLOORS * OWNERS;

/// The benchmark's two tables at a size a test can count by hand: 120
/// sensors dealt round-robin over 12 areas; one `rooms` row per (area,
/// floor, owner), 96 in all.
fn fleet() -> Pems {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    let sensors: Vec<String> = (0..SENSORS)
        .map(|i| format!("('sensor{i:03}', 'area{}')", i % AREAS))
        .collect();
    let mut rooms = Vec::new();
    for area in 0..AREAS {
        for floor in 0..FLOORS {
            for owner in 0..OWNERS {
                rooms.push(format!("('area{area}', {floor}, 'owner{owner}')"));
            }
        }
    }
    pems.run_program(&format!(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         EXTENDED RELATION rooms ( location STRING, floor INTEGER, owner STRING );
         EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;
         EXTENDED RELATION moves ( owner STRING, wing STRING ) STREAM;
         INSERT INTO sensors VALUES {};
         INSERT INTO rooms VALUES {};",
        sensors.join(", "),
        rooms.join(", ")
    ))
    .unwrap();
    pems
}

/// `EXPLAIN ANALYZE` of a statement: its rows and every node's counts.
fn analyzed(pems: &Pems, sql: &str) -> (usize, Vec<NodeStats>) {
    let plan = compile_select(sql, pems.tables()).unwrap();
    let ea = pems.explain_analyze(&plan).unwrap();
    let nodes = ea.stats.nodes().into_values().collect();
    (ea.outcome.relation.len(), nodes)
}

fn the_join(nodes: &[NodeStats]) -> &NodeStats {
    let mut joins = nodes.iter().filter(|n| n.op == OpKind::Join);
    let join = joins.next().expect("the statement joins");
    assert!(joins.next().is_none(), "two FROM items, one ⋈");
    join
}

/// The benchmark's `Join` statement pairs what the filters kept, not the
/// tables: `⋈` reads `|σ sensors| + |σ rooms|` tuples, and no node of the
/// plan emits more than the larger table holds. (Joined before it was
/// filtered, `⋈` read 120 + 96 tuples and emitted 120 × 8 = 960.)
#[test]
fn a_join_statement_pairs_what_its_filters_kept() {
    let pems = fleet();
    let per_area = SENSORS / AREAS;

    let (rows, nodes) = analyzed(
        &pems,
        "SELECT sensor, owner FROM sensors, rooms WHERE location = 'area2' AND floor = 1;",
    );
    assert_eq!(rows, per_area * OWNERS);
    let join = the_join(&nodes);
    assert_eq!(join.tuples_in, (per_area + OWNERS) as u64);
    assert_eq!(join.tuples_out, (per_area * OWNERS) as u64);
    for n in &nodes {
        assert!(n.tuples_out <= SENSORS.max(ROOMS) as u64, "{n:?}");
    }

    // a conjunct on the shared attribute alone filters both sides
    let (rows, nodes) = analyzed(
        &pems,
        "SELECT sensor, owner FROM sensors, rooms WHERE location = 'area2';",
    );
    assert_eq!(rows, per_area * OWNERS, "π folds the floors");
    let join = the_join(&nodes);
    assert_eq!(join.tuples_in, (per_area + FLOORS * OWNERS) as u64);
    assert_eq!(join.tuples_out, (per_area * FLOORS * OWNERS) as u64);
    for n in &nodes {
        assert!(n.tuples_out <= SENSORS.max(ROOMS) as u64, "{n:?}");
    }

    // a conjunct only `rooms` binds leaves the other side whole
    let (_, nodes) = analyzed(
        &pems,
        "SELECT sensor, owner FROM sensors, rooms WHERE floor = 1;",
    );
    assert_eq!(
        the_join(&nodes).tuples_in,
        (SENSORS + AREAS * OWNERS) as u64
    );
}

fn rows_of(outcome: ExecOutcome) -> Vec<Tuple> {
    let ExecOutcome::OneShot(out) = outcome else {
        panic!("a one-shot statement")
    };
    out.relation.iter().cloned().collect()
}

/// Every statement the placement leaves alone fails where it failed
/// before, with the variant it failed with: a conjunct goes on an item
/// only when that item binds it, so what no item binds is still refused by
/// the `σ` above the joins.
#[test]
fn typed_errors_stay_where_they_were() {
    let mut pems = fleet();
    let mut refused = |sql: &str| pems.run_sql(None, sql).unwrap_err();

    // an unknown relation beside a known one that binds the conjunct
    for sql in [
        "SELECT sensor FROM sensors, ghost WHERE location = 'area1';",
        "SELECT owner FROM ghost, rooms WHERE floor = 1 AND location = 'area1';",
    ] {
        let err = refused(sql);
        assert!(
            matches!(&err, PemsError::Eval(EvalError::Plan(PlanError::UnknownRelation(r))) if r == "ghost"),
            "{sql}: {err:?}"
        );
    }
    // an attribute nothing binds
    let err = refused("SELECT sensor FROM sensors, rooms WHERE wing = 'east' AND floor = 1;");
    assert!(
        matches!(
            &err,
            PemsError::Eval(EvalError::Plan(PlanError::Schema(SchemaError::UnknownAttribute(a))))
                if a.as_str() == "wing"
        ),
        "{err:?}"
    );
    // an attribute still virtual where the conjunct filters
    let err = refused("SELECT sensor FROM sensors, rooms WHERE temperature > 20.0 AND floor = 1;");
    assert!(
        matches!(
            &err,
            PemsError::Eval(EvalError::Plan(PlanError::SelectionOnVirtual(a)))
                if a.as_str() == "temperature"
        ),
        "{err:?}"
    );
    // a conjunct its item binds, with a type the attribute does not have
    let err = refused("SELECT sensor FROM sensors, rooms WHERE floor = 'one';");
    assert!(
        matches!(
            &err,
            PemsError::Eval(EvalError::Plan(PlanError::FormulaTypeMismatch { .. }))
        ),
        "{err:?}"
    );
    // a stream read without a window, a table read through one: the item
    // is left for validation to refuse, at the join as before
    let err = refused("SELECT owner FROM readings, rooms WHERE location = 'area1';");
    assert!(
        matches!(&err, PemsError::Eval(EvalError::Plan(PlanError::UnknownRelation(r))) if r == "readings"),
        "a one-shot statement knows no stream: {err:?}"
    );
    let err = refused("SELECT wing FROM readings, moves WINDOW 2 WHERE temperature > 20.0;");
    assert!(
        matches!(
            &err,
            PemsError::Plan(PlanError::StreamStatusMismatch {
                operator: "join",
                ..
            })
        ),
        "{err:?}"
    );
    let err = refused("SELECT owner FROM sensors WINDOW 2, rooms WHERE location = 'area1';");
    assert!(
        matches!(
            &err,
            PemsError::Plan(PlanError::StreamStatusMismatch {
                operator: "window",
                ..
            })
        ),
        "{err:?}"
    );

    // `FROM a, a` is `a`: the conjunct filters both copies, the rows are
    // the single-item statement's, in its order
    let twice = pems
        .run_sql(
            None,
            "SELECT owner, floor FROM rooms, rooms WHERE location = 'area3' AND floor >= 2;",
        )
        .unwrap();
    let once = pems
        .run_sql(
            None,
            "SELECT owner, floor FROM rooms WHERE location = 'area3' AND floor >= 2;",
        )
        .unwrap();
    let rows = rows_of(twice);
    assert_eq!(rows.len(), 2 * OWNERS);
    assert_eq!(rows, rows_of(once));
}
