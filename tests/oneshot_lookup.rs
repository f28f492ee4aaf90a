//! A one-shot `σ` on a table's text column looks its rows up in a lookup the
//! table's shared relation keeps current across writes (DESIGN § 4, *A
//! statement looks up the rows its equality selects*). Held here through
//! `Pems::run_sql`: every statement returns what the same plan returns over
//! a fresh copy of the environment, whose relations carry no lookup, and
//! what a cold runtime given the same writes returns. The row-for-row
//! comparison with the scan itself is a unit test of `core/src/physical.rs`.

mod common;

use common::Rng;
use serena::core::prelude::*;
use serena::ddl::resolve::to_one_shot;
use serena::ddl::sql::compile_select;
use serena::pems::{ExecOutcome, Pems};

const AREAS: usize = 6;

const SCHEMA: &str = "EXTENDED RELATION contacts (
       name STRING, address STRING, location STRING, messenger SERVICE );
     EXTENDED RELATION sensors ( sensor SERVICE, location STRING );
     EXTENDED RELATION rooms ( location STRING, floor INTEGER, owner STRING );";

fn contact(i: usize) -> String {
    format!(
        "('c{i:03}', 'c{i:03}@example.org', 'area{}', 'm{}')",
        i % AREAS,
        i % 4
    )
}

/// A statement of every shape the lookup could take or must refuse: a
/// leading text equality on either side of `=`, on a STRING or a SERVICE
/// column, one that matches nothing, one under `OR`, one not leftmost, a
/// join whose sides are each filtered, and `GROUP BY` over what a write
/// changed.
fn statement(rng: &mut Rng) -> String {
    let area = rng.below(AREAS + 1); // `area6` names no row
    match rng.below(9) {
        0 => format!("SELECT name, address FROM contacts WHERE location = 'area{area}';"),
        1 => format!("SELECT name FROM contacts WHERE 'area{area}' = location;"),
        2 => format!(
            "SELECT name FROM contacts WHERE messenger = 'm{}' AND location <> 'area{area}';",
            rng.below(5)
        ),
        3 => format!("SELECT address FROM contacts WHERE name = 'c{:03}';", rng.below(80)),
        4 => format!(
            "SELECT sensor FROM sensors WHERE location = 'area{area}' OR sensor = 's{:02}';",
            rng.below(40)
        ),
        5 => format!(
            "SELECT sensor, owner FROM sensors, rooms WHERE location = 'area{area}' AND floor = {};",
            rng.below(3)
        ),
        6 => format!("SELECT owner FROM rooms WHERE floor = 1 AND location = 'area{area}';"),
        7 => "SELECT location, count(name) AS n FROM contacts GROUP BY location;".into(),
        _ => "SELECT location, count(sensor) AS n FROM sensors GROUP BY location;".into(),
    }
}

/// A write to one of the three tables: a row in or out.
fn write(rng: &mut Rng) -> String {
    let verb = ["INSERT INTO", "DELETE FROM"][rng.below(2)];
    match rng.below(3) {
        0 => format!("{verb} contacts VALUES {};", contact(rng.below(80))),
        1 => {
            let i = rng.below(40);
            format!("{verb} sensors VALUES ('s{i:02}', 'area{}');", i % AREAS)
        }
        _ => {
            let (area, floor) = (rng.below(AREAS), rng.below(3));
            format!("{verb} rooms VALUES ('area{area}', {floor}, 'o{area}{floor}');")
        }
    }
}

/// The rows a one-shot statement returns, in order.
fn rows(pems: &mut Pems, sql: &str) -> Vec<Tuple> {
    match pems.run_sql(None, sql).unwrap() {
        ExecOutcome::OneShot(out) => out.relation.tuples().to_vec(),
        other => panic!("`{sql}` is one-shot, got {other:?}"),
    }
}

fn fleet() -> (Pems, String) {
    let contacts: Vec<String> = (0..40).map(contact).collect();
    let sensors: Vec<String> = (0..30)
        .map(|i| format!("('s{i:02}', 'area{}')", i % AREAS))
        .collect();
    let program = format!(
        "{SCHEMA}
         INSERT INTO contacts VALUES {};
         INSERT INTO sensors VALUES {};
         INSERT INTO rooms VALUES ('area0', 0, 'o00'), ('area1', 1, 'o11'), ('area2', 1, 'o21');",
        contacts.join(", "),
        sensors.join(", ")
    );
    let mut pems = Pems::default();
    pems.run_program(&program).unwrap();
    (pems, program)
}

/// Every statement, interleaved with writes, ticks and environments held
/// across a write, returns the rows — in order — that its plan returns over
/// a fresh copy of the tables: the lookups the writes patched answer what
/// lookups built from scratch answer.
#[test]
fn every_statement_reads_what_a_fresh_environment_reads() {
    let (mut pems, _) = fleet();
    let nobody = StaticRegistry::new();
    let mut rng = Rng::new(25);
    let mut held = None;
    let (mut statements, mut writes) = (0, 0);
    for step in 0..1_500 {
        match rng.below(10) {
            0..=2 => {
                pems.run_program(&write(&mut rng)).unwrap();
                writes += 1;
            }
            3 => {
                pems.tick();
            }
            4 => {
                // a statement's snapshot outliving the next write: the write
                // leaves the held relation (and its lookups) as they were
                held = match held.take() {
                    None => Some(pems.snapshot_environment()),
                    Some(_) => None,
                };
            }
            _ => {
                let sql = statement(&mut rng);
                let got = rows(&mut pems, &sql);
                let plan = to_one_shot(&compile_select(&sql, pems.tables()).unwrap()).unwrap();
                let mut fresh = Environment::new();
                for (name, rel) in pems.snapshot_environment().relations() {
                    fresh.define_relation(name, rel.clone()).unwrap();
                }
                let ctx = ExecContext::new(&fresh, &nobody, pems.clock());
                let want = ctx.execute(&plan).unwrap().relation;
                assert_eq!(got, want.tuples(), "step {step}: {sql}");
                statements += 1;
            }
        }
    }
    assert!(statements > 500 && writes > 300, "{statements} / {writes}");
}

/// Statements, a write, the statements again: the second answers are a cold
/// runtime's — one given the same program and asked nothing before, so its
/// lookups are built after the last write and never patched.
#[test]
fn statements_after_a_write_answer_like_a_cold_runtime() {
    let mut probes: Vec<String> = (0..AREAS)
        .flat_map(|k| {
            [
                format!("SELECT name FROM contacts WHERE location = 'area{k}';"),
                format!("SELECT sensor FROM sensors WHERE location = 'area{k}';"),
                format!("SELECT floor, owner FROM rooms WHERE location = 'area{k}';"),
            ]
        })
        .collect();
    probes.extend((0..4).map(|m| format!("SELECT name FROM contacts WHERE messenger = 'm{m}';")));
    let (mut pems, mut program) = fleet();
    let mut rng = Rng::new(26);
    for _ in 0..40 {
        let before: Vec<_> = probes.iter().map(|sql| rows(&mut pems, sql)).collect();
        let w = write(&mut rng);
        pems.run_program(&w).unwrap();
        program.push_str(&w);
        let mut cold = Pems::default();
        cold.run_program(&program).unwrap();
        let mut moved = 0;
        for (sql, before) in probes.iter().zip(&before) {
            let after = rows(&mut pems, sql);
            assert_eq!(after, rows(&mut cold, sql), "{sql} after {w}");
            moved += usize::from(after != *before);
        }
        // a write changes at most one row, so at most one text per column
        assert!(moved <= 2, "{w}");
    }
}
