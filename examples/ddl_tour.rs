//! Driving the PEMS entirely through the textual front-ends: the Serena
//! DDL (Tables 1–2 of the paper) and the Serena Algebra Language (§5.1).
//!
//! ```sh
//! cargo run --example ddl_tour
//! ```

use serena::pems::{ExecOutcome, Pems};
use serena::services::bus::BusConfig;
use serena::services::devices::messenger::{MessengerKind, SimMessenger};

const PROGRAM: &str = "
    -- Table 1: prototypes and services
    PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
    PROTOTYPE getTemperature( ) : ( temperature REAL );
    SERVICE email IMPLEMENTS sendMessage;
    SERVICE jabber IMPLEMENTS sendMessage;

    -- Table 2: the contacts X-Relation
    EXTENDED RELATION contacts (
      name STRING,
      address STRING,
      text STRING VIRTUAL,
      messenger SERVICE,
      sent BOOLEAN VIRTUAL
    )
    USING BINDING PATTERNS (
      sendMessage[messenger] ( address, text ) : ( sent )
    );

    -- Example 4's tuples
    INSERT INTO contacts VALUES
      ('Nicolas', 'nicolas@elysee.fr', 'email'),
      ('Carla', 'carla@elysee.fr', 'email'),
      ('Francois', 'francois@im.gouv.fr', 'jabber');

    -- a stream declared in DDL, fed from outside
    EXTENDED RELATION temperatures ( location STRING, temperature REAL ) STREAM;

    -- a continuous query over it
    REGISTER QUERY hot AS SELECT[temperature > 35.5](WINDOW[1](temperatures));

    -- Q1, one-shot (Table 4)
    EXECUTE INVOKE[sendMessage[messenger]](
      ASSIGN[text := 'Bonjour!'](SELECT[name <> 'Carla'](contacts)));
";

fn main() {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    // bind the declared messenger services to simulated implementations
    for kind in [MessengerKind::Email, MessengerKind::Jabber] {
        let (svc, _outbox) = SimMessenger::new(kind).into_service();
        pems.directory().register(kind.label(), svc);
    }

    println!("executing the Serena DDL/algebra program…\n");
    let outcomes = pems.run_program(PROGRAM).expect("program is valid");
    for outcome in &outcomes {
        match outcome {
            ExecOutcome::Done => {}
            ExecOutcome::Registered(name) => println!("registered continuous query `{name}`"),
            ExecOutcome::OneShot(out) => {
                println!("one-shot result:\n{}", out.relation.to_table());
                println!("action set: {}", out.actions);
            }
        }
    }

    // URSA (§2.3.2): an attribute name denotes one type across the whole
    // environment, so a relation that disagrees is refused where it is
    // defined — `temperature` is REAL in getTemperature and `temperatures`
    let err = pems
        .run_program("EXTENDED RELATION thermostats ( room STRING, temperature INTEGER );")
        .expect_err("temperature is REAL everywhere else");
    println!("\ndefining `thermostats` with an INTEGER temperature:\n  error: {err}");

    // a two-table SELECT: each WHERE conjunct filters the FROM item that
    // binds it — `location` both tables, `floor` only `rooms` — before the
    // natural join pairs what is left
    pems.run_program(
        "EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         EXTENDED RELATION rooms ( location STRING, floor INTEGER );
         INSERT INTO sensors VALUES
           ('sensor01', 'corridor'), ('sensor06', 'office'), ('sensor07', 'office');
         INSERT INTO rooms VALUES ('office', 2), ('corridor', 1), ('roof', 9);
         REGISTER QUERY watch AS rooms;",
    )
    .expect("program is valid");
    let sql = "SELECT sensor, floor FROM sensors, rooms WHERE location = 'office' AND floor = 2";
    let lowered = serena::ddl::sql::compile_select(sql, pems.tables()).expect("statement lowers");
    println!("\n{sql}\n  lowers to {}", lowered.to_algebra());
    if let ExecOutcome::OneShot(out) = pems.run_sql(None, sql).expect("statement runs") {
        print!("{}", out.relation.to_table());
    }

    // mutations queued between two ticks net sequentially (§4's Istream
    // reading): deleting a present row and inserting it again leaves the
    // table as it was, so the next tick reports an empty delta — not a
    // deletion and an insertion that cancel
    pems.tick();
    pems.run_program(
        "DELETE FROM rooms VALUES ('roof', 9);
         INSERT INTO rooms VALUES ('roof', 9);",
    )
    .expect("program is valid");
    let reports = pems.tick();
    let watch = &reports
        .iter()
        .find(|(n, _)| n == "watch")
        .expect("registered")
        .1;
    println!(
        "\nDELETE ('roof', 9); INSERT ('roof', 9); of a present row → `watch` gained {}, lost {}",
        watch.delta.inserts.len(),
        watch.delta.deletes.len()
    );

    // feed the declared stream and watch the continuous query react
    println!("\nfeeding the `temperatures` stream…");
    use serena::core::tuple::Tuple;
    use serena::core::value::Value;
    for temp in [20.0, 36.5, 22.0, 40.0] {
        pems.tables()
            .push_stream(
                "temperatures",
                Tuple::new(vec![Value::str("office"), Value::Real(temp)]),
            )
            .then_some(())
            .expect("stream exists");
        let reports = pems.tick();
        let hot = &reports
            .iter()
            .find(|(n, _)| n == "hot")
            .expect("registered")
            .1;
        println!(
            "{}: pushed {temp:>5} °C → hot window gained {} tuple(s), lost {}",
            hot.at,
            hot.delta.inserts.len(),
            hot.delta.deletes.len()
        );
    }

    let stats = pems.processor().stats("hot").unwrap();
    println!(
        "\n`hot` stats: {} ticks, {} insertions, {} deletions",
        stats.ticks, stats.inserted, stats.deleted
    );
}
