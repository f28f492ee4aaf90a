//! Observability tour: `EXPLAIN ANALYZE` over a one-shot query, per-query
//! statistics over continuous ticks, and the runtime's per-operator series
//! in its metrics registry.
//!
//! ```sh
//! cargo run --example explain_analyze
//! ```

use serena::core::metrics::OpKind;
use serena::prelude::*;
use serena::services::bus::BusConfig;

fn main() {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();

    let (svc, _outbox) = serena::services::devices::messenger::SimMessenger::new(
        serena::services::devices::messenger::MessengerKind::Email,
    )
    .into_service();
    pems.directory().register("email", svc);

    pems.run_program(
        "
        PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
        SERVICE email IMPLEMENTS sendMessage;
        EXTENDED RELATION contacts (
          name STRING, address STRING, text STRING VIRTUAL,
          messenger SERVICE, sent BOOLEAN VIRTUAL
        ) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
        INSERT INTO contacts VALUES
          ('Nicolas', 'nicolas@elysee.fr', 'email'),
          ('Carla', 'carla@elysee.fr', 'email'),
          ('Fabien', 'fabien@inria.fr', 'email');
    ",
    )
    .expect("setup");

    // Q1 (Table 4): message every contact except Carla.
    let q1 = Plan::relation("contacts")
        .select(Formula::ne_const("name", "Carla"))
        .assign_const("text", "Bonjour!")
        .invoke("sendMessage", "messenger");

    println!("== EXPLAIN ANALYZE (one-shot) ==\n");
    let ea = pems.explain_analyze(&q1).expect("Q1 evaluates");
    println!("{ea}");
    println!(
        "\nresult: {} tuples, {} actions, {} live invocations\n",
        ea.outcome.relation.len(),
        ea.outcome.actions.len(),
        ea.stats.total_invocations()
    );

    // The same plan registered continuously: per-tick β-cache behaviour.
    pems.run_program(
        "REGISTER QUERY greet AS
           INVOKE[sendMessage[messenger]](
             ASSIGN[text := 'Bonjour!'](SELECT[name != 'Carla'](contacts)));",
    )
    .expect("register");

    println!("== Continuous ticks (β invokes only newly inserted tuples) ==\n");
    for _ in 0..2 {
        pems.tick();
    }
    pems.run_program("INSERT INTO contacts VALUES ('Marie', 'marie@ens.fr', 'email');")
        .expect("insert");
    pems.tick();

    let stats = pems.processor().stats("greet").expect("registered").clone();
    println!(
        "greet: ticks={} inserted={} invocations={} cache_hits={} cache_misses={}",
        stats.ticks, stats.inserted, stats.invocations, stats.cache_hits, stats.cache_misses
    );

    // Every one-shot evaluation and every tick of every continuous query
    // reports its per-operator observations to the registry, labelled by
    // operator kind.
    let registry = pems.metrics_registry();
    let total = |series: &str| -> u64 {
        OpKind::ALL
            .iter()
            .filter_map(|op| registry.counter_value(series, &[("op", &op.to_string())]))
            .sum()
    };
    println!(
        "\nregistry: serena_op_applications_total={} serena_beta_invocations_total={}",
        total("serena_op_applications_total"),
        total("serena_beta_invocations_total")
    );
}
