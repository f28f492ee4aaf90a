//! The paper's two experimental scenarios, packaged as reusable
//! deployments (§5.2) — the code behind the `fig1_surveillance` and
//! `rss_scenario` harnesses, the examples and the scalability benchmarks.
//!
//! **Temperature surveillance**: sensors, cameras and messengers deployed
//! behind Local ERMs; four XD-Relations (`cameras`, `contacts`,
//! `surveillance`, and the `temperatures` stream); a continuous alert query
//! joining them so that heating a sensor over the threshold sends messages
//! to the area's manager; plus a photo query in the spirit of `Q4`. The
//! fleet's catalog ([`EnvSpec::install_catalog`]) also defines the
//! discovery-maintained `sensors` table, which no scenario query reads.
//!
//! **RSS feeds**: wrapper services stream seeded news items; a windowed
//! continuous query keeps the recent items containing a tracked keyword.

use std::collections::BTreeMap;
use std::sync::Arc;

use serena_core::sync::Mutex;

use serena_core::formula::Formula;
use serena_core::schema::XSchema;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, Value};
use serena_services::bus::BusConfig;
use serena_services::devices::messenger::{MessengerKind, SentMessage};
use serena_services::devices::rss::SimRssFeed;
use serena_stream::plan::{StreamKind, StreamPlan};
use serena_stream::source::StreamSource;

use crate::envspec::EnvSpec;
use crate::hub::RssStream;
use crate::pems::{Pems, PemsError};

/// Configuration of the temperature-surveillance deployment.
#[derive(Debug, Clone)]
pub struct SurveillanceConfig {
    /// Number of temperature sensors (round-robin over the areas).
    pub sensors: usize,
    /// Number of cameras (round-robin over the areas).
    pub cameras: usize,
    /// Contacts (each manages one area, round-robin).
    pub contacts: usize,
    /// Areas in the building.
    pub areas: Vec<String>,
    /// Alert threshold in °C.
    pub threshold: f64,
    /// Scripted heat events: (sensor index, from, to, peak °C).
    pub heat_events: Vec<(usize, Instant, Instant, f64)>,
    /// Discovery-network latency model.
    pub bus: BusConfig,
    /// Use the *full* §5.2 scenario: contacts carry a virtual `photo`
    /// attribute and alerts deliver the triggering camera shot via
    /// `sendPhotoMessage` (one combined query over all four XD-Relations).
    pub photo_alerts: bool,
}

impl Default for SurveillanceConfig {
    fn default() -> Self {
        SurveillanceConfig {
            sensors: 4,
            cameras: 3,
            contacts: 3,
            areas: vec!["corridor".into(), "office".into(), "roof".into()],
            threshold: 28.0,
            heat_events: Vec::new(),
            bus: BusConfig::instant(),
            photo_alerts: false,
        }
    }
}

/// A deployed surveillance scenario.
pub struct Surveillance {
    /// The PEMS instance (tick it to run the scenario).
    pub pems: Pems,
    /// Outboxes of the deployed messengers, keyed by service reference.
    pub outboxes: BTreeMap<String, Arc<Mutex<Vec<SentMessage>>>>,
    /// Area assignment of each sensor, in deployment order.
    pub sensor_areas: Vec<(String, String)>,
}

/// The surveillance alert query:
/// `β_sendMessage(α_text(ρ_manager→name(surveillance) ⋈ σ_temp>θ(W[1](temperatures)) ⋈ contacts))`.
pub fn alert_query(threshold: f64) -> StreamPlan {
    StreamPlan::source("temperatures")
        .window(1)
        .select(Formula::gt_const("temperature", threshold))
        .join(StreamPlan::source("surveillance").rename("manager", "name"))
        .project(["location", "name"])
        .join(StreamPlan::source("contacts"))
        .assign_const("text", "Temperature alert!")
        .invoke("sendMessage", "messenger")
}

/// The photo-enriched contacts schema of the *full* §5.2 scenario:
/// `contacts` "with an additional attribute allowing to send a picture
/// with a message". `photo` is **virtual** — it gets realized implicitly
/// by the natural join with the camera subquery's real `photo` attribute.
pub fn photo_contacts_schema() -> serena_core::schema::SchemaRef {
    XSchema::builder()
        .real("name", DataType::Str)
        .real("address", DataType::Str)
        .virt("text", DataType::Str)
        .virt("photo", DataType::Blob)
        .real("messenger", DataType::Service)
        .virt("sent", DataType::Bool)
        .bind(
            serena_services::devices::messenger::send_photo_message_prototype(),
            "messenger",
        )
        .build()
        .expect("photo contacts schema is valid")
}

/// The **combined** continuous query of §5.2: "the continuous query
/// combining these four XD-Relations" — hot reading → photo of the area →
/// photo message to the area's manager. The camera subquery's real `photo`
/// attribute realizes the contacts' virtual `photo` through the natural
/// join (Table 3(d)'s implicit realization, load-bearing here).
pub fn full_alert_query(threshold: f64) -> StreamPlan {
    let shots = StreamPlan::source("temperatures")
        .window(1)
        .select(Formula::gt_const("temperature", threshold))
        .rename("location", "area")
        .project(["area"])
        .join(StreamPlan::source("cameras"))
        .invoke("checkPhoto", "camera")
        .invoke("takePhoto", "camera")
        .project(["area", "photo"]);
    let managers = StreamPlan::source("surveillance")
        .rename("manager", "name")
        .rename("location", "area");
    shots
        .join(managers)
        .project(["area", "name", "photo"])
        .join(StreamPlan::source("contacts"))
        .assign_const("text", "Temperature alert — photo attached")
        .invoke("sendPhotoMessage", "messenger")
}

/// The photo query (Q4-flavoured): photograph areas whose temperature
/// exceeds the threshold.
pub fn photo_query(threshold: f64) -> StreamPlan {
    StreamPlan::source("temperatures")
        .window(1)
        .select(Formula::gt_const("temperature", threshold))
        .rename("location", "area")
        .project(["area"])
        .join(StreamPlan::source("cameras"))
        .invoke("checkPhoto", "camera")
        .invoke("takePhoto", "camera")
        .project(["area", "photo"])
        .stream(StreamKind::Insertion)
}

/// Deploy the temperature-surveillance scenario.
///
/// Devices and their catalog are described and registered through the one
/// public fleet path, [`EnvSpec`]; the scenario owns only photo messaging,
/// the contact/surveillance tables and data, and the queries.
pub fn deploy_surveillance(config: &SurveillanceConfig) -> Result<Surveillance, PemsError> {
    let mut pems = Pems::builder().bus(config.bus).build();
    // Seed 1 keeps the historical per-device seeds (sensor/camera i → i+1).
    let spec = EnvSpec::new(1)
        .sensors(config.sensors)
        .cameras(config.cameras)
        .areas(config.areas.clone())
        .heat_events(config.heat_events.clone());

    // --- the fleet's catalog (Table 1's prototypes, `sensors`, `cameras`
    // and the `temperatures` sampler), then what is the scenario's own:
    // photo messaging, `contacts` and `surveillance` ---
    spec.install_catalog(&mut pems)?;
    let contacts_schema = if config.photo_alerts {
        pems.tables_mut().declare_prototype(
            serena_services::devices::messenger::send_photo_message_prototype(),
        )?;
        photo_contacts_schema()
    } else {
        serena_core::schema::examples::contacts_schema()
    };
    pems.tables_mut()
        .define_table("contacts", contacts_schema)?;
    let surveillance_schema = XSchema::builder()
        .real("location", DataType::Str)
        .real("manager", DataType::Str)
        .build()?;
    pems.tables_mut()
        .define_table("surveillance", surveillance_schema)?;

    // --- devices behind a Local ERM: the EnvSpec fleet path ---
    let fleet = spec.deploy_into(&pems);

    // contacts + surveillance assignments (data, not devices)
    for i in 0..config.contacts {
        let name = format!("contact{i}");
        let kind = spec.messenger_kind(i);
        let address = match kind {
            MessengerKind::Sms => format!("+336000000{i:02}"),
            _ => format!("{name}@example.org"),
        };
        pems.tables_mut().insert(
            "contacts",
            Tuple::new(vec![
                Value::str(&name),
                Value::str(&address),
                Value::service(kind.label()),
            ]),
        )?;
        pems.tables_mut().insert(
            "surveillance",
            Tuple::new(vec![Value::str(spec.area_of(i)), Value::str(&name)]),
        )?;
    }

    // --- the continuous queries ---
    if config.photo_alerts {
        pems.register_query("alerts", &full_alert_query(config.threshold))?;
    } else {
        pems.register_query("alerts", &alert_query(config.threshold))?;
    }
    pems.register_query("photos", &photo_query(config.threshold))?;

    Ok(Surveillance {
        pems,
        outboxes: fleet.outboxes,
        sensor_areas: fleet.sensors,
    })
}

/// Total messages across all outboxes of a deployment.
pub fn total_messages(outboxes: &BTreeMap<String, Arc<Mutex<Vec<SentMessage>>>>) -> usize {
    outboxes.values().map(|o| o.lock().len()).sum()
}

/// Configuration of the RSS scenario.
#[derive(Debug, Clone)]
pub struct RssConfig {
    /// `(feed name, seed, publish %, keyword %)` per feed; defaults mirror
    /// the paper's three sources.
    pub feeds: Vec<(String, u64, u64, u64)>,
    /// Window length in ticks (the paper used one hour).
    pub window: u64,
}

impl Default for RssConfig {
    fn default() -> Self {
        RssConfig {
            feeds: vec![
                ("lemonde".into(), 17, 60, 25),
                ("lefigaro".into(), 29, 50, 25),
                ("cnn_europe".into(), 41, 70, 35),
            ],
            window: 60,
        }
    }
}

/// The RSS keyword query: recent items whose title contains `keyword`.
pub fn rss_keyword_query(keyword: &str, window: u64) -> StreamPlan {
    StreamPlan::source("news")
        .window(window)
        .select(Formula::contains_const("title", keyword))
}

/// Deploy the RSS scenario: a `news` stream over the configured feeds.
pub fn deploy_rss(config: &RssConfig) -> Result<Pems, PemsError> {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    let news_schema = XSchema::builder()
        .real("source", DataType::Str)
        .real("title", DataType::Str)
        .build()?;
    let feeds = config.feeds.clone();
    pems.tables_mut()
        .define_stream_with("news", news_schema, move || {
            Box::new(RssStream::new(
                feeds
                    .iter()
                    .map(|(n, s, p, k)| SimRssFeed::new(n.clone(), *s, *p, *k))
                    .collect(),
            )) as Box<dyn StreamSource>
        })?;
    pems.register_query(
        "keyword_watch",
        &rss_keyword_query(SimRssFeed::tracked_keyword(), config.window),
    )?;
    Ok(pems)
}

/// Expected keyword matches for a feed configuration over an instant range
/// — the oracle the scenario tests compare the continuous query against.
pub fn rss_expected_matches(
    config: &RssConfig,
    keyword: &str,
    from: Instant,
    to: Instant,
) -> usize {
    config
        .feeds
        .iter()
        .map(|(n, s, p, k)| {
            SimRssFeed::new(n.clone(), *s, *p, *k)
                .items_between(from, to)
                .iter()
                .filter(|i| i.title.contains(keyword))
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_services::devices::temperature::SimTemperatureSensor;

    #[test]
    fn surveillance_deploys_and_idles_quietly() {
        let mut s = deploy_surveillance(&SurveillanceConfig::default()).unwrap();
        for _ in 0..5 {
            let reports = s.pems.tick();
            for (name, r) in &reports {
                assert!(
                    r.actions.is_empty(),
                    "{name} acted during idle: {:?}",
                    r.actions
                );
            }
        }
        assert_eq!(total_messages(&s.outboxes), 0);
    }

    #[test]
    fn heat_event_triggers_alert_to_area_manager() {
        let config = SurveillanceConfig {
            // sensor 1 is in "office" (areas round-robin); two hot readings
            // with *distinct* values — consecutive identical readings
            // collapse in the window delta (multiset semantics) and in the
            // action set (Definition 8 is a set), so distinct peaks are the
            // repeatable way to trigger two alerts.
            heat_events: vec![
                (1, Instant(3), Instant(3), 45.0),
                (1, Instant(5), Instant(5), 46.0),
            ],
            ..SurveillanceConfig::default()
        };
        let mut s = deploy_surveillance(&config).unwrap();
        let mut alert_ticks = Vec::new();
        for t in 0..8 {
            let reports = s.pems.tick();
            let alerts = reports
                .iter()
                .find(|(n, _)| n == "alerts")
                .map(|(_, r)| r.actions.len())
                .unwrap_or(0);
            if alerts > 0 {
                alert_ticks.push((t, alerts));
            }
        }
        // each distinct hot reading alerts the office manager once
        assert_eq!(alert_ticks.iter().map(|(_, n)| n).sum::<usize>(), 2);
        let delivered = total_messages(&s.outboxes);
        assert_eq!(delivered, 2);
        // the recipient manages the office (contact1 → jabber)
        let jabber = s.outboxes.get("jabber").unwrap().lock();
        assert_eq!(jabber.len(), 2);
        assert!(jabber[0].address.contains("contact1"));
    }

    #[test]
    fn photos_stream_fires_with_alerts() {
        let config = SurveillanceConfig {
            heat_events: vec![(1, Instant(2), Instant(2), 45.0)],
            ..SurveillanceConfig::default()
        };
        let mut s = deploy_surveillance(&config).unwrap();
        let mut photos = 0;
        for _ in 0..6 {
            let reports = s.pems.tick();
            photos += reports
                .iter()
                .find(|(n, _)| n == "photos")
                .map(|(_, r)| r.batch.len())
                .unwrap_or(0);
        }
        // camera01 covers "office" (area round-robin index 1)
        assert_eq!(photos, 1);
    }

    #[test]
    fn late_sensor_joins_running_query() {
        // start with no heat; add a hot sensor mid-run via the LERM
        let mut s = deploy_surveillance(&SurveillanceConfig::default()).unwrap();
        s.pems.run_ticks(3);
        let lerm = s.pems.local_erm("annex");
        let hot = SimTemperatureSensor::new(99, 50.0, 0.0); // always hot
        lerm.register_service("sensor99", hot.into_service(), s.pems.clock());
        s.pems
            .directory()
            .set("sensor99", "location", Value::str("office"));
        let mut alerts = 0;
        for _ in 0..3 {
            let reports = s.pems.tick();
            alerts += reports
                .iter()
                .find(|(n, _)| n == "alerts")
                .map(|(_, r)| r.actions.len())
                .unwrap_or(0);
        }
        assert!(alerts > 0, "hot late-joining sensor must raise alerts");
    }

    #[test]
    fn full_scenario_sends_photo_messages() {
        // the combined four-XD-Relation query: hot reading → camera shot →
        // photo message to the area's manager
        let config = SurveillanceConfig {
            photo_alerts: true,
            heat_events: vec![(1, Instant(3), Instant(3), 45.0)], // office
            ..SurveillanceConfig::default()
        };
        let mut s = deploy_surveillance(&config).unwrap();
        let mut actions = 0;
        for _ in 0..6 {
            let reports = s.pems.tick();
            actions += reports
                .iter()
                .find(|(n, _)| n == "alerts")
                .map(|(_, r)| r.actions.len())
                .unwrap_or(0);
        }
        // office is covered by camera01 — one shot, one manager, one message
        assert_eq!(actions, 1);
        let delivered: Vec<_> = s.outboxes.values().flat_map(|o| o.lock().clone()).collect();
        assert_eq!(delivered.len(), 1);
        assert!(
            delivered[0].attachment_bytes > 0,
            "the photo must be attached"
        );
        assert!(delivered[0].address.contains("contact1"));
    }

    #[test]
    fn full_alert_query_schema_uses_implicit_realization() {
        // static check: photo virtual in contacts, real after the join
        let mut cat = std::collections::BTreeMap::new();
        cat.insert(
            "temperatures".to_string(),
            serena_stream::plan::StreamSchema::infinite(
                XSchema::builder()
                    .real("location", DataType::Str)
                    .real("temperature", DataType::Real)
                    .build()
                    .unwrap(),
            ),
        );
        cat.insert(
            "cameras".to_string(),
            serena_stream::plan::StreamSchema::finite(
                serena_core::schema::examples::cameras_schema(),
            ),
        );
        cat.insert(
            "surveillance".to_string(),
            serena_stream::plan::StreamSchema::finite(
                XSchema::builder()
                    .real("location", DataType::Str)
                    .real("manager", DataType::Str)
                    .build()
                    .unwrap(),
            ),
        );
        cat.insert(
            "contacts".to_string(),
            serena_stream::plan::StreamSchema::finite(photo_contacts_schema()),
        );
        let schema = full_alert_query(28.0).stream_schema(&cat).unwrap();
        assert!(!schema.infinite);
        assert!(
            schema.schema.is_real("photo"),
            "join realized the virtual photo"
        );
        assert!(
            schema.schema.is_real("sent"),
            "β realized the sending result"
        );
    }

    #[test]
    fn rss_scenario_matches_oracle() {
        let config = RssConfig {
            window: 5,
            ..RssConfig::default()
        };
        let mut pems = deploy_rss(&config).unwrap();
        let mut inserted = 0;
        let ticks = 20u64;
        for _ in 0..ticks {
            let reports = pems.tick();
            inserted += reports[0].1.delta.inserts.len();
        }
        let expected = rss_expected_matches(
            &config,
            SimRssFeed::tracked_keyword(),
            Instant(0),
            Instant(ticks - 1),
        );
        assert_eq!(inserted, expected);
        assert!(inserted > 0, "the seeded feeds should mention the keyword");
    }

    #[test]
    fn rss_window_expires_old_news() {
        let config = RssConfig {
            window: 2,
            ..RssConfig::default()
        };
        let mut pems = deploy_rss(&config).unwrap();
        let mut deleted = 0;
        for _ in 0..15 {
            let reports = pems.tick();
            deleted += reports[0].1.delta.deletes.len();
        }
        assert!(deleted > 0, "expired items must be retracted");
        // current window is bounded by what the last 2 instants produced
        let rel = pems.processor().current_relation("keyword_watch").unwrap();
        let bound = rss_expected_matches(
            &config,
            SimRssFeed::tracked_keyword(),
            Instant(13),
            Instant(14),
        );
        assert!(rel.len() <= bound.max(1) * 2);
    }
}
