//! Simulated RSS feeds (stand-ins for the paper's "Le Monde", "Le Figaro"
//! and "CNN Europe" feeds, §5.2 scenario 2).
//!
//! "A wrapper service transforms RSS feeds into real streams so that a
//! tuple is inserted in the stream when a new item appears." The simulation
//! generates a deterministic item schedule from a seeded headline grammar:
//! at some instants a feed publishes 0 items, at others 1–2, and a
//! configurable fraction of headlines contains a tracked keyword (the
//! paper's example keyword is "Obama"). [`SimRssFeed::into_service`]
//! exposes the feed as a pull-based `fetchNews` service, which the PEMS's
//! derived `news` stream samples each tick.

use std::sync::Arc;

use serena_core::prototype::Prototype;
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, Value};

use crate::fleet::mix64;

/// One published feed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RssItem {
    /// Feed name (e.g. `lemonde`).
    pub source: String,
    /// Headline text.
    pub title: String,
    /// Publication instant.
    pub published: Instant,
}

/// The pull prototype exposed by the wrapper service:
/// `fetchNews() : (source STRING, title STRING)` — passive.
pub fn fetch_news_prototype() -> Arc<Prototype> {
    Prototype::declare(
        "fetchNews",
        &[],
        &[("source", DataType::Str), ("title", DataType::Str)],
        false,
    )
    .expect("valid prototype")
}

const SUBJECTS: &[&str] = &[
    "Obama",
    "the Senate",
    "the EU",
    "Lyon",
    "the markets",
    "researchers",
    "the ministry",
    "voters",
    "NASA",
    "the summit",
];
const VERBS: &[&str] = &[
    "announces",
    "debates",
    "rejects",
    "celebrates",
    "postpones",
    "reviews",
    "approves",
    "questions",
];
const OBJECTS: &[&str] = &[
    "a new treaty",
    "the budget",
    "climate measures",
    "the election results",
    "a space mission",
    "energy prices",
    "the reform",
    "a trade accord",
];

/// A deterministic simulated RSS feed.
#[derive(Debug, Clone)]
pub struct SimRssFeed {
    name: String,
    seed: u64,
    /// Probability (percent) that an instant publishes at least one item.
    publish_pct: u64,
    /// Probability (percent) that a published headline leads with the
    /// tracked keyword slot (`SUBJECTS[0]`, "Obama").
    keyword_pct: u64,
}

impl SimRssFeed {
    /// A feed named `name`, publishing on roughly `publish_pct`% of
    /// instants, with `keyword_pct`% of headlines about `SUBJECTS[0]`.
    pub fn new(name: impl Into<String>, seed: u64, publish_pct: u64, keyword_pct: u64) -> Self {
        SimRssFeed {
            name: name.into(),
            seed,
            publish_pct: publish_pct.min(100),
            keyword_pct: keyword_pct.min(100),
        }
    }

    /// Feed name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tracked keyword the generator occasionally leads headlines with.
    pub fn tracked_keyword() -> &'static str {
        SUBJECTS[0]
    }

    fn headline(&self, at: Instant, slot: u64) -> String {
        let pick = |bank: &'static [&'static str], salt: u64| -> &'static str {
            bank[(mix64(self.seed, at.ticks(), salt.wrapping_add(slot * 97)) % bank.len() as u64)
                as usize]
        };
        let subject = if mix64(self.seed, at.ticks(), 7 + slot) % 100 < self.keyword_pct {
            SUBJECTS[0]
        } else {
            pick(SUBJECTS, 11)
        };
        format!("{subject} {} {}", pick(VERBS, 13), pick(OBJECTS, 17))
    }

    /// The items published at exactly instant `at` (0, 1 or 2).
    fn items_at(&self, at: Instant) -> Vec<RssItem> {
        let roll = mix64(self.seed, at.ticks(), 3) % 100;
        if roll >= self.publish_pct {
            return Vec::new();
        }
        let count = 1 + (mix64(self.seed, at.ticks(), 5) % 2);
        (0..count)
            .map(|slot| RssItem {
                source: self.name.clone(),
                title: self.headline(at, slot),
                published: at,
            })
            .collect()
    }

    /// All items published in the inclusive instant range.
    pub fn items_between(&self, from: Instant, to: Instant) -> Vec<RssItem> {
        (from.ticks()..=to.ticks())
            .flat_map(|t| self.items_at(Instant(t)))
            .collect()
    }

    /// Wrap into a pull-based [`Service`] serving `fetchNews` (returns the
    /// items of the *current* instant).
    pub fn into_service(self) -> Arc<dyn Service> {
        Arc::new(self)
    }
}

impl Service for SimRssFeed {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        vec![fetch_news_prototype()]
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        _input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        if prototype.name() != "fetchNews" {
            return Err(format!(
                "RSS feed {} cannot serve {}",
                self.name,
                prototype.name()
            ));
        }
        Ok(self
            .items_at(at)
            .into_iter()
            .map(|item| Tuple::new(vec![Value::str(&item.source), Value::str(&item.title)]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed() -> SimRssFeed {
        SimRssFeed::new("lemonde", 17, 60, 30)
    }

    #[test]
    fn schedule_is_deterministic() {
        assert_eq!(feed().items_at(Instant(9)), feed().items_at(Instant(9)));
    }

    #[test]
    fn publishes_intermittently() {
        let f = feed();
        let counts: Vec<usize> = (0..50).map(|t| f.items_at(Instant(t)).len()).collect();
        assert!(counts.contains(&0), "some quiet instants expected");
        assert!(counts.iter().any(|&c| c > 0), "some busy instants expected");
        assert!(counts.iter().all(|&c| c <= 2));
    }

    #[test]
    fn keyword_appears_with_configured_frequency() {
        let f = SimRssFeed::new("cnn", 23, 100, 50);
        let items = f.items_between(Instant(0), Instant(99));
        let with_kw = items
            .iter()
            .filter(|i| i.title.contains(SimRssFeed::tracked_keyword()))
            .count();
        // 50% of headlines lead with the keyword; SUBJECTS picks add a few
        // more. Loose band: 25–90%.
        let pct = with_kw * 100 / items.len();
        assert!((25..=90).contains(&pct), "keyword rate {pct}% out of band");
    }

    #[test]
    fn zero_publish_pct_is_silent() {
        let f = SimRssFeed::new("dead", 1, 0, 50);
        assert!(f.items_between(Instant(0), Instant(30)).is_empty());
    }

    #[test]
    fn service_wrapper_emits_current_items() {
        let f = feed();
        // find a busy instant
        let busy = (0..50)
            .map(Instant)
            .find(|t| !f.items_at(*t).is_empty())
            .expect("a busy instant exists");
        let svc = f.clone().into_service();
        let out = svc
            .invoke(&fetch_news_prototype(), &Tuple::empty(), busy)
            .unwrap();
        assert_eq!(out.len(), f.items_at(busy).len());
        assert_eq!(out[0][0], Value::str("lemonde"));
    }

    #[test]
    fn items_between_concatenates() {
        let f = feed();
        let all = f.items_between(Instant(0), Instant(9));
        let sum: usize = (0..10).map(|t| f.items_at(Instant(t)).len()).sum();
        assert_eq!(all.len(), sum);
    }
}
