//! Simulated pervasive devices (§5.2 substitutions).
//!
//! Every device is a **pure function of (configuration, logical instant,
//! input)** — the determinism-at-an-instant assumption of §3.2 made
//! literal. Side-effecting devices (messengers) additionally record their
//! effects in inspectable logs so tests and the scenario harnesses can
//! observe what the paper's authors observed on their phones and mail
//! clients.

pub mod camera;
pub mod messenger;
pub mod rss;
pub mod temperature;

pub use camera::SimCamera;
pub use messenger::{MessengerKind, SentMessage, SimMessenger};
pub use rss::{RssItem, SimRssFeed};
pub use temperature::{HeatEvent, SimTemperatureSensor};
