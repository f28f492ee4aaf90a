//! Stream plumbing: the broadcast hub behind every infinite XD-Relation.
//!
//! An infinite XD-Relation is one time → multiset mapping (§4.1): every
//! query that reads it at an instant reads the same batch. Each
//! [`serena_stream::source::StreamSource`] is single-consumer, so the
//! Extended Table Manager keeps one [`StreamHub`] per stream and hands each
//! query leaf its own subscription. A hub is fed one way, by pushes: the
//! pushes of an instant become one [`Batch`], which every subscription
//! receives by `Arc`, kept only until the last live subscription has read
//! it. Who pushes is the stream's business — the application, or a derived
//! stream's plan ([`crate::pems::Pems::define_stream_as`]), which calls the
//! environment through the β stack and pushes its output before the
//! queries tick.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use serena_core::sync::Mutex;

use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_stream::source::{Batch, StreamSource};

/// A broadcast hub: every subscription sees every batch sealed after it
/// subscribed, and the subscriptions that poll at one instant receive the
/// same `Arc<Batch>`. Retention is bounded by the slowest live
/// subscription, not by the run's length.
#[derive(Clone, Default)]
pub struct StreamHub {
    state: Arc<Mutex<HubState>>,
}

#[derive(Default)]
struct HubState {
    /// Pushes not yet sealed into a batch, in push order.
    open: Vec<Tuple>,
    /// Sealed batches a live subscription has yet to read, oldest first,
    /// each with how many have yet to. A subscription reads in order, so the
    /// count never falls from one batch to the next: the front is the first
    /// to reach zero.
    sealed: VecDeque<(Arc<Batch>, usize)>,
    /// Sequence number of `sealed[0]`: the batches every live subscription
    /// has read, and that were dropped for it.
    base: u64,
    /// Per live subscription, the sequence number of the batch it reads
    /// next.
    cursors: HashMap<u64, u64>,
    next_subscription: u64,
}

impl HubState {
    /// Sequence number of the next batch to be sealed.
    fn end(&self) -> u64 {
        self.base + self.sealed.len() as u64
    }

    /// Close the open pushes into one batch: what was pushed up to here is
    /// delivered, whole, to exactly the subscriptions live now.
    fn seal(&mut self) {
        if !self.open.is_empty() {
            // the next instant's pushes find the room this one's needed
            let room = Vec::with_capacity(self.open.len());
            let batch = std::mem::replace(&mut self.open, room);
            let readers = self.cursors.len();
            self.sealed.push_back((Arc::new(batch.into()), readers));
        }
    }

    /// Position in `sealed` of the batch with sequence number `cursor`.
    fn position(&self, cursor: u64) -> usize {
        (cursor - self.base) as usize
    }

    /// The subscription that stood at `cursor` is past everything sealed —
    /// it read it, or it is gone: drop what no other waits for.
    fn pass(&mut self, cursor: u64) {
        for (_, readers) in self.sealed.range_mut(self.position(cursor)..) {
            *readers -= 1;
        }
        while self
            .sealed
            .front()
            .is_some_and(|(_, readers)| *readers == 0)
        {
            self.sealed.pop_front();
            self.base += 1;
        }
    }
}

impl StreamHub {
    /// Empty hub, fed by [`Self::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a tuple; every live subscription will deliver it on its next
    /// poll. With no subscription there is nobody to deliver it to, ever
    /// (history is not replayed), so nothing is kept.
    pub fn push(&self, t: Tuple) {
        let mut state = self.state.lock();
        if !state.cursors.is_empty() {
            state.open.push(t);
        }
    }

    /// Whether a live subscription reads the hub: a derived stream nobody
    /// reads is not ticked.
    pub(crate) fn is_read(&self) -> bool {
        !self.state.lock().cursors.is_empty()
    }

    /// Tuples retained: pushed, and not yet read by every live
    /// subscription.
    pub fn len(&self) -> usize {
        let state = self.state.lock();
        state.open.len() + state.sealed.iter().map(|(b, _)| b.len()).sum::<usize>()
    }

    /// True iff no tuple is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A new subscription starting after everything pushed so
    /// far (streams are append-only: history is not replayed).
    pub fn subscribe(&self) -> HubSubscription {
        let mut state = self.state.lock();
        state.seal();
        let id = state.next_subscription;
        state.next_subscription += 1;
        let end = state.end();
        state.cursors.insert(id, end);
        HubSubscription {
            state: Arc::clone(&self.state),
            id,
        }
    }
}

/// One subscriber of a [`StreamHub`]; its cursor lives in the hub, and
/// dropping the subscription releases it.
pub struct HubSubscription {
    state: Arc<Mutex<HubState>>,
    id: u64,
}

impl StreamSource for HubSubscription {
    /// What was pushed since the previous poll. The first poll at an
    /// instant seals the open pushes, so every subscription polling at that
    /// instant returns the same `Arc`; one that skipped polls gets the
    /// batches it missed concatenated, in order, as a batch of its own.
    fn poll(&mut self, _: Instant) -> Arc<Batch> {
        let mut state = self.state.lock();
        state.seal();
        let end = state.end();
        let cursor = state
            .cursors
            .insert(self.id, end)
            .expect("live subscription");
        let unread = state.sealed.range(state.position(cursor)..);
        let batch = match unread.len() {
            0 => Arc::default(),
            1 => Arc::clone(&state.sealed.back().expect("one unread batch").0),
            _ => {
                let tuples: Vec<Tuple> = unread.flat_map(|(b, _)| b.tuples()).cloned().collect();
                Arc::new(tuples.into())
            }
        };
        state.pass(cursor);
        batch
    }
}

impl Drop for HubSubscription {
    fn drop(&mut self) {
        let mut state = self.state.lock();
        if let Some(cursor) = state.cursors.remove(&self.id) {
            state.pass(cursor);
        }
        if state.cursors.is_empty() {
            state.open.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::tuple;

    #[test]
    fn hub_broadcasts_to_all_subscribers() {
        let hub = StreamHub::new();
        let mut a = hub.subscribe();
        hub.push(tuple![1]);
        let mut b = hub.subscribe(); // subscribes after push → misses it
        hub.push(tuple![2]);
        assert_eq!(hub.len(), 2);
        assert_eq!(a.poll(Instant(0)).tuples(), [tuple![1], tuple![2]]);
        assert_eq!(hub.len(), 1, "only b has yet to read [2]");
        assert_eq!(b.poll(Instant(0)).tuples(), [tuple![2]]);
        assert!(a.poll(Instant(1)).is_empty());
        assert_eq!(hub.len(), 0, "both polled: nothing is retained");
    }

    #[test]
    fn subscriptions_polled_at_one_instant_share_one_batch() {
        let hub = StreamHub::new();
        let (mut a, mut b) = (hub.subscribe(), hub.subscribe());
        for at in 0..3 {
            hub.push(tuple![at]);
            hub.push(tuple![at]);
            let (for_a, for_b) = (a.poll(Instant(at as u64)), b.poll(Instant(at as u64)));
            assert!(Arc::ptr_eq(&for_a, &for_b), "instant {at}");
            assert_eq!(for_a.tuples(), [tuple![at], tuple![at]]);
            assert!(hub.is_empty());
        }
        // a late subscription starts empty, then shares like the others
        let mut late = hub.subscribe();
        assert!(late.poll(Instant(3)).is_empty());
        hub.push(tuple![9]);
        let for_a = a.poll(Instant(3));
        assert!(Arc::ptr_eq(&for_a, &late.poll(Instant(4))));
        assert!(Arc::ptr_eq(&for_a, &b.poll(Instant(3))));
        assert!(hub.is_empty());
    }

    #[test]
    fn a_hub_is_read_while_a_subscription_lives() {
        let hub = StreamHub::new();
        assert!(!hub.is_read());
        let (a, b) = (hub.subscribe(), hub.subscribe());
        assert!(hub.is_read());
        drop(a);
        assert!(hub.is_read());
        drop(b);
        assert!(!hub.is_read());
    }

    #[test]
    fn retention_follows_the_slowest_live_subscription() {
        let hub = StreamHub::new();
        // nobody subscribes: nothing to deliver, nothing kept
        hub.push(tuple![0]);
        assert!(hub.is_empty());
        let (mut fast, mut slow) = (hub.subscribe(), hub.subscribe());
        for at in 1..=3 {
            hub.push(tuple![at]);
            hub.push(tuple![-at]);
            assert_eq!(fast.poll(Instant(at as u64)).len(), 2);
            assert_eq!(hub.len(), 2 * at as usize, "slow has read none of them");
        }
        // the skipped batches arrive concatenated, in push order
        let missed = slow.poll(Instant(3));
        let pushed = (1..=3).flat_map(|at| [tuple![at], tuple![-at]]);
        assert_eq!(missed.tuples(), pushed.collect::<Vec<_>>());
        assert!(hub.is_empty());
        // a dropped subscription releases what only it had yet to read
        hub.push(tuple![4]);
        fast.poll(Instant(4));
        assert_eq!(hub.len(), 1);
        drop(slow);
        assert!(hub.is_empty());
        // and the last one to go takes the open pushes with it
        hub.push(tuple![5]);
        drop(fast);
        assert!(hub.is_empty());
        hub.push(tuple![6]);
        assert!(hub.subscribe().poll(Instant(5)).is_empty());
    }

    /// Sharing changes nothing a query can see: N queries over one hub
    /// report what each reports over a private `PushStream` fed the same
    /// tuples — one registered late, one that skips an instant's poll.
    #[test]
    fn queries_over_one_hub_report_what_they_report_over_private_streams() {
        use serena_core::formula::Formula;
        use serena_core::metrics::NoopMetrics;
        use serena_core::ops::{AggFun, AggSpec};
        use serena_core::schema::XSchema;
        use serena_core::value::DataType;
        use serena_stream::source::PushStream;
        use serena_stream::{ContinuousQuery, SourceSet, StreamKind, StreamPlan};

        let schema = XSchema::builder()
            .real("x", DataType::Int)
            .real("y", DataType::Int)
            .build()
            .unwrap();
        let window = |p| StreamPlan::source("s").window(p);
        let plans = [
            window(4).select(Formula::gt_const("y", 0)),
            window(3).project(["x"]),
            window(2).aggregate(["x"], vec![AggSpec::new(AggFun::Count, "y")]),
            window(1).union(window(3)),
            window(2).stream(StreamKind::Heartbeat),
            window(4),
        ];
        let hub = StreamHub::new();
        let registry = serena_core::service::fixtures::example_registry();
        // (shared, private twin, the twin's streams — one per leaf: a
        // `PushStream` has one consumer), the last plan joining late
        let mut queries = Vec::new();
        let join = |plan: &StreamPlan, at: u64| {
            let private = [PushStream::new(), PushStream::new()];
            let (mut over_hub, mut over_private) = (SourceSet::new(), SourceSet::new());
            for leaf in &private {
                over_hub.add_stream("s", schema.clone(), Box::new(hub.subscribe()));
                over_private.add_stream("s", schema.clone(), Box::new(leaf.clone()));
            }
            let mut pair = [over_hub, over_private]
                .map(|mut sources| ContinuousQuery::compile(plan, &mut sources).unwrap());
            pair.iter_mut().for_each(|q| q.seek(Instant(at)));
            let [shared, twin] = pair;
            (shared, twin, private)
        };
        for plan in &plans[..5] {
            queries.push(join(plan, 0));
        }
        let mut skipped: Vec<Tuple> = Vec::new();
        for at in 0..40u64 {
            if at == 7 {
                queries.push(join(&plans[5], at));
            }
            // a repeated tuple, a duplicate inside the batch, an idle instant
            let x = (at % 5) as i64;
            let pushed = match at % 4 {
                3 => vec![],
                _ => vec![tuple![x, 1], tuple![x, 1], tuple![x + 1, 0], tuple![0, 2]],
            };
            for t in &pushed {
                hub.push(t.clone());
            }
            for (i, (shared, twin, private)) in queries.iter_mut().enumerate() {
                // query 1 sits instant 20 out: it reads two batches at 21
                if i == 1 && at == 20 {
                    skipped = pushed.clone();
                    continue;
                }
                let missed = if i == 1 {
                    std::mem::take(&mut skipped)
                } else {
                    vec![]
                };
                for t in missed.iter().chain(&pushed) {
                    private.iter().for_each(|leaf| leaf.push(t.clone()));
                }
                if i == 1 && at == 21 {
                    shared.seek(Instant(at));
                    twin.seek(Instant(at));
                }
                let over_hub = shared.tick_with(&registry, &NoopMetrics);
                let over_private = twin.tick_with(&registry, &NoopMetrics);
                assert_eq!(over_hub.at, Instant(at));
                assert_eq!(over_hub.delta, over_private.delta, "query {i} at {at}");
                assert_eq!(over_hub.batch, over_private.batch, "query {i} at {at}");
                assert_eq!(shared.current_relation(), twin.current_relation());
            }
            assert!(hub.len() <= pushed.len(), "instant {at}: {}", hub.len());
        }
    }
}
