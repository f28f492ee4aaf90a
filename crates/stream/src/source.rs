//! XD-Relation sources: dynamic tables and streams.
//!
//! §4.1: relations and data streams are both XD-Relations; finite ones are
//! updatable tables (the Extended Table Manager's insert/delete of tuples,
//! §5.1), infinite ones are append-only streams. An infinite XD-Relation is
//! one time → multiset mapping, so every query that reads it at an instant
//! reads the same batch: a stream is a [`StreamHub`], fed by pushes — from
//! the application, or from the plan of a derived stream that samples the
//! environment (§7's βˢ over a table of sensors, RSS wrappers, …) — and
//! each executor leaf over it reads a [`HubSubscription`] of its own.
//!
//! * [`TableHandle`] — a shared, mutable finite XD-Relation; mutations are
//!   buffered, each taking effect after the ones before it, and their net
//!   effect becomes the table's delta at the next tick boundary. What a
//!   one-shot statement sees of it is one `Arc<XRelation>`
//!   ([`TableHandle::relation`]): built by the first statement that asks,
//!   shared by every one until a write changes it, kept current by the
//!   writes;
//! * [`StreamHub`] — a shared, append-only infinite XD-Relation: the pushes
//!   of an instant become one [`Batch`], which every subscription polling
//!   that instant receives by `Arc`, kept only until the last live
//!   subscription has read it;
//! * [`Batch`] — one instant's appended tuples as one immutable value: every
//!   query over the stream holds the same `Arc<Batch>` in its window ring,
//!   the same bag in what the window hands its parent, and the same bag
//!   again for each σ, π, ρ, α over that window that computes what another
//!   query's does.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use serena_core::sync::Mutex;

use serena_core::schema::SchemaRef;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::xrelation::XRelation;

use crate::multiset::{Delta, Multiset, SharedBag};

/// Shared handle to a finite, updatable XD-Relation.
#[derive(Clone)]
pub struct TableHandle {
    inner: Arc<Mutex<TableState>>,
}

struct TableState {
    schema: SchemaRef,
    current: Multiset,
    /// The net change from `current` to what the queued mutations leave:
    /// no tuple on both sides, no deletion `current` cannot honour. Every
    /// write goes through [`TableState::insert`] / [`TableState::delete`]
    /// or assigns a `diff_to`, so it is always `current.diff_to(projected)`.
    pending: Delta,
    /// The last committed tick, kept so several queries sharing this table
    /// within the same global instant all observe the same delta.
    committed: Option<(Instant, Delta)>,
    /// What a one-shot statement sees, once one has asked: the distinct
    /// tuples of `current ⊎ pending` in ascending order. Derived state — a
    /// tick leaves it alone (a commit moves tuples from `pending` to
    /// `current`, their sum stays), a write keeps it current or drops it
    /// ([`TableState::patch`]), and it is never checkpointed. The bag
    /// cannot stand in for it: a `Multiset` iterates in `RandomState`
    /// order, and a statement's row order must not depend on that.
    relation: Option<Arc<XRelation>>,
    /// `current` in ascending order with counts, once asked for
    /// ([`TableHandle::ordered`]); dropped by whatever changes `current`
    /// (a commit with a change, a restore), never checkpointed.
    ordered: Option<Arc<[(Tuple, usize)]>>,
}

impl TableState {
    /// `n` more occurrences of `t`: first the ones a queued deletion was
    /// about to take, the rest as insertions.
    fn insert(&mut self, t: Tuple, n: usize) {
        if self.relation.is_some() && n > 0 && self.projected_count(&t) == 0 {
            self.patch(|rel| rel.insert_sorted(t.clone()));
        }
        let revived = self.pending.deletes.remove(&t, n);
        self.pending.inserts.insert(t, n - revived);
    }

    /// Up to `n` fewer occurrences of `t`: first the ones a queued
    /// insertion was about to add, then the ones `current` holds that no
    /// queued deletion has claimed. Occurrences the table would not hold
    /// are not deleted.
    fn delete(&mut self, t: Tuple, n: usize) {
        let unqueued = self.pending.inserts.remove(&t, n);
        let held = self.current.count(&t) - self.pending.deletes.count(&t);
        let taken = (n - unqueued).min(held);
        // something goes, and it is the last occurrence a statement saw
        if self.relation.is_some()
            && unqueued + taken > 0
            && taken == held
            && !self.pending.inserts.contains(&t)
        {
            self.patch(|rel| rel.remove_sorted(&t));
        }
        self.pending.deletes.insert(t, taken);
    }

    /// Occurrences of `t` in `current ⊎ pending`.
    fn projected_count(&self, t: &Tuple) -> usize {
        self.current.count(t) - self.pending.deletes.count(t) + self.pending.inserts.count(t)
    }

    /// A distinct tuple entered or left: change the shared relation in
    /// place when no statement still holds it, and drop it otherwise — the
    /// next statement builds a new one, and whoever holds the old one never
    /// observes a later write.
    fn patch(&mut self, change: impl FnOnce(&mut XRelation) -> bool) {
        match self.relation.as_mut().and_then(Arc::get_mut) {
            Some(rel) => {
                let changed = change(rel);
                debug_assert!(changed, "the relation held what the bag did");
            }
            None => self.relation = None,
        }
    }
}

impl TableHandle {
    /// An empty table over `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        TableHandle {
            inner: Arc::new(Mutex::new(TableState {
                schema,
                current: Multiset::new(),
                pending: Delta::new(),
                committed: None,
                relation: None,
                ordered: None,
            })),
        }
    }

    /// A table pre-loaded with `tuples` (they appear in the first tick's
    /// delta, like any insertion).
    pub fn with_tuples(schema: SchemaRef, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let h = TableHandle::new(schema);
        for t in tuples {
            h.insert(t);
        }
        h
    }

    /// The table's extended schema.
    pub fn schema(&self) -> SchemaRef {
        self.inner.lock().schema.clone()
    }

    /// Queue a tuple insertion (applied at the next tick).
    pub fn insert(&self, t: Tuple) {
        self.inner.lock().insert(t, 1);
    }

    /// Queue the deletion of one occurrence of `t` (applied at the next
    /// tick). Queued mutations take effect in the order they were made: a
    /// deletion after an insertion of the same tuple takes that insertion
    /// back, and deleting a tuple the table would not hold by then does
    /// nothing.
    pub fn delete(&self, t: Tuple) {
        self.inner.lock().delete(t, 1);
    }

    /// Replace the table's contents wholesale (applied at the next tick) —
    /// used by discovery queries refreshing provider tables. Mutations
    /// still pending are superseded, so repeating the call between two
    /// ticks is idempotent.
    pub fn replace_with(&self, tuples: impl IntoIterator<Item = Tuple>) {
        let mut state = self.inner.lock();
        let target: Multiset = tuples.into_iter().collect();
        state.pending = state.current.diff_to(&target);
        state.relation = None;
    }

    /// Snapshot of the current (already-ticked) contents.
    pub fn snapshot(&self) -> Multiset {
        self.inner.lock().current.clone()
    }

    /// [`TableHandle::snapshot`] in ascending order, with counts: one `Arc`
    /// from the first ask after a commit that changed it to the next.
    pub(crate) fn ordered(&self) -> Arc<[(Tuple, usize)]> {
        let mut state = self.inner.lock();
        if let Some(ordered) = &state.ordered {
            return Arc::clone(ordered);
        }
        let mut entries: Vec<(Tuple, usize)> =
            state.current.iter().map(|(t, n)| (t.clone(), n)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let ordered: Arc<[(Tuple, usize)]> = entries.into();
        state.ordered = Some(Arc::clone(&ordered));
        ordered
    }

    /// The contents the table will have once pending mutations commit —
    /// what a one-shot query evaluated "now" should see (§4.2: one-shot
    /// queries over finite XD-Relations).
    pub fn projected(&self) -> Multiset {
        let state = self.inner.lock();
        let mut m = state.current.clone();
        m.apply(&state.pending);
        m
    }

    /// [`TableHandle::projected`] as the X-Relation a one-shot statement
    /// scans (§3.2: the environment at one instant): each distinct tuple
    /// once, in ascending order. Between two writes the state is one value,
    /// so every caller between them gets the same `Arc`; a write that finds
    /// it held elsewhere leaves that copy as it was.
    pub fn relation(&self) -> Arc<XRelation> {
        let mut state = self.inner.lock();
        if let Some(rel) = &state.relation {
            return Arc::clone(rel);
        }
        let pending = &state.pending;
        let kept = state.current.iter();
        let kept = kept.filter(|(t, n)| *n > pending.deletes.count(t));
        let mut tuples: Vec<Tuple> = kept
            .chain(pending.inserts.iter())
            .map(|(t, _)| t.clone())
            .collect();
        tuples.sort_unstable();
        // a tuple both kept and queued is there twice; the relation is a set
        let rel = Arc::new(XRelation::from_tuples(state.schema.clone(), tuples));
        state.relation = Some(Arc::clone(&rel));
        rel
    }

    /// Serialize the table's dynamic state — current contents and pending
    /// (not yet committed) mutations — into a checkpoint. The per-instant
    /// committed-delta memo is deliberately not captured: a restored table
    /// has not ticked yet at any instant, so the first post-restore tick
    /// commits whatever was pending, exactly as the original would have.
    pub fn export_state(&self, w: &mut serena_core::snapshot::Writer) {
        let state = self.inner.lock();
        state.current.encode(w);
        state.pending.encode(w);
    }

    /// Restore dynamic state written by [`TableHandle::export_state`],
    /// replacing current contents and pending mutations wholesale.
    pub fn import_state(
        &self,
        r: &mut serena_core::snapshot::Reader<'_>,
    ) -> Result<(), serena_core::snapshot::SnapshotError> {
        let current = Multiset::decode(r)?;
        let pending = Delta::decode(r)?;
        let mut state = self.inner.lock();
        state.current = current;
        state.relation = None;
        state.ordered = None;
        // replayed, not assigned: the bytes come from outside and need not
        // hold what `pending` promises (a tuple on both sides, a deletion
        // the contents cannot honour)
        state.pending = Delta::new();
        for (t, n) in pending.deletes.iter() {
            state.delete(t.clone(), n);
        }
        for (t, n) in pending.inserts.iter() {
            state.insert(t.clone(), n);
        }
        state.committed = None;
        Ok(())
    }

    /// Advance the tick boundary at instant `at`: the first call for a
    /// given instant commits the pending mutations; subsequent calls at the
    /// same instant (other queries sharing the table) observe the same
    /// delta. With `bootstrap` (a query's very first tick), the returned
    /// delta instead inserts the whole current contents — the new query's
    /// initial instantaneous relation.
    pub(crate) fn tick_at(&self, at: Instant, bootstrap: bool) -> Delta {
        let mut state = self.inner.lock();
        let already = matches!(&state.committed, Some((t, _)) if *t == at);
        if !already {
            let delta = std::mem::take(&mut state.pending);
            if !delta.is_empty() {
                state.ordered = None;
            }
            let missing = state.current.apply(&delta);
            debug_assert_eq!(missing, 0, "queued deletions exceed the contents");
            state.committed = Some((at, delta));
        }
        if bootstrap {
            return Delta {
                inserts: state.current.clone(),
                deletes: Multiset::new(),
            };
        }
        state
            .committed
            .as_ref()
            .map(|(_, d)| d.clone())
            .expect("committed above")
    }
}

/// The tuples a stream appended at one instant (§4.1): in arrival order, and
/// as the bag a window over the stream adds when the batch enters and takes
/// back when it expires. Immutable, so the queries over one stream share one
/// `Arc<Batch>` and the bag is built once, by whichever window asks first —
/// never for a batch no window reads. The bag is a [`SharedBag`], so what
/// σ, π, ρ, α over those windows make of it is mapped once per distinct
/// operator, not once per query.
#[derive(Debug, Default)]
pub struct Batch {
    tuples: Vec<Tuple>,
    bag: OnceLock<Arc<SharedBag>>,
}

impl Batch {
    /// The batch holding `tuples`, in that order.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        Batch {
            tuples,
            bag: OnceLock::new(),
        }
    }

    /// The tuples in arrival order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The tuples as a bag — a shared value, which a window hands its parent
    /// by reference when the batch enters and again when it expires.
    pub fn bag(&self) -> &Arc<SharedBag> {
        self.bag.get_or_init(|| {
            let bag: Multiset = self.tuples.iter().cloned().collect();
            Arc::new(bag.into())
        })
    }

    /// Number of tuples (occurrences).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the instant appended nothing.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples of a batch nothing else holds; a copy of a shared one's.
    pub(crate) fn into_tuples(self: Arc<Self>) -> Vec<Tuple> {
        Arc::try_unwrap(self).map_or_else(|shared| shared.tuples.clone(), |batch| batch.tuples)
    }
}

impl From<Vec<Tuple>> for Batch {
    fn from(tuples: Vec<Tuple>) -> Self {
        Batch::new(tuples)
    }
}

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
    /// What a poll that finds nothing pushed returns: one batch, so the
    /// subscriptions polling an idle instant share it too.
    idle: Arc<Batch>,
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
            // a run of idle instants shares one: what its memo held goes
            self.idle = Arc::default();
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
    pub fn is_read(&self) -> bool {
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

impl HubSubscription {
    /// What was pushed since the previous poll. The first poll at an
    /// instant seals the open pushes, so every subscription polling at that
    /// instant returns the same `Arc`; one that skipped polls gets the
    /// batches it missed concatenated, in order, as a batch of its own.
    pub fn poll(&mut self) -> Arc<Batch> {
        let mut state = self.state.lock();
        state.seal();
        let end = state.end();
        let cursor = state
            .cursors
            .insert(self.id, end)
            .expect("live subscription");
        let unread = state.sealed.range(state.position(cursor)..);
        let batch = match unread.len() {
            0 => Arc::clone(&state.idle),
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
    use serena_core::schema::XSchema;
    use serena_core::tuple;
    use serena_core::value::DataType;
    use serena_testkit::Rng;

    fn schema() -> SchemaRef {
        XSchema::builder().real("x", DataType::Int).build().unwrap()
    }

    #[test]
    fn table_buffers_until_tick() {
        let t = TableHandle::new(schema());
        t.insert(tuple![1]);
        t.insert(tuple![2]);
        assert!(t.snapshot().is_empty());
        let d = t.tick_at(Instant(1), false);
        assert_eq!(d.inserts.len(), 2);
        assert_eq!(t.snapshot().len(), 2);
        // idle tick → empty delta
        assert!(t.tick_at(Instant(2), false).is_empty());
    }

    #[test]
    fn delete_of_absent_tuple_is_clamped() {
        let t = TableHandle::new(schema());
        t.delete(tuple![9]);
        let d = t.tick_at(Instant(3), false);
        assert!(d.is_empty());
        t.insert(tuple![1]);
        t.tick_at(Instant(4), false);
        t.delete(tuple![1]);
        t.delete(tuple![1]); // second delete of a single occurrence
        let d = t.tick_at(Instant(5), false);
        assert_eq!(d.deletes.count(&tuple![1]), 1);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn queued_mutations_net_in_the_order_they_were_made() {
        let t = TableHandle::with_tuples(schema(), vec![tuple![1], tuple![2], tuple![2]]);
        t.tick_at(Instant(0), false);
        // insert; delete — of an absent tuple and of a present one
        t.insert(tuple![9]);
        t.delete(tuple![9]);
        t.insert(tuple![1]);
        t.delete(tuple![1]);
        assert_eq!(t.projected(), t.snapshot());
        assert!(t.tick_at(Instant(1), false).is_empty());
        assert_eq!(t.snapshot().count(&tuple![1]), 1);
        assert!(!t.snapshot().contains(&tuple![9]));
        // delete; insert — of a present tuple and of an absent one
        t.delete(tuple![1]);
        t.insert(tuple![1]);
        t.delete(tuple![9]);
        t.insert(tuple![9]);
        assert_eq!(
            t.tick_at(Instant(2), false),
            Delta::of_inserts(vec![tuple![9]])
        );
        // bag counts: held twice, queued once more, deleted four times
        // (the fourth finds nothing left), inserted again
        t.insert(tuple![2]);
        for _ in 0..4 {
            t.delete(tuple![2]);
        }
        assert!(!t.projected().contains(&tuple![2]));
        t.insert(tuple![2]);
        let d = t.tick_at(Instant(3), false);
        assert!(d.inserts.is_empty());
        assert_eq!(d.deletes.count(&tuple![2]), 1);
        assert_eq!(d.magnitude(), 1);
        assert_eq!(t.snapshot().count(&tuple![2]), 1);
    }

    #[test]
    fn restored_pending_mutations_are_netted_like_queued_ones() {
        use serena_core::snapshot::{Reader, Writer};
        // contents {1}; queued: delete 1, delete 7 (absent), insert 1, insert 8
        let mut w = Writer::new();
        Multiset::from_tuples(vec![tuple![1]]).encode(&mut w);
        Delta {
            inserts: Multiset::from_tuples(vec![tuple![1], tuple![8]]),
            deletes: Multiset::from_tuples(vec![tuple![1], tuple![7]]),
        }
        .encode(&mut w);
        let bytes = w.into_bytes();
        let t = TableHandle::new(schema());
        t.import_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(
            t.tick_at(Instant(0), false),
            Delta::of_inserts(vec![tuple![8]])
        );
        assert_eq!(t.snapshot().len(), 2);
    }

    #[test]
    fn replace_with_computes_minimal_delta() {
        let t = TableHandle::with_tuples(schema(), vec![tuple![1], tuple![2]]);
        t.tick_at(Instant(6), false);
        t.replace_with(vec![tuple![2], tuple![3]]);
        let d = t.tick_at(Instant(7), false);
        assert_eq!(d.inserts.count(&tuple![3]), 1);
        assert_eq!(d.deletes.count(&tuple![1]), 1);
        assert_eq!(d.magnitude(), 2);
        assert_eq!(t.snapshot().len(), 2);
    }

    #[test]
    fn replace_with_accounts_for_pending() {
        let t = TableHandle::new(schema());
        t.insert(tuple![1]);
        t.replace_with(vec![tuple![2]]);
        t.tick_at(Instant(8), false);
        let snap = t.snapshot();
        assert!(snap.contains(&tuple![2]));
        assert!(!snap.contains(&tuple![1]));
        assert_eq!(snap.len(), 1);
    }

    #[test]
    fn replace_with_twice_between_ticks_still_projects_the_target() {
        let target = || vec![tuple![1], tuple![2]];
        let t = TableHandle::new(schema());
        t.replace_with(target());
        t.replace_with(target());
        assert_eq!(t.projected(), target().into_iter().collect());
        // and from a committed state that differs from the target
        t.replace_with(vec![tuple![9]]);
        t.tick_at(Instant(9), false);
        t.replace_with(target());
        t.replace_with(target());
        assert_eq!(t.projected(), target().into_iter().collect());
    }

    #[test]
    fn table_state_round_trips_through_snapshot() {
        use serena_core::snapshot::{Reader, Writer};
        let t = TableHandle::with_tuples(schema(), vec![tuple![1], tuple![2]]);
        t.tick_at(Instant(0), false);
        t.insert(tuple![3]); // pending, not yet committed
        let mut w = Writer::new();
        t.export_state(&mut w);
        let bytes = w.into_bytes();

        let restored = TableHandle::new(schema());
        restored.import_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.snapshot(), t.snapshot());
        // pending survives: the next tick commits it like the original would
        let d = restored.tick_at(Instant(1), false);
        assert_eq!(d.inserts.sorted_occurrences(), vec![tuple![3]]);
        assert_eq!(restored.snapshot().len(), 3);
    }

    /// The oracle: what every statement rebuilt for itself before the table
    /// kept its relation — the projected bag, sorted, duplicates dropped.
    fn rebuilt(t: &TableHandle) -> Vec<Tuple> {
        let mut tuples = t.projected().sorted_occurrences();
        tuples.dedup();
        tuples
    }

    /// The oracle for the ordered committed view: the snapshot's entries,
    /// sorted.
    fn sorted_entries(t: &TableHandle) -> Vec<(Tuple, usize)> {
        let mut entries: Vec<(Tuple, usize)> =
            t.snapshot().iter().map(|(t, n)| (t.clone(), n)).collect();
        entries.sort();
        entries
    }

    /// Random writes, ticks, restores and readers that come and go: the
    /// relation handed out is always the rebuilt one, tuple for tuple and in
    /// order; a held one stays as it was taken; between two writes there is
    /// one; and a table nobody reads builds none. The same for the ordered
    /// committed view, between two commits that change the contents.
    #[test]
    fn the_shared_relation_is_the_rebuilt_one_after_every_step() {
        let mut rng = Rng::from_state(0x9E37_79B9_7F4A_7C15);
        let pick = |rng: &mut Rng| tuple![rng.below(10) as i64];
        let (t, unread) = (TableHandle::new(schema()), TableHandle::new(schema()));
        let both = [&t, &unread];
        let mut held: Vec<(Arc<XRelation>, Vec<Tuple>)> = Vec::new();
        type View = (Arc<[(Tuple, usize)]>, Vec<(Tuple, usize)>);
        let mut held_views: Vec<View> = Vec::new();
        let mut commits = [0; 2]; // changed the contents, did not
        let mut saved: Option<Vec<u8>> = None;
        let mut at = 0;
        let (mut patched, mut replaced) = (0, 0);
        let mut deleted = [0; 3]; // committed, pending-only, absent
        for step in 0..20_000 {
            let was = t.relation().tuples().to_vec();
            let (view, committed) = (t.ordered(), t.snapshot());
            let mut restored = false;
            match rng.below(16) {
                0..=4 => {
                    let x = pick(&mut rng);
                    both.iter().for_each(|h| h.insert(x.clone()));
                }
                5..=8 => {
                    let x = pick(&mut rng);
                    let kind = match (t.snapshot().contains(&x), t.projected().contains(&x)) {
                        (true, _) => 0,
                        (false, true) => 1,
                        (false, false) => 2,
                    };
                    deleted[kind] += 1;
                    both.iter().for_each(|h| h.delete(x.clone()));
                }
                9 => {
                    let target: Vec<Tuple> = (0..rng.below(8)).map(|_| pick(&mut rng)).collect();
                    both.iter().for_each(|h| h.replace_with(target.clone()));
                }
                10 | 11 => {
                    // a new instant, or the last one again; either way the
                    // statement's view does not change hands
                    at += rng.below(2) as u64;
                    let before = t.relation();
                    for h in both {
                        h.tick_at(Instant(at), false);
                    }
                    assert!(Arc::ptr_eq(&before, &t.relation()), "step {step}");
                    commits[usize::from(t.snapshot() == committed)] += 1;
                }
                12 => {
                    let mut w = serena_core::snapshot::Writer::new();
                    t.export_state(&mut w);
                    saved = Some(w.into_bytes());
                }
                13 => {
                    for h in both {
                        let Some(bytes) = &saved else { continue };
                        h.import_state(&mut serena_core::snapshot::Reader::new(bytes))
                            .unwrap();
                        restored = true;
                    }
                }
                14 => {
                    held.push((t.relation(), rebuilt(&t)));
                    held_views.push((t.ordered(), sorted_entries(&t)));
                }
                _ if !held.is_empty() => {
                    drop(held.swap_remove(rng.below(held.len())));
                    drop(held_views.swap_remove(rng.below(held_views.len())));
                }
                _ => {}
            }
            let survived = t.inner.lock().relation.is_some();
            let now = t.relation();
            assert_eq!(now.tuples(), rebuilt(&t), "step {step}");
            assert_eq!(now.len(), now.iter().filter(|x| now.contains(x)).count());
            assert!(Arc::ptr_eq(&now, &t.relation()), "step {step}");
            if now.tuples() != was {
                *(if survived {
                    &mut patched
                } else {
                    &mut replaced
                }) += 1;
            }
            for (rel, as_taken) in &held {
                assert_eq!(rel.tuples(), as_taken, "step {step}");
            }
            let now = t.ordered();
            assert_eq!(*now, *sorted_entries(&t), "step {step}");
            if !restored && t.snapshot() == committed {
                assert!(Arc::ptr_eq(&view, &now), "step {step}");
            }
            for (view, as_taken) in &held_views {
                assert_eq!(**view, **as_taken, "step {step}");
            }
            let never_read = unread.inner.lock();
            let built = (&never_read.relation, &never_read.ordered);
            assert!(matches!(built, (None, None)), "step {step}");
            drop(never_read);
            if held.len() > 4 {
                held.remove(0);
                held_views.remove(0);
            }
        }
        assert!(commits.iter().all(|&n| n > 1_000), "{commits:?}");
        assert_eq!(unread.projected(), t.projected());
        // every path was taken: a write patched the relation in place, a
        // write found it held (or replaced the contents) and left it behind
        assert!(patched > 1_000 && replaced > 1_000, "{patched} {replaced}");
        assert!(deleted.iter().all(|&n| n > 100), "{deleted:?}");
    }

    #[test]
    fn a_batch_is_its_tuples_in_order_and_as_a_bag() {
        let batch = Arc::new(Batch::new(vec![tuple![2], tuple![1], tuple![2]]));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.tuples(), [tuple![2], tuple![1], tuple![2]]);
        assert_eq!(batch.bag().count(&tuple![2]), 2);
        assert_eq!(batch.bag().len(), 3);
        // a shared batch is copied out, a sole holder gives its tuples up
        let shared = Arc::clone(&batch);
        assert_eq!(shared.into_tuples(), batch.tuples());
        assert_eq!(batch.into_tuples().len(), 3);
        assert!(Batch::default().is_empty() && Batch::default().bag().is_empty());
    }

    #[test]
    fn hub_broadcasts_to_all_subscribers() {
        let hub = StreamHub::new();
        let mut a = hub.subscribe();
        hub.push(tuple![1]);
        let mut b = hub.subscribe(); // subscribes after push → misses it
        hub.push(tuple![2]);
        assert_eq!(hub.len(), 2);
        assert_eq!(a.poll().tuples(), [tuple![1], tuple![2]]);
        assert_eq!(hub.len(), 1, "only b has yet to read [2]");
        assert_eq!(b.poll().tuples(), [tuple![2]]);
        assert!(a.poll().is_empty());
        assert_eq!(hub.len(), 0, "both polled: nothing is retained");
    }

    #[test]
    fn subscriptions_polled_at_one_instant_share_one_batch() {
        let hub = StreamHub::new();
        let (mut a, mut b) = (hub.subscribe(), hub.subscribe());
        for at in 0..3 {
            hub.push(tuple![at]);
            hub.push(tuple![at]);
            let (for_a, for_b) = (a.poll(), b.poll());
            assert!(Arc::ptr_eq(&for_a, &for_b), "instant {at}");
            assert_eq!(for_a.tuples(), [tuple![at], tuple![at]]);
            assert!(hub.is_empty());
        }
        // a late subscription starts empty, then shares like the others
        let mut late = hub.subscribe();
        assert!(late.poll().is_empty());
        hub.push(tuple![9]);
        let for_a = a.poll();
        assert!(Arc::ptr_eq(&for_a, &late.poll()));
        assert!(Arc::ptr_eq(&for_a, &b.poll()));
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
            assert_eq!(fast.poll().len(), 2);
            assert_eq!(hub.len(), 2 * at as usize, "slow has read none of them");
        }
        // the skipped batches arrive concatenated, in push order
        let missed = slow.poll();
        let pushed = (1..=3).flat_map(|at| [tuple![at], tuple![-at]]);
        assert_eq!(missed.tuples(), pushed.collect::<Vec<_>>());
        assert!(hub.is_empty());
        // a dropped subscription releases what only it had yet to read
        hub.push(tuple![4]);
        fast.poll();
        assert_eq!(hub.len(), 1);
        drop(slow);
        assert!(hub.is_empty());
        // and the last one to go takes the open pushes with it
        hub.push(tuple![5]);
        drop(fast);
        assert!(hub.is_empty());
        hub.push(tuple![6]);
        assert!(hub.subscribe().poll().is_empty());
    }

    /// Sharing changes nothing a query can see: N queries over one hub
    /// report what each reports over a hub of its own fed the same tuples —
    /// one registered late, one that skips an instant's poll.
    #[test]
    fn queries_over_one_hub_report_what_they_report_over_private_streams() {
        use crate::{ContinuousQuery, SourceSet, StreamKind, StreamPlan};
        use serena_core::formula::Formula;
        use serena_core::metrics::NoopMetrics;
        use serena_core::ops::{AggFun, AggSpec};
        use serena_core::schema::XSchema;
        use serena_core::value::DataType;

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
        // (shared, private twin, the twin's own hub), the last plan joining
        // late
        let mut queries = Vec::new();
        let join = |plan: &StreamPlan, at: u64| {
            let private = StreamHub::new();
            let (mut over_hub, mut over_private) = (SourceSet::new(), SourceSet::new());
            over_hub.add_stream("s", schema.clone(), hub.clone());
            over_private.add_stream("s", schema.clone(), private.clone());
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
                    private.push(t.clone());
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
