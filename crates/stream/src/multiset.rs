//! Tuple multisets and deltas.
//!
//! §4.1 defines XD-Relations as mappings from time instants to *multisets*
//! of tuples (finite for dynamic relations, infinite append-only for
//! streams), following CQL. The continuous executor manipulates
//! instantaneous states as [`Multiset`]s and communicates changes between
//! operators as [`Delta`]s (inserted/deleted multisets per tick). A bag a
//! window's slide hands on is a [`SharedBag`]: one value for every query
//! over the stream, which remembers what σ, π, ρ, α made of it and looks up
//! the rows a text equality selects.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock, Weak};

use serena_core::error::EvalError;
use serena_core::formula::CompiledFormula;
use serena_core::ops::{CompiledOp, Slot};
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::sync::Mutex;
use serena_core::tuple::Tuple;
use serena_core::xrelation::text_buckets;

/// A finite multiset of tuples with positive counts.
///
/// A bag owns its table, except a bag a [`SharedBag`] holds: that one's
/// table is shared, and so is every clone's of it — a pointer copy, which
/// is what a slide hands on. The first write to a shared table takes it,
/// copying it only while another bag still holds it; removing a tuple the
/// bag does not hold writes nothing. An owned table costs its reads and
/// writes one branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Multiset {
    counts: Counts,
    total: usize,
}

type Table = HashMap<Tuple, usize>;

/// A bag's table: read through `Deref`, written through
/// [`Counts::to_mut`].
#[derive(Clone)]
enum Counts {
    Owned(Table),
    Shared(Arc<Table>),
}

impl Default for Counts {
    fn default() -> Self {
        Counts::Owned(Table::new())
    }
}

impl Deref for Counts {
    type Target = Table;

    #[inline]
    fn deref(&self) -> &Table {
        match self {
            Counts::Owned(table) => table,
            Counts::Shared(table) => table,
        }
    }
}

impl Counts {
    /// The table to write into, made this bag's own first if it is shared.
    #[inline]
    fn to_mut(&mut self) -> &mut Table {
        match self {
            Counts::Owned(table) => table,
            shared => shared.unshare(),
        }
    }

    /// A shared table made this bag's own: taken if nothing else holds it,
    /// else copied.
    #[cold]
    fn unshare(&mut self) -> &mut Table {
        let Counts::Shared(shared) = std::mem::take(self) else {
            unreachable!("only a shared table is unshared")
        };
        *self = Counts::Owned(Arc::unwrap_or_clone(shared));
        self.to_mut()
    }
}

/// Equal contents, shared or not.
impl PartialEq for Counts {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Counts {}

/// The table's entries, shared or not.
impl fmt::Debug for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl Multiset {
    /// The empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of tuples (each occurrence counts).
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut m = Multiset::new();
        for t in tuples {
            m.insert(t, 1);
        }
        m
    }

    /// Number of tuple occurrences (with multiplicity).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of *distinct* tuples.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Multiplicity of `t`.
    pub fn count(&self, t: &Tuple) -> usize {
        self.counts.get(t).copied().unwrap_or(0)
    }

    /// Whether `t` occurs at least once.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.count(t) > 0
    }

    /// Add `n` occurrences of `t`.
    pub fn insert(&mut self, t: Tuple, n: usize) {
        if n == 0 {
            return;
        }
        *self.counts.to_mut().entry(t).or_insert(0) += n;
        self.total += n;
    }

    /// [`Multiset::insert`], except that a tuple new to `self` which `like`
    /// holds is kept as `like`'s copy: bags that have tuples in common then
    /// share them instead of holding equal copies.
    pub(crate) fn insert_like(&mut self, t: Tuple, n: usize, like: Option<&Multiset>) {
        let Some(like) = like.filter(|_| n > 0) else {
            return self.insert(t, n);
        };
        let counts = self.counts.to_mut();
        if let Some(count) = counts.get_mut(&t) {
            *count += n;
        } else {
            let held = like.counts.get_key_value(&t);
            counts.insert(held.map_or(t, |(held, _)| held.clone()), n);
        }
        self.total += n;
    }

    /// Remove up to `n` occurrences; returns how many were removed.
    pub fn remove(&mut self, t: &Tuple, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let counts = match &mut self.counts {
            Counts::Shared(shared) if !shared.contains_key(t) => return 0,
            counts => counts.to_mut(),
        };
        match counts.get_mut(t) {
            None => 0,
            Some(c) => {
                let removed = n.min(*c);
                *c -= removed;
                if *c == 0 {
                    counts.remove(t);
                }
                self.total -= removed;
                removed
            }
        }
    }

    /// Iterate `(tuple, count)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, usize)> {
        self.counts.iter().map(|(t, &c)| (t, c))
    }

    /// Iterate tuples with multiplicity (each occurrence yielded).
    pub fn iter_occurrences(&self) -> impl Iterator<Item = &Tuple> {
        self.iter().flat_map(|(t, c)| std::iter::repeat_n(t, c))
    }

    /// Apply a delta in place. Deletions of absent tuples are clamped (and
    /// reported as a consistency violation count, which callers may assert
    /// on in tests).
    pub fn apply(&mut self, delta: &Delta) -> usize {
        self.apply_sides(&delta.inserts, &delta.deletes)
    }

    /// [`Multiset::apply`] for a change whose two sides lie apart: take
    /// `deletes` out, then put `inserts` in.
    pub(crate) fn apply_sides(&mut self, inserts: &Multiset, deletes: &Multiset) -> usize {
        let mut missing = 0;
        for (t, c) in deletes.iter() {
            let removed = self.remove(t, c);
            missing += c - removed;
        }
        for (t, c) in inserts.iter() {
            self.insert(t.clone(), c);
        }
        missing
    }

    /// `self → target` as a net [`Delta`]: what a wholesale replacement
    /// ([`TableHandle::replace_with`](crate::source::TableHandle::replace_with))
    /// changes, and what the executor's operators must emit for an instant
    /// that takes their output from `self` to `target`.
    pub fn diff_to(&self, target: &Multiset) -> Delta {
        let mut delta = Delta::new();
        for (t, new_c) in target.iter() {
            let old_c = self.count(t);
            if new_c > old_c {
                delta.inserts.insert(t.clone(), new_c - old_c);
            }
        }
        for (t, old_c) in self.iter() {
            let new_c = target.count(t);
            if old_c > new_c {
                delta.deletes.insert(t.clone(), old_c - new_c);
            }
        }
        delta
    }

    /// All tuples, sorted, with multiplicity — deterministic output for
    /// tables and assertions.
    pub fn sorted_occurrences(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.iter_occurrences().cloned().collect();
        out.sort();
        out
    }

    /// Encode into a checkpoint as `(distinct, then tuple ++ count per
    /// entry)`. Entries are written in sorted tuple order so the byte
    /// encoding is deterministic despite the unordered backing map.
    pub fn encode(&self, w: &mut Writer) {
        let mut entries: Vec<(&Tuple, usize)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (t, c) in entries {
            w.tuple(t).usize(c);
        }
    }

    /// Decode a multiset written by [`Multiset::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Multiset, SnapshotError> {
        let n = r.usize()?;
        let mut m = Multiset::new();
        for _ in 0..n {
            m.insert(r.tuple()?, r.usize()?);
        }
        Ok(m)
    }
}

impl FromIterator<Tuple> for Multiset {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Multiset::from_tuples(iter)
    }
}

/// A bag a slide hands on — a stream batch's, or what σ, π, ρ, α over a
/// window made of one — shared by every query that reads it. σ, π, ρ, α are
/// tuple-at-a-time, so what one makes of the bag is a function of the bag
/// and the operator: the bag remembers it per distinct operator, with the
/// errors the operator met, and every other query asking for the same
/// mapping takes that bag instead of mapping again.
///
/// It also keeps a text lookup for each coordinate a σ has asked about:
/// each text to the distinct tuples holding it there, with their counts, in
/// bag order — or `None` when some tuple holds no text there. The first σ to ask
/// builds it, every later one (on any thread) waits for that build and
/// reads it. Like the memo it is derived from the bag, which never changes,
/// and is never checkpointed.
#[derive(Debug)]
pub struct SharedBag {
    bag: Multiset,
    /// Per mapping, the bag and the errors met. The bag is held weakly: an
    /// entry keeps nothing alive, and a mapping whose every taker has let
    /// go is mapped again by the next one to ask.
    memo: Mutex<Memo>,
    /// Text lookups by coordinate: one slot per coordinate of the bag's
    /// tuples once a σ asked, each built on first use.
    lookups: OnceLock<Box<[OnceLock<TextLookup>]>>,
}

type Memo = HashMap<Arc<Mapping>, (Weak<SharedBag>, Vec<EvalError>)>;

/// One coordinate's text lookup: text → the distinct tuples holding it and
/// their counts, in bag order; `None` when a tuple holds no text there.
type TextLookup = Option<HashMap<Box<str>, Vec<(Tuple, usize)>>>;

#[cfg(test)]
thread_local! {
    /// Text lookups built on this thread: each one walks its bag.
    pub(crate) static LOOKUP_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// σ, π, ρ or α as [`SharedBag`]'s memo key: what the compiled operator
/// computes — σ's coordinates and constants, π's coordinates, α's slots and
/// constant — never the attribute names it was written with, which a ρ
/// below it may have moved.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) enum Mapping {
    Select(CompiledFormula),
    Project(Vec<usize>),
    Rename,
    Assign(Vec<Slot>, Tuple),
}

impl Mapping {
    /// The key of a tuple-at-a-time operator.
    pub(crate) fn of(op: &CompiledOp) -> Mapping {
        match op {
            CompiledOp::Select { formula } => Mapping::Select(formula.clone()),
            CompiledOp::Project { coords } => Mapping::Project(coords.clone()),
            CompiledOp::Rename => Mapping::Rename,
            CompiledOp::Assign { slots, constant } => {
                Mapping::Assign(slots.clone(), constant.clone())
            }
            _ => unreachable!("{} maps no single tuple", op.kind()),
        }
    }
}

impl SharedBag {
    /// What `mapping` makes of this bag, its errors appended to `errors`:
    /// the bag another taker left in the memo while one still holds it,
    /// else `map`'s. `map` runs outside the memo's lock, so distinct
    /// mappings of one bag run on as many threads as ask; of two takers
    /// that map it at once, the one that inserts first is kept.
    pub(crate) fn mapped(
        &self,
        mapping: &Arc<Mapping>,
        errors: &mut Vec<EvalError>,
        map: impl FnOnce(&Multiset, &mut Vec<EvalError>) -> Multiset,
    ) -> Arc<SharedBag> {
        let held = |memo: &Memo| {
            let (bag, met) = memo.get(&**mapping)?;
            Some((bag.upgrade()?, met.clone()))
        };
        let found = held(&self.memo.lock());
        let (bag, met) = found.unwrap_or_else(|| {
            let mut met = Vec::new();
            let bag = Arc::new(SharedBag::from(map(&self.bag, &mut met)));
            let mut memo = self.memo.lock();
            held(&memo).unwrap_or_else(|| {
                let entry = (Arc::downgrade(&bag), met.clone());
                memo.insert(Arc::clone(mapping), entry);
                (bag, met)
            })
        });
        errors.extend(met);
        bag
    }

    /// The distinct tuples whose coordinate `coord` holds `text` and their
    /// counts, in bag order; `None` when some tuple holds no text there. The
    /// coordinate's lookup is built by the first call; a call on another
    /// thread meanwhile waits for it.
    pub(crate) fn text_lookup(&self, coord: usize, text: &str) -> Option<&[(Tuple, usize)]> {
        let slots = self.lookups.get_or_init(|| {
            let arity = self.bag.iter().next().map_or(0, |(t, _)| t.arity());
            (0..arity).map(|_| OnceLock::new()).collect()
        });
        let lookup = slots.get(coord)?.get_or_init(|| {
            #[cfg(test)]
            LOOKUP_BUILDS.with(|n| n.set(n.get() + 1));
            text_buckets(coord, self.bag.iter().map(|(t, c)| (t, (t.clone(), c))))
        });
        Some(lookup.as_ref()?.get(text).map_or(&[], Vec::as_slice))
    }

    /// The bag as a [`Multiset`] of its own, which shares the table until
    /// one of its holders writes: a pointer copy, never a table copy.
    pub(crate) fn into_bag(self: Arc<Self>) -> Multiset {
        self.bag.clone()
    }
}

impl From<Multiset> for SharedBag {
    /// The bag, its table shared from here on.
    fn from(Multiset { counts, total }: Multiset) -> Self {
        let counts = match counts {
            Counts::Owned(table) => Counts::Shared(Arc::new(table)),
            shared => shared,
        };
        SharedBag {
            bag: Multiset { counts, total },
            memo: Mutex::default(),
            lookups: OnceLock::new(),
        }
    }
}

impl Deref for SharedBag {
    type Target = Multiset;

    fn deref(&self) -> &Multiset {
        &self.bag
    }
}

/// A per-tick change: inserted and deleted multisets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Tuples inserted this tick.
    pub inserts: Multiset,
    /// Tuples deleted this tick.
    pub deletes: Multiset,
}

impl Delta {
    /// The empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Delta inserting the given tuples.
    pub fn of_inserts(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        Delta {
            inserts: Multiset::from_tuples(tuples),
            deletes: Multiset::new(),
        }
    }

    /// True iff nothing changed.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total occurrences touched.
    pub fn magnitude(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The same change with every tuple on one side only: occurrences named
    /// on both sides cancel.
    pub fn net(mut self) -> Delta {
        let (few, many) = if self.inserts.distinct() <= self.deletes.distinct() {
            (&self.inserts, &self.deletes)
        } else {
            (&self.deletes, &self.inserts)
        };
        let both: Vec<(Tuple, usize)> = few
            .iter()
            .filter_map(|(t, c)| {
                let n = c.min(many.count(t));
                (n > 0).then(|| (t.clone(), n))
            })
            .collect();
        for (t, n) in both {
            self.inserts.remove(&t, n);
            self.deletes.remove(&t, n);
        }
        self
    }

    /// Encode into a checkpoint (inserts, then deletes).
    pub fn encode(&self, w: &mut Writer) {
        self.inserts.encode(w);
        self.deletes.encode(w);
    }

    /// Decode a delta written by [`Delta::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Delta, SnapshotError> {
        Ok(Delta {
            inserts: Multiset::decode(r)?,
            deletes: Multiset::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::tuple;
    use serena_testkit::Rng;

    impl SharedBag {
        /// The bags the memo points at.
        pub(crate) fn memoized(&self) -> Vec<Weak<SharedBag>> {
            let memo = self.memo.lock();
            memo.values().map(|(bag, _)| Weak::clone(bag)).collect()
        }
    }

    impl Multiset {
        /// Whether `self` and `other` read one shared table.
        pub(crate) fn shares_table_with(&self, other: &Multiset) -> bool {
            match (&self.counts, &other.counts) {
                (Counts::Shared(a), Counts::Shared(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
    }

    /// A bag of up to `size` occurrences over `domain` values.
    fn random_bag(rng: &mut Rng, size: usize, domain: usize) -> Multiset {
        let n = rng.below(size + 1);
        (0..n).map(|_| tuple![rng.below(domain) as i64]).collect()
    }

    /// Clones of a `SharedBag`'s bag, written at random beside owned
    /// models: each clone equals its model after every step, the shared
    /// bag never changes, and a clone whose writes have all been no-ops —
    /// zero counts, removals of tuples it does not hold, empty changes —
    /// still reads the shared table.
    #[test]
    fn a_write_to_a_shared_bag_copies_it_for_the_writer_only() {
        const DOMAIN: usize = 12;
        // steps at which a clone that had not written yet removed a tuple it
        // does not hold
        let mut absent_removals = 0;
        for seed in 1..=100u64 {
            let mut rng = Rng::new(seed);
            // half the domain is never in the shared bag
            let model = random_bag(&mut rng, 24, DOMAIN / 2);
            let shared = Arc::new(SharedBag::from(model.clone()));
            let mut clones: Vec<Multiset> =
                (0..3).map(|_| Arc::clone(&shared).into_bag()).collect();
            let mut models = vec![model.clone(); clones.len()];
            let mut wrote = vec![false; clones.len()];
            for step in 0..60 {
                let at = format!("seed {seed} step {step}");
                let i = rng.below(clones.len());
                let (bag, own) = (&mut clones[i], &mut models[i]);
                let before = own.clone();
                let t = tuple![rng.below(DOMAIN) as i64];
                let n = rng.below(3);
                match rng.below(4) {
                    0 => {
                        bag.insert(t.clone(), n);
                        own.insert(t, n);
                    }
                    1 => {
                        let like = (rng.below(2) == 0).then_some(&**shared);
                        bag.insert_like(t.clone(), n, like);
                        own.insert(t, n);
                    }
                    2 => {
                        absent_removals += usize::from(n > 0 && !own.contains(&t) && !wrote[i]);
                        assert_eq!(bag.remove(&t, n), own.remove(&t, n), "{at}");
                    }
                    _ => {
                        let size = rng.below(2) * 3;
                        let inserts = random_bag(&mut rng, size, DOMAIN);
                        let deletes = random_bag(&mut rng, 3, DOMAIN);
                        let missing = bag.apply_sides(&inserts, &deletes);
                        assert_eq!(missing, own.apply_sides(&inserts, &deletes), "{at}");
                    }
                }
                wrote[i] |= *own != before;
                assert_eq!(**shared, model, "{at}");
                for ((bag, own), &wrote) in clones.iter().zip(&models).zip(&wrote) {
                    assert_eq!(bag, own, "{at}");
                    assert_eq!((bag.len(), bag.distinct()), (own.len(), own.distinct()));
                    assert_eq!(bag.shares_table_with(&shared), !wrote, "{at}");
                }
            }
        }
        assert!(absent_removals > 40, "{absent_removals}");
    }

    #[test]
    fn counts_and_removal() {
        let mut m = Multiset::new();
        m.insert(tuple![1], 2);
        m.insert(tuple![2], 1);
        assert_eq!(m.len(), 3);
        assert_eq!(m.distinct(), 2);
        assert_eq!(m.count(&tuple![1]), 2);
        assert_eq!(m.remove(&tuple![1], 5), 2);
        assert!(!m.contains(&tuple![1]));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&tuple![9], 1), 0);
    }

    #[test]
    fn insert_like_shares_the_tuples_it_has_in_common() {
        let like: Multiset = vec![tuple![1], tuple![2]].into_iter().collect();
        let mut m = Multiset::new();
        m.insert_like(tuple![1], 2, Some(&like));
        m.insert_like(tuple![3], 1, Some(&like));
        m.insert_like(tuple![1], 1, Some(&like));
        m.insert_like(tuple![2], 0, Some(&like));
        m.insert_like(tuple![4], 1, None);
        assert_eq!(
            m,
            vec![tuple![1], tuple![1], tuple![1], tuple![3], tuple![4]]
                .into_iter()
                .collect()
        );
        let held = |bag: &Multiset| {
            bag.counts
                .get_key_value(&tuple![1])
                .unwrap()
                .0
                .as_slice()
                .as_ptr()
        };
        assert_eq!(held(&m), held(&like));
    }

    #[test]
    fn diff_round_trip() {
        let a: Multiset = vec![tuple![1], tuple![1], tuple![2]].into_iter().collect();
        let b: Multiset = vec![tuple![1], tuple![3]].into_iter().collect();
        let d = a.diff_to(&b);
        assert_eq!(d.inserts.count(&tuple![3]), 1);
        assert_eq!(d.deletes.count(&tuple![1]), 1);
        assert_eq!(d.deletes.count(&tuple![2]), 1);
        let mut a2 = a.clone();
        assert_eq!(a2.apply(&d), 0);
        assert_eq!(a2, b);
    }

    #[test]
    fn diff_of_equal_is_empty() {
        let a: Multiset = vec![tuple![1], tuple![2]].into_iter().collect();
        assert!(a.diff_to(&a.clone()).is_empty());
    }

    #[test]
    fn apply_reports_missing_deletes() {
        let mut a: Multiset = vec![tuple![1]].into_iter().collect();
        let mut d = Delta::new();
        d.deletes.insert(tuple![1], 2);
        assert_eq!(a.apply(&d), 1);
        assert!(a.is_empty());
    }

    #[test]
    fn occurrences_iteration() {
        let m: Multiset = vec![tuple![1], tuple![1], tuple![2]].into_iter().collect();
        assert_eq!(m.iter_occurrences().count(), 3);
        assert_eq!(
            m.sorted_occurrences(),
            vec![tuple![1], tuple![1], tuple![2]]
        );
    }

    #[test]
    fn snapshot_round_trip_is_deterministic() {
        let m: Multiset = vec![tuple![2], tuple![1], tuple![1], tuple!["x", 3.5]]
            .into_iter()
            .collect();
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(Multiset::decode(&mut Reader::new(&bytes)).unwrap(), m);
        // deterministic: same multiset built in a different order encodes
        // to the same bytes
        let m2: Multiset = vec![tuple!["x", 3.5], tuple![1], tuple![2], tuple![1]]
            .into_iter()
            .collect();
        let mut w2 = Writer::new();
        m2.encode(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        let mut d = Delta::new();
        d.inserts.insert(tuple![7], 2);
        d.deletes.insert(tuple![9], 1);
        let mut w = Writer::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(Delta::decode(&mut Reader::new(&bytes)).unwrap(), d);
    }

    #[test]
    fn delta_constructors() {
        let d = Delta::of_inserts(vec![tuple![1], tuple![1]]);
        assert_eq!(d.magnitude(), 2);
        assert!(!d.is_empty());
        assert!(Delta::new().is_empty());
    }
}
