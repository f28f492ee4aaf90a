//! Tuple multisets and deltas.
//!
//! §4.1 defines XD-Relations as mappings from time instants to *multisets*
//! of tuples (finite for dynamic relations, infinite append-only for
//! streams), following CQL. The continuous executor manipulates
//! instantaneous states as [`Multiset`]s and communicates changes between
//! operators as [`Delta`]s (inserted/deleted multisets per tick). A bag a
//! window's slide hands on is a [`SharedBag`]: one value for every query
//! over the stream, which remembers what σ, π, ρ, α made of it.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Weak};

use serena_core::error::EvalError;
use serena_core::formula::CompiledFormula;
use serena_core::ops::{CompiledOp, Slot};
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::sync::Mutex;
use serena_core::tuple::Tuple;

/// A finite multiset of tuples with positive counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Multiset {
    counts: HashMap<Tuple, usize>,
    total: usize,
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
        *self.counts.entry(t).or_insert(0) += n;
        self.total += n;
    }

    /// [`Multiset::insert`], except that a tuple new to `self` which `like`
    /// holds is kept as `like`'s copy: bags that have tuples in common then
    /// share them instead of holding equal copies.
    pub(crate) fn insert_like(&mut self, t: Tuple, n: usize, like: Option<&Multiset>) {
        let Some(like) = like.filter(|_| n > 0) else {
            return self.insert(t, n);
        };
        if let Some(count) = self.counts.get_mut(&t) {
            *count += n;
        } else {
            let held = like.counts.get_key_value(&t);
            self.counts
                .insert(held.map_or(t, |(held, _)| held.clone()), n);
        }
        self.total += n;
    }

    /// Remove up to `n` occurrences; returns how many were removed.
    pub fn remove(&mut self, t: &Tuple, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        match self.counts.get_mut(t) {
            None => 0,
            Some(c) => {
                let removed = n.min(*c);
                *c -= removed;
                if *c == 0 {
                    self.counts.remove(t);
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
        self.counts
            .iter()
            .flat_map(|(t, &c)| std::iter::repeat_n(t, c))
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
            let t = r.tuple()?;
            let c = r.usize()?;
            m.insert(t, c);
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
#[derive(Debug)]
pub struct SharedBag {
    bag: Multiset,
    /// Per mapping, the bag and the errors met. The bag is held weakly: an
    /// entry keeps nothing alive, and a mapping whose every taker has let
    /// go is mapped again by the next one to ask.
    memo: Mutex<Memo>,
}

type Memo = HashMap<Arc<Mapping>, (Weak<SharedBag>, Vec<EvalError>)>;

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

    /// The bag of a value nothing else holds; a copy of a shared one's.
    pub(crate) fn into_bag(self: Arc<Self>) -> Multiset {
        Arc::try_unwrap(self).map_or_else(|shared| shared.bag.clone(), |own| own.bag)
    }
}

impl From<Multiset> for SharedBag {
    fn from(bag: Multiset) -> Self {
        SharedBag {
            bag,
            memo: Mutex::default(),
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

    impl SharedBag {
        /// The bags the memo points at.
        pub(crate) fn memoized(&self) -> Vec<Weak<SharedBag>> {
            let memo = self.memo.lock();
            memo.values().map(|(bag, _)| Weak::clone(bag)).collect()
        }
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
