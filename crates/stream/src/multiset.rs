//! Tuple multisets and deltas.
//!
//! §4.1 defines XD-Relations as mappings from time instants to *multisets*
//! of tuples (finite for dynamic relations, infinite append-only for
//! streams), following CQL. The continuous executor manipulates
//! instantaneous states as [`Multiset`]s and communicates changes between
//! operators as [`Delta`]s (inserted/deleted multisets per tick).

use std::collections::HashMap;

use serena_core::snapshot::{Reader, SnapshotError, Writer};
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
