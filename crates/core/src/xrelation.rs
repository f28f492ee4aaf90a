//! X-Relations: extended relations (Definition 3).
//!
//! An X-Relation is a *finite set* of tuples over an extended relation
//! schema. Tuples carry coordinates for real attributes only; the schema's
//! δ mapping locates them. Set semantics are enforced: inserting a duplicate
//! tuple is a no-op.
//!
//! **Text lookups** (DESIGN § 4, *A statement looks up the rows its equality
//! selects*). A relation may also carry, per coordinate, a lookup from a
//! text to the tuples whose coordinate holds it, each bucket in relation
//! order. The text is [`Value::as_str`], so a `Str` and a `Service` with
//! equal text share a bucket, as [`Value::partial_cmp_typed`] compares them.
//! It is derived state, and:
//! - *built* by the first one-shot `σ` that can use it, on the relation that
//!   `σ` reads — a table's shared instant, so it outlives the statement —
//!   through [`text_buckets`], which builds a stream bag's lookup too;
//! - *kept current* by [`XRelation::insert`], [`XRelation::remove`],
//!   [`XRelation::insert_sorted`] and [`XRelation::remove_sorted`], the only
//!   ways a relation changes: an entry goes in at its place in the bucket, so
//!   a bucket stays a subsequence of the relation;
//! - *refused* for a coordinate where some tuple holds no text: that
//!   coordinate remembers it and every `σ` on it scans;
//! - *dropped* by `Clone` (a copy builds its own, if a `σ` asks), never
//!   compared, printed or checkpointed.
//!
//! A relation no such `σ` read allocates nothing for it, and a write to it
//! costs one check, taking no lock.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::schema::SchemaRef;
use crate::tuple::Tuple;
use crate::value::Value;

/// One coordinate's text lookup: text → the tuples holding it, in relation
/// order; `None` once a tuple held no text there (refused).
type TextLookup = Option<HashMap<Box<str>, Vec<Tuple>>>;

/// A text lookup's buckets for coordinate `coord` of `rows`: each text
/// ([`Value::as_str`]) to the elements of the tuples holding it, in the
/// order `rows` yields them; `None` as soon as a tuple holds no text there.
/// The one builder of every text lookup — an [`XRelation`]'s, whose
/// elements are its tuples, and a stream bag's, whose elements are a tuple
/// and its count.
pub fn text_buckets<'t, E>(
    coord: usize,
    rows: impl IntoIterator<Item = (&'t Tuple, E)>,
) -> Option<HashMap<Box<str>, Vec<E>>> {
    let mut buckets: HashMap<Box<str>, Vec<E>> = HashMap::new();
    for (t, element) in rows {
        let text = t.get(coord).and_then(Value::as_str)?;
        match buckets.get_mut(text) {
            Some(bucket) => bucket.push(element),
            None => {
                buckets.insert(text.into(), vec![element]);
            }
        }
    }
    Some(buckets)
}

/// An extended relation over an [`XSchema`](crate::schema::XSchema) (Definition 3).
pub struct XRelation {
    schema: SchemaRef,
    /// Insertion-ordered unique tuples. A parallel hash set provides O(1)
    /// duplicate detection; the `Vec` keeps deterministic iteration order
    /// (important for reproducible experiment output).
    tuples: Vec<Tuple>,
    index: HashSet<Tuple>,
    /// Text lookups by coordinate (module docs): one slot per real
    /// attribute once a `σ` asked, each built on first use.
    lookups: OnceLock<Box<[OnceLock<TextLookup>]>>,
}

impl XRelation {
    /// The empty relation over `schema`.
    pub fn empty(schema: SchemaRef) -> Self {
        XRelation::with_capacity(schema, 0)
    }

    /// The empty relation over `schema`, with room for `n` tuples.
    pub(crate) fn with_capacity(schema: SchemaRef, n: usize) -> Self {
        XRelation {
            schema,
            tuples: Vec::with_capacity(n),
            index: HashSet::with_capacity(n),
            lookups: OnceLock::new(),
        }
    }

    /// Build from tuples, dropping duplicates. Tuple/schema conformance is
    /// *not* checked here.
    pub fn from_tuples(schema: SchemaRef, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut r = XRelation::empty(schema);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Checked construction: every tuple must conform to the schema (arity
    /// and types).
    fn try_from_tuples(
        schema: SchemaRef,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, String> {
        let mut r = XRelation::empty(schema);
        for t in tuples {
            r.schema.check_tuple(&t)?;
            r.insert(t);
        }
        Ok(r)
    }

    /// The extended relation schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_ref(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple (set semantics). Returns `true` if newly inserted.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if !self.index.insert(t.clone()) {
            return false;
        }
        self.patch_lookups(&t, |bucket| bucket.push(t.clone()));
        self.tuples.push(t);
        true
    }

    /// Remove a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if !self.index.remove(t) {
            return false;
        }
        if let Some(pos) = self.tuples.iter().position(|u| u == t) {
            self.tuples.remove(pos);
        }
        self.patch_lookups(t, |bucket| bucket.retain(|u| u != t));
        true
    }

    /// [`XRelation::insert`] for a relation whose tuples are in ascending
    /// order (built from sorted input, changed only through this and
    /// [`XRelation::remove_sorted`]): `t` enters at its sorted position.
    pub fn insert_sorted(&mut self, t: Tuple) -> bool {
        let Err(pos) = self.tuples.binary_search(&t) else {
            return false;
        };
        self.index.insert(t.clone());
        self.patch_lookups(&t, |bucket| {
            let at = bucket.binary_search(&t).unwrap_or_else(|at| at);
            bucket.insert(at, t.clone());
        });
        self.tuples.insert(pos, t);
        true
    }

    /// [`XRelation::remove`] for a relation whose tuples are in ascending
    /// order: `t` is found by binary search, not by a scan.
    pub fn remove_sorted(&mut self, t: &Tuple) -> bool {
        let Ok(pos) = self.tuples.binary_search(t) else {
            return false;
        };
        self.index.remove(t);
        self.tuples.remove(pos);
        self.patch_lookups(t, |bucket| {
            if let Ok(at) = bucket.binary_search(t) {
                bucket.remove(at);
            }
        });
        true
    }

    /// The tuples whose coordinate `coord` holds `text` (module docs), in
    /// relation order; `None` when some tuple holds no text there. The
    /// coordinate's lookup is built by the first call.
    pub(crate) fn text_lookup(&self, coord: usize, text: &str) -> Option<&[Tuple]> {
        let slots = self.lookups.get_or_init(|| {
            (0..self.schema.real_arity())
                .map(|_| OnceLock::new())
                .collect()
        });
        let lookup = slots.get(coord)?.get_or_init(|| self.build_lookup(coord));
        Some(lookup.as_ref()?.get(text).map_or(&[], Vec::as_slice))
    }

    fn build_lookup(&self, coord: usize) -> TextLookup {
        #[cfg(test)]
        tests::LOOKUP_BUILDS.with(|n| n.set(n.get() + 1));
        text_buckets(coord, self.tuples.iter().map(|t| (t, t.clone())))
    }

    /// Keep every built lookup current after the distinct tuple `t` entered
    /// or left the relation: `change` does to `t`'s bucket what was done to
    /// the relation.
    fn patch_lookups(&mut self, t: &Tuple, change: impl Fn(&mut Vec<Tuple>)) {
        let Some(slots) = self.lookups.get_mut() else {
            return;
        };
        for (coord, slot) in slots.iter_mut().enumerate() {
            let Some(lookup) = slot.get_mut() else {
                continue;
            };
            let Some(buckets) = lookup else {
                continue;
            };
            let Some(text) = t.get(coord).and_then(Value::as_str) else {
                // only an entering tuple can hold no text: every one the
                // lookup was built over or patched with did
                *lookup = None;
                continue;
            };
            if !buckets.contains_key(text) {
                buckets.insert(text.into(), Vec::new());
            }
            let bucket = buckets.get_mut(text).expect("just inserted");
            change(bucket);
            if bucket.is_empty() {
                buckets.remove(text);
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.index.contains(t)
    }

    /// Iterate tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Tuples as a slice (insertion order).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consume into the tuple vector.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Set equality with another relation: same (compatible) schema and the
    /// same tuple set, tolerating attribute-order differences.
    pub fn set_eq(&self, other: &XRelation) -> bool {
        if !self.schema.compatible_with(&other.schema) || self.len() != other.len() {
            return false;
        }
        match self.schema.reorder_map(&other.schema) {
            Some(map) => other
                .iter()
                .all(|t| self.index.contains(&t.project_positions(&map))),
            None => false,
        }
    }

    /// Render as a paper-style table: one column per schema attribute, `*`
    /// in virtual columns (cf. the tables of §1.2).
    pub fn to_table(&self) -> String {
        let schema = &self.schema;
        let mut headers: Vec<String> = schema.attrs().iter().map(|a| a.name.to_string()).collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.len());
        for t in &self.tuples {
            let row: Vec<String> = schema
                .attrs()
                .iter()
                .enumerate()
                .map(|(i, _)| match schema.delta(i) {
                    Some(c) => t[c].to_string(),
                    None => "*".to_string(),
                })
                .collect();
            rows.push(row);
        }
        // column widths
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (h, w) in headers.iter_mut().zip(&widths) {
            *h = format!("{h:<w$}");
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-");
        let mut out = format!("| {} |\n|-{sep}-|\n", headers.join(" | "));
        for row in rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }
}

/// A copy starts without text lookups; a `σ` on the copy builds what it
/// needs.
impl Clone for XRelation {
    fn clone(&self) -> Self {
        XRelation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            index: self.index.clone(),
            lookups: OnceLock::new(),
        }
    }
}

impl fmt::Debug for XRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XRelation{:?} {{", self.schema)?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl PartialEq for XRelation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for XRelation {}

impl<'a> IntoIterator for &'a XRelation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

/// The running example's relations (§1.2 / Example 4), shared by tests,
/// examples and benchmarks.
pub mod examples {
    use super::*;
    use crate::schema::examples as schemas;
    use crate::tuple;

    /// The `contacts` X-Relation of Example 4.
    pub fn contacts() -> XRelation {
        XRelation::try_from_tuples(
            schemas::contacts_schema(),
            vec![
                tuple!["Nicolas", "nicolas@elysee.fr", "email"],
                tuple!["Carla", "carla@elysee.fr", "email"],
                tuple!["Francois", "francois@im.gouv.fr", "jabber"],
            ],
        )
        .expect("tuples conform")
    }

    /// The `cameras` X-Relation (camera/area per the scenario).
    pub fn cameras() -> XRelation {
        XRelation::try_from_tuples(
            schemas::cameras_schema(),
            vec![
                tuple!["camera01", "office"],
                tuple!["camera02", "corridor"],
                tuple!["webcam07", "office"],
            ],
        )
        .expect("tuples conform")
    }

    /// The temperature-sensor table of §1.2.
    pub fn sensors() -> XRelation {
        XRelation::try_from_tuples(
            schemas::sensors_schema(),
            vec![
                tuple!["sensor01", "corridor"],
                tuple!["sensor06", "office"],
                tuple!["sensor07", "office"],
                tuple!["sensor22", "roof"],
            ],
        )
        .expect("tuples conform")
    }
}

#[cfg(test)]
mod tests {
    use super::examples::*;
    use super::*;
    use crate::schema::XSchema;
    use crate::tuple;
    use crate::value::DataType;
    use std::cell::Cell;

    thread_local! {
        /// Text lookups built on this thread: each one walks its relation.
        pub(super) static LOOKUP_BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    fn builds() -> usize {
        LOOKUP_BUILDS.with(Cell::get)
    }

    /// What a lookup must answer: the tuples holding `text` at `coord`, in
    /// relation order.
    fn scanned(r: &XRelation, coord: usize, text: &str) -> Vec<Tuple> {
        let holds = |t: &&Tuple| t[coord].as_str() == Some(text);
        r.iter().filter(holds).cloned().collect()
    }

    /// The regression guard that needs no clock: a coordinate's lookup is
    /// built once, patched — not rebuilt — by every kind of write, absent
    /// from a copy, and refused for good once a tuple holds no text there.
    #[test]
    fn a_text_lookup_is_built_once_patched_by_writes_and_not_copied() {
        let s = XSchema::builder()
            .real("name", DataType::Str)
            .real("kind", DataType::Service)
            .real("n", DataType::Int)
            .build()
            .unwrap();
        let row = |name: &str, kind: &str, n: i64| {
            Tuple::new(vec![Value::str(name), Value::service(kind), Value::Int(n)])
        };
        let mut rows: Vec<Tuple> = (0..30)
            .map(|i| row(["a", "b", "c"][i % 3], ["x", "y"][i % 2], i as i64))
            .collect();
        rows.sort_unstable();
        let mut r = XRelation::from_tuples(s, rows);
        let agrees = |r: &XRelation| {
            for (coord, text) in [(0, "a"), (0, "c"), (0, "z"), (1, "x"), (1, "y")] {
                assert_eq!(r.text_lookup(coord, text).unwrap(), scanned(r, coord, text));
            }
        };

        let at_start = builds();
        agrees(&r);
        agrees(&r);
        assert_eq!(builds(), at_start + 2, "one build per coordinate asked");
        assert!(
            r.text_lookup(2, "1").is_none(),
            "an INTEGER coordinate refuses"
        );
        assert!(r.text_lookup(2, "1").is_none());
        assert_eq!(builds(), at_start + 3, "a refusal is remembered");

        // 100 writes of every kind, the relation kept in ascending order
        for i in 0..100i64 {
            let name = ["a", "b", "c"][i as usize % 3];
            match i % 4 {
                0 => assert!(r.insert_sorted(row(name, "y", 100 + i))),
                1 => assert!(r.insert(row("z", "x", 100 + i))),
                2 => {
                    let first = r.tuples()[0].clone();
                    assert!(r.remove_sorted(&first));
                }
                _ => {
                    let middle = r.tuples()[r.len() / 2].clone();
                    assert!(r.remove(&middle));
                }
            }
            assert!(r.tuples().windows(2).all(|w| w[0] < w[1]));
            agrees(&r);
        }
        assert_eq!(builds(), at_start + 3, "patched, never rebuilt");

        let copy = r.clone();
        agrees(&copy);
        assert_eq!(builds(), at_start + 5, "a copy builds its own");

        // a non-text value enters `kind`: that coordinate scans from now on,
        // even once the value has left; `name` keeps its lookup
        let odd = Tuple::new(vec![Value::str("b"), Value::Int(7), Value::Int(0)]);
        assert!(r.insert_sorted(odd.clone()));
        assert!(r.text_lookup(1, "x").is_none());
        assert_eq!(r.text_lookup(0, "b").unwrap(), scanned(&r, 0, "b"));
        assert!(r.remove_sorted(&odd));
        assert!(r.text_lookup(1, "x").is_none());
        assert_eq!(builds(), at_start + 5);
        // and a relation that holds one from the start refuses at its build
        let fresh = XRelation::from_tuples(r.schema_ref(), [odd]);
        assert!(fresh.text_lookup(1, "x").is_none());
        assert!(fresh.text_lookup(1, "x").is_none());
        assert_eq!(builds(), at_start + 6);
    }

    #[test]
    fn set_semantics_dedup() {
        let s = XSchema::builder().real("x", DataType::Int).build().unwrap();
        let mut r = XRelation::empty(s);
        assert!(r.insert(tuple![1]));
        assert!(!r.insert(tuple![1]));
        assert!(r.insert(tuple![2]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tuple![1]));
        assert!(r.remove(&tuple![1]));
        assert!(!r.remove(&tuple![1]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn sorted_insert_and_remove_keep_the_order() {
        let s = XSchema::builder().real("x", DataType::Int).build().unwrap();
        let mut r = XRelation::from_tuples(s, vec![tuple![2], tuple![4], tuple![6]]);
        assert!(r.insert_sorted(tuple![5]));
        assert!(r.insert_sorted(tuple![1]));
        assert!(r.insert_sorted(tuple![7]));
        assert!(!r.insert_sorted(tuple![4]));
        assert!(r.remove_sorted(&tuple![2]));
        assert!(!r.remove_sorted(&tuple![2]));
        assert!(!r.remove_sorted(&tuple![3]));
        assert_eq!(
            r.tuples(),
            [tuple![1], tuple![4], tuple![5], tuple![6], tuple![7]]
        );
        assert!(r.contains(&tuple![5]) && !r.contains(&tuple![2]));
    }

    #[test]
    fn checked_construction_rejects_bad_tuples() {
        let s = XSchema::builder().real("x", DataType::Int).build().unwrap();
        assert!(XRelation::try_from_tuples(s.clone(), vec![tuple!["oops"]]).is_err());
        assert!(XRelation::try_from_tuples(s, vec![tuple![1, 2]]).is_err());
    }

    #[test]
    fn example_relations_have_paper_cardinalities() {
        assert_eq!(contacts().len(), 3);
        assert_eq!(cameras().len(), 3);
        assert_eq!(sensors().len(), 4);
    }

    #[test]
    fn table_rendering_shows_stars_for_virtual() {
        let table = contacts().to_table();
        assert!(table.contains("name"));
        assert!(table.contains("text"));
        // the virtual columns render as '*'
        assert!(table.contains("*"));
        assert!(table.contains("nicolas@elysee.fr"));
    }

    #[test]
    fn set_eq_tolerates_attribute_order() {
        let a = XSchema::builder()
            .real("x", DataType::Int)
            .real("y", DataType::Str)
            .build()
            .unwrap();
        let b = XSchema::builder()
            .real("y", DataType::Str)
            .real("x", DataType::Int)
            .build()
            .unwrap();
        let ra = XRelation::from_tuples(a, vec![tuple![1, "p"], tuple![2, "q"]]);
        let rb = XRelation::from_tuples(b, vec![tuple!["q", 2], tuple!["p", 1]]);
        assert!(ra.set_eq(&rb));
        assert_eq!(ra, rb);
    }

    #[test]
    fn set_eq_distinguishes_content() {
        let s = XSchema::builder().real("x", DataType::Int).build().unwrap();
        let a = XRelation::from_tuples(s.clone(), vec![tuple![1]]);
        let b = XRelation::from_tuples(s, vec![tuple![2]]);
        assert!(!a.set_eq(&b));
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let s = XSchema::builder().real("x", DataType::Int).build().unwrap();
        let r = XRelation::from_tuples(s, vec![tuple![3], tuple![1], tuple![2]]);
        let xs: Vec<i64> = r.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(xs, vec![3, 1, 2]);
    }
}
