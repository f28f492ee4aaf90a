//! Correctness inside the benchmark: an FNV digest of everything the
//! program returned, and a naive recomputation of every windowed query
//! from the generated batches.
//!
//! The recomputation follows the product's bag semantics — a window is the
//! concatenation of its last *w* batches, σ keeps counts, π sums them, ∪
//! adds, − subtracts saturating, ⋈ multiplies, γ runs over distinct tuples
//! — and compares the *support* with `current_relation`, which collapses
//! multiplicities.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{Agg, Cell, QuerySpec, Row};

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    pub fn bytes(&mut self, bs: &[u8]) {
        for b in bs {
            self.byte(*b);
        }
        // length-delimit so ("ab","c") and ("a","bc") differ
        self.byte(0xFF);
    }
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Chain one operation's digest onto the run's digest.
pub fn chain(run: u64, op_index: u64, op_digest: u64) -> u64 {
    let mut h = Fnv(run);
    h.u64(op_index);
    h.u64(op_digest);
    h.finish()
}

type Bag = BTreeMap<Row, usize>;

fn loc(r: &Row) -> &Cell {
    &r[0]
}

fn temp(r: &Row) -> f64 {
    match r[1] {
        Cell::R(t) => t,
        _ => f64::NAN,
    }
}

/// `W[w]` at instant `at`: the bag of the last `w` batches.
fn window(batches: &[Vec<Row>], at: usize, w: u64) -> Bag {
    let from = (at + 1).saturating_sub(w as usize);
    let mut bag = Bag::new();
    for batch in &batches[from..=at] {
        for row in batch {
            *bag.entry(row.clone()).or_insert(0) += 1;
        }
    }
    bag
}

fn project_location(bag: impl Iterator<Item = (Cell, usize)>) -> BTreeMap<Cell, usize> {
    let mut out = BTreeMap::new();
    for (l, n) in bag {
        *out.entry(l).or_insert(0) += n;
    }
    out
}

/// The relation `spec` must hold after the tick at instant `at`, as rows
/// of `(attribute name, value)`; `None` for shapes the oracle does not
/// recompute. `batches[i]` is what was pushed before instant `i`; `rooms`
/// is the committed `rooms(location, floor, owner)` table at `at`.
pub fn expected(
    spec: &QuerySpec,
    batches: &[Vec<Row>],
    at: usize,
    rooms: &BTreeSet<Row>,
) -> Option<Vec<Vec<(&'static str, Cell)>>> {
    let reading = |r: &Row| vec![("location", r[0].clone()), ("temperature", r[1].clone())];
    let locations = |ls: Vec<Cell>| -> Vec<Vec<(&'static str, Cell)>> {
        ls.into_iter().map(|l| vec![("location", l)]).collect()
    };
    Some(match spec {
        QuerySpec::Window { window: w } => window(batches, at, *w).keys().map(reading).collect(),
        QuerySpec::Hot { window: w, theta } => window(batches, at, *w)
            .keys()
            .filter(|r| temp(r) > *theta)
            .map(reading)
            .collect(),
        QuerySpec::Area { window: w, area } => window(batches, at, *w)
            .keys()
            .filter(|r| matches!(loc(r), Cell::S(l) if l == area))
            .map(reading)
            .collect(),
        QuerySpec::Locations { window: w } => locations(
            project_location(
                window(batches, at, *w)
                    .into_iter()
                    .map(|(r, n)| (r[0].clone(), n)),
            )
            .into_keys()
            .collect(),
        ),
        QuerySpec::GroupBy { window: w, agg } => {
            // γ runs over the window's *distinct* tuples
            let mut groups: BTreeMap<Cell, Vec<f64>> = BTreeMap::new();
            for r in window(batches, at, *w).keys() {
                groups.entry(r[0].clone()).or_default().push(temp(r));
            }
            groups
                .into_iter()
                .map(|(l, ts)| {
                    let (name, value) = match agg {
                        Agg::Avg => (
                            "avg_temperature",
                            Cell::R(ts.iter().sum::<f64>() / ts.len() as f64),
                        ),
                        Agg::Max => (
                            "max_temperature",
                            Cell::R(ts.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                        ),
                        Agg::Count => ("count_temperature", Cell::I(ts.len() as i64)),
                    };
                    vec![("location", l), (name, value)]
                })
                .collect()
        }
        QuerySpec::JoinRooms { window: w, theta } => {
            let mut out = Vec::new();
            for r in window(batches, at, *w).keys().filter(|r| temp(r) > *theta) {
                for room in rooms.iter().filter(|room| room[0] == r[0]) {
                    out.push(vec![
                        ("location", r[0].clone()),
                        ("temperature", r[1].clone()),
                        ("floor", room[1].clone()),
                        ("owner", room[2].clone()),
                    ]);
                }
            }
            out
        }
        QuerySpec::UnionRooms { window: w } => {
            let mut ls: BTreeSet<Cell> = window(batches, at, *w)
                .into_keys()
                .map(|r| r[0].clone())
                .collect();
            ls.extend(rooms.iter().map(|r| r[0].clone()));
            locations(ls.into_iter().collect())
        }
        QuerySpec::RoomsMinusSeen { window: w } => {
            let seen = project_location(
                window(batches, at, *w)
                    .into_iter()
                    .map(|(r, n)| (r[0].clone(), n)),
            );
            let have = project_location(rooms.iter().map(|r| (r[0].clone(), 1)));
            locations(
                have.into_iter()
                    .filter(|(l, n)| *n > seen.get(l).copied().unwrap_or(0))
                    .map(|(l, _)| l)
                    .collect(),
            )
        }
        _ => return None,
    })
}

/// Arrange the oracle's named rows in the column order `names` and compare
/// with what the product holds. `Err` carries a one-line description.
pub fn compare(
    query: &str,
    at: usize,
    names: &[String],
    got: &BTreeSet<Row>,
    want: Vec<Vec<(&'static str, Cell)>>,
) -> Result<(), String> {
    let mut arranged = BTreeSet::new();
    for row in want {
        let mut out = Row::with_capacity(names.len());
        for n in names {
            match row.iter().find(|(k, _)| k == n) {
                Some((_, c)) => out.push(c.clone()),
                None => {
                    return Err(format!(
                        "oracle: query {query} has unexpected attribute `{n}`"
                    ))
                }
            }
        }
        if out.len() != row.len() {
            return Err(format!(
                "oracle: query {query} lacks an attribute of {row:?}"
            ));
        }
        arranged.insert(out);
    }
    if &arranged == got {
        return Ok(());
    }
    let missing = arranged.difference(got).next();
    let extra = got.difference(&arranged).next();
    Err(format!(
        "oracle: query {query} at instant {at}: product holds {} rows, naive recomputation {} \
         (first missing {missing:?}, first unexpected {extra:?})",
        got.len(),
        arranged.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(l: &str, t: f64) -> Row {
        vec![Cell::S(l.into()), Cell::R(t)]
    }

    #[test]
    fn window_is_the_last_w_batches_with_counts() {
        let batches = vec![
            vec![r("a", 1.0)],
            vec![r("a", 1.0), r("b", 2.0)],
            vec![r("c", 3.0)],
        ];
        let w = window(&batches, 2, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w[&r("a", 1.0)], 1);
        assert_eq!(window(&batches, 1, 8)[&r("a", 1.0)], 2);
    }

    #[test]
    fn bag_difference_subtracts_occurrences() {
        let rooms: BTreeSet<Row> = [
            vec![Cell::S("a".into()), Cell::I(1), Cell::S("o1".into())],
            vec![Cell::S("a".into()), Cell::I(2), Cell::S("o2".into())],
            vec![Cell::S("b".into()), Cell::I(1), Cell::S("o3".into())],
        ]
        .into_iter()
        .collect();
        // one reading in `a` (2 rooms) and one in `b` (1 room): only `a` survives
        let batches = vec![vec![r("a", 1.0), r("b", 1.0)]];
        let out = expected(
            &QuerySpec::RoomsMinusSeen { window: 1 },
            &batches,
            0,
            &rooms,
        )
        .unwrap();
        assert_eq!(out, vec![vec![("location", Cell::S("a".into()))]]);
    }

    #[test]
    fn digest_is_order_sensitive_and_length_delimited() {
        let mut a = Fnv::new();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = Fnv::new();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(chain(chain(0, 0, 1), 1, 2), chain(chain(0, 0, 2), 1, 1));
    }
}
