//! ⋈, ∪/∩/− and γ over deltas: what each keeps across ticks beside its
//! [`CompiledOp`], and the net delta it derives from its operands' deltas;
//! and the ring σ, π, ρ, α keep over a sliding operand.
//!
//! All of it is *derived*: a function of the operands' `current` (of the
//! operand's ring, for σ, π, ρ, α), so it is rebuilt from them
//! ([`OpState::over`]) and never checkpointed. Children
//! tick first, so an operator here sees its operands' `current` *after* this
//! instant's deltas and its own `current` *before* — and an operand delta may
//! name one tuple on both sides (π over a sliding window does), so nothing
//! below assumes its input is net. What it emits always is: a tuple on one
//! side only, by exactly the amount the output's count moved.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::iter::repeat_n;
use std::mem::discriminant;

use serena_core::attr::AttrName;
use serena_core::ops::{AggFun, AggSpec};
use serena_core::value::Value;

use super::tick::map_bag;
use super::*;
use crate::multiset::Mapping;

/// What a Serena operator carries across ticks besides its node's `current`.
pub(super) enum OpState {
    /// σ, π, ρ, α over a finite delta map each tuple on its own.
    Stateless,
    /// σ, π, ρ, α over a sliding operand: per batch in the window's ring,
    /// oldest first, the bag it mapped to when it entered — what the node
    /// hands on again when the batch expires. Each is the entering bag's
    /// memo entry under `mapping`, the bag every query with the same
    /// operator holds.
    Ring {
        mapping: Arc<Mapping>,
        bags: VecDeque<Arc<SharedBag>>,
    },
    /// ⋈: each operand's tuples under their join key.
    Join { left: KeyIndex, right: KeyIndex },
    /// ∪, ∩, −: the right operand in the left's coordinate order, held only
    /// when the two orders differ (else the right child's `current` is it).
    SetOp { right: Option<Multiset> },
    /// γ: the live groups.
    Groups(Groups),
}

impl OpState {
    /// The state `op` holds while its operands hold `children`'s `current`
    /// (or ring): empty over the cold children of a fresh compile, full after
    /// a restore.
    pub(super) fn over(op: &CompiledOp, children: &[Node]) -> OpState {
        match op {
            CompiledOp::Join {
                key_left,
                key_right,
                ..
            } => OpState::Join {
                left: KeyIndex::over(&children[0].current, key_left),
                right: KeyIndex::over(&children[1].current, key_right),
            },
            CompiledOp::Union { rhs_reorder }
            | CompiledOp::Intersect { rhs_reorder }
            | CompiledOp::Difference { rhs_reorder } => OpState::SetOp {
                right: rhs_reorder
                    .is_some()
                    .then(|| reordered(op, &children[1].current)),
            },
            CompiledOp::Aggregate {
                in_schema,
                group,
                aggs,
            } => OpState::Groups(Groups::over(in_schema, group, aggs, &children[0].current)),
            _ => match children[0].ring() {
                Some(operand) => {
                    let mapping = Arc::new(Mapping::of(op));
                    let mut bags: VecDeque<Arc<SharedBag>> = VecDeque::with_capacity(operand.len());
                    for bag in operand {
                        let like = bags.back().map(|bag| &***bag);
                        // a failing tuple was reported when its batch entered
                        let mapped = bag.mapped(&mapping, &mut Vec::new(), |bag, errors| {
                            map_bag(op, bag, errors, like)
                        });
                        bags.push_back(mapped);
                    }
                    OpState::Ring { mapping, bags }
                }
                None => OpState::Stateless,
            },
        }
    }
}

/// One ⋈ operand's tuples under their join key. No bucket is ever empty, so
/// the index holds exactly the keys of the operand's `current`.
#[derive(Default)]
pub(super) struct KeyIndex(HashMap<Tuple, Multiset>);

impl KeyIndex {
    fn over(operand: &Multiset, key: &[usize]) -> KeyIndex {
        let mut index = KeyIndex::default();
        for (t, c) in operand.iter() {
            index.insert(t.project_positions(key), t, c);
        }
        index
    }

    fn insert(&mut self, key: Tuple, t: &Tuple, c: usize) {
        self.0.entry(key).or_default().insert(t.clone(), c);
    }

    fn remove(&mut self, key: &Tuple, t: &Tuple, c: usize) {
        let Some(bucket) = self.0.get_mut(key) else {
            debug_assert!(false, "⋈ index: key of {t:?} not held");
            return;
        };
        let removed = bucket.remove(t, c);
        debug_assert_eq!(removed, c, "⋈ index: {t:?} retracted but not held");
        if bucket.is_empty() {
            self.0.remove(key);
        }
    }

    /// Number of distinct join keys held.
    #[cfg(test)]
    pub(super) fn keys(&self) -> usize {
        self.0.len()
    }
}

/// Δ(L ⋈ R) = ΔL ⋈ R + L′ ⋈ ΔR, bag counts multiplying; both indexes end the
/// call holding the operands' new state.
pub(super) fn join_delta(
    op: &CompiledOp,
    left: &mut KeyIndex,
    right: &mut KeyIndex,
    delta_left: &Delta,
    delta_right: &Delta,
) -> Delta {
    let CompiledOp::Join {
        key_left,
        key_right,
        ..
    } = op
    else {
        unreachable!("{} keeps no ⋈ indexes", op.kind())
    };
    let mut out = Delta::new();
    join_half(delta_left, key_left, left, right, &mut out, |l, r| {
        op.join_tuple(l, r)
    });
    join_half(delta_right, key_right, right, left, &mut out, |r, l| {
        op.join_tuple(l, r)
    });
    // one pair can gain on one term what it loses on the other
    out.net()
}

/// One term of [`join_delta`]: pair `delta` with what `other` holds, then
/// bring `own` — the index of the operand `delta` belongs to — up to date.
fn join_half(
    delta: &Delta,
    key: &[usize],
    own: &mut KeyIndex,
    other: &KeyIndex,
    out: &mut Delta,
    pair: impl Fn(&Tuple, &Tuple) -> Tuple,
) {
    for (side, paired, retract) in [
        (&delta.deletes, &mut out.deletes, true),
        (&delta.inserts, &mut out.inserts, false),
    ] {
        for (t, c) in side.iter() {
            let k = t.project_positions(key);
            for (u, cu) in other.0.get(&k).into_iter().flat_map(Multiset::iter) {
                let n = c.checked_mul(cu).expect("⋈ bag count overflows usize");
                paired.insert(pair(t, u), n);
            }
            if retract {
                own.remove(&k, t, c);
            } else {
                own.insert(k, t, c);
            }
        }
    }
}

/// A right-operand multiset of ∪/∩/− in the left operand's coordinates.
fn reordered(op: &CompiledOp, right: &Multiset) -> Multiset {
    let mut out = Multiset::new();
    for (t, c) in right.iter() {
        out.insert(op.reorder_rhs(t), c);
    }
    out
}

/// ∪/∩/− over deltas: `l + r` / `min(l, r)` / `l ∸ r` recomputed for the
/// tuples a delta touched, against the count `current` (this node's output
/// before the instant) holds for each.
pub(super) fn setop_delta(
    op: &CompiledOp,
    right: &mut Option<Multiset>,
    delta_left: &Delta,
    delta_right: &Delta,
    children: &[Node],
    current: &Multiset,
) -> Delta {
    let delta_right = match right {
        Some(right) => {
            let delta = Delta {
                inserts: reordered(op, &delta_right.inserts),
                deletes: reordered(op, &delta_right.deletes),
            };
            let missing = right.apply(&delta);
            debug_assert_eq!(missing, 0, "{}: right operand desynced", op.kind());
            Cow::Owned(delta)
        }
        None => Cow::Borrowed(delta_right),
    };
    let left = &children[0].current;
    let right = right.as_ref().unwrap_or(&children[1].current);
    let mut out = Delta::new();
    let mut sides = [
        &delta_left.inserts,
        &delta_left.deletes,
        &delta_right.inserts,
        &delta_right.deletes,
    ];
    // a tuple several sides name is decided once; largest side first, so
    // the fewest tuples pay for finding that out
    sides.sort_by_key(|side| std::cmp::Reverse(side.distinct()));
    for (i, side) in sides.iter().enumerate() {
        for (t, _) in side.iter() {
            if sides[..i].iter().any(|earlier| earlier.contains(t)) {
                continue; // settled under the first side that named it
            }
            let (l, r, old) = (left.count(t), right.count(t), current.count(t));
            let new = match op {
                CompiledOp::Union { .. } => l.checked_add(r).expect("∪ bag count overflows usize"),
                CompiledOp::Intersect { .. } => l.min(r),
                CompiledOp::Difference { .. } => l.saturating_sub(r),
                _ => unreachable!("{} is no set operator", op.kind()),
            };
            if new > old {
                out.inserts.insert(t.clone(), new - old);
            } else if old > new {
                out.deletes.insert(t.clone(), old - new);
            }
        }
    }
    out
}

/// γ's live groups. γ has set semantics (as the one-shot operator): a group
/// is made of the operand's *distinct* tuples, so only a tuple's first
/// occurrence arriving or last one leaving changes anything.
pub(super) struct Groups {
    group_coords: Vec<usize>,
    /// Per aggregate: the function and the operand coordinate it reads.
    aggs: Vec<(AggFun, usize)>,
    live: HashMap<Tuple, Group>,
}

struct Group {
    /// Distinct operand tuples in the group; the group dies at zero.
    members: usize,
    /// Per aggregate, the ordered bag of its attribute's values over the
    /// members: MIN and MAX are its ends, SUM and AVG fold it in order — a
    /// function of the group's content, not of the deltas that built it.
    /// COUNT reads `members` and leaves its bag empty.
    values: Vec<BTreeMap<Value, usize>>,
    /// The output tuple the group last emitted.
    out: Option<Tuple>,
    /// Already queued for re-finishing this instant.
    touched: bool,
}

impl Groups {
    fn over(
        in_schema: &SchemaRef,
        group: &[AttrName],
        aggs: &[AggSpec],
        operand: &Multiset,
    ) -> Groups {
        let coord = |a: &AttrName| in_schema.coord_of(a.as_str()).expect("validated real");
        let mut groups = Groups {
            group_coords: group.iter().map(coord).collect(),
            aggs: aggs.iter().map(|s| (s.fun, coord(&s.attr))).collect(),
            live: HashMap::new(),
        };
        let mut touched = Vec::new();
        for (t, _) in operand.iter() {
            groups.set_member(t, true, &mut touched);
        }
        // sets each group's `out` to what an uninterrupted run holds there;
        // the delta it returns is what the node's `current` already has
        groups.refinish(touched);
        groups
    }

    /// Number of live groups.
    #[cfg(test)]
    pub(super) fn live(&self) -> usize {
        self.live.len()
    }

    /// Add `t` to its group or take it out, queueing the group's key in
    /// `touched` the first time this instant.
    fn set_member(&mut self, t: &Tuple, member: bool, touched: &mut Vec<Tuple>) {
        let key = t.project_positions(&self.group_coords);
        let group = self.live.entry(key.clone()).or_insert_with(|| Group {
            members: 0,
            values: vec![BTreeMap::new(); self.aggs.len()],
            out: None,
            touched: false,
        });
        let step = if member {
            group.members.checked_add(1)
        } else {
            group.members.checked_sub(1)
        };
        group.members = step.expect("γ member count out of range");
        for (bag, (fun, coord)) in group.values.iter_mut().zip(&self.aggs) {
            if *fun == AggFun::Count {
                continue;
            }
            let v = &t[*coord];
            if member {
                *bag.entry(v.clone()).or_insert(0) += 1;
            } else {
                match bag.get_mut(v) {
                    Some(n) if *n > 1 => *n -= 1,
                    held => {
                        debug_assert!(held.is_some(), "γ: {v:?} retracted but not held");
                        bag.remove(v);
                    }
                }
            }
        }
        if !std::mem::replace(&mut group.touched, true) {
            touched.push(key);
        }
    }

    /// `t`'s count moved by `+inserted − deleted` to what `operand` now
    /// holds: a change of membership only if it left or reached zero.
    fn moved(
        &mut self,
        t: &Tuple,
        inserted: usize,
        deleted: usize,
        operand: &Multiset,
        touched: &mut Vec<Tuple>,
    ) {
        let now = operand.count(t);
        let before = now
            .checked_add(deleted)
            .and_then(|n| n.checked_sub(inserted))
            .expect("γ operand count out of range");
        if (before > 0) != (now > 0) {
            self.set_member(t, now > 0, touched);
        }
    }

    /// Re-finish the `touched` groups: retract the outputs that moved, emit
    /// their replacements, drop the groups that emptied.
    fn refinish(&mut self, touched: Vec<Tuple>) -> Delta {
        let mut out = Delta::new();
        for key in touched {
            let group = self.live.get_mut(&key).expect("touched groups are live");
            group.touched = false;
            let new = (group.members > 0).then(|| finish(&self.aggs, &key, group));
            if new != group.out {
                if let Some(new) = &new {
                    out.inserts.insert(new.clone(), 1);
                }
                if let Some(old) = std::mem::replace(&mut group.out, new) {
                    out.deletes.insert(old, 1);
                }
            }
            if group.members == 0 {
                self.live.remove(&key);
            }
        }
        out
    }

    /// γ over a delta: re-finish the groups whose set of distinct tuples the
    /// delta changed. `operand` is the child's `current`, the delta applied.
    pub(super) fn delta(&mut self, delta: &Delta, operand: &Multiset) -> Delta {
        let mut touched = Vec::new();
        for (t, inserted) in delta.inserts.iter() {
            self.moved(t, inserted, delta.deletes.count(t), operand, &mut touched);
        }
        for (t, deleted) in delta.deletes.iter() {
            if !delta.inserts.contains(t) {
                self.moved(t, 0, deleted, operand, &mut touched);
            }
        }
        self.refinish(touched)
    }
}

/// One group's output tuple: its key, then one value per aggregate.
fn finish(aggs: &[(AggFun, usize)], key: &Tuple, group: &Group) -> Tuple {
    let aggregates = aggs.iter().zip(&group.values).map(|((fun, _), bag)| {
        if *fun == AggFun::Count {
            return Value::Int(i64::try_from(group.members).expect("γ count fits i64"));
        }
        let (first, last) = match (bag.first_key_value(), bag.last_key_value()) {
            (Some((first, _)), Some((last, _))) => (first, last),
            _ => unreachable!("a live group holds a value per member"),
        };
        // the bag is in storage order, which is the comparison MIN and MAX
        // make wherever all values are of one variant; a STRING column
        // holding service references is not, and takes the typed fold
        let one_variant = discriminant(first) == discriminant(last);
        match fun {
            AggFun::Min if one_variant => first.clone(),
            AggFun::Max if one_variant => last.clone(),
            _ => fun.fold(bag.iter().flat_map(|(v, &n)| repeat_n(v, n))),
        }
    });
    key.values().cloned().chain(aggregates).collect()
}
