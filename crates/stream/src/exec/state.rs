//! State that outlives a tick boundary: each node's checkpoint record and
//! its restore.
//!
//! A snapshot is one record per node in pre-order: the operator tag (shape
//! verification) followed by whatever that operator cannot re-derive. What
//! ⋈, ∪/∩/− and γ keep beside `current` is derived from their children's
//! `current`, and the ring σ, π, ρ, α keep over a window from the window's
//! ring, so neither has a record.

use super::*;

impl Node {
    /// Write this node's snapshot record.
    pub(super) fn snapshot(&self, w: &mut Writer) {
        w.u8(self.op.meta().0);
        match &self.op {
            // at a tick boundary the node's instantaneous state equals the
            // table's committed contents, which the table manager already
            // persists — only the bootstrap flag is node-local
            Op::Table { started, .. } => {
                w.bool(*started);
            }
            // stream sources are driven by the environment, S and βˢ keep
            // nothing between ticks
            Op::Stream { .. } | Op::StreamOf(_) | Op::SampleInvoke { .. } => {}
            Op::Serena { .. } => self.content().encode(w),
            // every β emission is mirrored in the cache (fillers included),
            // so `current` is Σ count × outputs over the entries — derived
            // on restore rather than encoded
            Op::Invoke { cache, .. } => {
                let mut entries: Vec<(&Tuple, &CacheEntry)> = cache.iter().collect();
                entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
                w.usize(entries.len());
                for (t, e) in entries {
                    w.tuple(t).usize(e.count).usize(e.outputs.len());
                    for o in &e.outputs {
                        w.tuple(o);
                    }
                }
            }
            // the window's content is exactly the multiset of the ring's
            // tuples (each tick inserts the new batch and deletes the expired
            // one), so it is derived on restore rather than encoded — the
            // dominant term of a windowed query's snapshot, halved
            Op::Window { period, ring } => {
                w.u64(*period);
                w.usize(ring.len());
                for batch in ring {
                    w.usize(batch.len());
                    for t in batch.tuples() {
                        w.tuple(t);
                    }
                }
            }
        }
    }

    /// Read back the records [`Node::snapshot`] wrote for this subtree, in
    /// the same pre-order, failing on a different operator at any position;
    /// then derive what this node's operator keeps from its children's
    /// restored `current` or ring.
    pub(super) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let tag = r.u8()?;
        let expected = self.op.meta().0;
        if tag != expected {
            return Err(SnapshotError::Mismatch(format!(
                "node {}: plan has operator tag {expected}, snapshot has {tag}",
                self.id
            )));
        }
        match &mut self.op {
            Op::Table { handle, started } => {
                *started = r.bool()?;
                // derived: the table manager restored the handle's committed
                // contents before the processor restore reached this node.
                // A node checkpointed *before* its bootstrap tick (a query
                // registered after the last tick) was still empty — its
                // bootstrap tick will apply the contents.
                self.current = if *started {
                    handle.snapshot()
                } else {
                    Multiset::new()
                };
            }
            Op::Stream { .. } | Op::StreamOf(_) | Op::SampleInvoke { .. } => {}
            // over a window, σ, π, ρ, α derive it below
            Op::Serena { .. } => self.current = Multiset::decode(r)?,
            Op::Invoke { cache, .. } => {
                let entries = r.usize()?;
                cache.clear();
                self.current = Multiset::new();
                for _ in 0..entries {
                    let t = r.tuple()?;
                    let count = r.usize()?;
                    let n_outputs = r.usize()?;
                    let mut outputs = Vec::with_capacity(n_outputs.min(r.remaining()));
                    for _ in 0..n_outputs {
                        let o = r.tuple()?;
                        // derived: the β output is the cached extensions, one
                        // occurrence per cached occurrence of the input tuple
                        self.current.insert(o.clone(), count);
                        outputs.push(o);
                    }
                    cache.insert(t, CacheEntry { count, outputs });
                }
            }
            Op::Window { period, ring } => {
                let stored = r.u64()?;
                if stored != *period {
                    return Err(SnapshotError::Mismatch(format!(
                        "node {}: window period {period} vs snapshot {stored}",
                        self.id
                    )));
                }
                let batches = r.usize()?;
                ring.clear();
                for _ in 0..batches {
                    let len = r.usize()?;
                    let mut batch = Vec::with_capacity(len.min(r.remaining()));
                    for _ in 0..len {
                        batch.push(r.tuple()?);
                    }
                    ring.push_back(Arc::new(batch.into()));
                }
            }
        }
        for child in &mut self.children {
            child.restore(r)?;
        }
        if let Op::Serena { op, state } = &mut self.op {
            *state = OpState::over(op, &self.children);
        }
        // a sliding node's `current`, where it keeps one, is its ring's
        // content: derived, not stored
        let derived = self.ring().map(|bags| {
            if self.read {
                union(bags)
            } else {
                Multiset::new()
            }
        });
        if let Some(current) = derived {
            self.current = current;
        }
        Ok(())
    }
}
