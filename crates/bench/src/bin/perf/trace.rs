//! The benchmark's own spans: recorded around the calls into each layer,
//! kept in a preallocated vector, written out when the run ends.
//!
//! One driver thread makes every call, so a stack gives the parent. No
//! span is recorded inside the product — that is a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for the root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operation index the span belongs to (`u32::MAX` outside the loop).
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; 0 when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Span recorder. Disabled, every call is one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    /// Counts recorded at the same boundaries as the spans, by name.
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: u32::MAX,
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `n` to the count called `name` (work done under a span, so that
    /// per-unit ratios are taken where the work happens).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Whether a span or a count called `key` was recorded.
    pub fn has(&self, key: &str) -> bool {
        self.counts.contains_key(key) || self.spans.iter().any(|s| s.name == key)
    }

    pub fn on(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Operation index stamped on spans begun from now on.
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op.map_or(u32::MAX, |i| i as u32);
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            op: self.op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == 0 {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id.0 as usize - 1].end_ns = end_ns;
        // spans close in LIFO order on the one driver thread
        while let Some(top) = self.stack.pop() {
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }
}

/// The spans of a run's tracers as one tree: `main`'s own, then each of
/// `sessions` under `main`'s root with fresh ids and on `main`'s clock.
/// (Each session of a traced run records into a tracer of its own, so that
/// a layer's number is never a blend of differently configured sessions.)
pub fn merged(main: &Tracer, sessions: &[&Tracer]) -> Vec<Span> {
    let mut out = main.spans.clone();
    let root = out.first().map_or(0, |s| s.id);
    for t in sessions {
        let shift = out.len() as u32;
        let later_ns = t.epoch.saturating_duration_since(main.epoch).as_nanos() as u64;
        out.extend(t.spans.iter().map(|s| Span {
            id: s.id + shift,
            parent: if s.parent == 0 {
                root
            } else {
                s.parent + shift
            },
            start_ns: s.start_ns + later_ns,
            end_ns: s.end_ns + later_ns,
            ..s.clone()
        }));
    }
    out
}

/// One JSON object per line: `{id, parent, name, start_ns, end_ns, op}`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let op = if s.op == u32::MAX {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{op}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Self time per span: its duration minus the part its children cover.
/// Children of one parent never overlap here (one thread), so that part is
/// the sum of their durations, clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            *covered.entry(p.id).or_insert(0) += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(c))
        })
        .collect()
}

/// Total self time (ns) by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += own[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // op [0,100) → push [10,30), tick [30,90) → job [40,60)
        let tree = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "tables.push", 10, 30),
            span(3, 1, "pems.tick", 30, 90),
            span(4, 3, "job", 40, 60),
        ];
        let own = self_times(&tree);
        assert_eq!(own[&1], 20);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 40);
        assert_eq!(own[&4], 20);
        // self times of a tree sum to the root's duration
        assert_eq!(own.values().sum::<u64>(), 100);
        assert_eq!(self_time_by_name(&tree)["pems.tick"], 40);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let tree = [span(1, 0, "op", 0, 50), span(2, 1, "late", 40, 80)];
        assert_eq!(self_times(&tree)[&1], 40);
    }

    #[test]
    fn tracer_links_parents_through_the_stack_and_is_free_when_off() {
        let mut t = Tracer::on(8);
        t.set_op(Some(3));
        let outer = t.begin("op");
        t.span("inner", |_| ());
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, t.spans[0].id);
        assert_eq!(t.spans[0].parent, 0);
        assert_eq!(t.spans[1].op, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut off = Tracer::off();
        let id = off.begin("op");
        off.end(id);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn sessions_merge_under_the_root_with_fresh_ids() {
        let mut main = Tracer::on(4);
        let run = main.begin("run");
        main.span("op", |_| ());
        let mut side = Tracer::on(4);
        let probe = side.begin("probe.serial");
        side.span("stream.join", |_| ());
        side.end(probe);
        side.count("stream.recompute.ticks", 1);
        main.end(run);
        assert!(side.has("stream.join") && side.has("stream.recompute.ticks"));
        assert!(!main.has("stream.join"));

        let all = merged(&main, &[&side]);
        let ids: Vec<u32> = all.iter().map(|s| s.id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        let parents: Vec<u32> = all.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 1, 3]);
        // on the main clock the session lies inside the run that spawned it
        assert!(all[2].start_ns >= all[0].start_ns && all[3].end_ns <= all[0].end_ns);
        assert_eq!(self_times(&all).values().sum::<u64>(), all[0].duration_ns());
    }
}
