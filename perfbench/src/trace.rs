//! In-memory span recorder for the traced passes.
//!
//! The benchmark wraps its own calls into each layer in spans; nothing
//! inside the program is instrumented. A span has a name, start, end, the
//! span that caused it and the request (or epoch) it belongs to. Spans are
//! kept in memory and written out once the pass ends. A disabled tracer
//! records nothing and reads no clock, so the untraced passes run the same
//! code at the cost of one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; `0` is "no span" (the root, or a disabled tracer).
pub type SpanId = u32;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.protocol.encode_req`.
    pub name: &'static str,
    /// Causing span, or 0 at the root.
    pub parent: SpanId,
    /// Request or epoch the span belongs to.
    pub req: u64,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (0 while still open).
    pub end: u64,
}

/// Busy time of one span name, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean duration per span, µs.
    pub fn total_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Whether window `k` of a pass is traced. A traced pass traces every
/// other window, so the trace's own cost is measured against untraced
/// windows of the same pass rather than against another run.
pub fn traces_window(traced: bool, k: u64) -> bool {
    traced && k % 2 == 1
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            req,
            start,
            end: 0,
        });
        self.spans.len() as SpanId
    }

    /// Closes a span opened by [`Self::open`] now.
    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = self.now();
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end = end;
        }
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            req,
            start: at(start),
            end: at(end),
        });
        self.spans.len() as SpanId
    }

    /// Busy and self time per span name. A span's self time is its
    /// duration minus the part of it its children cover (children of one
    /// span never overlap: every call site is sequential).
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent == 0 {
                continue;
            }
            if let Some(p) = self.spans.get(s.parent as usize - 1) {
                let lo = s.start.max(p.start);
                let hi = s.end.min(p.end);
                child_ns[s.parent as usize - 1] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end.saturating_sub(s.start);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(kids);
        }
        out
    }

    /// Writes every span as CSV (`id,name,parent,req,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "id,name,parent,req,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                i + 1,
                s.name,
                s.parent,
                s.req,
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("a", 0, 1);
        t.close(s);
        assert_eq!(s, 0);
        assert!(t.spans.is_empty());
        assert!(t.summary().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let p = t.record("parent", 0, 7, at(0), at(100));
        t.record("child", p, 7, at(10), at(40));
        t.record("child", p, 7, at(50), at(70));
        let sum = t.summary();
        let parent = sum["parent"];
        assert_eq!(parent.count, 1);
        assert_eq!(parent.total_ns, 100_000);
        assert_eq!(parent.self_ns, 50_000);
        let child = sum["child"];
        assert_eq!(child.count, 2);
        assert_eq!(child.self_ns, 50_000);
        assert!((child.total_us() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let p = t.record("parent", 0, 1, at(10), at(20));
        t.record("child", p, 1, at(15), at(30));
        assert_eq!(t.summary()["parent"].self_ns, 5_000);
    }
}
