//! In-memory trace spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end and the span that was open
//! when it began. Spans are kept in memory, up to [`MAX_SPANS`], and written once at
//! the end as Chrome trace-event JSON, which Perfetto (`ui.perfetto.dev`) opens.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per run for the trace file; later spans still count toward the
/// per-name totals and self times.
pub const MAX_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// An open span, closed with [`Tracer::end`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<u32>,
}

/// A span still open, with the time its closed children took.
struct Frame {
    name: &'static str,
    index: Option<u32>,
    children_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    /// Total and self nanoseconds per span name, over every span, kept or not.
    totals: BTreeMap<&'static str, (u64, u64)>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            dropped: 0,
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = if self.spans.len() < MAX_SPANS {
            let parent = self.stack.iter().rev().find_map(|f| f.index);
            self.spans.push(Span {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent,
            });
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Frame {
            name,
            index,
            children_ns: 0,
        });
        Open { start, index }
    }

    /// Closes `open` (spans close innermost first) and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let frame = self.stack.pop().expect("a span is open");
        debug_assert_eq!(frame.index, open.index, "spans close innermost first");
        if let Some(i) = open.index {
            self.spans[i as usize].end_ns = self.ns_since_origin(end);
        }
        let total_ns = (end - open.start).as_nanos() as u64;
        let entry = self.totals.entry(frame.name).or_default();
        entry.0 += total_ns;
        entry.1 += total_ns.saturating_sub(frame.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += total_ns;
        }
        (end - open.start).as_secs_f64()
    }

    /// Times `f` inside a span named `name`; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let result = f();
        (result, self.end(open))
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total and self time (duration minus the part its children cover), in seconds,
    /// summed per span name over every closed span.
    pub fn times_by_name(&self) -> BTreeMap<&'static str, (f64, f64)> {
        self.totals
            .iter()
            .map(|(&name, &(total, self_ns))| (name, (total as f64 * 1e-9, self_ns as f64 * 1e-9)))
            .collect()
    }

    /// Self time in seconds per layer (the span-name prefix before the first `.`).
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, (_, self_s)) in self.times_by_name() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_insert(0.0) += self_s;
        }
        out
    }

    /// Writes every recorded span as a Chrome trace-event "complete" event.
    pub fn write_chrome_trace(&self, w: &mut dyn Write) -> std::io::Result<()> {
        writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let parent = span.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.begin("bench.outer");
        let (_, inner_s) = t.time("sim.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = t.end(outer);
        assert!(inner_s <= outer_s);
        let by_name = t.times_by_name();
        let (outer_total, outer_self) = by_name["bench.outer"];
        let (inner_total, inner_self) = by_name["sim.inner"];
        assert_eq!(inner_total, inner_self);
        assert!((outer_total - outer_self - inner_total).abs() < 1e-6);
        let mut out = Vec::new();
        t.write_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"parent\":0"));
    }
}
