//! Host-clock spans for the traced run, kept in memory and written at
//! exit as a Chrome trace-event JSON file, which Perfetto
//! (<https://ui.perfetto.dev>) opens directly.
//!
//! Spans wrap calls into each layer's public entry points from the
//! benchmark's side; nothing inside the library is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept in memory; later ones are counted as dropped.
const MAX_SPANS: usize = 400_000;

/// Index of a recorded span.
pub type SpanId = u32;

#[derive(Clone, Copy, Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; `None` once the recorder is full.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Opens a root span whose end is set by [`close`](Self::close), so
    /// its children can name it as their parent.
    pub fn open(&mut self, name: &'static str, start: Instant, request: u64) -> Option<SpanId> {
        self.record(name, start, start, None, request)
    }

    /// Sets the end of a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` as a span under `parent`, returning its result and host
    /// seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, t0, t1, parent, request);
        (out, crate::stats::secs(t0, t1))
    }

    /// Spans recorded (and dropped for lack of room).
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// The recording as Chrome trace-event JSON: one complete (`"X"`)
    /// event per span, microsecond timestamps, with the span's id, parent
    /// and request id as arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 128);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.request,
            );
        }
        let _ = write!(
            out,
            "\n],\"otherData\":{{\"clock\":\"host\",\"dropped_spans\":{}}}}}\n",
            self.dropped
        );
        out
    }
}

/// Runs `f`, returning its result and host seconds; records it as a span
/// when a tracer is given.
pub fn timed<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(tr) => tr.time(name, parent, request, f),
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, crate::stats::secs(t0, Instant::now()))
        }
    }
}

/// Host cost of tracing one main call: the traced call's span bookkeeping
/// plus the call, against the bare call, both timed in the traced run.
#[derive(Clone, Debug, Default)]
pub struct Overhead {
    pub bare_s: Vec<f64>,
    pub wrapped_s: Vec<f64>,
}

impl Overhead {
    /// Median wrapped over median bare, as a percentage above 1.
    pub fn pct(&self) -> f64 {
        let bare = crate::stats::median(&self.bare_s);
        let wrapped = crate::stats::median(&self.wrapped_s);
        100.0 * (wrapped / bare - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_root() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let root = t.open("request", t0, 7);
        let child = t.record("engine.run_input", t0, Instant::now(), root, 7);
        t.close(root, Instant::now());
        assert_eq!(root, Some(0));
        assert_eq!(child, Some(1));
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"engine.run_input\""));
        assert!(json.contains("\"parent\":0,\"request\":7"));
        assert_eq!(t.counts(), (2, 0));
    }
}
