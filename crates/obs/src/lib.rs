//! # sparsenn-obs — the observability plane
//!
//! Every other crate in this workspace *simulates*; this one *watches*.
//! It is the common vocabulary for what a run did — typed trace spans
//! on the virtual clock, unified latency statistics, the min-of-reps
//! wall-clock timer — and the readers that turn a recording into
//! artifacts a person or a CI job can read: a Perfetto-loadable Chrome
//! trace ([`chrome_trace`]), per-request critical paths ([`analyze`])
//! and tail exemplars ([`offline_top_k`]).
//!
//! The crate depends on nothing in the workspace, so every layer can
//! emit into it: the front end traces admission → hedge → completion,
//! the serving simulator traces arrival → batch → service, the fleet
//! traces per-shard attempts, and the partitioned machine traces
//! per-chip broadcast/VU/W/gather slices — all correlated by one
//! `trace_id` per request.
//!
//! ## Capturing a trace
//!
//! ```
//! use sparsenn_obs::{chrome_trace, AttrKey, RingRecorder, Span, SpanKind, TraceSink, track};
//!
//! let recorder = RingRecorder::new(1 << 16);
//! if recorder.enabled() {
//!     recorder.record(
//!         Span::new(1, SpanKind::Attempt, track::FLEET, 1, 0.0, 42.0).attr(AttrKey::Shard, 0u64),
//!     );
//! }
//! let trace = chrome_trace(&recorder.spans());
//! assert!(trace.contains("\"ph\":\"X\""));
//! // Write `trace` to a .json file and open it at https://ui.perfetto.dev
//! ```
//!
//! Instrumented entry points take a `&dyn TraceSink`; passing
//! [`NullSink`] disables tracing at the cost of one virtual call per
//! would-be span (the obs bench holds that to ≤ 1% overhead).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod exemplar;
mod export;
mod latency;
mod quantile;
mod series;
mod sink;
mod slo;
mod span;
mod timer;

pub use analyze::{
    analyze, breakdown_report, ChipDetail, LatencyBreakdown, PathStep, Phase, RequestBreakdown,
    TraceAnalysis, PHASES,
};
pub use exemplar::{offline_top_k, Exemplar};
pub use export::{check_nesting, chrome_trace};
pub use latency::{LatencyStat, LatencyStats};
pub use quantile::P2Quantile;
pub use series::{WindowBucket, WindowSeries};
pub use sink::{NullSink, RingRecorder, SpanBuffer, TraceSink};
pub use slo::{AlertKind, BurnAlert, BurnConfig, BurnRateMonitor};
pub use span::{track, AttrKey, AttrValue, Attrs, Span, SpanKind, MAX_ATTRS};
pub use timer::min_wall_us;
