//! The `cycle_sim` path (the Fig. 7 / Table IV reproduction):
//! `Session::simulate_batch_serial` on the cycle-accurate machine three
//! ways — one chip in `UvMode::On`, the same chip in `UvMode::Off` (the
//! EIE baseline), and `partitioned_session_pipelined(2)` in `UvMode::On`.
//!
//! A *round* calls each arm once on the system's first test image; each
//! arm call is timed. Every round replays the first, so its summaries must
//! equal the first round's exactly. The modelled metrics come from one untimed call
//! per arm over the first `REFERENCE_SAMPLES` test images.

use crate::check::Tally;
use crate::metrics::Metrics;
use crate::serve::Rounds;
use crate::stats::{secs, Budget, Calls};
use crate::trace::{timed, Overhead, Tracer};
use sparsenn_core::engine::Session;
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::{LayerSummary, SimulationSummary, SparseNnError, TrainedSystem};
use std::time::Instant;

/// Test images behind the modelled metrics (the fast profile's
/// `sim_samples`).
pub const REFERENCE_SAMPLES: usize = 8;

/// The three arms: span name, partitioned or not, UV mode.
const ARMS: [(&str, bool, UvMode); 3] = [
    ("session.simulate_batch_serial.uv_on", false, UvMode::On),
    ("session.simulate_batch_serial.uv_off", false, UvMode::Off),
    ("partitioned.simulate_batch_serial.uv_on", true, UvMode::On),
];

/// The single-chip and 2-chip sessions.
pub struct Arms<'a> {
    single: Session<'a>,
    partitioned: Session<'a>,
}

impl Arms<'_> {
    fn call(&self, arm: usize, samples: usize) -> Result<SimulationSummary, SparseNnError> {
        let (_, partitioned, mode) = ARMS[arm];
        let session = if partitioned {
            &self.partitioned
        } else {
            &self.single
        };
        session.simulate_batch_serial(samples, mode)
    }

    fn round(
        &self,
        mut tracer: Option<&mut Tracer>,
        root: Option<u32>,
        id: u64,
    ) -> Result<([SimulationSummary; 3], [f64; 3]), SparseNnError> {
        let mut host = [0.0; 3];
        let mut out = Vec::with_capacity(ARMS.len());
        for (arm, h) in host.iter_mut().enumerate() {
            let (summary, s) = timed(tracer.as_deref_mut(), ARMS[arm].0, root, id, || {
                self.call(arm, 1)
            });
            out.push(summary?);
            *h = s;
        }
        let summaries: [SimulationSummary; 3] = out.try_into().expect("one summary per arm");
        Ok((summaries, host))
    }
}

/// Backend construction and the first round.
pub fn setup(sys: &TrainedSystem) -> Result<Arms<'_>, String> {
    let arms = Arms {
        single: sys.session(),
        partitioned: sys
            .partitioned_session_pipelined(2)
            .map_err(|e| format!("2-chip partition: {e}"))?,
    };
    arms.round(None, None, 0)
        .map_err(|e| format!("cycle_sim first round: {e}"))?;
    Ok(arms)
}

/// What one cycle probe measured.
pub struct Cycle {
    pub calls: Calls,
    pub overhead: Overhead,
    /// Each arm's summary of the first round (the first test image).
    first: [SimulationSummary; 3],
    /// Each arm's summary over `REFERENCE_SAMPLES` images.
    reference: [SimulationSummary; 3],
}

/// Runs rounds within `budget` (at least one), checking each against the
/// first, with `side`'s slices between the rounds, then the untimed
/// reference calls.
///
/// # Errors
///
/// When the first round or a reference call fails: there is then nothing
/// to report.
pub fn run(
    arms: &Arms<'_>,
    budget: Budget,
    mut side: Option<&mut Rounds<'_>>,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Result<Cycle, String> {
    // The three arms are the three distinct inputs of the calls.
    let mut calls = Calls::new(ARMS.len(), 1.0);
    let mut overhead = Overhead::default();
    let mut first: Option<[SimulationSummary; 3]> = None;
    let start = Instant::now();
    while budget.more(start, calls.len()) {
        let id = calls.len() as u64;
        let t_pre = Instant::now();
        let root = tracer
            .as_deref_mut()
            .and_then(|t| t.open("cycle.round", t_pre, id));
        let result = arms.round(tracer.as_deref_mut(), root, id);
        let host = result.as_ref().map_or([f64::NAN; 3], |(_, h)| *h);
        let round_s: f64 = host.iter().sum();
        calls.seconds.extend(host);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.close(root, Instant::now());
            overhead.bare_s.push(round_s);
            overhead.wrapped_s.push(secs(t_pre, Instant::now()));
        }
        match (result, &first) {
            (Ok((s, _)), Some(f)) => s.iter().zip(f).for_each(|(a, b)| tally.record(a == b)),
            (Ok((s, _)), None) => {
                (0..ARMS.len()).for_each(|_| tally.record(true));
                first = Some(s);
            }
            (Err(e), None) => return Err(format!("cycle_sim first round: {e}")),
            (Err(_), Some(_)) => (0..ARMS.len()).for_each(|_| tally.record(false)),
        }
        if let Some(side) = side.as_deref_mut() {
            side.tick(tracer.as_deref_mut(), tally);
        }
    }
    let reference = [0, 1, 2].map(|arm| arms.call(arm, REFERENCE_SAMPLES));
    let [on, off, part] = reference;
    let fail = |e: SparseNnError| format!("cycle_sim reference call: {e}");
    Ok(Cycle {
        calls,
        overhead,
        first: first.expect("at least one round ran"),
        reference: [on.map_err(fail)?, off.map_err(fail)?, part.map_err(fail)?],
    })
}

fn cycles(s: &SimulationSummary) -> f64 {
    s.layers.iter().map(|l| l.cycles).sum()
}

impl Cycle {
    /// The modelled end-to-end metrics (1 chip).
    pub fn report_modelled(&self, m: &mut Metrics) {
        let [on, off, _] = &self.reference;
        m.set("modelled_cycles_per_sample", cycles(on), on.samples);
        m.set("modelled_energy_uj_per_sample", on.energy_uj(), on.samples);
        m.set("modelled_uv_speedup", cycles(off) / cycles(on), on.samples);
    }

    /// The simulator and partition per-layer metrics.
    pub fn report_layers(&self, m: &mut Metrics) {
        let [on, off, part] = &self.reference;
        // Host time per simulated sample: each arm call simulates one.
        let fastest = self.calls.fastest_per_input();
        let ms = |arm: usize| fastest[arm] * 1e3;
        let n = self.calls.len() / ARMS.len();
        m.set("sim.host_ms_per_sample.uv_on", ms(0), n);
        m.set("sim.host_ms_per_sample.uv_off", ms(1), n);
        m.set(
            "sim.host_ns_per_cycle",
            ms(0) * 1e6 / cycles(&self.first[0]),
            n,
        );
        for (summary, mode) in [(on, ".uv_on"), (off, ".uv_off")] {
            let per = |f: fn(&LayerSummary) -> f64| -> Vec<f64> {
                summary.layers.iter().map(f).collect()
            };
            let samples = summary.samples;
            m.set_layers("sim.cycles", mode, &per(|l| l.cycles), samples);
            m.set_layers("sim.vu_cycles", mode, &per(|l| l.vu_cycles), samples);
            let w_reads: Vec<f64> = summary
                .layers
                .iter()
                .map(|l| l.events.w_reads as f64 / samples.max(1) as f64)
                .collect();
            m.set_layers("sim.w_reads", mode, &w_reads, samples);
            m.set_layers("sim.energy_uj", mode, &per(|l| l.energy_uj), samples);
        }
        m.set("partition.host_ms_per_sample", ms(2), n);
        m.set("partition.overhead_ratio", ms(2) / ms(0), n);
        m.set(
            "partition.modelled_us_per_sample",
            part.time_us(),
            part.samples,
        );
    }
}
