//! The repository benchmark: four workloads over the SparseNN
//! reproduction's public entry points, timed on the host clock, with
//! modelled (cycle-level accelerator) and virtual (serving simulator)
//! results alongside. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload online_sparse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric it measured (name, value, unit, clock, samples),
//! then, as its last line, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).

mod alloc;
mod batch;
mod check;
mod cycle;
mod host;
mod metrics;
mod online;
mod serve;
mod stats;
mod systems;
mod trace;

use check::{Golden, Tally};
use metrics::Metrics;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::TrainedSystem;
use stats::{median, Budget, Calls};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use systems::Recipe;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage: hostbench --workload <online_sparse|batch_dense|serve_sim|cycle_sim> \
                     --seed <u64> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    OnlineSparse,
    BatchDense,
    ServeSim,
    CycleSim,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "online_sparse" => Workload::OnlineSparse,
            "batch_dense" => Workload::BatchDense,
            "serve_sim" => Workload::ServeSim,
            "cycle_sim" => Workload::CycleSim,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OnlineSparse => "online_sparse",
            Workload::BatchDense => "batch_dense",
            Workload::ServeSim => "serve_sim",
            Workload::CycleSim => "cycle_sim",
        }
    }

    fn recipe(self) -> Recipe {
        match self {
            Workload::OnlineSparse | Workload::ServeSim => Recipe::study(),
            Workload::BatchDense => Recipe::paper(DatasetKind::BgRand),
            Workload::CycleSim => Recipe::paper(DatasetKind::Basic),
        }
    }

    /// How much of `probe` this workload runs: its own probe for the
    /// measured window, the others for a few calls.
    fn budget(self, probe: Workload, seconds: f64) -> Budget {
        if probe == self {
            return Budget::Seconds(seconds);
        }
        match probe {
            Workload::OnlineSparse => Budget::Calls(64),
            Workload::BatchDense => Budget::Calls(16),
            // In slices between the own probe's calls, through the whole
            // window (`serve::Rounds::tick`).
            Workload::ServeSim => Budget::Seconds(seconds),
            Workload::CycleSim => Budget::Calls(1),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Constructs `workload`'s backends on `sys` and makes the first call —
/// the part of set-up that follows training.
fn prepare(workload: Workload, sys: &TrainedSystem, seed: u64) -> Result<(), String> {
    match workload {
        Workload::OnlineSparse => online::setup(sys).map(drop),
        Workload::BatchDense => batch::setup(sys).map(drop),
        Workload::ServeSim => serve::setup(sys, seed).map(drop),
        Workload::CycleSim => cycle::setup(sys).map(drop),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut m = Metrics::new();
    let mut tally = Tally::default();
    let mut tracer = args.trace.then(Tracer::new);
    let budget = |probe| w.budget(probe, args.seconds);
    let wanted = |probe| probe == w || args.trace;

    // Set-up from scratch, several times: data generation, training,
    // quantization, backend construction and the first call.
    let recipe = w.recipe();
    let (mut setup_s, mut generate_s, mut train_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut sys = None;
    for _ in 0..SETUPS {
        let built = systems::build(&recipe);
        let t = Instant::now();
        prepare(w, &built.sys, args.seed)?;
        setup_s.push(built.build_s + stats::secs(t, Instant::now()));
        generate_s.push(built.generate_s);
        train_s.push(built.build_s - built.generate_s);
        sys = Some(built.sys);
    }
    let sys = sys.expect("SETUPS > 0");
    m.set("setup_s", median(&setup_s), SETUPS);
    m.set("datasets.generate_s", median(&generate_s), SETUPS);
    m.set("train.s", median(&train_s), SETUPS);

    // The seed's request images and their golden outputs, before any timing.
    let golden = Golden::new(&sys, systems::requests(&recipe, args.seed));

    // The workload's own probe runs for the measured window; the others
    // run briefly for the metrics this workload reports from them. The
    // serving path, unless it is the workload's own, runs in slices
    // between the own probe's calls.
    let scenarios = serve::setup(&sys, args.seed)?;
    let mut side = (w != Workload::ServeSim).then(|| serve::Rounds::new(&scenarios));
    let online = if wanted(Workload::OnlineSparse) {
        let session = online::setup(&sys)?;
        let b = budget(Workload::OnlineSparse);
        Some(online::run(
            &sys,
            &session,
            &golden,
            b,
            side.as_mut().filter(|_| w == Workload::OnlineSparse),
            tracer.as_mut(),
            &mut tally,
        ))
    } else {
        None
    };
    let batch = if wanted(Workload::BatchDense) {
        let backend = batch::setup(&sys)?;
        let b = budget(Workload::BatchDense);
        Some(batch::run(
            &sys,
            &backend,
            &golden,
            b,
            side.as_mut().filter(|_| w == Workload::BatchDense),
            tracer.as_mut(),
            &mut tally,
        ))
    } else {
        None
    };
    let arms = cycle::setup(&sys)?;
    let cycle = cycle::run(
        &arms,
        budget(Workload::CycleSim),
        side.as_mut().filter(|_| w == Workload::CycleSim),
        tracer.as_mut(),
        &mut tally,
    )?;
    let serve = match side {
        Some(side) => side.finish(args.trace, &mut tally)?,
        None => serve::run(
            &scenarios,
            budget(Workload::ServeSim),
            tracer.as_mut(),
            &mut tally,
        )?,
    };

    let (calls, overhead): (&Calls, _) = match w {
        Workload::OnlineSparse => {
            let o = online.as_ref().expect("own probe ran");
            (&o.calls, &o.overhead)
        }
        Workload::BatchDense => {
            let b = batch.as_ref().expect("own probe ran");
            (&b.calls, &b.overhead)
        }
        Workload::ServeSim => (&serve.calls, &serve.overhead),
        Workload::CycleSim => (&cycle.calls, &cycle.overhead),
    };
    let n = calls.len();
    m.set("latency_p50_us", calls.latency_us(50.0), n);
    m.set("latency_p99_us", calls.latency_us(99.0), n);
    m.set("throughput_sps", calls.rate(), n);
    m.set("sim_requests_per_s", serve.calls.rate(), serve.calls.len());
    cycle.report_modelled(&mut m);
    serve.report_virtual(&mut m);

    if args.trace {
        online.as_ref().expect("traced").report_layers(&mut m);
        batch.as_ref().expect("traced").report_layers(&mut m);
        cycle.report_layers(&mut m);
        serve.report_layers(&mut m);
        if let (Some(speedup), Some(modelled)) = (
            online.as_ref().and_then(|o| o.kernel_uv_speedup()),
            m.get("modelled_uv_speedup").map(|x| x.value),
        ) {
            m.set("gap.uv_speedup", speedup / modelled, 1);
        }
        m.set(
            "bench.trace_overhead_pct",
            overhead.pct(),
            overhead.bare_s.len(),
        );
        // Roofline context, outside set-up and the measured window.
        m.set("host.i64_mac_gmac_per_s", host::i64_mac_gmac_per_s(), 7);
        m.set("host.copy_gb_per_s", host::copy_gb_per_s(), 7);
    }
    m.set(
        "success_rate",
        tally.success_rate(),
        tally.attempted as usize,
    );
    m.set("peak_rss_mb", peak_rss_mib()?, 1);

    let mut out = format!(
        "workload {} seed {} seconds {} trace {}\n",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    out.push_str(&m.table());
    if let Some(tracer) = &tracer {
        let path = trace_path(w, args.seed);
        write_trace(&path, tracer)?;
        let (kept, dropped) = tracer.counts();
        let _ = writeln!(out, "spans: {kept} written to {path} ({dropped} dropped)");
    }
    let reported = m.reported(!args.trace)?;
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, metric) in reported.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.spec.name,
            metric.value,
            metric.spec.unit
        );
    }
    out.push_str("}}\n");
    Ok(out)
}

/// Where the traced run's spans go: `traces/` in this package's directory.
fn trace_path(w: Workload, seed: u64) -> String {
    format!(
        "{}/traces/{}-seed{seed}.json",
        env!("CARGO_MANIFEST_DIR"),
        w.name()
    )
}

fn write_trace(path: &str, tracer: &Tracer) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, tracer.chrome_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
