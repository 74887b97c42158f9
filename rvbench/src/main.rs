//! rvdyn's benchmark: one command, four workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path rvbench/Cargo.toml -- \
//!     --workload paper-matmul --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client thread: a job is one
//! user request, taken from generated ELF bytes to a result checked
//! against an oracle that does not come from the instrumenter. The last
//! line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `rvbench/NOTES.md` for what each workload
//! exercises and which metrics each layer should move.

mod common;
mod metrics;
mod oracle;
mod reference;
mod regions;
mod rng;
mod spans;
mod stats;
mod w_cold;
mod w_fleet;
mod w_matmul;
mod w_service;

use common::{Deterministic, Layer, Workload};
use metrics::Report;
use reference::Reference;
use spans::Spans;
use std::time::{Duration, Instant};

/// Set-up runs this many times per run and `setup_s` is the median of
/// their times on the quiet machine (see `reference`). The first run
/// precedes the timed loop; the others are spread through it.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => seconds = val.parse().map_err(|_| bad())?,
            "--trace" => trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-matmul" => Box::new(w_matmul::Matmul::setup(seed)?),
        "cold-code" => Box::new(w_cold::Cold::setup(seed)?),
        "service-mix" => Box::new(w_service::Service::setup(seed)?),
        "fleet-tools" => Box::new(w_fleet::Fleet::setup(seed)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// One timed job: its wall time in milliseconds and its midpoint.
struct JobTime {
    ms: f64,
    mid: Instant,
}

/// Closed loop: run jobs back to back until `budget` has elapsed,
/// calling `between` after each job, outside its timing. Returns the
/// job times and the failures seen. With `cycle > 1` only whole cycles
/// are run.
fn run_loop(
    w: &mut dyn Workload,
    budget: Duration,
    first_job: u64,
    cycle: usize,
    sp: &mut Spans,
    layer: &mut Layer,
    mut between: impl FnMut(),
) -> (Vec<JobTime>, Vec<String>) {
    let mut times = Vec::new();
    let mut failures = Vec::new();
    let start = Instant::now();
    let mut i = first_job;
    while start.elapsed() < budget || times.is_empty() {
        for _ in 0..cycle {
            sp.set_job(i);
            let t0 = Instant::now();
            let r = w.job(i, sp, layer);
            let took = t0.elapsed();
            times.push(JobTime {
                ms: took.as_secs_f64() * 1e3,
                mid: t0 + took / 2,
            });
            if let Err(e) = r {
                failures.push(format!("job {i}: {e}"));
            }
            i += 1;
            between();
        }
    }
    sp.set_job(spans::PROBE_JOB);
    (times, failures)
}

fn ms(times: &[JobTime]) -> Vec<f64> {
    times.iter().map(|t| t.ms).collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rvbench: {e}");
            eprintln!(
                "usage: rvbench --workload <paper-matmul|cold-code|service-mix|fleet-tools> \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("rvbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    // The reference kernels' memory is resident from before the first
    // set-up to the end, so it adds exactly its own size to the peak.
    let rss0 = metrics::status_mb("VmRSS:");
    let mut reference = Reference::new();
    let reference_mb = metrics::status_mb("VmRSS:") - rss0;
    // Set-up: seeded generation, oracle runs and warm-up.
    let t0 = Instant::now();
    let mut w = setup(&args.workload, args.seed)?;
    let mut setups = vec![(t0.elapsed().as_secs_f64(), t0)];
    let budget = Duration::from_secs_f64(args.seconds.max(0.1));

    let mut report = Report::default();
    let mut layer = Layer::default();
    let (attempted, failures) = if !args.trace {
        // The timed loop in slices, with a repeated set-up after each,
        // and the machine's speed sampled between jobs throughout.
        let cycle = w.cycle();
        let slices = SETUP_REPS - 1;
        let mut times = Vec::new();
        let mut sp = Spans::new(false);
        let mut failures = Vec::new();
        for _ in 0..slices {
            reference.sample();
            let (t, f) = run_loop(
                w.as_mut(),
                budget / slices as u32,
                times.len() as u64,
                cycle,
                &mut sp,
                &mut layer,
                || reference.sample_now_and_then(),
            );
            times.extend(t);
            failures.extend(f);
            reference.sample();
            let t0 = Instant::now();
            drop(setup(&args.workload, args.seed)?);
            setups.push((t0.elapsed().as_secs_f64(), t0));
        }
        reference.sample();
        let quiet = |secs: f64, at: Instant| reference.on_quiet_machine(secs, at);
        let setup_s: Vec<f64> = setups.iter().map(|&(s, at)| quiet(s, at)).collect();
        let mut by_pos: Vec<Vec<f64>> = vec![Vec::new(); cycle];
        for (k, t) in times.iter().enumerate() {
            by_pos[k % cycle].push(quiet(t.ms, t.mid));
        }
        let medians: Vec<f64> = by_pos.iter().map(|t| stats::median(t)).collect();
        let attempted = times.len();
        eprintln!(
            "rvbench: {attempted} jobs, {} passes over {cycle} job(s); median slowness {:.3}; \
             set-up quartiles {:.3?} s, on the quiet machine {:.3?} s",
            attempted / cycle,
            reference.median_slowness(),
            stats::quartiles(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
            stats::quartiles(&setup_s),
        );
        let det: Deterministic = w.deterministic()?;
        report.end_to_end(
            &medians,
            stats::median(&setup_s),
            reference_mb,
            attempted,
            &failures,
            &det,
        );
        (attempted, failures)
    } else {
        // Half the budget untraced, half traced: the difference is the
        // tracing overhead.
        let half = budget / 2;
        let mut off = Spans::new(false);
        let mut scratch = Layer::default();
        let (plain, mut failures) =
            run_loop(w.as_mut(), half, 0, 1, &mut off, &mut scratch, || {});
        let mut sp = Spans::new(true);
        w.probes(&mut sp, &mut layer)?;
        let first = plain.len() as u64;
        let (traced, f2) = run_loop(w.as_mut(), half, first, 1, &mut sp, &mut layer, || {});
        failures.extend(f2);
        let overhead = (stats::median(&ms(&traced)) / stats::median(&ms(&plain)) - 1.0) * 100.0;
        report.per_layer(&sp, &layer, overhead);
        write_spans(args, &sp);
        (plain.len() + traced.len(), failures)
    };
    for f in failures.iter().take(5) {
        eprintln!("rvbench: FAILED {f}");
    }
    let correct = failures.is_empty();
    println!("{}", report.to_json(correct, attempted, failures.len()));
    if !correct {
        return Err(format!("{} of {attempted} jobs failed", failures.len()));
    }
    Ok(())
}

/// Write the traced run's spans next to the build output.
fn write_spans(args: &Args, sp: &Spans) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("rvbench-spans");
    let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, sp.to_jsonl()))
    {
        eprintln!("rvbench: could not write spans to {}: {e}", path.display());
    }
}
