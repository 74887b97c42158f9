//! Experiment F1: fleet-scale dynamic instrumentation.
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin fleet -- [--json] [PROCESSES]`
//! (default PROCESSES=100).
//!
//! Instruments and runs PROCESSES copies of the matmul mutatee two
//! ways, over the *same* binary, snippet, and engine:
//!
//! - **sequential** — PROCESSES independent [`DynamicInstrumenter`]
//!   sessions (each a fleet of one), one after another, each paying the
//!   full pipeline: parse, snippet lowering/relocation, verified patch
//!   commit, run to exit. This is what a tool that instruments one
//!   process at a time has to do.
//! - **fleet** — one [`FleetController`]: the front half is parsed
//!   once, the patch is planned once, and the N verified deliveries
//!   plus N runs are multiplexed through the controller's event loop
//!   over its worker pool (`RVDYN_THREADS` sizes the pool, exactly as
//!   it does for the plan phase).
//!
//! The legs run in [`ROUNDS`] interleaved rounds of (sequential,
//! fleet), and the speedup compares each leg's median time, so a burst
//! of host load that lands on one round moves neither median much. The
//! rounds are printed (and listed in the JSON) next to the medians.
//!
//! Before anything is reported the harness asserts both legs agree:
//! every process, in either leg, must exit 0 with the identical
//! instrumentation counter value — a run that diverged never reports a
//! speedup. The controller contract is documented in `docs/FLEET.md`.
//!
//! [`DynamicInstrumenter`]: rvdyn::DynamicInstrumenter
//! [`FleetController`]: rvdyn::FleetController

use rvdyn::{DynamicInstrumenter, FleetController, PointKind, SessionOptions, Snippet};
use std::time::Instant;

/// Interleaved (sequential, fleet) rounds; odd, so each median is one
/// round's time.
const ROUNDS: usize = 5;

fn usage() -> ! {
    eprintln!("usage: fleet [--json] [PROCESSES]");
    eprintln!("  PROCESSES  mutatees to instrument and run in each leg (default 100)");
    std::process::exit(2);
}

fn parse_arg(name: &str, arg: Option<&String>, default: usize) -> usize {
    match arg {
        None => default,
        Some(a) => match a.parse() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("fleet: invalid {name} {a:?}: expected a positive integer");
                usage()
            }
        },
    }
}

/// One full single-process lifecycle: session, entry counter, verified
/// commit, run to exit. Returns (exit_code, counter).
fn run_one(binary: rvdyn::Binary, opts: SessionOptions) -> (i64, u64) {
    let mut di = DynamicInstrumenter::create_with(binary, opts);
    let counter = di.alloc_var(8);
    let pts = di
        .find_points("matmul", PointKind::FuncEntry)
        .expect("points");
    di.insert(&pts, Snippet::increment(counter));
    di.commit().expect("commit");
    let code = di.run_to_exit().expect("run");
    (code, di.read_var(counter).expect("counter readable"))
}

/// The sequential leg: `n` full-pipeline sessions, one after another,
/// each checked against `reference`. Returns its wall-clock time.
fn sequential_leg(
    binary: &rvdyn::Binary,
    opts: &SessionOptions,
    n: usize,
    reference: (i64, u64),
) -> u64 {
    let t0 = Instant::now();
    for i in 0..n {
        let got = run_one(binary.clone(), opts.clone());
        assert_eq!(got, reference, "sequential run {i} diverged");
    }
    t0.elapsed().as_nanos() as u64
}

/// The fleet leg: one controller over `n` mutatees, every process
/// checked against `reference`. Returns its wall-clock time, the events
/// its loop dispatched, and the time of its shared front half.
fn fleet_leg(
    binary: &rvdyn::Binary,
    opts: &SessionOptions,
    n: usize,
    (ref_code, ref_counter): (i64, u64),
) -> (u64, u64, u64) {
    let t0 = Instant::now();
    let mut fleet = FleetController::from_binary(binary.clone(), opts.clone());
    let pids = fleet.spawn(n);
    let counter = fleet.alloc_var(8);
    let pts = fleet
        .find_points("matmul", PointKind::FuncEntry)
        .expect("points");
    fleet.insert(&pts, Snippet::increment(counter));
    fleet.commit_all().expect("fleet commit");
    fleet.run_all();
    let fleet_ns = t0.elapsed().as_nanos() as u64;

    // Parity: every fleet process must agree with the sequential runs.
    for pid in &pids {
        assert!(
            matches!(fleet.result(*pid), Some(Ok(code)) if *code == ref_code),
            "fleet pid {pid} diverged: {:?}",
            fleet.result(*pid)
        );
        assert_eq!(
            fleet.read_var(*pid, counter),
            Some(ref_counter),
            "fleet pid {pid} counter diverged"
        );
    }
    let summary = fleet.summary();
    assert_eq!(summary.processes_failed, 0, "no fleet process may fail");
    assert_eq!(summary.processes, n);
    let t = &fleet.diagnostics().timings;
    let shared_front_ns = t.open_ns + t.parse_ns + t.instrument_ns;
    (fleet_ns, summary.events_dispatched, shared_front_ns)
}

/// The middle of `xs` once sorted.
fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let mut json = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--json" {
                json = true;
                false
            } else {
                true
            }
        })
        .collect();
    if args.len() > 1 || args.iter().any(|a| a.starts_with('-')) {
        usage();
    }
    let n = parse_arg("PROCESSES", args.first(), 100);

    let opts = SessionOptions::new();
    let threads = std::env::var("RVDYN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    let engine = rvdyn::EmuEngine::from_env();
    let ncpu = std::thread::available_parallelism().map_or(1, |p| p.get());
    let binary = rvdyn_asm::matmul_program(16, 2);

    eprintln!(
        "fleet: {n} mutatees, {threads} worker thread(s), {engine:?} engine, \
         {ROUNDS} rounds — measuring…"
    );

    // Untimed warmup: one lifecycle, to fault in code paths and capture
    // the reference (exit code, counter) both legs must match.
    let reference = run_one(binary.clone(), opts.clone());
    assert_eq!(reference.0, 0, "warmup mutatee must exit cleanly");

    let mut rounds: Vec<(u64, u64)> = Vec::with_capacity(ROUNDS);
    let (mut events_dispatched, mut shared_front_ns) = (0, 0);
    for _ in 0..ROUNDS {
        let sequential_ns = sequential_leg(&binary, &opts, n, reference);
        let (fleet_ns, events, front) = fleet_leg(&binary, &opts, n, reference);
        rounds.push((sequential_ns, fleet_ns));
        (events_dispatched, shared_front_ns) = (events, front);
    }
    let sequential_ns = median(rounds.iter().map(|r| r.0).collect());
    let fleet_ns = median(rounds.iter().map(|r| r.1).collect());
    let speedup = sequential_ns as f64 / fleet_ns as f64;

    if json {
        let rounds_json: Vec<String> = rounds
            .iter()
            .map(|(s, f)| format!("{{\"sequential_ns\":{s},\"fleet_ns\":{f}}}"))
            .collect();
        println!(
            "{{\"config\":\"fleet\",\"processes\":{},\"threads\":{},\
             \"engine\":\"{}\",\"ncpu\":{},\
             \"sequential_ns\":{},\"fleet_ns\":{},\
             \"sequential_ns_per_process\":{},\"fleet_ns_per_process\":{},\
             \"shared_front_half_ns\":{},\"events_dispatched\":{},\
             \"speedup\":{:.3},\"rounds\":[{}]}}",
            n,
            threads,
            match engine {
                rvdyn::EmuEngine::Interpreter => "interpreter",
                rvdyn::EmuEngine::Cached => "cached",
            },
            ncpu,
            sequential_ns,
            fleet_ns,
            sequential_ns / n as u64,
            fleet_ns / n as u64,
            shared_front_ns,
            events_dispatched,
            speedup,
            rounds_json.join(",")
        );
        return;
    }

    println!("\nFleet-scale instrumentation — {n} mutatees ({threads} worker thread(s)):\n");
    println!("  round   sequential        fleet");
    for (i, (s, f)) in rounds.iter().enumerate() {
        println!(
            "  {i:>5}   {:>8.1}ms   {:>8.1}ms",
            *s as f64 / 1e6,
            *f as f64 / 1e6
        );
    }
    println!("\n  median       total       per-process");
    println!(
        "  sequential   {:>9.1}ms   {:>8.1}µs",
        sequential_ns as f64 / 1e6,
        sequential_ns as f64 / n as f64 / 1e3,
    );
    println!(
        "  fleet        {:>9.1}ms   {:>8.1}µs",
        fleet_ns as f64 / 1e6,
        fleet_ns as f64 / n as f64 / 1e3,
    );
    println!(
        "\n  fleet speedup (medians): {speedup:.2}x   events dispatched: {}   \
         shared front half: {:.2}ms (paid once, not {n}×)",
        events_dispatched,
        shared_front_ns as f64 / 1e6,
    );
    println!("(all {n} fleet processes verified in every round: exit 0, counter identical to sequential)");
}
