//! The scale experiments: the same instrumentation work spread over
//! worker threads (P2), served from a shared analysis cache (S1), and
//! delivered to a fleet of processes (FL1). Each asserts that the
//! scaled-out path produces exactly what the plain path does before it
//! reports a speedup.

use crate::riscv::layout_above;
use crate::{ncpu, timed, Bound, Fields, Op, Report, ROUNDS};
use rvdyn::{
    AnalysisCache, Binary, BinaryEditor, DynamicInstrumenter, EmuEngine, FleetController,
    PointKind, SessionOptions, Snippet,
};
use rvdyn_asm::{
    indirect_entry_program, many_functions_program, matmul_program, tiny_function_program,
};

/// Worker counts of the plan phase. All run even on small machines,
/// since an oversubscribed pool must still be deterministic.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// `parallel [FUNCS] [ITERS]` (P2): per-block counters on every chained
/// function of `many_functions_program(FUNCS)`, with the plan phase on
/// each of [`THREADS`] workers and the patch area above the image: the
/// default layout's `.rvdyn.text` at 0x80000 runs into `.rvdyn.data` at
/// 0xC0000 past 256 KiB of patch code, and per-block counters on
/// `many_functions_program(10000)` lay out 1.28 MB. Only the instrument
/// stage (plan, layout, springboards) is timed, and the best of ITERS
/// runs is reported. The patch bytes must be identical at every worker
/// count.
pub fn parallel(args: &[usize]) -> Report {
    let (funcs, iters) = (args[0], args[1]);
    eprintln!("parallel: many_functions_program({funcs}), {iters} timing reps — measuring…");
    let bin = many_functions_program(funcs);
    let layout = layout_above(&bin);
    let measure = |threads: usize| {
        let runs = (0..iters).map(|_| {
            let opts = SessionOptions::new().threads(threads).layout(layout);
            let mut ed = BinaryEditor::from_binary(bin.clone(), opts);
            let c = ed.alloc_var(8);
            let mut pts = Vec::new();
            for i in 0..funcs {
                let f = format!("f_{i}");
                pts.extend(ed.find_points(&f, PointKind::BlockEntry).expect("points"));
            }
            ed.insert(&pts, Snippet::increment(c));
            let (result, ns) = timed(|| ed.instrumented().expect("instrumentation succeeds"));
            let d = ed.diagnostics();
            let writes: Vec<(u64, Vec<u8>)> = result
                .memory_writes()
                .map(|(addr, bytes)| (addr, bytes.to_vec()))
                .collect();
            (ns, d.plans_built, d.instrument_workers, writes)
        });
        runs.min_by_key(|r| r.0).expect("ITERS > 0")
    };
    let results = THREADS.map(measure);

    let (mut rows, mut bounds) = (Vec::new(), Vec::new());
    for (&t, (ns, plans, workers, writes)) in THREADS.iter().zip(&results) {
        assert_eq!(writes, &results[0].3, "threads={t} wrote other patch bytes");
        let speedup = results[0].0 as f64 / *ns as f64;
        rows.push(
            Fields::default()
                .int("threads", t)
                .int("instrument_ns", *ns)
                .int("plans_built", *plans)
                .int("workers", *workers)
                .real("speedup", speedup, 3),
        );
        let (plans, workers) = (*plans as f64, *workers as f64);
        bounds.push(Bound("plans built", plans, Op::Equals, funcs as f64));
        bounds.push(Bound("workers", workers, Op::Equals, t.min(funcs) as f64));
        // A speedup needs the cores to show it.
        if t == 4 && ncpu() >= 4 {
            bounds.push(Bound("speedup at 4 threads", speedup, Op::AtLeast, 1.5));
        }
    }
    let fields = Fields::default()
        .int("funcs", funcs)
        .int("iters", iters)
        .int("ncpu", ncpu())
        .rows("runs", rows);
    Report::new(fields, bounds)
}

/// Serve one instrument request on an opened editor: insert an entry
/// counter into `func` and rewrite. Returns the rewritten bytes, whether
/// the analysis came from the cache, and the parse time recorded.
fn serve(mut ed: BinaryEditor, func: &str) -> (Vec<u8>, bool, u64) {
    let counter = ed.alloc_var(8);
    let points = ed.find_points(func, PointKind::FuncEntry).expect("points");
    ed.insert(&points, Snippet::increment(counter));
    let bytes = ed.rewrite().expect("rewrite succeeds");
    let d = ed.diagnostics();
    (bytes, d.analysis_cache_hits > 0, d.timings.parse_ns)
}

/// `service [REQUESTS]` (S1): replay REQUESTS instrument requests
/// round-robin over four mutatees, once opening each binary afresh
/// (cold) and once through one shared [`AnalysisCache`] (warm). Every
/// response must equal its target's reference bytes, and a cache hit
/// must record no parse time. Responses are checked against one
/// reference per target instead of being kept, so memory stays
/// O(targets) and the warm leg is not timed under the cold leg's
/// allocations.
pub fn service(args: &[usize]) -> Report {
    let requests = args[0];
    let elf = |b: Binary| b.to_bytes().expect("serialise mutatee");
    let targets = [
        ("matmul", elf(matmul_program(8, 2))),
        ("f_0", elf(many_functions_program(64))),
        ("spin", elf(indirect_entry_program(4))),
        ("tiny", elf(tiny_function_program(4))),
    ];
    let n = targets.len();
    eprintln!("service: {requests} requests over {n} mutatees — measuring…");

    // Untimed warmup: each target's reference response, and every code
    // path faulted in before either timed leg.
    let reference: Vec<Vec<u8>> = targets
        .iter()
        .map(|(func, elf)| serve(BinaryEditor::open(elf).expect("open"), func).0)
        .collect();
    let replay = |open: &dyn Fn(&[u8]) -> BinaryEditor| {
        let ((), ns) = timed(|| {
            for i in 0..requests {
                let (func, elf) = &targets[i % n];
                let (bytes, hit, parse_ns) = serve(open(elf), func);
                assert!(!hit || parse_ns == 0, "request {i} ({func}): a hit parsed");
                assert_eq!(bytes, reference[i % n], "request {i} ({func}) differs");
            }
        });
        ns
    };
    let cold_ns = replay(&|elf| BinaryEditor::open(elf).expect("open"));
    let cache = AnalysisCache::new(n);
    let opts = SessionOptions::default();
    let warm_ns =
        replay(&|elf| BinaryEditor::open_cached(elf, opts.clone(), &cache).expect("open"));

    let stats = cache.stats();
    let warm_speedup = cold_ns as f64 / warm_ns as f64;
    let per_s = |ns: u64| requests as f64 / (ns as f64 / 1e9);
    let fields = Fields::default()
        .int("requests", requests)
        .int("targets", n)
        .int("cold_ns", cold_ns)
        .int("warm_ns", warm_ns)
        .int("cold_ns_per_request", cold_ns / requests as u64)
        .int("warm_ns_per_request", warm_ns / requests as u64)
        .real("cold_requests_per_sec", per_s(cold_ns), 1)
        .real("warm_requests_per_sec", per_s(warm_ns), 1)
        .int("cache_hits", stats.hits)
        .int("cache_misses", stats.misses)
        .int("cache_evictions", stats.evictions)
        .real("warm_speedup", warm_speedup, 3);
    let (hits, misses, n) = (stats.hits as f64, stats.misses as f64, n as f64);
    let bounds = vec![
        // One miss per target, and every other request a hit.
        Bound("cache misses", misses, Op::Equals, n),
        Bound("cache hits", hits, Op::Equals, requests as f64 - n),
        Bound("warm speedup over cold", warm_speedup, Op::AtLeast, 3.0),
    ];
    Report::new(fields, bounds)
}

/// One full single-process lifecycle: session, entry counter, verified
/// commit, run to exit. Returns (exit code, counter).
fn run_one(binary: &Binary, opts: &SessionOptions) -> (i64, u64) {
    let mut di = DynamicInstrumenter::create_with(binary.clone(), opts.clone());
    let counter = di.alloc_var(8);
    let pts = di
        .find_points("matmul", PointKind::FuncEntry)
        .expect("points");
    di.insert(&pts, Snippet::increment(counter));
    di.commit().expect("commit");
    let code = di.run_to_exit().expect("run");
    (code, di.read_var(counter).expect("counter readable"))
}

/// One fleet leg: a controller over `n` mutatees, parsed and planned
/// once, whose deliveries and runs go through its worker pool, every
/// process checked against `reference`. Returns the leg's wall clock,
/// its summary's processes and events, and its shared front half's time.
fn fleet_leg(bin: &Binary, opts: &SessionOptions, n: usize, reference: (i64, u64)) -> [u64; 4] {
    let ((fleet, pids, counter), ns) = timed(|| {
        let mut fleet = FleetController::from_binary(bin.clone(), opts.clone());
        let pids = fleet.spawn(n);
        let counter = fleet.alloc_var(8);
        let pts = fleet
            .find_points("matmul", PointKind::FuncEntry)
            .expect("points");
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().expect("fleet commit");
        fleet.run_all();
        (fleet, pids, counter)
    });
    for pid in pids {
        let got = (fleet.result(pid), fleet.read_var(pid, counter));
        assert!(
            matches!(got, (Some(Ok(code)), Some(c)) if (*code, c) == reference),
            "fleet pid {pid} diverged: {got:?}"
        );
    }
    let summary = fleet.summary();
    assert_eq!(summary.processes_failed, 0, "no fleet process may fail");
    let t = &fleet.diagnostics().timings;
    let front_ns = t.open_ns + t.parse_ns + t.instrument_ns;
    let (processes, events) = (summary.processes as u64, summary.events_dispatched);
    [ns, processes, events, front_ns]
}

/// `fleet [PROCESSES]` (FL1): PROCESSES copies of matmul(16, 2)
/// instrumented and run over the same binary, snippet and engine, as
/// that many sequential [`DynamicInstrumenter`] sessions, each paying
/// the whole pipeline, and as one [`FleetController`] (`RVDYN_THREADS`
/// sizes its pool, as it does the plan phase; docs/FLEET.md). The legs
/// run in [`ROUNDS`] interleaved rounds and the speedup compares their
/// medians, so a burst of host load moves neither median much.
pub fn fleet(args: &[usize]) -> Report {
    let processes = args[0];
    let opts = SessionOptions::new();
    let threads = std::env::var("RVDYN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(1, |t| t.max(1));
    let engine = EmuEngine::from_env().label();
    let binary = matmul_program(16, 2);
    eprintln!("fleet: {processes} mutatees, {threads} worker thread(s), {engine} engine…");

    // Untimed warmup: one lifecycle, which also gives the reference
    // (exit code, counter) both legs must match.
    let reference = run_one(&binary, &opts);
    assert_eq!(reference.0, 0, "warmup mutatee must exit cleanly");
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut last = [0; 4];
    for _ in 0..ROUNDS {
        let ((), sequential_ns) = timed(|| {
            for i in 0..processes {
                assert_eq!(run_one(&binary, &opts), reference, "sequential run {i}");
            }
        });
        last = fleet_leg(&binary, &opts, processes, reference);
        rounds.push((sequential_ns, last[0]));
    }
    let median = |mut xs: Vec<u64>| {
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    let sequential_ns = median(rounds.iter().map(|r| r.0).collect());
    let fleet_ns = median(rounds.iter().map(|r| r.1).collect());
    let speedup = sequential_ns as f64 / fleet_ns as f64;
    let [_, spawned, events, front_ns] = last;

    let rows = rounds
        .iter()
        .map(|&(s, f)| Fields::default().int("sequential_ns", s).int("fleet_ns", f));
    let per_process = |ns: u64| ns / processes as u64;
    let fields = Fields::default()
        .int("processes", spawned)
        .int("threads", threads)
        .text("engine", engine)
        .int("ncpu", ncpu())
        .int("sequential_ns", sequential_ns)
        .int("fleet_ns", fleet_ns)
        .int("sequential_ns_per_process", per_process(sequential_ns))
        .int("fleet_ns_per_process", per_process(fleet_ns))
        .int("shared_front_half_ns", front_ns)
        .int("events_dispatched", events)
        .real("speedup", speedup, 3)
        .rows("rounds", rows.collect());
    // Without four cpus the shared front half alone must still win.
    let scaling = match ncpu() {
        4.. => Bound("fleet speedup over sequential", speedup, Op::AtLeast, 2.0),
        _ => Bound("fleet speedup over sequential", speedup, Op::Above, 1.0),
    };
    let n = processes as f64;
    let bounds = vec![
        Bound("fleet processes", spawned as f64, Op::Equals, n),
        // One commit and at least one run completion per process.
        Bound("events dispatched", events as f64, Op::AtLeast, 2.0 * n),
        scaling,
    ];
    Report::new(fields, bounds)
}
