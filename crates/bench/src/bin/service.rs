//! Experiment S1: instrumentation-as-a-service request replay.
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin service -- [--json] [REQUESTS]`
//! (default REQUESTS=2000).
//!
//! Replays a stream of instrument requests over a small fleet of
//! mutatees (matmul, many_functions, indirect-entry, tiny-function),
//! each request opening a session on the ELF image, inserting an
//! entry counter into one function, and serialising the rewritten
//! binary. Two service configurations are measured over the *same*
//! request stream:
//!
//! - **cold** — every request runs `BinaryEditor::open`, paying the
//!   full front half (ELF open, CFG parse, loop analysis) per request;
//! - **warm** — every request runs `BinaryEditor::open_cached` over a
//!   shared content-addressed [`rvdyn::AnalysisCache`], so only the
//!   first request per distinct binary pays the front half.
//!
//! Before anything is reported the harness asserts that every warm
//! response is byte-identical to its cold counterpart and that warm
//! cache hits recorded *zero* parse-stage time — a run that broke
//! either invariant never reports a speedup.

use rvdyn::{AnalysisCache, BinaryEditor, PointKind, SessionOptions, Snippet};
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: service [--json] [REQUESTS]");
    eprintln!("  REQUESTS  total instrument requests to replay (default 2000)");
    std::process::exit(2);
}

fn parse_arg(name: &str, arg: Option<&String>, default: usize) -> usize {
    match arg {
        None => default,
        Some(a) => match a.parse() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("service: invalid {name} {a:?}: expected a positive integer");
                usage()
            }
        },
    }
}

/// One mutatee in the service fleet: its ELF image and the function
/// each request instruments.
struct Target {
    name: &'static str,
    elf: Vec<u8>,
    func: &'static str,
}

fn fleet() -> Vec<Target> {
    vec![
        Target {
            name: "matmul",
            elf: rvdyn_asm::matmul_program(8, 2).to_bytes().unwrap(),
            func: "matmul",
        },
        Target {
            name: "many_functions",
            elf: rvdyn_asm::many_functions_program(64).to_bytes().unwrap(),
            func: "f_0",
        },
        Target {
            name: "indirect",
            elf: rvdyn_asm::indirect_entry_program(4).to_bytes().unwrap(),
            func: "spin",
        },
        Target {
            name: "tiny",
            elf: rvdyn_asm::tiny_function_program(4).to_bytes().unwrap(),
            func: "tiny",
        },
    ]
}

/// Serve one instrument request and return the rewritten bytes plus
/// the parse-stage nanoseconds the session recorded.
fn serve(mut ed: BinaryEditor, func: &str) -> (Vec<u8>, u64) {
    let counter = ed.alloc_var(8);
    let points = ed.find_points(func, PointKind::FuncEntry).expect("points");
    ed.insert(&points, Snippet::increment(counter));
    let bytes = ed.rewrite().expect("rewrite succeeds");
    let parse_ns = ed.diagnostics().timings.parse_ns;
    (bytes, parse_ns)
}

/// Requests to one target are deterministic (same binary, same
/// options, same snippet), so every response is verified against a
/// per-target reference instead of retaining all of them — the
/// harness's memory stays O(targets), not O(requests), and the warm
/// leg is not timed under the cold leg's allocation residue.
fn run_cold(targets: &[Target], requests: usize, reference: &[Vec<u8>]) -> u64 {
    let t0 = Instant::now();
    for i in 0..requests {
        let t = &targets[i % targets.len()];
        let ed = BinaryEditor::open(&t.elf).expect("open");
        let (bytes, _) = serve(ed, t.func);
        assert_eq!(
            bytes,
            reference[i % targets.len()],
            "request {i} ({}): cold response not deterministic",
            t.name
        );
    }
    t0.elapsed().as_nanos() as u64
}

fn run_warm(
    targets: &[Target],
    requests: usize,
    reference: &[Vec<u8>],
    cache: &AnalysisCache,
) -> u64 {
    let t0 = Instant::now();
    for i in 0..requests {
        let t = &targets[i % targets.len()];
        let ed = BinaryEditor::open_cached(&t.elf, SessionOptions::default(), cache)
            .expect("open_cached");
        let hit = ed.diagnostics().analysis_cache_hits > 0;
        let (bytes, parse_ns) = serve(ed, t.func);
        // A cache hit must skip the front half entirely...
        assert!(
            !hit || parse_ns == 0,
            "request {i} ({}) hit the cache but still recorded {parse_ns}ns of parse time",
            t.name
        );
        // ...and every warm response must match the cold one.
        assert_eq!(
            bytes,
            reference[i % targets.len()],
            "request {i} ({}): warm response differs from cold",
            t.name
        );
    }
    t0.elapsed().as_nanos() as u64
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
    let requests = parse_arg("REQUESTS", args.first(), 2000);

    let targets = fleet();
    eprintln!(
        "service replay: {requests} requests over {} mutatees — measuring…",
        targets.len()
    );

    // Untimed warmup: capture each target's reference response (every
    // later response, cold or warm, must match it bit for bit) and
    // fault in code paths so neither timed leg pays first-touch costs.
    let reference: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| serve(BinaryEditor::open(&t.elf).expect("open"), t.func).0)
        .collect();

    let cold_ns = run_cold(&targets, requests, &reference);
    let cache = AnalysisCache::new(targets.len());
    let warm_ns = run_warm(&targets, requests, &reference, &cache);

    // The cache must have missed exactly once per distinct binary and
    // served everything else from residence.
    let stats = cache.stats();
    assert_eq!(
        stats.misses as usize,
        targets.len(),
        "expected one cache miss per distinct binary"
    );
    assert_eq!(
        (stats.hits + stats.misses) as usize,
        requests,
        "every request must be either a hit or a miss"
    );

    let ratio = cold_ns as f64 / warm_ns as f64;
    let cold_rps = requests as f64 / (cold_ns as f64 / 1e9);
    let warm_rps = requests as f64 / (warm_ns as f64 / 1e9);

    if json {
        println!(
            "{{\"config\":\"service\",\"requests\":{},\"targets\":{},\
             \"cold_ns\":{},\"warm_ns\":{},\
             \"cold_ns_per_request\":{},\"warm_ns_per_request\":{},\
             \"cold_requests_per_sec\":{:.1},\"warm_requests_per_sec\":{:.1},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"warm_speedup\":{:.3}}}",
            requests,
            targets.len(),
            cold_ns,
            warm_ns,
            cold_ns / requests as u64,
            warm_ns / requests as u64,
            cold_rps,
            warm_rps,
            stats.hits,
            stats.misses,
            stats.evictions,
            ratio
        );
        return;
    }

    println!("\nInstrumentation service replay — {requests} requests:\n");
    println!("  config   total       per-request   requests/sec");
    println!(
        "  cold     {:>8.1}ms   {:>8.1}µs   {:>10.0}",
        cold_ns as f64 / 1e6,
        cold_ns as f64 / requests as f64 / 1e3,
        cold_rps
    );
    println!(
        "  warm     {:>8.1}ms   {:>8.1}µs   {:>10.0}",
        warm_ns as f64 / 1e6,
        warm_ns as f64 / requests as f64 / 1e3,
        warm_rps
    );
    println!(
        "\n  warm speedup: {ratio:.2}x   cache: {} hits / {} misses / {} evictions",
        stats.hits, stats.misses, stats.evictions
    );
    println!("(warm responses verified bit-identical to cold; hits recorded zero parse time)");
}
