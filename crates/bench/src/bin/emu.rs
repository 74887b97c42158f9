//! Execution-engine speedup benchmark (experiment E-DBT): the cached
//! (block-translating) engine against the reference interpreter on the
//! §4.1 matmul workload, plus a cold-code scale point.
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin emu -- [--json] [N] [REPS]`
//! (defaults N=100, REPS=1 — the paper's matrix size).
//!
//! The bin *asserts* the bit-identity contract before printing anything:
//! both engines must retire the same instruction count, model the same
//! cycle count, produce the same stdout and the same final registers
//! (docs/EMULATOR.md §"Cost-model bit-identity"). Only then is the host
//! wall-clock speedup reported — identical answers, delivered faster.
//! Each workload runs five rounds of (interpreter, cached) and keeps
//! each engine's best time, so a burst of host load lands on both
//! engines' samples rather than on one engine's alone.
//! CI gates the matmul speedup at >= 5x and the cold-code speedup at
//! >= 0.7x (BENCH_emu.json).

use rvdyn_emu::{load_binary, EmuEngine, StopReason};
use rvdyn_symtab::Binary;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: emu [--json] [N] [REPS]");
    eprintln!("  N     matrix size, a positive integer (default 100)");
    eprintln!("  REPS  matmul calls per run, a positive integer (default 1)");
    std::process::exit(2);
}

fn parse_arg(name: &str, arg: Option<&String>, default: usize) -> usize {
    match arg {
        None => default,
        Some(a) => match a.parse() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("emu: invalid {name} {a:?}: expected a positive integer");
                usage()
            }
        },
    }
}

/// Rounds of (interpreter, cached) runs per workload.
const ROUNDS: usize = 5;

/// One engine's wall clock on `bin`, plus everything the bit-identity
/// assertion compares and the translation-cache counters.
struct EngineRun {
    ns: u64,
    icount: u64,
    cycles: u64,
    gpr: [u64; 32],
    fpr: [u64; 32],
    stdout: Vec<u8>,
    blocks_translated: u64,
    invalidations: u64,
}

fn run(bin: &Binary, engine: EmuEngine, fuel: u64) -> EngineRun {
    let mut m = load_binary(bin);
    m.engine = engine;
    m.fuel = Some(fuel);
    let t0 = Instant::now();
    let stop = m.run();
    let ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(stop, StopReason::Exited(0), "mutatee must exit cleanly");
    EngineRun {
        ns,
        icount: m.icount,
        cycles: m.cycles,
        gpr: m.gpr,
        fpr: m.fpr,
        stdout: m.stdout.clone(),
        blocks_translated: m.emu_blocks_translated(),
        invalidations: m.emu_invalidations(),
    }
}

/// Run [`ROUNDS`] rounds of (interpreter, cached), keep each engine's
/// fastest run, assert the bit-identity contract, return (interpreter,
/// cached, speedup).
fn compare(label: &str, bin: &Binary, fuel: u64) -> (EngineRun, EngineRun, f64) {
    let faster = |best: Option<EngineRun>, r: EngineRun| match best {
        Some(b) if b.ns <= r.ns => Some(b),
        _ => Some(r),
    };
    let (mut i, mut c) = (None, None);
    for _ in 0..ROUNDS {
        i = faster(i, run(bin, EmuEngine::Interpreter, fuel));
        c = faster(c, run(bin, EmuEngine::Cached, fuel));
    }
    let (i, c) = (i.expect("ROUNDS > 0"), c.expect("ROUNDS > 0"));
    assert_eq!(i.icount, c.icount, "{label}: instruction counts diverge");
    assert_eq!(i.cycles, c.cycles, "{label}: modelled cycles diverge");
    assert_eq!(i.gpr, c.gpr, "{label}: final integer registers diverge");
    assert_eq!(i.fpr, c.fpr, "{label}: final float registers diverge");
    assert_eq!(i.stdout, c.stdout, "{label}: stdout diverges");
    let speedup = i.ns as f64 / c.ns.max(1) as f64;
    (i, c, speedup)
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
    if args.len() > 2 || args.iter().any(|a| a.starts_with('-')) {
        usage();
    }
    let n = parse_arg("N", args.first(), 100);
    let reps = parse_arg("REPS", args.get(1), 1);

    eprintln!("matmul {n}x{n}, {reps} call(s) — interpreter vs cached engine…");
    let bin = rvdyn_asm::matmul_program(n, reps);
    let (mi, mc, m_speedup) = compare("matmul", &bin, 40_000_000_000);
    assert!(mc.blocks_translated > 0, "matmul: nothing was translated");

    // Cold code: 10k distinct functions — tens of thousands of block
    // starts, few entered often enough to be translated.
    let funcs = 10_000usize;
    eprintln!("many_functions({funcs}) — cold code…");
    let many = rvdyn_asm::many_functions_program(funcs);
    let (si, sc, s_speedup) = compare("many_functions", &many, 4_000_000_000);

    if json {
        println!(
            "{{\"config\":\"emu\",\"n\":{n},\"reps\":{reps},\
             \"icount\":{},\"cycles\":{},\
             \"interpreter_ns\":{},\"cached_ns\":{},\"speedup\":{:.4},\
             \"blocks_translated\":{},\"invalidations\":{},\
             \"scale\":{{\"functions\":{funcs},\"icount\":{},\
             \"interpreter_ns\":{},\"cached_ns\":{},\"speedup\":{:.4},\
             \"blocks_translated\":{}}}}}",
            mi.icount,
            mi.cycles,
            mi.ns,
            mc.ns,
            m_speedup,
            mc.blocks_translated,
            mc.invalidations,
            si.icount,
            si.ns,
            sc.ns,
            s_speedup,
            sc.blocks_translated,
        );
        return;
    }

    println!("\nExecution-engine comparison — matmul {n}x{n}, {reps} call(s):\n");
    println!(
        "  interpreter : {:>10.1} ms  ({} insts, {} modelled cycles)",
        mi.ns as f64 / 1e6,
        mi.icount,
        mi.cycles
    );
    println!(
        "  cached      : {:>10.1} ms  ({} blocks translated)",
        mc.ns as f64 / 1e6,
        mc.blocks_translated
    );
    println!("  speedup     : {m_speedup:>10.2}x  (identical counts, cycles, registers, stdout)");
    println!("\nCold code — many_functions({funcs}):");
    println!(
        "  interpreter : {:>10.1} ms  ({} insts)",
        si.ns as f64 / 1e6,
        si.icount
    );
    println!(
        "  cached      : {:>10.1} ms  ({} blocks translated)",
        sc.ns as f64 / 1e6,
        sc.blocks_translated
    );
    println!("  speedup     : {s_speedup:>10.2}x");
}
