//! E-DBT: the cached (block-translating) engine against the reference
//! interpreter on the §4.1 matmul workload, plus a cold-code point.
//!
//! The bit-identity contract is asserted before anything is reported:
//! both engines must retire the same instructions, model the same
//! cycles, and end with the same stdout and registers
//! (docs/EMULATOR.md §"Cost-model bit-identity"). Each workload runs
//! [`ROUNDS`] rounds of (interpreter, cached) and keeps each engine's
//! best time, so a burst of host load lands on both engines' samples
//! rather than on one engine's alone.

use crate::{timed, Bound, Fields, Op, Report, ROUNDS};
use rvdyn::{Binary, EmuEngine, Machine, StopReason};

/// Run `bin` to exit on `engine`: the final machine and the wall clock.
fn run_on(bin: &Binary, engine: EmuEngine, fuel: u64) -> (Machine, u64) {
    let mut m = rvdyn_emu::load_binary(bin);
    m.engine = engine;
    m.fuel = Some(fuel);
    let (stop, ns) = timed(|| m.run());
    assert_eq!(stop, StopReason::Exited(0), "mutatee must exit cleanly");
    (m, ns)
}

/// The interpreter's and the cached engine's fastest runs on `bin`,
/// after the bit-identity assertion.
fn compare(label: &str, bin: &Binary, fuel: u64) -> [(Machine, u64); 2] {
    let faster = |best: Option<(Machine, u64)>, r: (Machine, u64)| match best {
        Some(b) if b.1 <= r.1 => Some(b),
        _ => Some(r),
    };
    let (mut i, mut c) = (None, None);
    for _ in 0..ROUNDS {
        i = faster(i, run_on(bin, EmuEngine::Interpreter, fuel));
        c = faster(c, run_on(bin, EmuEngine::Cached, fuel));
    }
    let [(i, i_ns), (c, c_ns)] = [i, c].map(|r| r.expect("ROUNDS > 0"));
    assert_eq!(i.icount, c.icount, "{label}: instruction counts diverge");
    assert_eq!(i.cycles, c.cycles, "{label}: modelled cycles diverge");
    assert_eq!(i.gpr, c.gpr, "{label}: final integer registers diverge");
    assert_eq!(i.fpr, c.fpr, "{label}: final float registers diverge");
    assert_eq!(i.stdout, c.stdout, "{label}: stdout diverges");
    [(i, i_ns), (c, c_ns)]
}

/// `emu [N] [REPS]`: matmul N×N called REPS times.
pub fn run(args: &[usize]) -> Report {
    let (n, reps) = (args[0], args[1]);
    eprintln!("emu: matmul {n}x{n}, {reps} call(s) — interpreter vs cached engine…");
    let bin = rvdyn_asm::matmul_program(n, reps);
    let [(mi, mi_ns), (mc, mc_ns)] = compare("matmul", &bin, 40_000_000_000);
    // Cold code: 10k distinct functions, tens of thousands of block
    // starts, few entered often enough to be translated.
    let funcs = 10_000;
    eprintln!("emu: many_functions({funcs}) — cold code…");
    let many = rvdyn_asm::many_functions_program(funcs);
    let [(ci, ci_ns), (cc, cc_ns)] = compare("many_functions", &many, 4_000_000_000);

    let speedup = mi_ns as f64 / mc_ns.max(1) as f64;
    let cold_speedup = ci_ns as f64 / cc_ns.max(1) as f64;
    let fields = Fields::default()
        .int("n", n)
        .int("reps", reps)
        .int("icount", mi.icount)
        .int("cycles", mi.cycles)
        .int("interpreter_ns", mi_ns)
        .int("cached_ns", mc_ns)
        .real("speedup", speedup, 4)
        .int("blocks_translated", mc.emu_blocks_translated())
        .int("invalidations", mc.emu_invalidations())
        .int("cold_functions", funcs)
        .int("cold_icount", ci.icount)
        .int("cold_interpreter_ns", ci_ns)
        .int("cold_cached_ns", cc_ns)
        .real("cold_speedup", cold_speedup, 4)
        .int("cold_blocks_translated", cc.emu_blocks_translated());
    // Blocks below the tier-up threshold are interpreted, so on cold
    // code the cached engine must cost about what the interpreter does.
    let translated = mc.emu_blocks_translated() as f64;
    let bounds = vec![
        Bound("matmul blocks translated", translated, Op::Above, 0.0),
        Bound("matmul speedup", speedup, Op::AtLeast, 5.0),
        Bound("cold-code speedup", cold_speedup, Op::AtLeast, 0.7),
    ];
    Report::new(fields, bounds)
}
