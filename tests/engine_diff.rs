//! Differential tests pinning the cached (DBT) engine to the reference
//! interpreter: for any program — random reducible CFGs, the whole
//! mutatee suite, instrumented or not, at any fuel — the two engines
//! must agree on *every* architectural observable: registers, memory,
//! instruction count, the modelled cycle count, stdout, and the stop
//! reason (including the trap pc). This is the bit-identity contract of
//! `docs/EMULATOR.md` §"Cost-model bit-identity". The cached engine
//! interprets a block until it is hot, so the random programs come in a
//! cold form and a hot form whose blocks are translated.

mod common;

use common::ProgramStrategy;
use proptest::prelude::*;
use rvdyn::{BinaryEditor, EmuEngine, PointKind, SessionOptions, Snippet};
use rvdyn_emu::{load_binary, StopReason, TIER_UP};
use rvdyn_symtab::Binary;

/// Every observable the two engines must agree on, collected after a
/// run. Memory is the full final page image, so a single divergent byte
/// anywhere in the address space fails the comparison.
#[derive(Debug, PartialEq)]
struct Observables {
    stop: StopReason,
    pc: u64,
    gpr: [u64; 32],
    fpr: [u64; 32],
    fcsr: u64,
    icount: u64,
    cycles: u64,
    taken_transfers: u64,
    stdout: Vec<u8>,
    memory: Vec<(u64, Vec<u8>)>,
}

fn run_raw(bin: &Binary, engine: EmuEngine, fuel: u64) -> Observables {
    let mut m = load_binary(bin);
    m.engine = engine;
    m.fuel = Some(fuel);
    let stop = m.run();
    Observables {
        stop,
        pc: m.pc,
        gpr: m.gpr,
        fpr: m.fpr,
        fcsr: m.fcsr,
        icount: m.icount,
        cycles: m.cycles,
        taken_transfers: m.taken_transfers,
        stdout: m.stdout.clone(),
        memory: m.mem.pages().map(|(a, b)| (a, b.to_vec())).collect(),
    }
}

/// Blocks the cached engine translates running `bin` with `fuel`.
fn blocks_translated(bin: &Binary, fuel: u64) -> u64 {
    let mut m = load_binary(bin);
    m.engine = EmuEngine::Cached;
    m.fuel = Some(fuel);
    m.run();
    m.emu_blocks_translated()
}

fn assert_engines_agree(bin: &Binary, fuel: u64, what: &str) {
    let i = run_raw(bin, EmuEngine::Interpreter, fuel);
    let c = run_raw(bin, EmuEngine::Cached, fuel);
    assert_eq!(i, c, "engines diverge on {what} (fuel {fuel})");
}

#[test]
fn mutatee_suite_is_engine_invariant() {
    let suite: Vec<(&str, Binary)> = vec![
        ("matmul", rvdyn_asm::matmul_program(8, 2)),
        ("fib", rvdyn_asm::fib_program(12)),
        ("switch", rvdyn_asm::switch_program(64)),
        ("switch_rel", rvdyn_asm::switch_rel_program(64)),
        ("deep", rvdyn_asm::deep_call_program(16)),
        ("memcpy", rvdyn_asm::memcpy_program()),
        ("atomics", rvdyn_asm::atomics_program(100)),
        ("indirect", rvdyn_asm::indirect_entry_program(32)),
        ("tiny", rvdyn_asm::tiny_function_program(32)),
        ("many", rvdyn_asm::many_functions_program(64)),
    ];
    for (name, bin) in suite {
        assert_engines_agree(&bin, 1_000_000_000, name);
    }
}

#[test]
fn partial_fuel_stops_at_the_same_state() {
    // FuelExhausted must land on the exact same pc / registers / cycle
    // count: the cached engine may not overrun a block boundary, nor the
    // point where it stops interpreting a block and translates it.
    let bin = rvdyn_asm::matmul_program(6, 1);
    // The retired count at which the first block is translated: a run
    // translates iff its fuel is past it.
    let (mut below, mut past) = (0u64, 5_000u64);
    assert!(blocks_translated(&bin, past) > 0);
    while past - below > 1 {
        let mid = (below + past) / 2;
        if blocks_translated(&bin, mid) > 0 {
            past = mid;
        } else {
            below = mid;
        }
    }
    let tier_up = below.saturating_sub(1)..=below + 2;
    for fuel in [1u64, 2, 3, 17, 100, 999, 5_000].into_iter().chain(tier_up) {
        let i = run_raw(&bin, EmuEngine::Interpreter, fuel);
        assert_eq!(i.stop, StopReason::FuelExhausted, "fuel {fuel} too large");
        assert_engines_agree(&bin, fuel, "matmul mid-run");
    }
}

/// A bare program: `sections`, entered at the first one's address.
fn raw_program(sections: Vec<rvdyn_symtab::Section>) -> Binary {
    let mut bin = rvdyn_asm::fib_program(1); // donor for entry/attrs shape
    bin.entry = sections[0].addr;
    bin.sections = sections;
    bin.symbols.clear();
    bin
}

#[test]
fn trap_pcs_are_engine_invariant() {
    // A mutatee that faults mid-block must fault at the same pc with the
    // same machine state under both engines: a load from an unmapped
    // address buried between ordinary ALU instructions. In the cold form
    // the block runs once (interpreted by both engines); in the hot form
    // it is a loop body run 2 * TIER_UP times whose load address becomes
    // unmapped on the last trip, so the cached engine faults inside a
    // translated block.
    use rvdyn_isa::{build, Op, Reg};
    use rvdyn_symtab::{Section, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE};
    let base = 0x1_0000u64;
    let mut a = rvdyn_asm::Assembler::new(base);
    a.li(Reg::x(10), 5);
    a.addi(Reg::x(10), Reg::x(10), 1);
    a.li(Reg::x(6), 0x1999_0000);
    a.inst(build::i_type(Op::Ld, Reg::x(7), Reg::x(6), 0));
    a.li(Reg::x(17), 93);
    a.ecall();
    let code = a.finish().unwrap();
    let cold = raw_program(vec![Section::progbits(
        ".text",
        base,
        SHF_ALLOC | SHF_EXECINSTR,
        code,
    )]);

    let data = 0x2_0000u64;
    let mut a = rvdyn_asm::Assembler::new(base);
    a.li(Reg::x(10), 5);
    a.li(Reg::x(6), data as i64);
    a.li(Reg::x(8), 2 * TIER_UP as i64);
    let body = a.here_label();
    a.addi(Reg::x(10), Reg::x(10), 1);
    // x12 = data, or data + 0x1000_0000 (unmapped) once x8 reaches 0.
    a.inst(build::i_type(Op::Sltiu, Reg::x(11), Reg::x(8), 1));
    a.slli(Reg::x(11), Reg::x(11), 28);
    a.add(Reg::x(12), Reg::x(6), Reg::x(11));
    a.ld(Reg::x(7), Reg::x(12), 0);
    a.add(Reg::x(10), Reg::x(10), Reg::x(7));
    a.addi(Reg::x(8), Reg::x(8), -1);
    a.bge(Reg::x(8), Reg::X0, body);
    a.li(Reg::x(17), 93);
    a.ecall();
    let code = a.finish().unwrap();
    let hot = raw_program(vec![
        Section::progbits(".text", base, SHF_ALLOC | SHF_EXECINSTR, code),
        Section::progbits(
            ".data",
            data,
            SHF_ALLOC | SHF_WRITE,
            7u64.to_le_bytes().to_vec(),
        ),
    ]);

    for (form, bin) in [("cold", cold), ("hot", hot)] {
        let i = run_raw(&bin, EmuEngine::Interpreter, 1_000);
        assert!(
            matches!(i.stop, StopReason::MemFault { .. }),
            "{form}: expected a memory fault, got {:?}",
            i.stop
        );
        assert_engines_agree(&bin, 1_000, &format!("faulting load ({form})"));
        if form == "hot" {
            assert_eq!(i.gpr[10], 5 + 2 * TIER_UP as u64 * 8 + 1);
            assert!(
                blocks_translated(&bin, 1_000) > 0,
                "hot: the faulting block must be translated"
            );
        }
    }
}

/// FP and AMO stores into text invalidate on neither engine
/// (docs/EMULATOR.md §3): a program calls `victim` — cold (once) or hot
/// (`2 * TIER_UP` times) — rewrites its first two instructions through
/// an `fsd` or an `amoswap.d`, and calls it once more. Both engines run
/// the stale decode and agree on every observable.
#[test]
fn fp_and_amo_stores_into_text_are_stale_on_both_engines() {
    use rvdyn_isa::{build, encode::encode32, Op, Reg};
    use rvdyn_symtab::{Section, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE};
    let (a0, t0, t1, t2, t3, s2) = (
        Reg::x(10),
        Reg::x(5),
        Reg::x(6),
        Reg::x(7),
        Reg::x(28),
        Reg::x(18),
    );
    let (text, data) = (0x1_0000u64, 0x2_0000u64);
    let patch = encode32(&build::addi(a0, a0, 100)).unwrap().to_le_bytes();
    for calls in [1, 2 * TIER_UP as i64] {
        for amo in [false, true] {
            let mut a = rvdyn_asm::Assembler::new(text);
            let victim = a.label();
            a.li(s2, calls);
            a.li(a0, 0);
            let warm = a.here_label();
            a.call(victim);
            a.addi(s2, s2, -1);
            a.bne(s2, Reg::X0, warm);
            a.li(t1, data as i64);
            a.la(t2, victim);
            if amo {
                a.ld(t0, t1, 0);
                a.inst(build::r_type(Op::AmoSwapD, t3, t2, t0));
            } else {
                a.fld(Reg::f(0), t1, 0);
                a.fsd(Reg::f(0), t2, 0);
            }
            a.call(victim);
            a.li(Reg::x(17), 93);
            a.ecall();
            a.bind(victim);
            a.addi(a0, a0, 1);
            a.addi(a0, a0, 1);
            a.ret();
            let code = a.finish().unwrap();
            let bin = raw_program(vec![
                Section::progbits(".text", text, SHF_ALLOC | SHF_EXECINSTR, code),
                Section::progbits(".data", data, SHF_ALLOC | SHF_WRITE, patch.repeat(2)),
            ]);
            let what = format!(
                "{} store after {calls} call(s)",
                if amo { "amoswap.d" } else { "fsd" }
            );
            let i = run_raw(&bin, EmuEngine::Interpreter, 1_000_000);
            assert_eq!(i.stop, StopReason::Exited(2 * (calls + 1)), "{what}");
            assert_engines_agree(&bin, 1_000_000, &what);
            if calls > 1 {
                assert!(
                    blocks_translated(&bin, 1_000_000) > 0,
                    "{what}: victim must be hot"
                );
            }
        }
    }
}

#[test]
fn instrumented_runs_agree_across_engines_and_threads() {
    // The acceptance bar: instrumented binaries produce identical
    // (registers, memory, cycles, counts) on both engines at plan-phase
    // thread counts 1 and 4.
    let elf = rvdyn_asm::matmul_program(6, 2).to_bytes().unwrap();
    let mut baseline = None;
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        for threads in [1usize, 4] {
            let mut ed = BinaryEditor::open_with(
                &elf,
                SessionOptions::new().threads(threads).engine(engine),
            )
            .unwrap();
            let bc = ed.count_blocks("matmul").unwrap();
            let r = ed.instrument_and_run(1_000_000_000).unwrap();
            let counts = ed.block_counts(&bc, &r).unwrap();
            let m = r.machine();
            let state = (
                r.exit_code,
                m.gpr,
                m.fpr,
                m.icount,
                m.cycles,
                m.stdout.clone(),
                m.mem
                    .pages()
                    .map(|(a, b)| (a, b.to_vec()))
                    .collect::<Vec<_>>(),
                counts,
            );
            match &baseline {
                None => baseline = Some(state),
                Some(b) => assert_eq!(
                    &state, b,
                    "instrumented run diverges at engine {engine:?} threads {threads}"
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random reducible CFGs, cold and hot: full-state agreement at full
    /// fuel and at a seed-derived partial fuel (stopping mid-program at
    /// an arbitrary instruction boundary).
    #[test]
    fn random_cfgs_are_engine_invariant(
        stmts in ProgramStrategy,
        seed in any::<u64>(),
    ) {
        let forms = [
            ("cold", common::stmt_program(&stmts, seed)),
            ("hot", common::stmt_program_hot(&stmts, seed)),
        ];
        for (form, bin) in forms {
            let full = run_raw(&bin, EmuEngine::Interpreter, 1_000_000_000);
            prop_assert_eq!(full.stop, StopReason::Exited(0));
            let cached = run_raw(&bin, EmuEngine::Cached, 1_000_000_000);
            prop_assert_eq!(&full, &cached, "{} divergence at full fuel", form);
            if form == "hot" {
                prop_assert!(blocks_translated(&bin, 1_000_000_000) > 0);
            }

            // Stop somewhere strictly inside the run.
            if full.icount > 1 {
                let fuel = 1 + seed % (full.icount - 1);
                let i = run_raw(&bin, EmuEngine::Interpreter, fuel);
                let c = run_raw(&bin, EmuEngine::Cached, fuel);
                prop_assert_eq!(&i, &c, "{} divergence at fuel {}", form, fuel);
            }
        }
    }

    /// Random CFGs, cold and hot, instrumented: block counts, counters,
    /// and the final machine state agree across engines (threads 1 and
    /// 4).
    #[test]
    fn random_instrumented_cfgs_are_engine_invariant(
        stmts in ProgramStrategy,
        seed in any::<u64>(),
    ) {
        let forms = [
            ("cold", common::stmt_program(&stmts, seed)),
            ("hot", common::stmt_program_hot(&stmts, seed)),
        ];
        for (form, bin) in forms {
            let result_addr = bin.symbol_by_name("result").unwrap().value;
            let elf = bin.to_bytes().unwrap();
            let mut baseline = None;
            for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
                for threads in [1usize, 4] {
                    let mut ed = BinaryEditor::open_with(
                        &elf,
                        SessionOptions::new().threads(threads).engine(engine),
                    ).unwrap();
                    let c = ed.alloc_var(8);
                    let pts = ed.find_points("work", PointKind::BlockEntry).unwrap();
                    ed.insert(&pts, Snippet::increment(c));
                    let r = ed.instrument_and_run(1_000_000_000).unwrap();
                    if form == "hot" && engine == EmuEngine::Cached {
                        prop_assert!(r.machine().emu_blocks_translated() > 0);
                    }
                    let state = (
                        r.exit_code,
                        r.read_u64(result_addr),
                        r.read_u64(c.addr),
                        r.icount,
                        r.cycles,
                    );
                    match &baseline {
                        None => baseline = Some(state),
                        Some(b) => prop_assert_eq!(&state, b,
                            "{} instrumented divergence at {:?} threads {}", form, engine, threads),
                    }
                }
            }
        }
    }
}
