//! Liveness soundness, proven dynamically: if liveness says a register is
//! *dead* at function entry, then perturbing its initial value must not
//! change anything observable at the return (return values + callee-saved
//! registers) — exactly the guarantee CodeGenAPI's dead-register
//! allocation (§4.3) depends on for correctness.
//!
//! Random straight-line ALU programs (with a conditional branch thrown in)
//! are generated, analyzed, and executed twice on the reference evaluator
//! with dead registers perturbed.

use proptest::prelude::*;
use rvdyn_isa::semantics::{eval_int, EvalOutcome, FlatMemory, IntState};
use rvdyn_isa::{build, Instruction, Op, Reg};
use rvdyn_parse::conventions::{callee_saved, ret_regs};
use rvdyn_parse::source::RawCode;
use rvdyn_parse::{CodeObject, Liveness, ParseOptions};

/// A small pool of registers so programs actually reuse them.
const POOL: [u8; 8] = [5, 6, 7, 10, 11, 12, 28, 29];

fn reg(sel: u8) -> Reg {
    Reg::x(POOL[(sel as usize) % POOL.len()])
}

/// One random ALU instruction.
fn arb_inst() -> impl Strategy<Value = Instruction> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        -2048i64..2048,
    )
        .prop_map(|(kind, a, b, c, imm)| match kind % 6 {
            0 => build::addi(reg(a), reg(b), imm),
            1 => build::add(reg(a), reg(b), reg(c)),
            2 => build::sub(reg(a), reg(b), reg(c)),
            3 => build::r_type(Op::Xor, reg(a), reg(b), reg(c)),
            4 => build::r_type(Op::And, reg(a), reg(b), reg(c)),
            5 => build::i_type(Op::Slli, reg(a), reg(b), imm.rem_euclid(64)),
            _ => unreachable!(),
        })
}

/// Execute `insts` + ret on the reference evaluator; return the observable
/// state at the return: (a0, a1, callee-saved s-registers).
fn observe(insts: &[Instruction], init: &[(Reg, u64)]) -> Vec<u64> {
    let mut st = IntState::new(0x1000);
    for &(r, v) in init {
        st.set(r, v);
    }
    let mut mem = FlatMemory::new(0, 8);
    let mut pc = 0x1000u64;
    let mut laid = Vec::new();
    for i in insts {
        let mut j = *i;
        j.address = pc;
        pc += 4;
        laid.push(j);
    }
    let mut ip = 0usize;
    let mut steps = 0;
    while ip < laid.len() {
        steps += 1;
        assert!(steps < 100_000);
        st.pc = laid[ip].address;
        match eval_int(&laid[ip], &mut st, &mut mem) {
            EvalOutcome::Next => ip += 1,
            EvalOutcome::Jump(t) => {
                let end = 0x1000 + laid.len() as u64 * 4;
                if !(0x1000..end).contains(&t) {
                    break; // the ret left the function
                }
                ip = ((t - 0x1000) / 4) as usize;
            }
            o => panic!("{o:?}"),
        }
    }
    let mut obs = vec![st.get(Reg::x(10)), st.get(Reg::x(11))];
    for n in [8u8, 9, 18, 19, 20, 21] {
        obs.push(st.get(Reg::x(n)));
    }
    obs
}

/// Deterministic pin of the shrunk `.proptest-regressions` case:
/// `body = [addi x5, x5, 0], perturb = 0`. A self-dependent first
/// instruction reads its own destination, so the register must be live
/// at function entry (use-before-def within the block summary), and
/// perturbing any register liveness calls dead must leave the return
/// observables untouched.
#[test]
fn self_dependent_entry_instruction_is_live() {
    let body = vec![build::addi(Reg::x(5), Reg::x(5), 0)];
    let mut code: Vec<u8> = Vec::new();
    for i in &body {
        code.extend_from_slice(&rvdyn_isa::encode::encode32(i).unwrap().to_le_bytes());
    }
    code.extend_from_slice(
        &rvdyn_isa::encode::encode32(&build::ret())
            .unwrap()
            .to_le_bytes(),
    );
    let src = RawCode {
        base: 0x1000,
        bytes: code,
        entries: vec![0x1000],
    };
    let co = CodeObject::parse(&src, &ParseOptions::default());
    let f = &co.functions[&0x1000];
    let lv = f.liveness();

    // `addi x5, x5, 0` reads x5 before (re)defining it: x5 is live-in.
    assert!(
        lv.live_in(0x1000).contains(Reg::x(5)),
        "self-dependent x5 must be live at entry: {:?}",
        lv.live_in(0x1000)
    );

    // Replay the perturbation oracle with perturb = 0 (flips only bit 0).
    let dead = lv.live_in(0x1000).complement();
    let init: Vec<(Reg, u64)> = POOL
        .iter()
        .enumerate()
        .map(|(i, &n)| (Reg::x(n), 0x1000 + i as u64))
        .collect();
    let mut insts = body.clone();
    insts.push(build::ret());
    let baseline = observe(&insts, &init);
    for &n in &POOL {
        let r = Reg::x(n);
        if !dead.contains(r) {
            continue;
        }
        let mut init2 = init.clone();
        for e in &mut init2 {
            if e.0 == r {
                e.1 ^= 1;
            }
        }
        assert_eq!(
            observe(&insts, &init2),
            baseline,
            "perturbing dead {r:?} changed observables"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dead_at_entry_is_truly_dead(
        body in proptest::collection::vec(arb_inst(), 1..24),
        perturb in any::<u64>(),
    ) {
        // Assemble: body ++ ret.
        let mut code: Vec<u8> = Vec::new();
        for i in &body {
            code.extend_from_slice(&rvdyn_isa::encode::encode32(i).unwrap().to_le_bytes());
        }
        code.extend_from_slice(
            &rvdyn_isa::encode::encode32(&build::ret()).unwrap().to_le_bytes(),
        );
        let src = RawCode { base: 0x1000, bytes: code, entries: vec![0x1000] };
        let co = CodeObject::parse(&src, &ParseOptions::default());
        let f = &co.functions[&0x1000];
        let dead = f.liveness().live_in(0x1000).complement();

        // Baseline observation with all pool registers at fixed values.
        let init: Vec<(Reg, u64)> = POOL
            .iter()
            .enumerate()
            .map(|(i, &n)| (Reg::x(n), 0x1000 + i as u64))
            .collect();
        let mut insts = body.clone();
        insts.push(build::ret());
        let baseline = observe(&insts, &init);

        // Perturb every dead pool register; observables must not move.
        for &n in &POOL {
            let r = Reg::x(n);
            if !dead.contains(r) {
                continue;
            }
            let mut init2 = init.clone();
            for e in &mut init2 {
                if e.0 == r {
                    e.1 ^= perturb | 1;
                }
            }
            let observed = observe(&insts, &init2);
            prop_assert_eq!(
                &observed,
                &baseline,
                "perturbing dead {:?} changed observables", r
            );
        }
    }

    #[test]
    fn liveness_is_a_fixpoint(
        body in proptest::collection::vec(arb_inst(), 1..24),
    ) {
        // A fresh solve yields the function's kept solution; and
        // live_in(entry) ⊆ {regs read somewhere} ∪ boundary
        // (callee-saved ∪ ret regs ∪ sp).
        let mut code: Vec<u8> = Vec::new();
        for i in &body {
            code.extend_from_slice(&rvdyn_isa::encode::encode32(i).unwrap().to_le_bytes());
        }
        code.extend_from_slice(
            &rvdyn_isa::encode::encode32(&build::ret()).unwrap().to_le_bytes(),
        );
        let src = RawCode { base: 0x1000, bytes: code, entries: vec![0x1000] };
        let co = CodeObject::parse(&src, &ParseOptions::default());
        let f = &co.functions[&0x1000];
        let a = f.liveness();
        let b = Liveness::analyze(f);
        prop_assert_eq!(a.live_in(0x1000), b.live_in(0x1000));

        let mut upper = callee_saved().union(ret_regs());
        upper.insert(Reg::x(2));
        upper.insert(Reg::x(1)); // ret reads ra
        for i in &body {
            upper = upper.union(i.regs_read());
        }
        prop_assert_eq!(
            a.live_in(0x1000).minus(upper),
            rvdyn_isa::RegSet::empty(),
            "live_in contains registers nothing can read"
        );
    }
}
