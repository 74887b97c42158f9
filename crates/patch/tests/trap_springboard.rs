//! The §3.1.2 worst case, end to end: "In exceptional cases, such as
//! functions that are shorter than four bytes, these longer jumps cannot
//! be used. Dyninst will … ultimately resorting to the inefficient 2-byte
//! trap instructions in the worst case."
//!
//! The mutatee is `rvdyn_asm::tiny_indirect_program`: its hot function is
//! a single 2-byte `c.j` tail call — a real 2-byte function — that `main`
//! calls through a register. Instrumenting it forces the trap
//! springboard, and the indirect call cannot be retargeted, so every call
//! takes the trap; the rewritten ELF carries a `.rvdyn.traps` table, and
//! the execution substrate resolves the trap exactly as the injected
//! SIGTRAP handler would on hardware.

use rvdyn_asm::tiny_indirect_program;
use rvdyn_codegen::snippet::Snippet;
use rvdyn_emu::{load_binary, StopReason};
use rvdyn_parse::{CodeObject, ParseOptions};
use rvdyn_patch::{find_points, Instrumenter, PointKind, SpringboardKind};
use rvdyn_symtab::Binary;

#[test]
fn two_byte_function_forces_trap_and_still_counts() {
    let iters = 50u64;
    let bin = tiny_indirect_program(iters);
    let tiny_addr = bin.symbol_by_name("tiny").unwrap().value;
    let result_addr = bin.symbol_by_name("result").unwrap().value;

    // Sanity: uninstrumented program works. sum = Σ (i + 3).
    let expect_sum: u64 = (0..iters).map(|i| i + 3).sum();
    let mut m = load_binary(&bin);
    m.fuel = Some(10_000_000);
    assert_eq!(m.run(), StopReason::Exited(0));
    assert_eq!(m.mem.load(result_addr, 8).unwrap(), expect_sum);

    // The springboard planner must pick Trap for this site: 2-byte budget,
    // patch area ~0x7_0000 away.
    let sb = rvdyn_patch::plan_springboard(
        tiny_addr,
        0x8_0000,
        2,
        rvdyn_isa::IsaProfile::rv64gc(),
        rvdyn_isa::RegSet::ALL_GPR,
    );
    assert_eq!(sb.kind, SpringboardKind::Trap);

    // Instrument tiny's entry; apply; the patch must emit a trap table.
    let co = CodeObject::parse(&bin, &ParseOptions::default());
    let mut ins = Instrumenter::new(&bin, &co);
    let counter = ins.alloc_var(8);
    let f = &co.functions[&tiny_addr];
    ins.insert_at_points(
        &find_points(f, PointKind::FuncEntry),
        &Snippet::increment(counter),
    );
    let patched = ins.apply().unwrap();
    assert!(
        !patched.trap_table.is_empty(),
        "2-byte function must use the trap springboard"
    );
    assert!(patched.binary.section_by_name(".rvdyn.traps").is_some());

    // Static path through a real ELF file image.
    let elf = patched.binary.to_bytes().unwrap();
    let rebin = Binary::parse(&elf).unwrap();
    let mut m = load_binary(&rebin);
    m.fuel = Some(50_000_000);
    assert_eq!(m.run(), StopReason::Exited(0));
    assert_eq!(
        m.mem.load(counter.addr, 8).unwrap(),
        iters,
        "trap path must count"
    );
    assert_eq!(
        m.mem.load(result_addr, 8).unwrap(),
        expect_sum,
        "semantics preserved"
    );

    // And the trap cost shows up in the cycle model (the "inefficient"
    // part of the paper's remark).
    let mut base = load_binary(&bin);
    base.fuel = Some(10_000_000);
    base.run();
    assert!(
        m.cycles > base.cycles + iters * 1000,
        "trap round trips must cost"
    );
}
