//! The back half — snippet lowering, relocation, base assignment,
//! springboards and the merge — pinned by content digests.
//!
//! Each digest covers one static rewrite: the rewritten ELF's bytes, the
//! trap table, the relocation index (the original address
//! [`RelocationIndex::to_original`] gives every halfword of the patch
//! area), the patch diagnostics and the telemetry event stream (stage
//! timings left out). The rewrites are every `rvdyn_asm` program under
//! entry, every-block, optimal and taken/not-taken edge counters, each in
//! both register-allocation modes, plus the memory tracer on matmul(4, 1),
//! calling and branching snippets on matmul(8, 2), and every-block
//! counting on `many_functions(512)`. The pinned values
//! were taken before the plan phase was rewritten over encoded words and
//! byte arenas, and must not change when the back half is reimplemented.
//! The hash is FNV-1a ([`common::Fnv`]).

mod common;

use common::Fnv;
use rvdyn::telemetry::CollectSink;
use rvdyn::tools::{MemTracer, TraceOptions};
use rvdyn::{
    Binary, BinaryOp, CounterPlacement, PointKind, Reg, RegAllocMode, Session, SessionOptions,
    Snippet, TelemetryEvent,
};
use rvdyn_patch::instrument::PatchResult;
use std::sync::Arc;

/// How a rewrite instruments its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counters {
    /// One counter at every function's entry.
    Entry,
    /// A counter in every block of every function.
    EveryBlock,
    /// Block counters under optimal placement.
    Optimal,
    /// One counter on every taken and one on every not-taken edge.
    Edges,
}

const COUNTERS: [Counters; 4] = [
    Counters::Entry,
    Counters::EveryBlock,
    Counters::Optimal,
    Counters::Edges,
];

/// Every `rvdyn_asm` program at small sizes.
fn programs() -> Vec<(&'static str, Binary)> {
    vec![
        ("matmul", rvdyn_asm::matmul_program(8, 2)),
        ("fib", rvdyn_asm::fib_program(12)),
        ("switch", rvdyn_asm::switch_program(64)),
        ("switch_rel", rvdyn_asm::switch_rel_program(64)),
        ("indirect", rvdyn_asm::indirect_entry_program(32)),
        ("tiny", rvdyn_asm::tiny_function_program(32)),
        ("tiny_indirect", rvdyn_asm::tiny_indirect_program(32)),
        ("tailcall", rvdyn_asm::tailcall_program()),
        ("memcpy", rvdyn_asm::memcpy_program()),
        ("deep", rvdyn_asm::deep_call_program(16)),
        ("atomics", rvdyn_asm::atomics_program(100)),
        ("many", rvdyn_asm::many_functions_program(48)),
        (
            "nested",
            rvdyn_asm::nested_call_program(&[16, 32, 0], false),
        ),
        (
            "nested_fp",
            rvdyn_asm::nested_call_program(&[16, 32, 0], true),
        ),
    ]
}

/// A session on `bin` whose events `sink` collects.
fn session(bin: &Binary, opts: SessionOptions, sink: &Arc<CollectSink>) -> Session {
    Session::from_binary(bin.clone(), opts.telemetry(sink.clone()))
}

/// The named functions the conservative policy lets a rewrite touch, in
/// entry order.
fn instrumentable(ed: &Session) -> Vec<String> {
    ed.code()
        .functions
        .values()
        .filter(|f| !f.has_unresolved)
        .filter_map(|f| f.name.clone())
        .collect()
}

/// Queue `counters` on every instrumentable function of `ed`.
fn queue(ed: &mut Session, counters: Counters) {
    let funcs = instrumentable(ed);
    match counters {
        Counters::Entry => {
            let c = ed.alloc_var(8);
            for f in &funcs {
                let pts = ed.find_points(f, PointKind::FuncEntry).unwrap();
                ed.insert(&pts, Snippet::increment(c));
            }
        }
        Counters::EveryBlock | Counters::Optimal => {
            for f in &funcs {
                ed.count_blocks(f).unwrap();
            }
        }
        Counters::Edges => {
            let (taken, not_taken) = (ed.alloc_var(8), ed.alloc_var(8));
            for f in &funcs {
                for (kind, var) in [
                    (PointKind::BranchTaken, taken),
                    (PointKind::BranchNotTaken, not_taken),
                ] {
                    let pts = ed.find_points(f, kind).unwrap();
                    ed.insert(&pts, Snippet::increment(var));
                }
            }
        }
    }
}

/// Fold one rewrite into `h`: its bytes, trap table, relocation index,
/// patch diagnostics and the events `sink` collected, or its error.
fn digest_into(h: &mut Fnv, result: Result<PatchResult, rvdyn::Error>, sink: &CollectSink) {
    let r = match result {
        Ok(r) => r,
        Err(e) => return h.str(&format!("{e:?}")),
    };
    let elf = r.binary.to_bytes().unwrap();
    h.u64(elf.len() as u64);
    h.bytes(&elf);
    h.u64(r.trap_table.len() as u64);
    for &(from, to) in &r.trap_table {
        h.u64(from);
        h.u64(to);
    }
    if let Some(text) = r.binary.section_by_name(".rvdyn.text") {
        let end = text.addr + text.data.len() as u64;
        for pc in (text.addr..end).step_by(2) {
            h.u64(r.reloc_index.to_original(pc));
        }
    }
    for n in [
        r.spill_count,
        r.dead_register_points,
        r.points_instrumented,
        r.springboards.total(),
        r.clobbers_audited,
        r.redirects_registered,
        r.plans_built,
        r.calls_retargeted,
    ] {
        h.u64(n as u64);
    }
    h.u64(r.code_end);
    for ev in sink.events() {
        if !matches!(
            ev,
            TelemetryEvent::StageStart { .. } | TelemetryEvent::StageEnd { .. }
        ) {
            h.str(&format!("{ev:?}"));
        }
    }
}

/// The digest of `bin` rewritten with `counters`, in both modes.
fn counters_digest(bin: &Binary, counters: Counters) -> u64 {
    let mut h = Fnv::new();
    for mode in [RegAllocMode::DeadRegisters, RegAllocMode::ForceSpill] {
        let placement = match counters {
            Counters::Optimal => CounterPlacement::Optimal,
            _ => CounterPlacement::EveryBlock,
        };
        let opts = SessionOptions::new()
            .mode(mode)
            .counter_placement(placement);
        let sink = CollectSink::new();
        let mut ed = session(bin, opts, &sink);
        queue(&mut ed, counters);
        digest_into(&mut h, ed.instrumented(), &sink);
    }
    h.0
}

/// Expected digests per (program, counters), both modes folded in.
const EXPECTED: &[(&str, Counters, u64)] = &[
    ("matmul", Counters::Entry, 0xb4f947661d561e9e),
    ("matmul", Counters::EveryBlock, 0xd942d798ff148abe),
    ("matmul", Counters::Optimal, 0x76b9e9f9ca9cb9e5),
    ("matmul", Counters::Edges, 0x287986efb4b885c2),
    ("fib", Counters::Entry, 0xb9174196c331cc4e),
    ("fib", Counters::EveryBlock, 0x27a2dbba5487d0e0),
    ("fib", Counters::Optimal, 0x0624cf1a2a740ee4),
    ("fib", Counters::Edges, 0xecdc89722affc46d),
    ("switch", Counters::Entry, 0xbf9b3c7d71d8339f),
    ("switch", Counters::EveryBlock, 0x61d180cc2115852b),
    ("switch", Counters::Optimal, 0x6bc88c163375e91b),
    ("switch", Counters::Edges, 0x70515d9d53013149),
    ("switch_rel", Counters::Entry, 0x3cd02e026b4ea6e1),
    ("switch_rel", Counters::EveryBlock, 0x55b73b22b5dc6b04),
    ("switch_rel", Counters::Optimal, 0xe6cf1d03b743543f),
    ("switch_rel", Counters::Edges, 0x413ad33f36ba61b5),
    ("indirect", Counters::Entry, 0x56bbe54358505abd),
    ("indirect", Counters::EveryBlock, 0x7945b761f8f00448),
    ("indirect", Counters::Optimal, 0x838ab94336b4ff46),
    ("indirect", Counters::Edges, 0x29a30a294b6fe5d8),
    ("tiny", Counters::Entry, 0xd28a2fc49b3b4b63),
    ("tiny", Counters::EveryBlock, 0x79a63e672775490e),
    ("tiny", Counters::Optimal, 0xd5ddf38773f33f97),
    ("tiny", Counters::Edges, 0x7c1ca083c880505f),
    ("tiny_indirect", Counters::Entry, 0xff577d2b3a79cc16),
    ("tiny_indirect", Counters::EveryBlock, 0xf0687b6c31b0ccb3),
    ("tiny_indirect", Counters::Optimal, 0x2e76d007871e0185),
    ("tiny_indirect", Counters::Edges, 0x73b3881db38fff94),
    ("tailcall", Counters::Entry, 0xfbf8da7e623d3583),
    ("tailcall", Counters::EveryBlock, 0x3edf61f08aaf0936),
    ("tailcall", Counters::Optimal, 0x0f6ea0db645908a5),
    ("tailcall", Counters::Edges, 0xd7b370c1e1c3c3a5),
    ("memcpy", Counters::Entry, 0x9ae42c5156937b3e),
    ("memcpy", Counters::EveryBlock, 0x2eefedb28f81c39a),
    ("memcpy", Counters::Optimal, 0x46c03cee460a14e8),
    ("memcpy", Counters::Edges, 0x450788d33fbc4573),
    ("deep", Counters::Entry, 0x335d1113238bdf0c),
    ("deep", Counters::EveryBlock, 0x586459a81419e0dd),
    ("deep", Counters::Optimal, 0x4ad51ea73566f1dc),
    ("deep", Counters::Edges, 0xc2c022777242a6c4),
    ("atomics", Counters::Entry, 0xf3a9bad6a032d602),
    ("atomics", Counters::EveryBlock, 0x61e31f8d20d439a0),
    ("atomics", Counters::Optimal, 0x0dff04c38b6b452a),
    ("atomics", Counters::Edges, 0x4867f73006d462c9),
    ("many", Counters::Entry, 0xbea06d41209a8d52),
    ("many", Counters::EveryBlock, 0x1350f71d3b62de1a),
    ("many", Counters::Optimal, 0x72d2a3c87f25ff32),
    ("many", Counters::Edges, 0x77ca020e5d51d33e),
    ("nested", Counters::Entry, 0x1bd22b9b0284bc89),
    ("nested", Counters::EveryBlock, 0x6e83f25bc2081b6f),
    ("nested", Counters::Optimal, 0xb394d35ba10f7612),
    ("nested", Counters::Edges, 0x7d8303891ff45145),
    ("nested_fp", Counters::Entry, 0xcb6a255094876846),
    ("nested_fp", Counters::EveryBlock, 0x842f2e7a2b273e9a),
    ("nested_fp", Counters::Optimal, 0x73717f8b70350806),
    ("nested_fp", Counters::Edges, 0x735ecaa8044de605),
];

/// The memory tracer's digest on matmul(4, 1).
const TRACER: u64 = 0x4f9b75790fc9e954;
/// The digest of the calling, branching and `sp`-reading snippets on
/// matmul(8, 2), both modes folded in.
const RICH: u64 = 0xf819d3e75d4208aa;
/// Every-block counting's digest on `many_functions(512)`.
const MANY_512: u64 = 0x9b53f231061c8f06;

#[test]
fn back_half_digests_are_pinned() {
    let mut got = Vec::new();
    for (name, bin) in programs() {
        for counters in COUNTERS {
            got.push((name, counters, counters_digest(&bin, counters)));
        }
    }
    let want: Vec<_> = EXPECTED.to_vec();
    if got != want {
        for (name, counters, d) in &got {
            println!("    (\"{name}\", Counters::{counters:?}, {d:#018x}),");
        }
    }
    assert_eq!(got, want);
}

#[test]
fn memory_tracer_rewrite_is_pinned() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let sink = CollectSink::new();
    let mut ed = session(&bin, SessionOptions::new(), &sink);
    MemTracer::plan_editor(&mut ed, &TraceOptions::default()).unwrap();
    let mut h = Fnv::new();
    digest_into(&mut h, ed.instrumented(), &sink);
    assert_eq!(h.0, TRACER, "{:#018x}", h.0);
}

#[test]
fn every_block_on_many_functions_is_pinned() {
    let bin = rvdyn_asm::many_functions_program(512);
    let sink = CollectSink::new();
    let mut ed = session(&bin, SessionOptions::new(), &sink);
    queue(&mut ed, Counters::EveryBlock);
    let mut h = Fnv::new();
    digest_into(&mut h, ed.instrumented(), &sink);
    assert_eq!(h.0, MANY_512, "{:#018x}", h.0);
}

/// A call with two arguments at every function entry, and at every block
/// an `if` with both arms: a counter, and a store of `sp + 8`.
#[test]
fn calling_and_branching_snippets_are_pinned() {
    let bin = rvdyn_asm::matmul_program(8, 2);
    let mut h = Fnv::new();
    for mode in [RegAllocMode::DeadRegisters, RegAllocMode::ForceSpill] {
        let sink = CollectSink::new();
        let mut ed = session(&bin, SessionOptions::new().mode(mode), &sink);
        let (count, sp) = (ed.alloc_var(8), ed.alloc_var(8));
        let callee = ed.function_addr("init_arrays").unwrap();
        for f in instrumentable(&ed) {
            let call = Snippet::Call {
                target: callee,
                args: vec![Snippet::ReadReg(Reg::x(10)), Snippet::Const(5)],
            };
            ed.insert(&ed.find_points(&f, PointKind::FuncEntry).unwrap(), call);
            let branch = Snippet::If {
                cond: Box::new(Snippet::bin(
                    BinaryOp::LtS,
                    Snippet::ReadReg(Reg::x(10)),
                    Snippet::Const(3),
                )),
                then_: Box::new(Snippet::increment(count)),
                else_: Some(Box::new(Snippet::WriteVar(
                    sp,
                    Box::new(Snippet::bin(
                        BinaryOp::Add,
                        Snippet::ReadReg(Reg::X2),
                        Snippet::Const(8),
                    )),
                ))),
            };
            ed.insert(&ed.find_points(&f, PointKind::BlockEntry).unwrap(), branch);
        }
        let result = ed.instrumented();
        assert!(result.is_ok(), "{mode:?}: {:?}", result.err());
        digest_into(&mut h, result, &sink);
    }
    assert_eq!(h.0, RICH, "{:#018x}", h.0);
}
