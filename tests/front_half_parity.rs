//! The front half — CFG construction, natural loops and liveness — pinned
//! by content digests and checked against a brute-force loop oracle.
//!
//! The digests cover every function's entry, name, callees and blocks;
//! each block's instruction addresses and raw encodings and its edges
//! (kind and target); each function's loops (header, body, latches in
//! order); and every block's live-in and live-out sets plus the live set
//! before each of its instructions. They are taken over every
//! `rvdyn_asm` program and two crafted inputs (a function only gap
//! parsing finds, and overlapping blocks), with symbols and stripped,
//! with gap parsing off and on, at one and four parse threads, and must
//! not change when the front half is reimplemented. The hash is FNV-1a, written out here so
//! that the pinned values do not depend on the standard library's
//! hasher.

mod common;

use common::ProgramStrategy;
use proptest::prelude::*;
use rvdyn::{CodeObject, ParseOptions};
use rvdyn_asm::{Assembler, Layout};
use rvdyn_isa::{build, IsaProfile, Op, Reg};
use rvdyn_parse::{Function, Loop};
use rvdyn_symtab::{
    Binary, RiscvAttributes, Section, Symbol, SymbolBinding, SymbolKind, SHF_ALLOC, SHF_EXECINSTR,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent fields cannot alias.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(co: &CodeObject) -> u64 {
    let mut h = Fnv::new();
    h.u64(co.functions.len() as u64);
    for &g in &co.gap_functions {
        h.u64(g);
    }
    for f in co.functions.values() {
        h.u64(f.entry);
        h.str(f.name.as_deref().unwrap_or("<unnamed>"));
        h.u64(f.has_unresolved as u64);
        h.u64(f.callees.len() as u64);
        for &c in &f.callees {
            h.u64(c);
        }
        let lv = f.liveness();
        h.u64(f.blocks.len() as u64);
        for b in f.blocks.values() {
            h.u64(b.start);
            h.u64(b.end);
            h.u64(b.insts.len() as u64);
            for i in b.insts {
                h.u64(i.address);
                h.u64(i.raw as u64);
                h.u64(lv.live_before(f, i.address).0);
            }
            h.u64(b.edges.len() as u64);
            for e in b.edges {
                h.str(&format!("{:?}", e.kind));
                h.u64(e.target.map_or(u64::MAX, |t| t));
            }
            h.u64(lv.live_in(b.start).0);
            h.u64(lv.live_out(b.start).0);
        }
        h.u64(f.loops().len() as u64);
        for l in f.loops() {
            h.u64(l.header);
            h.u64(l.body.len() as u64);
            for &b in &l.body {
                h.u64(b);
            }
            h.u64(l.latches.len() as u64);
            for &b in &l.latches {
                h.u64(b);
            }
        }
    }
    h.0
}

/// A binary of one text section at the default layout, with a `_start`
/// entry and the given function symbols.
fn text_binary(code: Vec<u8>, funcs: &[(&str, u64, u64)]) -> Binary {
    let profile = IsaProfile::rv64gc();
    Binary {
        entry: Layout::default().text,
        e_flags: Binary::eflags_for(profile),
        e_type: rvdyn_symtab::elf::ET_EXEC,
        sections: vec![Section::progbits(
            ".text",
            Layout::default().text,
            SHF_ALLOC | SHF_EXECINSTR,
            code,
        )],
        symbols: funcs
            .iter()
            .map(|&(name, value, size)| Symbol {
                name: name.to_string(),
                value,
                size,
                kind: SymbolKind::Function,
                binding: SymbolBinding::Global,
            })
            .collect(),
        attributes: Some(RiscvAttributes::for_profile(profile)),
    }
}

/// `_start` returns at once; after it sits a function with a standard
/// prologue and a loop that no code reaches, so once the symbols are
/// stripped only gap parsing finds it.
fn hidden_function_program() -> Binary {
    let mut a = Assembler::new(Layout::default().text);
    a.ret();
    let hidden = a.here();
    a.addi(Reg::X2, Reg::X2, -16);
    a.sd(Reg::X1, Reg::X2, 8);
    a.addi(Reg::x(5), Reg::X0, 4);
    let head = a.here_label();
    a.addi(Reg::x(5), Reg::x(5), -1);
    a.bne(Reg::x(5), Reg::X0, head);
    a.ld(Reg::X1, Reg::X2, 8);
    a.addi(Reg::X2, Reg::X2, 16);
    a.ret();
    let end = a.here();
    let start = Layout::default().text;
    text_binary(
        a.finish().unwrap(),
        &[
            ("_start", start, hidden - start),
            ("hidden", hidden, end - hidden),
        ],
    )
}

/// A branch into the middle of a 4-byte instruction: the upper half of
/// `addi a1, a0, 0x450` (0x45050593) decodes as `c.li a0, 1`, so the
/// taken and not-taken blocks overlap and share their final `ret`.
fn overlapping_blocks_program() -> Binary {
    let start = Layout::default().text;
    let mut a = Assembler::new(start);
    a.inst(build::b_type(Op::Beq, Reg::x(10), Reg::X0, 10));
    a.addi(Reg::x(10), Reg::x(10), 3);
    a.inst(build::i_type(Op::Addi, Reg::x(11), Reg::x(10), 0x450));
    a.ret();
    let end = a.here();
    text_binary(a.finish().unwrap(), &[("_start", start, end - start)])
}

/// Every `rvdyn_asm` program at small sizes, and two inputs that reach
/// the gap parser and overlapping code.
fn suite() -> Vec<(&'static str, Binary)> {
    vec![
        ("matmul", rvdyn_asm::matmul_program(8, 2)),
        ("fib", rvdyn_asm::fib_program(12)),
        ("switch", rvdyn_asm::switch_program(64)),
        ("switch_rel", rvdyn_asm::switch_rel_program(64)),
        ("indirect", rvdyn_asm::indirect_entry_program(32)),
        ("tiny", rvdyn_asm::tiny_function_program(32)),
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
        ("hidden", hidden_function_program()),
        ("overlap", overlapping_blocks_program()),
    ]
}

/// Expected digests per (program, stripped, gap parsing), the same at
/// every thread count. They were taken from the `BTreeMap`-based parser
/// loop, loop and liveness solvers, before those were rewritten over
/// dense per-function indices.
const EXPECTED: &[(&str, bool, bool, u64)] = &[
    ("matmul", false, false, 0x27d826b22071cbe7),
    ("matmul", false, true, 0x27d826b22071cbe7),
    ("matmul", true, false, 0x107905d77b216820),
    ("matmul", true, true, 0x107905d77b216820),
    ("fib", false, false, 0x41fc38a29ff841f3),
    ("fib", false, true, 0x41fc38a29ff841f3),
    ("fib", true, false, 0xbf5bf0144be08ea8),
    ("fib", true, true, 0xbf5bf0144be08ea8),
    ("switch", false, false, 0x0e2e6db4fda7bfed),
    ("switch", false, true, 0x0e2e6db4fda7bfed),
    ("switch", true, false, 0x01576361cc7bb966),
    ("switch", true, true, 0x01576361cc7bb966),
    ("switch_rel", false, false, 0xf130bb0394f7638c),
    ("switch_rel", false, true, 0xf130bb0394f7638c),
    ("switch_rel", true, false, 0x98ed5b54d2168017),
    ("switch_rel", true, true, 0x98ed5b54d2168017),
    ("indirect", false, false, 0x1183d9e88d47a9ca),
    ("indirect", false, true, 0x1183d9e88d47a9ca),
    ("indirect", true, false, 0x30ddfe8e06e6e93d),
    ("indirect", true, true, 0x30ddfe8e06e6e93d),
    ("tiny", false, false, 0x9967903690370a95),
    ("tiny", false, true, 0x9967903690370a95),
    ("tiny", true, false, 0x873f2b1555284d24),
    ("tiny", true, true, 0x873f2b1555284d24),
    ("tailcall", false, false, 0x2449425c4acb464b),
    ("tailcall", false, true, 0x2449425c4acb464b),
    ("tailcall", true, false, 0x586e3f5df281d66f),
    ("tailcall", true, true, 0x586e3f5df281d66f),
    ("memcpy", false, false, 0xc7409549bc1b8e9b),
    ("memcpy", false, true, 0xc7409549bc1b8e9b),
    ("memcpy", true, false, 0x03dc37d3d435a81b),
    ("memcpy", true, true, 0x03dc37d3d435a81b),
    ("deep", false, false, 0x9e70ca63c5506611),
    ("deep", false, true, 0x9e70ca63c5506611),
    ("deep", true, false, 0xd6c37266f0ff7fc4),
    ("deep", true, true, 0xd6c37266f0ff7fc4),
    ("atomics", false, false, 0x47759f68a5393f9a),
    ("atomics", false, true, 0x47759f68a5393f9a),
    ("atomics", true, false, 0xef6fa21fb24812a6),
    ("atomics", true, true, 0xef6fa21fb24812a6),
    ("many", false, false, 0xf4a2f05faa0a3430),
    ("many", false, true, 0xf4a2f05faa0a3430),
    ("many", true, false, 0x4d72d7bfe424c18a),
    ("many", true, true, 0x4d72d7bfe424c18a),
    ("nested", false, false, 0x0ccf4dccddfd6f97),
    ("nested", false, true, 0x0ccf4dccddfd6f97),
    ("nested", true, false, 0xb91187e1451af94b),
    ("nested", true, true, 0xb91187e1451af94b),
    ("nested_fp", false, false, 0xaf24fe18f01179af),
    ("nested_fp", false, true, 0xaf24fe18f01179af),
    ("nested_fp", true, false, 0xb4f19d3c0ced52d6),
    ("nested_fp", true, true, 0xb4f19d3c0ced52d6),
    ("hidden", false, false, 0xa2f12e477422a119),
    ("hidden", false, true, 0xa2f12e477422a119),
    ("hidden", true, false, 0x3fa2bb47cb127489),
    ("hidden", true, true, 0x7943203cb05d4169),
    ("overlap", false, false, 0x1c250f31fb1ab40f),
    ("overlap", false, true, 0x1c250f31fb1ab40f),
    ("overlap", true, false, 0x8ff67a5c6e1c8779),
    ("overlap", true, true, 0x8ff67a5c6e1c8779),
];

#[test]
fn crafted_inputs_reach_gap_parsing_and_overlapping_code() {
    let mut hidden = hidden_function_program();
    hidden.strip();
    let gaps = ParseOptions {
        parse_gaps: true,
        ..ParseOptions::default()
    };
    assert_eq!(CodeObject::parse(&hidden, &gaps).gap_functions.len(), 1);

    let co = CodeObject::parse(&overlapping_blocks_program(), &ParseOptions::default());
    let blocks: Vec<_> = co
        .functions
        .values()
        .flat_map(|f| f.blocks.values())
        .collect();
    let overlapping = blocks
        .iter()
        .any(|a| blocks.iter().any(|b| a.start < b.start && b.start < a.end));
    assert!(overlapping, "{blocks:#x?}");
}

#[test]
fn front_half_digests_are_pinned() {
    let mut failures = Vec::new();
    for (name, bin) in suite() {
        for stripped in [false, true] {
            let mut bin = bin.clone();
            if stripped {
                bin.strip();
            }
            for gaps in [false, true] {
                let expected = EXPECTED
                    .iter()
                    .find(|e| (e.0, e.1, e.2) == (name, stripped, gaps))
                    .map(|e| e.3);
                for threads in [1, 4] {
                    let opts = ParseOptions {
                        parse_gaps: gaps,
                        threads,
                        ..ParseOptions::default()
                    };
                    let got = digest(&CodeObject::parse(&bin, &opts));
                    if expected != Some(got) {
                        failures.push(format!(
                            "    (\"{name}\", {stripped}, {gaps}, {got:#018x}), // {threads} threads, expected {expected:x?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "digest mismatches:\n{}",
        failures.join("\n")
    );
}

/// Blocks reachable from `entry` along intraprocedural edges to existing
/// blocks, never entering `removed`.
fn reachable(f: &Function, removed: Option<u64>) -> BTreeSet<u64> {
    let mut seen = BTreeSet::new();
    if Some(f.entry) == removed || !f.blocks.contains_key(f.entry) {
        return seen;
    }
    let mut work = vec![f.entry];
    seen.insert(f.entry);
    while let Some(b) = work.pop() {
        for s in f.blocks.at(b).successors() {
            if Some(s) != removed && f.blocks.contains_key(s) && seen.insert(s) {
                work.push(s);
            }
        }
    }
    seen
}

/// Natural loops by definition: `h` dominates `b` exactly when removing
/// `h` leaves `b` unreachable from the entry; an edge `b → h` from a
/// reachable `b` that `h` dominates is a back edge, latched at `b`; the
/// body is `h` plus every block with a predecessor path to a latch that
/// avoids `h`, reachable or not. Latches appear in block order, once per
/// back edge.
fn oracle_loops(f: &Function) -> Vec<Loop> {
    let live = reachable(f, None);
    let dominates = |h: u64, b: u64| h == b || !reachable(f, Some(h)).contains(&b);
    let mut preds: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for b in f.blocks.values() {
        for s in b.successors() {
            preds.entry(s).or_default().push(b.start);
        }
    }
    let mut loops: BTreeMap<u64, Loop> = BTreeMap::new();
    for b in f.blocks.values() {
        for h in b.successors() {
            if !f.blocks.contains_key(h) || !live.contains(&b.start) || !dominates(h, b.start) {
                continue;
            }
            let l = loops.entry(h).or_insert_with(|| Loop {
                header: h,
                body: BTreeSet::from([h]),
                latches: Vec::new(),
            });
            l.latches.push(b.start);
            let mut work = VecDeque::from([b.start]);
            while let Some(n) = work.pop_front() {
                if l.body.insert(n) {
                    for &p in preds.get(&n).into_iter().flatten() {
                        if p != h {
                            work.push_back(p);
                        }
                    }
                }
            }
        }
    }
    loops.into_values().collect()
}

#[test]
fn suite_loops_match_the_dominance_oracle() {
    for (name, bin) in suite() {
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        for f in co.functions.values() {
            assert_eq!(
                f.loops(),
                oracle_loops(f),
                "{name}: function {:#x}",
                f.entry
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_cfg_loops_match_the_dominance_oracle(
        stmts in ProgramStrategy,
        seed in any::<u64>(),
    ) {
        let bin = common::stmt_program(&stmts, seed);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        for f in co.functions.values() {
            prop_assert_eq!(f.loops(), &oracle_loops(f), "function {:#x}", f.entry);
        }
    }
}
