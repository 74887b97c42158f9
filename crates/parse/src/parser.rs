//! The traversal parser (§3.2.3): worklist-driven CFG construction.

use crate::block::{BasicBlock, Blocks, Edge, EdgeKind};
use crate::classify::{classify_branch, BranchPurpose};
use crate::function::Function;
use crate::source::CodeSource;
use rvdyn_isa::decode::decode;
use rvdyn_isa::{ControlFlow, Instruction};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// After traversal parsing, scan unclaimed executable ranges for
    /// function prologues and parse them speculatively (§2: gap parsing).
    pub parse_gaps: bool,
    /// Threads for parallel function parsing (1 = sequential).
    pub threads: usize,
    /// Upper bound on instructions per function (runaway guard).
    pub max_insts_per_function: usize,
}

impl Default for ParseOptions {
    fn default() -> ParseOptions {
        ParseOptions {
            parse_gaps: false,
            threads: 1,
            max_insts_per_function: 1 << 20,
        }
    }
}

/// The parsed program: Dyninst's `CodeObject` analogue.
#[derive(Debug, Default)]
pub struct CodeObject {
    /// Functions keyed by entry address.
    pub functions: BTreeMap<u64, Function>,
    /// Entries discovered only by gap parsing (diagnostics).
    pub gap_functions: Vec<u64>,
}

/// Observable milestones of one parse, for a caller-supplied observer
/// (e.g. the facade's telemetry sink). Events are emitted after the CFG
/// is complete, in deterministic address order — the parallel parser's
/// interleaving never leaks into the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseEvent {
    /// One function's CFG was constructed.
    FunctionParsed {
        entry: u64,
        blocks: usize,
        insts: usize,
    },
    /// A block's jump-table dispatch was resolved to `targets` edges.
    JumpTableScanned { block: u64, targets: usize },
    /// Gap parsing discovered a function at `entry` (§2, stripped path).
    GapFunctionFound { entry: u64 },
}

impl CodeObject {
    /// Parse `src` starting from its entry hints.
    pub fn parse<S: CodeSource + ?Sized>(src: &S, opts: &ParseOptions) -> CodeObject {
        let hints = src.entry_hints();
        let mut names: BTreeMap<u64, String> = BTreeMap::new();
        let mut entries: BTreeSet<u64> = BTreeSet::new();
        for (addr, name) in hints {
            entries.insert(addr);
            if let Some(n) = name {
                names.insert(addr, n);
            }
        }

        let mut co = if opts.threads > 1 {
            crate::parallel::parse_parallel(src, entries, opts)
        } else {
            Self::parse_sequential(src, entries, opts)
        };

        for (addr, name) in names {
            if let Some(f) = co.functions.get_mut(&addr) {
                f.name = Some(name);
            }
        }

        if opts.parse_gaps {
            let candidates = crate::gaps::scan(src, &co);
            // Kept equal to the parsed entries, without a rebuild per
            // candidate.
            let mut known: BTreeSet<u64> = co.functions.keys().copied().collect();
            let mut scratch = ParseScratch::default();
            for c in candidates {
                if !co.functions.contains_key(&c) {
                    let f = parse_function(src, c, &known, opts, &mut scratch);
                    if !f.blocks.is_empty() {
                        co.gap_functions.push(c);
                        co.functions.insert(c, f);
                        known.insert(c);
                    }
                }
            }
        }

        co
    }

    /// As [`CodeObject::parse`], reporting parse milestones (per-function
    /// CFG construction, jump-table scans, gap discoveries) to `observer`.
    pub fn parse_with_observer<S: CodeSource + ?Sized>(
        src: &S,
        opts: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
    ) -> CodeObject {
        let co = Self::parse(src, opts);
        for f in co.functions.values() {
            observer(ParseEvent::FunctionParsed {
                entry: f.entry,
                blocks: f.blocks.len(),
                insts: f.num_insts(),
            });
            for b in f.blocks.values() {
                let targets = b
                    .edges
                    .iter()
                    .filter(|e| e.kind == EdgeKind::IndirectJump)
                    .count();
                if targets > 0 {
                    observer(ParseEvent::JumpTableScanned {
                        block: b.start,
                        targets,
                    });
                }
            }
        }
        for &entry in &co.gap_functions {
            observer(ParseEvent::GapFunctionFound { entry });
        }
        co
    }

    fn parse_sequential<S: CodeSource + ?Sized>(
        src: &S,
        seed: BTreeSet<u64>,
        opts: &ParseOptions,
    ) -> CodeObject {
        let mut co = CodeObject::default();
        let mut known = seed.clone();
        let mut worklist: VecDeque<u64> = seed.into_iter().collect();
        let mut scratch = ParseScratch::default();
        while let Some(entry) = worklist.pop_front() {
            if co.functions.contains_key(&entry) {
                continue;
            }
            if !src.is_code(entry) {
                continue;
            }
            let f = parse_function(src, entry, &known, opts, &mut scratch);
            for &c in &f.callees {
                if known.insert(c) {
                    worklist.push_back(c);
                }
            }
            co.functions.insert(entry, f);
        }
        co
    }

    /// The function with a block containing `addr`. Each function's
    /// extent is kept with its blocks, so the scan over functions reads
    /// one pair per function before it looks up a block.
    pub fn function_containing(&self, addr: u64) -> Option<&Function> {
        self.functions.values().find(|f| {
            let (lo, hi) = f.extent();
            addr >= lo && addr < hi && f.block_containing(addr).is_some()
        })
    }

    /// Total basic-block count.
    pub fn num_blocks(&self) -> usize {
        self.functions.values().map(|f| f.blocks.len()).sum()
    }

    /// Total decoded instructions.
    pub fn num_insts(&self) -> usize {
        self.functions.values().map(|f| f.num_insts()).sum()
    }
}

/// What the traversal needs while it parses one function, kept by
/// whoever drives a parse (the sequential driver, each parallel worker,
/// gap parsing) and handed to [`parse_function`] for every function it
/// parses, so that these buffers are allocated once per parse rather
/// than once per function or per block.
#[derive(Debug, Default)]
pub struct ParseScratch {
    /// Block starts still to visit.
    worklist: VecDeque<u64>,
    /// The linear instruction history `jalr` classification slices:
    /// every instruction of the blocks found so far, sorted and
    /// deduplicated by address. Splits never change it; each new block
    /// merges in once.
    history: Vec<Instruction>,
    /// The blocks found so far, sorted by start. Splitting one only
    /// narrows ranges into the two buffers below.
    blocks: Vec<Pending>,
    /// Every decoded instruction, block by block in decode order; the
    /// block being decoded is the run at the end.
    insts: Vec<Instruction>,
    /// Every block's edges, in the same way.
    edges: Vec<Edge>,
    /// Call and tail-call targets, sorted and deduplicated at the end.
    callees: Vec<u64>,
}

/// A block under construction: its extent and its runs of
/// [`ParseScratch::insts`] and [`ParseScratch::edges`].
#[derive(Debug)]
struct Pending {
    start: u64,
    end: u64,
    insts: Range<usize>,
    edges: Range<usize>,
}

/// Parse one function by traversal from `entry`. Its callees — the
/// call and tail-call targets discovered, new parse candidates — are in
/// [`Function::callees`]. Loops are left to [`Function::loops`].
pub fn parse_function<S: CodeSource + ?Sized>(
    src: &S,
    entry: u64,
    known_entries: &BTreeSet<u64>,
    opts: &ParseOptions,
    scratch: &mut ParseScratch,
) -> Function {
    let ParseScratch {
        worklist,
        history,
        blocks,
        insts,
        edges,
        callees,
    } = scratch;
    worklist.clear();
    history.clear();
    blocks.clear();
    insts.clear();
    edges.clear();
    callees.clear();
    worklist.push_back(entry);
    let mut inst_budget = opts.max_insts_per_function;
    let mut has_unresolved = false;
    // `f.extent()`, kept as blocks are added: (lowest start, highest
    // end), or `(entry, entry)` while there are no blocks.
    let mut extent = (entry, entry);

    while let Some(start) = worklist.pop_front() {
        // Where `start` goes among the blocks: `blocks[at]` is the first
        // block that does not start before it.
        let at = blocks.partition_point(|b| b.start < start);
        if blocks.get(at).is_some_and(|b| b.start == start) {
            continue;
        }
        // Target inside the block that starts last before it, at an
        // instruction boundary → split that block.
        if let Some(b) = at
            .checked_sub(1)
            .map(|i| &mut blocks[i])
            .filter(|b| start < b.end)
        {
            if let Some(k) = insts[b.insts.clone()]
                .iter()
                .position(|i| i.address == start)
            {
                // The head keeps the instructions before `start` and
                // falls through to the tail, which takes the edges.
                let split = b.insts.start + k;
                let tail = Pending {
                    start,
                    end: b.end,
                    insts: split..b.insts.end,
                    edges: b.edges.clone(),
                };
                b.end = start;
                b.insts.end = split;
                b.edges = edges.len()..edges.len() + 1;
                edges.push(Edge::to(EdgeKind::Fallthrough, start));
                blocks.insert(at, tail);
                continue;
            }
            // Misaligned target into the middle of an instruction:
            // overlapping code — parse it as its own block below.
        }
        if !src.is_code(start) {
            continue;
        }

        // Decode a new block onto the end of `insts` and `edges`. Blocks
        // and known entries do not change while it decodes, so the first
        // block start after `start` and the first known entry at or after
        // it (other than `entry`) are looked up once, and again only when
        // `pc` steps past them.
        let (first_inst, first_edge) = (insts.len(), edges.len());
        let mut in_history = false;
        let mut pc = start;
        let mut next_block = blocks.get(at).map(|b| b.start);
        let next_entry_from = |at: u64| known_entries.range(at..).find(|&&e| e != entry).copied();
        let mut next_entry = next_entry_from(start);
        loop {
            if next_block.is_some_and(|b| b < pc) {
                next_block = blocks
                    .get(blocks.partition_point(|b| b.start < pc))
                    .map(|b| b.start);
            }
            if next_block == Some(pc) {
                // Ran into an existing block: end with fallthrough.
                edges.push(Edge::to(EdgeKind::Fallthrough, pc));
                break;
            }
            if next_entry.is_some_and(|e| e < pc) {
                next_entry = next_entry_from(pc);
            }
            if next_entry == Some(pc) {
                // Straight-line flow reached another function's entry
                // (e.g. decoding past a non-returning `exit` ecall): treat
                // as an interprocedural fallthrough — a tail transfer —
                // and do not claim the other function's code.
                edges.push(Edge::to(EdgeKind::TailCall, pc));
                callees.push(pc);
                break;
            }
            if inst_budget == 0 {
                has_unresolved = true;
                break;
            }
            let Some(bytes) = src.bytes_at(pc, 4) else {
                has_unresolved = true;
                break;
            };
            let inst = match decode(bytes, pc) {
                Ok(i) => i,
                Err(_) => {
                    // Undecodable: end the block; mark unresolved.
                    has_unresolved = true;
                    break;
                }
            };
            inst_budget -= 1;
            let next = inst.next_pc();
            insts.push(inst);
            match inst.control_flow() {
                ControlFlow::None | ControlFlow::Syscall => {
                    pc = next;
                    continue;
                }
                ControlFlow::ConditionalBranch {
                    target,
                    fallthrough,
                } => {
                    edges.push(Edge::to(EdgeKind::Taken, target));
                    edges.push(Edge::to(EdgeKind::NotTaken, fallthrough));
                    worklist.push_back(target);
                    worklist.push_back(fallthrough);
                    break;
                }
                ControlFlow::Trap => {
                    // ebreak: a debugger trap; execution resumes after it.
                    edges.push(Edge::to(EdgeKind::Fallthrough, next));
                    worklist.push_back(next);
                    break;
                }
                ControlFlow::DirectJump { target, link } => {
                    // jal: classification needs only the link register and
                    // the known-entry set (no slicing) — cheap inline path.
                    if link != rvdyn_isa::Reg::X0 {
                        edges.push(Edge::to(EdgeKind::Call, target));
                        edges.push(Edge::to(EdgeKind::CallFallthrough, next));
                        callees.push(target);
                        worklist.push_back(next);
                    } else if target != entry && known_entries.contains(&target) {
                        edges.push(Edge::to(EdgeKind::TailCall, target));
                        callees.push(target);
                    } else {
                        edges.push(Edge::to(EdgeKind::Jump, target));
                        worklist.push_back(target);
                    }
                    break;
                }
                ControlFlow::IndirectJump { .. } => {
                    // jalr: the six-rule classification with backward
                    // slicing needs the function's linear history, this
                    // block included.
                    merge_history(history, &insts[first_inst..]);
                    in_history = true;
                    let at = history
                        .binary_search_by_key(&inst.address, |i| i.address)
                        .expect("terminator present in history");
                    let extent = (extent.0.min(start), extent.1.max(next));
                    match classify_branch(history, at, src, entry, extent, known_entries) {
                        BranchPurpose::Jump { target } => {
                            edges.push(Edge::to(EdgeKind::Jump, target));
                            worklist.push_back(target);
                        }
                        BranchPurpose::Call { target } => {
                            edges.push(Edge::to(EdgeKind::Call, target));
                            edges.push(Edge::to(EdgeKind::CallFallthrough, next));
                            callees.push(target);
                            worklist.push_back(next);
                        }
                        BranchPurpose::IndirectCall => {
                            edges.push(Edge::out(EdgeKind::Call));
                            edges.push(Edge::to(EdgeKind::CallFallthrough, next));
                            worklist.push_back(next);
                        }
                        BranchPurpose::Return => {
                            edges.push(Edge::out(EdgeKind::Return));
                        }
                        BranchPurpose::TailCall { target } => {
                            edges.push(Edge::to(EdgeKind::TailCall, target));
                            callees.push(target);
                        }
                        BranchPurpose::JumpTable { targets } => {
                            for t in targets {
                                edges.push(Edge::to(EdgeKind::IndirectJump, t));
                                worklist.push_back(t);
                            }
                        }
                        BranchPurpose::Unresolved => {
                            edges.push(Edge::out(EdgeKind::Unresolved));
                            has_unresolved = true;
                        }
                    }
                    break;
                }
            }
        }
        let Some(last) = insts[first_inst..].last() else {
            // Nothing decoded: no block, and its edges go too.
            edges.truncate(first_edge);
            continue;
        };
        let end = last.next_pc();
        if !in_history {
            merge_history(history, &insts[first_inst..]);
        }
        extent = (extent.0.min(start), extent.1.max(end));
        blocks.insert(
            at,
            Pending {
                start,
                end,
                insts: first_inst..insts.len(),
                edges: first_edge..edges.len(),
            },
        );
    }
    // Write the function's arenas once, in block order.
    let mut f = Function::with_blocks(
        entry,
        Blocks::from_sorted(blocks.iter().map(|b| BasicBlock {
            start: b.start,
            end: b.end,
            insts: &insts[b.insts.clone()],
            edges: &edges[b.edges.clone()],
        })),
    );
    callees.sort_unstable();
    callees.dedup();
    f.callees = callees.clone();
    f.has_unresolved = has_unresolved;
    f
}

/// Merge one block's instructions (ascending by address) into the
/// address-sorted, address-deduplicated `history`. An address already
/// present keeps its entry: the same bytes decode the same way.
fn merge_history(history: &mut Vec<Instruction>, block: &[Instruction]) {
    let (Some(first), Some(last)) = (block.first(), block.last()) else {
        return;
    };
    let at = history.partition_point(|i| i.address < first.address);
    if history.get(at).is_none_or(|i| i.address > last.address) {
        // The usual case: the block fills a gap in the history.
        history.splice(at..at, block.iter().copied());
    } else {
        // Overlapping code. The sort is stable, so the entry already
        // present comes first and the dedup keeps it.
        history.extend_from_slice(block);
        history.sort_by_key(|i| i.address);
        history.dedup_by_key(|i| i.address);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::RawCode;
    use rvdyn_asm::Assembler;
    use rvdyn_isa::Reg;

    fn parse_raw(code: Vec<u8>, base: u64, entries: Vec<u64>) -> CodeObject {
        let src = RawCode {
            base,
            bytes: code,
            entries,
        };
        CodeObject::parse(&src, &ParseOptions::default())
    }

    #[test]
    fn straight_line_with_branch() {
        // entry: beq a0, x0, +8 ; addi ; ret  /  target: ret
        let mut a = Assembler::new(0x1000);
        let skip = a.label();
        a.beq(Reg::x(10), Reg::X0, skip);
        a.addi(Reg::x(10), Reg::x(10), 1);
        a.bind(skip);
        a.ret();
        let co = parse_raw(a.finish().unwrap(), 0x1000, vec![0x1000]);
        let f = &co.functions[&0x1000];
        assert_eq!(f.blocks.len(), 3);
        let b0 = f.blocks.at(0x1000);
        assert_eq!(b0.edges.len(), 2);
        assert!(b0
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Taken && e.target == Some(0x1008)));
        let b2 = f.blocks.at(0x1008);
        assert_eq!(b2.edges, vec![Edge::out(EdgeKind::Return)]);
    }

    #[test]
    fn call_discovers_callee_function() {
        let mut a = Assembler::new(0x1000);
        let callee = a.label();
        a.call(callee);
        a.ret();
        a.bind(callee);
        a.addi(Reg::x(10), Reg::X0, 7);
        a.ret();
        let co = parse_raw(a.finish().unwrap(), 0x1000, vec![0x1000]);
        assert_eq!(co.functions.len(), 2);
        let main = &co.functions[&0x1000];
        assert_eq!(main.callees, vec![0x1008]);
        assert!(co.functions.contains_key(&0x1008));
        // The call block has Call + CallFallthrough edges.
        let b = main.blocks.at(0x1000);
        assert!(b
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Call && e.target == Some(0x1008)));
        assert!(b
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::CallFallthrough && e.target == Some(0x1004)));
    }

    #[test]
    fn block_splitting_on_back_edge() {
        // A loop whose back edge targets the middle of the initial run.
        let mut a = Assembler::new(0x1000);
        a.addi(Reg::x(5), Reg::X0, 10); // setup
        let head = a.here_label();
        a.addi(Reg::x(5), Reg::x(5), -1);
        a.bne(Reg::x(5), Reg::X0, head);
        a.ret();
        let co = parse_raw(a.finish().unwrap(), 0x1000, vec![0x1000]);
        let f = &co.functions[&0x1000];
        // Blocks: [setup], [head..bne], [ret]
        assert_eq!(f.blocks.len(), 3);
        assert!(f.blocks.contains_key(0x1004));
        let setup = f.blocks.at(0x1000);
        assert_eq!(setup.edges, vec![Edge::to(EdgeKind::Fallthrough, 0x1004)]);
        // The split moved the run's tail, with its branch edges, into
        // the head block; the setup block kept one instruction.
        let head = f.blocks.at(0x1004);
        assert_eq!((setup.end, setup.insts.len()), (0x1004, 1));
        assert_eq!((head.end, head.insts.len()), (0x100c, 2));
        assert_eq!(
            head.edges,
            vec![
                Edge::to(EdgeKind::Taken, 0x1004),
                Edge::to(EdgeKind::NotTaken, 0x100c)
            ]
        );
        // And the function has one natural loop with header 0x1004.
        assert_eq!(f.loops().len(), 1);
        assert_eq!(f.loops()[0].header, 0x1004);
    }

    #[test]
    fn unresolved_indirect_marks_function() {
        let mut a = Assembler::new(0x1000);
        a.jalr(Reg::X0, Reg::x(10), 0); // unknowable target
        let co = parse_raw(a.finish().unwrap(), 0x1000, vec![0x1000]);
        let f = &co.functions[&0x1000];
        assert!(f.has_unresolved);
        assert_eq!(
            f.blocks.at(0x1000).edges,
            vec![Edge::out(EdgeKind::Unresolved)]
        );
    }

    #[test]
    fn undecodable_bytes_stop_block() {
        let mut code = Vec::new();
        code.extend_from_slice(
            &rvdyn_isa::encode::encode32(&rvdyn_isa::build::nop())
                .unwrap()
                .to_le_bytes(),
        );
        code.extend_from_slice(&[0x00, 0x00, 0x00, 0x00]); // defined-illegal
        let co = parse_raw(code, 0x1000, vec![0x1000]);
        let f = &co.functions[&0x1000];
        assert!(f.has_unresolved);
        assert_eq!(f.blocks.at(0x1000).insts.len(), 1);
    }
}
