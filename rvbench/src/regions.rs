//! Modelled cycles of an instrumented run, split by code region.
//!
//! The instrumented image is stepped from outside through the public
//! `Machine::step`, and each step's cycle delta is charged to the region
//! of the pc it started at. Regions are classified from what
//! `PatchResult` exposes publicly:
//!
//! * `springboard` — bytes a springboard overwrote (`undo_writes`);
//! * `trap` — a springboard `ebreak` resolved through `trap_table`
//!   (the step is charged the modelled trap round trip);
//! * `relocated` — a patch-area instruction that decodes the same as
//!   the original instruction `reloc_index` maps it back to;
//! * `snippet` — every other patch-area instruction. The public API
//!   cannot tell a snippet body from its context save/restore, nor from
//!   relocation glue (inserted jumps, re-materialised `auipc` values,
//!   widened branches), so the three are reported merged here;
//! * `original` — everything else.
//!
//! The regions sum exactly to the run's total modelled cycles.

use rvdyn_isa::{decode, Instruction, InstructionIter, Op};
use rvdyn_patch::instrument::PatchResult;
use rvdyn_symtab::Binary;
use std::collections::{BTreeSet, HashMap};

const ORIGINAL: usize = 0;
const SPRINGBOARD: usize = 1;
const SNIPPET: usize = 2;
const RELOCATED: usize = 3;
const TRAP: usize = 4;

/// Cycles per region (original, springboard, snippet, relocated, trap),
/// plus the run's own total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionCycles {
    pub by_region: [u64; 5],
    pub total: u64,
}

impl RegionCycles {
    pub fn sum(&self) -> u64 {
        self.by_region.iter().sum()
    }
}

struct Classifier<'a> {
    result: &'a PatchResult,
    original: HashMap<u64, Instruction>,
    springboards: Vec<(u64, u64)>,
    traps: BTreeSet<u64>,
    patch_text: (u64, u64),
}

fn same_form(p: &Instruction, o: &Instruction) -> bool {
    if o.op.is_conditional_branch() {
        // Relocation may invert a branch to reach a far target.
        let inverted = matches!(
            (o.op, p.op),
            (Op::Beq, Op::Bne)
                | (Op::Bne, Op::Beq)
                | (Op::Blt, Op::Bge)
                | (Op::Bge, Op::Blt)
                | (Op::Bltu, Op::Bgeu)
                | (Op::Bgeu, Op::Bltu)
        );
        return (p.op == o.op || inverted) && p.rs1 == o.rs1 && p.rs2 == o.rs2;
    }
    match o.op {
        Op::Jal => p.op == Op::Jal && p.rd == o.rd,
        Op::Auipc => false,
        _ => {
            p.op == o.op
                && p.rd == o.rd
                && p.rs1 == o.rs1
                && p.rs2 == o.rs2
                && p.rs3 == o.rs3
                && p.imm == o.imm
        }
    }
}

impl Classifier<'_> {
    fn classify(&self, m: &rvdyn_emu::Machine, pc: u64) -> usize {
        let inst = m
            .read_mem(pc, 4)
            .or_else(|_| m.read_mem(pc, 2))
            .ok()
            .and_then(|b| decode(&b, pc).ok());
        if self
            .springboards
            .iter()
            .any(|&(lo, hi)| pc >= lo && pc < hi)
        {
            let is_trap = self.traps.contains(&pc) && inst.is_some_and(|i| i.op == Op::Ebreak);
            return if is_trap { TRAP } else { SPRINGBOARD };
        }
        if pc >= self.patch_text.0 && pc < self.patch_text.1 {
            let orig = self.result.reloc_index.to_original(pc);
            let relocated = orig != pc
                && matches!((inst, self.original.get(&orig)), (Some(p), Some(o)) if same_form(&p, o));
            return if relocated { RELOCATED } else { SNIPPET };
        }
        ORIGINAL
    }
}

/// Step the instrumented image `patched` (the serialised form of
/// `result`) to its end and split its modelled cycles by region.
pub fn split_cycles(original: &Binary, result: &PatchResult, patched: &Binary) -> RegionCycles {
    let mut orig_insts = HashMap::new();
    for s in original.code_sections() {
        for i in InstructionIter::new(&s.data, s.addr).flatten() {
            orig_insts.insert(i.address, i);
        }
    }
    let patch_text = patched
        .section_by_name(".rvdyn.text")
        .map_or((0, 0), |s| (s.addr, s.addr + s.data.len() as u64));
    let c = Classifier {
        result,
        original: orig_insts,
        springboards: result
            .undo_writes()
            .iter()
            .map(|(a, b)| (*a, *a + b.len() as u64))
            .collect(),
        traps: result.trap_table.iter().map(|(from, _)| *from).collect(),
        patch_text,
    };

    // Dense per-pc cache of the classification over the executable span.
    let lo = patched.code_sections().map(|s| s.addr).min().unwrap_or(0);
    let hi = patched
        .code_sections()
        .map(|s| s.addr + s.data.len() as u64)
        .max()
        .unwrap_or(0);
    let mut cache = vec![u8::MAX; ((hi.saturating_sub(lo)) / 2 + 1) as usize];
    let mut out = RegionCycles::default();
    let mut m = rvdyn_emu::load_binary(patched);
    m.fuel = Some(crate::oracle::FUEL);
    loop {
        let pc = m.pc;
        let before = m.cycles;
        let region = match pc.checked_sub(lo).map(|d| (d / 2) as usize) {
            Some(i) if i < cache.len() => {
                if cache[i] == u8::MAX {
                    cache[i] = c.classify(&m, pc) as u8;
                }
                cache[i] as usize
            }
            _ => c.classify(&m, pc),
        };
        let stop = m.step();
        out.by_region[region] += m.cycles - before;
        if stop.is_some() {
            break;
        }
    }
    out.total = m.cycles;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn::{BinaryEditor, EmuEngine, PointKind, SessionOptions, Snippet};

    #[test]
    fn fib_regions_sum_to_total_cycles() {
        let bin = rvdyn_asm::fib_program(8);
        let elf = bin.to_bytes().unwrap();
        let mut ed = BinaryEditor::open_with(&elf, SessionOptions::new()).unwrap();
        let v = ed.alloc_var(8);
        let pts = ed.find_points("fib", PointKind::BlockEntry).unwrap();
        ed.insert(&pts, Snippet::increment(v));
        let result = ed.instrumented().unwrap();
        let patched = Binary::parse(&result.binary.to_bytes().unwrap()).unwrap();
        let split = split_cycles(&bin, &result, &patched);

        // Exact: every step is charged to exactly one region, and the
        // total equals the cached engine's count for the same image.
        assert_eq!(split.sum(), split.total);
        let (_, m) = crate::oracle::run_machine(&patched, EmuEngine::Cached);
        assert_eq!(split.total, m.cycles);

        // fib runs in its relocated copy: the original body never runs,
        // the springboard at its entry does, and counters cost cycles.
        let base = crate::oracle::step_oracle(&bin, Default::default());
        let r = split.by_region;
        assert!(r[SPRINGBOARD] > 0, "springboard executed: {r:?}");
        assert!(r[SNIPPET] > 0, "snippets executed: {r:?}");
        assert!(r[RELOCATED] > 0, "relocated body executed: {r:?}");
        assert!(r[ORIGINAL] > 0 && r[ORIGINAL] < base.cycles, "{r:?}");
        // The relocated copy does the original work, so together with
        // the untouched original code it costs at least the base run.
        assert!(r[ORIGINAL] + r[RELOCATED] >= base.cycles * 9 / 10, "{r:?}");
    }
}
