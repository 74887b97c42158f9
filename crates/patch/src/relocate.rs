//! Function relocation: produce an instrumented copy of a function for the
//! patch area, preserving semantics at a new address.
//!
//! CFG-safe transformation (in the spirit of Bernat & Miller's structured
//! binary editing, which the paper cites): blocks are laid out in original
//! order with snippet code spliced in front of instrumented instructions;
//! all PC-relative material is re-derived:
//!
//! * intra-function branch/jump targets follow the address map (branch
//!   targets land on the snippet code of their target point, so e.g.
//!   loop-head counters observe every iteration);
//! * an interprocedural `jal` (call or tail call) whose callee is relocated
//!   too — the function itself (recursion), or another function of the
//!   same pass, listed in the callee table handed to
//!   [`RelocationPlan::relax_at`] and [`RelocationPlan::emit`] — enters
//!   the callee's relocated entry, its entry snippet first, so the call
//!   skips the springboard at the callee's original entry. A linking call
//!   that `jal` cannot reach becomes `auipc ra; jalr ra` (`ra` is dead at
//!   a call); a tail call has no register to spare, so it is retargeted
//!   only where a `jal` reaches. Any other call keeps its original
//!   absolute target, where the callee's springboard (if any) decides;
//! * every `auipc rd, imm` is replaced by an exact materialisation of the
//!   value it produced at its original address, sidestepping the
//!   `auipc`/`lo12` pairing problem entirely;
//! * branch displacements that outgrow their format are relaxed
//!   (inverted branch + `jal`, or `auipc`+`jalr` for far jumps) by an
//!   iterative size-relaxation pass, exactly like an assembler.
//!
//! Every intra-function target is resolved to a slot index once, when the
//! plan is built, so relaxation and emission are linear passes over the
//! slots with no address-map lookups.

use rvdyn_codegen::imm::load_imm;
use rvdyn_isa::encode::{compress, encode32};
use rvdyn_isa::{build, Instruction, Op, Reg};
use rvdyn_parse::{EdgeKind, Function};
use std::collections::BTreeMap;
use std::fmt;

/// Relocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocateError {
    /// A far unconditional jump had no way to reach its target (no
    /// register to spare for `auipc`).
    JumpOutOfRange { at: u64, target: u64 },
    /// An instruction failed to re-encode.
    Encode(String),
    /// A branch target was not an instruction the relocation mapped.
    UnmappedTarget { at: u64, target: u64 },
    /// A decoded instruction was missing an operand its format requires
    /// (a parse the decoder should never produce — surfaced instead of
    /// trusted).
    MalformedInstruction { at: u64 },
}

impl fmt::Display for RelocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelocateError::JumpOutOfRange { at, target } => {
                write!(f, "jump at {at:#x} cannot reach {target:#x}")
            }
            RelocateError::Encode(e) => write!(f, "re-encoding failed: {e}"),
            RelocateError::UnmappedTarget { at, target } => {
                write!(f, "branch at {at:#x} targets unmapped address {target:#x}")
            }
            RelocateError::MalformedInstruction { at } => {
                write!(f, "instruction at {at:#x} is missing a required operand")
            }
        }
    }
}

impl std::error::Error for RelocateError {}

/// The relocated function image.
#[derive(Debug, Clone)]
pub struct RelocatedFunction {
    /// Encoded bytes, based at `new_base`.
    pub code: Vec<u8>,
    /// New address of the (instrumented) function entry.
    pub new_entry: u64,
    /// Map from original instruction address to its relocated address
    /// (pointing at the snippet code when one is attached to the
    /// instruction).
    pub addr_map: BTreeMap<u64, u64>,
    /// `(call site, relocated callee entry)` for every call that enters a
    /// relocated callee instead of its original entry, in slot order;
    /// the site is the call's original address.
    pub calls_retargeted: Vec<(u64, u64)>,
}

/// Reach of a conditional branch: ±4 KiB.
const BRANCH_REACH: i64 = 1 << 12;
/// Reach of a `jal`: ±1 MiB.
pub(crate) const JAL_REACH: i64 = 1 << 20;

/// Whether a `reach`-limited pc-relative transfer at `at` reaches `to`.
pub(crate) fn reaches(at: u64, to: u64, reach: i64) -> bool {
    (-reach..reach).contains(&(to.wrapping_sub(at) as i64))
}

/// Where an intra-function branch or jump goes, resolved when the plan
/// is built.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The slot at this index: the first slot for the original target
    /// address (its snippet when one is attached), or a taken-edge stub.
    Slot(usize),
    /// An intra-function target no slot stands for. Sized as the
    /// absolute address; emission refuses it with
    /// [`RelocateError::UnmappedTarget`].
    Unmapped(u64),
}

impl Target {
    /// The target address with `slots` placed at `base`.
    fn addr(self, slots: &[Slot], base: u64) -> u64 {
        match self {
            Target::Slot(i) => base + slots[i].offset,
            Target::Unmapped(a) => a,
        }
    }
}

enum Item {
    /// Straight-line 4-byte instructions `insts[start..start + len]` of
    /// the plan: snippet code, or the materialised value that replaces
    /// an `auipc`.
    Insts { start: usize, len: usize },
    /// An original instruction copied (re-encoded) verbatim.
    Verbatim { inst: Instruction },
    /// Conditional branch. A branch with a taken-edge snippet targets
    /// its stub slot instead of its real target.
    CondBranch { inst: Instruction, target: Target },
    /// `jal` with an intra-function target.
    Jump { rd: Reg, target: Target },
    /// Interprocedural `jal` (call, or tail call when `rd` is `x0`) at
    /// original address `site` to the function entry `callee`; see
    /// [`RelocationPlan::call_dest`] for where it goes.
    Call { rd: Reg, callee: u64, site: u64 },
}

/// Snippet placement requests for one function's relocation.
#[derive(Debug, Default, Clone)]
pub struct Insertions {
    /// Run before the instruction at the key address (block-entry points
    /// map to the block's first instruction).
    pub before: BTreeMap<u64, Vec<Instruction>>,
    /// Run only when the conditional branch at the key address is taken
    /// (implemented as an out-of-line stub the branch is retargeted to).
    pub taken_edge: BTreeMap<u64, Vec<Instruction>>,
    /// Run only on the fallthrough of the conditional branch at the key
    /// address (implemented inline after the branch — only the
    /// fallthrough path passes there).
    pub not_taken_edge: BTreeMap<u64, Vec<Instruction>>,
}

struct Slot {
    item: Item,
    size: u64,
    /// Byte offset from the plan's base: the sum of the sizes of the
    /// slots before it.
    offset: u64,
    /// The original address this slot is the first slot for, if any.
    /// The first slot wins: a snippet slot precedes its instruction's
    /// slot, and a later overlapping block's copy of an address loses to
    /// the earlier block's.
    first_of: Option<u64>,
}

fn invert(op: Op) -> Option<Op> {
    match op {
        Op::Beq => Some(Op::Bne),
        Op::Bne => Some(Op::Beq),
        Op::Blt => Some(Op::Bge),
        Op::Bge => Some(Op::Blt),
        Op::Bltu => Some(Op::Bgeu),
        Op::Bgeu => Some(Op::Bltu),
        _ => None,
    }
}

/// The relocated address of original instruction `old` in `pairs`, the
/// `(original, relocated)` vector emission returns (sorted by original
/// address).
pub(crate) fn relocated_addr(pairs: &[(u64, u64)], old: u64) -> Option<u64> {
    pairs
        .binary_search_by_key(&old, |&(o, _)| o)
        .ok()
        .map(|i| pairs[i].1)
}

/// A sized-but-unplaced relocation: the slot list for one function with
/// snippets spliced in, after the size-relaxation fixpoint, but before
/// any patch-area address is chosen. This is the position-independent
/// artifact the instrumenter's parallel plan phase produces per
/// function; sequential base assignment then pins each plan to its
/// final base ([`RelocationPlan::relax_at`]) and the finish phase
/// encodes it there ([`RelocationPlan::emit`]).
///
/// Slot sizes are *monotone*: `relax_at` only ever widens a slot, so
/// re-relaxing the same plan at successive candidate bases reaches a
/// fixpoint — which is what makes the instrumenter's whole-patch-area
/// base assignment terminate deterministically.
pub struct RelocationPlan {
    entry: u64,
    /// The first slot for `entry` (its entry snippet when one is
    /// attached): where a call into the relocated copy lands.
    entry_slot: Option<usize>,
    slots: Vec<Slot>,
    /// Instructions of the plan's [`Item::Insts`] slots.
    insts: Vec<Instruction>,
}

impl RelocationPlan {
    /// Build the slot list for `f` with `insertions` spliced in (taken-edge
    /// stubs appended after the body) and resolve every intra-function
    /// target to its slot. No addresses are assigned yet.
    pub fn build(f: &Function, insertions: &Insertions) -> Result<RelocationPlan, RelocateError> {
        let mut b = Builder::with_capacity(f, insertions);
        b.build(f, insertions)?;
        b.resolve_targets();
        let entry_slot = b.first_slot(f.entry);
        let mut plan = RelocationPlan {
            entry: f.entry,
            entry_slot,
            slots: b.slots,
            insts: b.insts,
        };
        plan.place();
        Ok(plan)
    }

    /// Total encoded size of the plan at its current slot sizes.
    pub fn code_size(&self) -> u64 {
        self.slots.last().map_or(0, |s| s.offset + s.size)
    }

    /// The relocated entry address with the plan based at `base` (the
    /// base itself when no slot stands for the entry).
    pub fn entry_at(&self, base: u64) -> u64 {
        self.entry_slot
            .map_or(base, |i| base + self.slots[i].offset)
    }

    /// Where a call with link register `rd` at `at` to the function
    /// entry `callee` goes with the plan based at `base`: the relocated
    /// entry when the callee is this function or is listed in `callees`
    /// (`(original entry, relocated entry)` pairs sorted by original
    /// entry), else `callee` itself. A tail call (`rd` = `x0`) has no
    /// register for `auipc`, so it takes the relocated entry only where
    /// a `jal` reaches it.
    fn call_dest(&self, rd: Reg, callee: u64, at: u64, base: u64, callees: &[(u64, u64)]) -> u64 {
        let moved = if callee == self.entry {
            Some(self.entry_at(base))
        } else {
            relocated_addr(callees, callee)
        };
        match moved {
            Some(to) if !rd.is_zero() || reaches(at, to, JAL_REACH) => to,
            _ => callee,
        }
    }

    /// Recompute every slot's offset from the slot sizes.
    fn place(&mut self) {
        let mut offset = 0;
        for s in &mut self.slots {
            s.offset = offset;
            offset += s.size;
        }
    }

    /// Run the size-relaxation fixpoint with the plan based at
    /// `new_base` and the other relocated callees at `callees`
    /// (`(original entry, relocated entry)` pairs sorted by original
    /// entry). A call to this function or to one in `callees` goes to the
    /// relocated entry — a tail call only where a `jal` reaches it — and
    /// is sized against that address only. Slot sizes only grow
    /// (branches widen to the inverted form, jumps and calls to
    /// `auipc`+`jalr`), so iterating `relax_at` over changing bases
    /// converges. Returns whether any slot widened.
    pub fn relax_at(&mut self, new_base: u64, callees: &[(u64, u64)]) -> bool {
        let mut any = false;
        loop {
            // Every slot is checked against the offsets from the start of
            // the pass; widened slots move the others on the next pass.
            let mut changed = false;
            for i in 0..self.slots.len() {
                let s = &self.slots[i];
                let at = new_base + s.offset;
                let (to, reach) = match s.item {
                    Item::CondBranch { target, .. } => {
                        (target.addr(&self.slots, new_base), BRANCH_REACH)
                    }
                    Item::Jump { target, .. } => (target.addr(&self.slots, new_base), JAL_REACH),
                    Item::Call { rd, callee, .. } => {
                        (self.call_dest(rd, callee, at, new_base, callees), JAL_REACH)
                    }
                    _ => continue,
                };
                let need = if reaches(at, to, reach) { 4 } else { 8 };
                if need > s.size {
                    self.slots[i].size = need;
                    changed = true;
                }
            }
            if !changed {
                return any;
            }
            any = true;
            self.place();
        }
    }

    /// Resolve every slot's target against `new_base` and `callees`, and
    /// encode. The caller must have called [`RelocationPlan::relax_at`]
    /// with the same base and callees (sizes are assumed stable).
    pub fn emit(
        &self,
        new_base: u64,
        callees: &[(u64, u64)],
    ) -> Result<RelocatedFunction, RelocateError> {
        let mut code = Vec::new();
        let mut calls_retargeted = Vec::new();
        let pairs = self.emit_into(new_base, callees, &mut code, &mut calls_retargeted)?;
        Ok(RelocatedFunction {
            code,
            new_entry: self.entry_at(new_base),
            addr_map: pairs.into_iter().collect(),
            calls_retargeted,
        })
    }

    /// Encode the plan at `new_base`, appending the bytes to `code` and
    /// each retargeted call's `(site, relocated callee entry)` to
    /// `calls`, and return the `(original, relocated)` address pairs
    /// sorted by original address. As for [`RelocationPlan::emit`], sizes
    /// must be relaxed at `new_base` against `callees`.
    pub(crate) fn emit_into(
        &self,
        new_base: u64,
        callees: &[(u64, u64)],
        code: &mut Vec<u8>,
        calls: &mut Vec<(u64, u64)>,
    ) -> Result<Vec<(u64, u64)>, RelocateError> {
        let start = code.len();
        code.reserve(self.code_size() as usize);
        let mut pairs = Vec::new();
        for s in &self.slots {
            let at = new_base + s.offset;
            if let Some(old) = s.first_of {
                pairs.push((old, at));
            }
            match &s.item {
                Item::Insts { start, len } => {
                    for i in &self.insts[*start..start + len] {
                        put(code, i)?;
                    }
                }
                Item::Verbatim { inst } => {
                    if s.size == 2 {
                        let c = compress(inst).ok_or_else(|| {
                            RelocateError::Encode(format!(
                                "size-2 slot at {at:#x} does not compress"
                            ))
                        })?;
                        code.extend_from_slice(&c.to_le_bytes());
                    } else {
                        put(code, inst)?;
                    }
                }
                Item::CondBranch { inst, target } => {
                    let t = self.resolved(*target, new_base, at)?;
                    let delta = t.wrapping_sub(at) as i64;
                    let malformed = RelocateError::MalformedInstruction { at: inst.address };
                    let rs1 = inst.rs1.ok_or_else(|| malformed.clone())?;
                    let rs2 = inst.rs2.ok_or_else(|| malformed.clone())?;
                    if s.size == 4 {
                        put(code, &build::b_type(inst.op, rs1, rs2, delta))?;
                    } else {
                        // Inverted branch over a jal.
                        let inv = invert(inst.op).ok_or(malformed)?;
                        put(code, &build::b_type(inv, rs1, rs2, 8))?;
                        put(code, &build::jal(Reg::X0, delta - 4))?;
                    }
                }
                Item::Jump { rd, target } => {
                    let t = self.resolved(*target, new_base, at)?;
                    put_jump(code, *rd, at, t, s.size)?;
                }
                Item::Call { rd, callee, site } => {
                    let t = self.call_dest(*rd, *callee, at, new_base, callees);
                    if t != *callee {
                        calls.push((*site, t));
                    }
                    put_jump(code, *rd, at, t, s.size)?;
                }
            }
            debug_assert_eq!(
                (code.len() - start) as u64,
                s.offset + s.size,
                "size accounting drift"
            );
        }
        // Slot order is address order except across overlapping blocks.
        if !pairs.is_sorted() {
            pairs.sort_unstable();
        }
        Ok(pairs)
    }

    /// The address `target` resolves to for a slot at `at` with the plan
    /// at `base`, refusing an unmapped intra-function target.
    fn resolved(&self, target: Target, base: u64, at: u64) -> Result<u64, RelocateError> {
        match target {
            Target::Unmapped(t) => Err(RelocateError::UnmappedTarget { at, target: t }),
            t => Ok(t.addr(&self.slots, base)),
        }
    }
}

/// Encode a `size`-byte jump with link register `rd` at `at` to `to`: a
/// `jal`, or `auipc rd; jalr rd` for a far one, which only a linking jump
/// has a register to clobber for.
fn put_jump(code: &mut Vec<u8>, rd: Reg, at: u64, to: u64, size: u64) -> Result<(), RelocateError> {
    if size == 4 {
        return put(code, &build::jal(rd, to.wrapping_sub(at) as i64));
    }
    let out_of_range = RelocateError::JumpOutOfRange { at, target: to };
    if rd.is_zero() {
        return Err(out_of_range);
    }
    let (hi, lo) = rvdyn_codegen::imm::pcrel_parts(at, to).ok_or(out_of_range)?;
    put(code, &build::auipc(rd, hi))?;
    put(code, &build::jalr(rd, rd, lo))
}

/// Append the 4-byte encoding of `i` to `code`.
fn put(code: &mut Vec<u8>, i: &Instruction) -> Result<(), RelocateError> {
    let raw = encode32(i).map_err(|e| RelocateError::Encode(e.to_string()))?;
    code.extend_from_slice(&raw.to_le_bytes());
    Ok(())
}

/// Relocate `f` to `new_base`, splicing `insertions`. Recursive calls
/// enter the relocated copy; every other call keeps its original target.
pub fn relocate_function(
    f: &Function,
    insertions: &Insertions,
    new_base: u64,
) -> Result<RelocatedFunction, RelocateError> {
    let mut plan = RelocationPlan::build(f, insertions)?;
    plan.relax_at(new_base, &[]);
    plan.emit(new_base, &[])
}

/// Slot-list construction state for [`RelocationPlan::build`].
struct Builder {
    slots: Vec<Slot>,
    insts: Vec<Instruction>,
    /// `(original address, slot)` for every slot standing for an
    /// original instruction.
    olds: Vec<(u64, usize)>,
}

impl Builder {
    /// An empty builder sized for `f` with `insertions`.
    fn with_capacity(f: &Function, insertions: &Insertions) -> Builder {
        let n_insts: usize = f.blocks.values().map(|b| b.insts.len()).sum();
        let snippets = [
            &insertions.before,
            &insertions.taken_edge,
            &insertions.not_taken_edge,
        ];
        let n_snippets: usize = snippets.iter().map(|m| m.len()).sum();
        let snippet_insts = snippets.iter().flat_map(|m| m.values()).map(Vec::len).sum();
        Builder {
            slots: Vec::with_capacity(
                n_insts + n_snippets + insertions.taken_edge.len() + f.blocks.len(),
            ),
            insts: Vec::with_capacity(snippet_insts),
            olds: Vec::with_capacity(n_insts + insertions.before.len()),
        }
    }

    /// Append a slot; `old` is the original instruction it stands for.
    fn push(&mut self, old: Option<u64>, item: Item, size: u64) -> usize {
        let idx = self.slots.len();
        if let Some(old) = old {
            self.olds.push((old, idx));
        }
        self.slots.push(Slot {
            item,
            size,
            offset: 0,
            first_of: None,
        });
        idx
    }

    /// Append a straight-line instruction slot.
    fn push_insts(&mut self, old: Option<u64>, insts: &[Instruction]) {
        let item = Item::Insts {
            start: self.insts.len(),
            len: insts.len(),
        };
        self.insts.extend_from_slice(insts);
        self.push(old, item, insts.len() as u64 * 4);
    }

    /// Build the slot list for one function in block address order.
    /// Intra-function targets start out [`Target::Unmapped`];
    /// [`Builder::resolve_targets`] maps them to slots.
    fn build(&mut self, f: &Function, insertions: &Insertions) -> Result<(), RelocateError> {
        // Conditional branches that need a taken-edge stub: (slot index of
        // the branch, branch address, branch target).
        let mut want_stub: Vec<(usize, u64, u64)> = Vec::new();
        let mut blocks = f.blocks.values().peekable();
        while let Some(b) = blocks.next() {
            let last = b.last_inst().map(|l| l.address);
            for inst in b.insts {
                if let Some(snip) = insertions.before.get(&inst.address) {
                    if !snip.is_empty() {
                        self.push_insts(Some(inst.address), snip);
                    }
                }
                let old = Some(inst.address);
                if inst.op == Op::Auipc {
                    // Classify the instruction for relocation purposes.
                    let value = inst.address.wrapping_add(inst.imm as u64);
                    let rd = inst
                        .rd
                        .ok_or(RelocateError::MalformedInstruction { at: inst.address })?;
                    self.push_insts(old, &load_imm(rd, value as i64));
                } else if inst.op.is_conditional_branch() {
                    let old_target = inst.address.wrapping_add(inst.imm as u64);
                    let item = Item::CondBranch {
                        inst: *inst,
                        target: Target::Unmapped(old_target),
                    };
                    let idx = self.push(old, item, 4);
                    if insertions.taken_edge.contains_key(&inst.address) {
                        want_stub.push((idx, inst.address, old_target));
                    }
                    // Not-taken edge snippet: inline right after the branch —
                    // only the fallthrough path executes it.
                    if let Some(snip) = insertions.not_taken_edge.get(&inst.address) {
                        if !snip.is_empty() {
                            self.push_insts(None, snip);
                        }
                    }
                } else if inst.op == Op::Jal {
                    let old_target = inst.address.wrapping_add(inst.imm as u64);
                    // Edge kinds decide whether the target moves with us.
                    let intra = Some(inst.address) != last
                        || b.edges
                            .iter()
                            .any(|e| e.kind == EdgeKind::Jump && e.target == Some(old_target));
                    let rd = inst.rd.unwrap_or(Reg::X0);
                    let item = if intra {
                        let target = Target::Unmapped(old_target);
                        Item::Jump { rd, target }
                    } else {
                        Item::Call {
                            rd,
                            callee: old_target,
                            site: inst.address,
                        }
                    };
                    self.push(old, item, 4);
                } else {
                    // Verbatim: keep compressed width when possible.
                    let size = if inst.compressed.is_some() && compress(inst).is_some() {
                        2
                    } else {
                        4
                    };
                    self.push(old, Item::Verbatim { inst: *inst }, size);
                }
            }
            // Explicit jump if the fallthrough successor is not laid out next.
            let ft = b.edges.iter().find_map(|e| {
                matches!(
                    e.kind,
                    EdgeKind::Fallthrough | EdgeKind::NotTaken | EdgeKind::CallFallthrough
                )
                .then_some(e.target)
                .flatten()
            });
            if let Some(t) = ft {
                let next_start = blocks.peek().map(|nb| nb.start);
                if next_start != Some(t) && f.blocks.contains_key(t) {
                    let target = Target::Unmapped(t);
                    self.push(
                        None,
                        Item::Jump {
                            rd: Reg::X0,
                            target,
                        },
                        4,
                    );
                }
            }
        }

        // ---- taken-edge stubs ----
        // Appended after the function body: snippet, then a jump to the real
        // taken target. The branch is retargeted to the stub.
        for (branch_slot, branch_addr, old_target) in want_stub {
            let stub_idx = self.slots.len();
            self.push_insts(None, &insertions.taken_edge[&branch_addr]);
            let Item::CondBranch { ref mut target, .. } = self.slots[branch_slot].item else {
                unreachable!("want_stub records only CondBranch slots")
            };
            *target = Target::Slot(stub_idx);
            let target = Target::Unmapped(old_target);
            self.push(
                None,
                Item::Jump {
                    rd: Reg::X0,
                    target,
                },
                4,
            );
        }
        Ok(())
    }

    /// The first slot for original address `old`, once
    /// [`Builder::resolve_targets`] has run.
    fn first_slot(&self, old: u64) -> Option<usize> {
        let i = self.olds.binary_search_by_key(&old, |&(o, _)| o).ok()?;
        Some(self.olds[i].1)
    }

    /// Mark the first slot for every original address and point every
    /// intra-function target with a slot at it.
    fn resolve_targets(&mut self) {
        // Stable: among equal addresses the lowest slot index stays first.
        let firsts = &mut self.olds;
        firsts.sort_by_key(|&(old, _)| old);
        firsts.dedup_by_key(|&mut (old, _)| old);
        for &(old, i) in firsts.iter() {
            self.slots[i].first_of = Some(old);
        }
        for s in &mut self.slots {
            if let Item::CondBranch { target, .. } | Item::Jump { target, .. } = &mut s.item {
                if let Target::Unmapped(t) = *target {
                    if let Ok(i) = firsts.binary_search_by_key(&t, |&(old, _)| old) {
                        *target = Target::Slot(firsts[i].1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_asm::Assembler;
    use rvdyn_parse::{CodeObject, ParseOptions};

    fn parse_one(build_fn: impl FnOnce(&mut Assembler)) -> Function {
        parse_with_callee(build_fn, None)
    }

    /// The function at 0x1000, parsed with `callee` as a second entry.
    fn parse_with_callee(build_fn: impl FnOnce(&mut Assembler), callee: Option<u64>) -> Function {
        let mut a = Assembler::new(0x1000);
        build_fn(&mut a);
        let code = a.finish().unwrap();
        let src = rvdyn_parse::source::RawCode {
            base: 0x1000,
            bytes: code,
            entries: [0x1000].into_iter().chain(callee).collect(),
        };
        CodeObject::parse(&src, &ParseOptions::default()).functions[&0x1000].clone()
    }

    /// The first 4-byte `jal` (or `auipc; jalr` pair) in `code` at `base`
    /// with link register `rd`: its address, size and target.
    fn find_jump(code: &[u8], base: u64, rd: Reg) -> (u64, u64, u64) {
        let insts: Vec<_> = rvdyn_isa::decode::InstructionIter::new(code, base)
            .map(|x| x.unwrap())
            .collect();
        for (k, i) in insts.iter().enumerate() {
            if i.op == Op::Jal && i.rd == Some(rd) {
                return (i.address, 4, i.address.wrapping_add(i.imm as u64));
            }
            if i.op == Op::Auipc && i.rd == Some(rd) {
                let j = &insts[k + 1];
                assert_eq!((j.op, j.rs1), (Op::Jalr, Some(rd)));
                let hi = i.address.wrapping_add(i.imm as u64);
                return (i.address, 8, hi.wrapping_add(j.imm as u64));
            }
        }
        panic!("no jump through {rd:?}");
    }

    #[test]
    fn plain_relocation_preserves_instruction_count() {
        let f = parse_one(|a| {
            a.addi(Reg::x(10), Reg::X0, 1);
            a.addi(Reg::x(10), Reg::x(10), 2);
            a.ret();
        });
        let r = relocate_function(&f, &Insertions::default(), 0x8_0000).unwrap();
        assert_eq!(r.new_entry, 0x8_0000);
        assert_eq!(r.code.len(), 12);
        // Every original instruction is mapped.
        assert_eq!(r.addr_map.len(), 3);
    }

    #[test]
    fn loop_branches_retarget_into_relocation() {
        let f = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 3);
            let head = a.here_label();
            a.addi(Reg::x(5), Reg::x(5), -1);
            a.bne(Reg::x(5), Reg::X0, head);
            a.ret();
        });
        let r = relocate_function(&f, &Insertions::default(), 0x8_0000).unwrap();
        // Decode the relocated code; the bne target must equal the new
        // address of the loop head.
        let insts: Vec<_> = rvdyn_isa::decode::InstructionIter::new(&r.code, 0x8_0000)
            .map(|x| x.unwrap())
            .collect();
        let bne = insts.iter().find(|i| i.op == Op::Bne).unwrap();
        let target = bne.address.wrapping_add(bne.imm as u64);
        assert_eq!(target, r.addr_map[&0x1004]);
    }

    #[test]
    fn snippet_insertion_lands_before_instruction_and_branches_hit_it() {
        let f = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 3);
            let head = a.here_label();
            a.addi(Reg::x(5), Reg::x(5), -1);
            a.bne(Reg::x(5), Reg::X0, head);
            a.ret();
        });
        // Insert two nops before the loop head (0x1004).
        let mut ins = Insertions::default();
        ins.before.insert(0x1004, vec![build::nop(), build::nop()]);
        let r = relocate_function(&f, &ins, 0x8_0000).unwrap();
        // The map for 0x1004 points at the snippet.
        let snippet_at = r.addr_map[&0x1004];
        let insts: Vec<_> = rvdyn_isa::decode::InstructionIter::new(&r.code, 0x8_0000)
            .map(|x| x.unwrap())
            .collect();
        let at_snippet = insts.iter().find(|i| i.address == snippet_at).unwrap();
        assert_eq!(at_snippet.op, Op::Addi); // nop
                                             // The back edge lands on the snippet, not past it.
        let bne = insts.iter().find(|i| i.op == Op::Bne).unwrap();
        assert_eq!(bne.address.wrapping_add(bne.imm as u64), snippet_at);
    }

    #[test]
    fn auipc_replaced_with_exact_value() {
        let f = parse_one(|a| {
            let l = a.label();
            a.la(Reg::x(10), l); // auipc+addi pair
            a.ret();
            a.bind(l);
        });
        let r = relocate_function(&f, &Insertions::default(), 0x8_0000).unwrap();
        // Execute the relocated code's first instructions; x10 must equal
        // the ORIGINAL la target (0x100C).
        use rvdyn_isa::semantics::{eval_int, FlatMemory, IntState};
        let insts: Vec<_> = rvdyn_isa::decode::InstructionIter::new(&r.code, 0x8_0000)
            .map(|x| x.unwrap())
            .collect();
        let mut st = IntState::new(0x8_0000);
        let mut mem = FlatMemory::new(0, 8);
        for i in &insts {
            if i.is_canonical_return() {
                break;
            }
            st.pc = i.address;
            eval_int(i, &mut st, &mut mem);
        }
        assert_eq!(st.get(Reg::x(10)), 0x100C);
    }

    #[test]
    fn call_keeps_absolute_callee() {
        let f = parse_one(|a| {
            let callee = a.label();
            a.call(callee);
            a.ret();
            a.bind(callee);
            a.ret();
        });
        let r = relocate_function(&f, &Insertions::default(), 0x8_0000).unwrap();
        let insts: Vec<_> = rvdyn_isa::decode::InstructionIter::new(&r.code, 0x8_0000)
            .map(|x| x.unwrap())
            .collect();
        let call = insts
            .iter()
            .find(|i| i.op == Op::Jal && i.rd == Some(Reg::X1))
            .unwrap();
        assert_eq!(call.address.wrapping_add(call.imm as u64), 0x1008);
    }

    #[test]
    fn recursive_call_enters_the_relocated_entry_snippet() {
        let f = parse_one(|a| {
            let entry = a.here_label();
            let end = a.label();
            a.addi(Reg::x(10), Reg::x(10), -1);
            a.beq(Reg::x(10), Reg::X0, end);
            a.call(entry);
            a.bind(end);
            a.ret();
        });
        let mut ins = Insertions::default();
        ins.before.insert(0x1000, vec![build::nop(), build::nop()]);
        let r = relocate_function(&f, &ins, 0x8_0000).unwrap();
        assert_eq!(r.new_entry, 0x8_0000, "the entry snippet comes first");
        let (_, size, target) = find_jump(&r.code, 0x8_0000, Reg::X1);
        assert_eq!((size, target), (4, r.new_entry));
        assert_eq!(r.calls_retargeted, vec![(0x1008, r.new_entry)]);
    }

    /// A call to a function the callee table relocates is sized against
    /// the relocated entry only: 4 MiB from its original callee, the
    /// copy still calls the nearby relocated entry with one `jal`, and
    /// widens to `auipc ra; jalr ra` only when that entry is far.
    #[test]
    fn call_into_the_callee_table_is_sized_against_the_relocated_entry() {
        let callee = 0x1008;
        let f = parse_with_callee(
            |a| {
                let l = a.label();
                a.call(l);
                a.ret();
                a.bind(l);
                a.ret();
            },
            Some(callee),
        );
        let base = 0x40_0000;
        let place = |table: &[(u64, u64)]| {
            let mut plan = RelocationPlan::build(&f, &Insertions::default()).unwrap();
            plan.relax_at(base, table);
            let r = plan.emit(base, table).unwrap();
            (find_jump(&r.code, base, Reg::X1), r.calls_retargeted)
        };
        let near = base + 0x1000;
        assert_eq!(
            place(&[(callee, near)]),
            ((base, 4, near), vec![(0x1000, near)])
        );
        // The same callee unrelocated: its original entry is 4 MiB away.
        assert_eq!(place(&[]), ((base, 8, callee), vec![]));
        let far = base + (8 << 20);
        assert_eq!(
            place(&[(callee, far)]),
            ((base, 8, far), vec![(0x1000, far)])
        );
    }

    /// A tail call has no register for `auipc`: when its callee's copy is
    /// out of a `jal`'s reach, it keeps its original target.
    #[test]
    fn tail_call_out_of_reach_of_its_retarget_keeps_its_original_target() {
        let callee = 0x1008;
        let f = parse_with_callee(
            |a| {
                let l = a.label();
                a.addi(Reg::x(10), Reg::x(10), 1);
                a.tail(l);
                a.bind(l);
                a.ret();
            },
            Some(callee),
        );
        let base = 0x8_0000;
        let place = |table: &[(u64, u64)]| {
            let mut plan = RelocationPlan::build(&f, &Insertions::default()).unwrap();
            plan.relax_at(base, table);
            let r = plan.emit(base, table).unwrap();
            (find_jump(&r.code, base, Reg::X0).2, r.calls_retargeted)
        };
        let near = base + 0x1000;
        assert_eq!(place(&[(callee, near)]), (near, vec![(0x1004, near)]));
        let far = base + (4 << 20);
        assert_eq!(place(&[(callee, far)]), (callee, vec![]));
    }

    #[test]
    fn compressed_instructions_stay_compressed() {
        let f = parse_one(|a| {
            a.c_inst(build::addi(Reg::x(10), Reg::x(10), 1));
            a.ret();
        });
        let r = relocate_function(&f, &Insertions::default(), 0x8_0000).unwrap();
        assert_eq!(r.code.len(), 2 + 4);
    }

    #[test]
    fn big_snippet_forces_branch_relaxation() {
        // A conditional branch whose target moves > 4 KiB away because of
        // a giant snippet in between.
        let f = parse_one(|a| {
            let end = a.label();
            a.beq(Reg::x(10), Reg::X0, end);
            a.addi(Reg::x(5), Reg::X0, 1);
            a.bind(end);
            a.ret();
        });
        let big: Vec<Instruction> = (0..2000).map(|_| build::nop()).collect();
        let mut ins = Insertions::default();
        // The snippet sits on the not-taken path (before 0x1004), pushing
        // the branch target > 4 KiB away from the branch itself.
        ins.before.insert(0x1004, big);
        let r = relocate_function(&f, &ins, 0x8_0000).unwrap();
        // The first emitted instruction is now an INVERTED branch (bne).
        let first = rvdyn_isa::decode(&r.code, 0x8_0000).unwrap();
        assert_eq!(first.op, Op::Bne, "branch must be inverted for relaxation");
        // Executing: beq-taken path must land on the snippet start.
        let second = rvdyn_isa::decode(&r.code[4..], 0x8_0004).unwrap();
        assert_eq!(second.op, Op::Jal);
        assert_eq!(
            second.address.wrapping_add(second.imm as u64),
            r.addr_map[&0x1008]
        );
    }
}
