//! The memory-access tracer: §2's "memory access tracing tool" built on
//! the public instrumentation pipeline.
//!
//! [`MemTracer`]'s planners scan the shared [`Analysis`](crate::Analysis)'s
//! CFG for plain integer and floating-point loads/stores, and queues a
//! compact record-emitting snippet before each one. The snippet appends
//! a 16-byte `[effective address][site index]` record into a ring buffer
//! staked out in the patch data area
//! ([`Session::alloc_region`](crate::Session::alloc_region)). The ring's
//! cursor counts every access; records are kept only below capacity, so
//! the ring never wraps, a drained trace is always a faithful *prefix* of
//! the access stream, and the drain computes the dropped count from the
//! cursor. The site index names an entry of the tracer's site table,
//! which holds the **original** pc, width and direction, so traces read
//! identically whether the site executed in place or from its relocated
//! copy in the patch area.
//!
//! **Runs.** Two or more accesses of one basic block form a *run* when
//! liveness finds an integer register dead before the first of them that
//! no instruction from the first to the last reads or writes. The run's
//! first snippet reads the cursor once, puts the run's slot pointer —
//! ring base + min(cursor, capacity) — in that register
//! ([`Snippet::WriteReg`]), writes its own record, and moves the cursor
//! past all of the run's records; every later access of the run stores
//! its record at a fixed offset from the register. The ring has 16 bytes
//! of slack per access of the longest run past its capacity, so a run
//! that meets the end (or starts on a full ring) writes its overflow
//! there, and the drain still keeps exactly the first `capacity` records.
//! A run ends before an `ecall` or `ebreak`, holds at most 127 accesses
//! (its offsets and cursor step fit a 12-bit immediate), and takes no
//! later access from the first 8 bytes of the function's entry block or
//! of an indirect-jump target, where a springboard's trap redirect can
//! enter the block past its first snippet. A lone access, a block with no such register, and
//! [`RegAllocMode::ForceSpill`] keep the single record below.
//!
//! At a point that needs no spill, under the default layout, a single
//! record is 13 instructions while the ring has room (`lui; ld` the
//! cursor, `lui; bge` the capacity, `lui; add` the slot, two `sd`s with
//! their values, `addi; lui; sd` the cursor; one more for a site index
//! past 2047) and 7 once it is full. A run's first access costs 14 while
//! the ring has room (16 once it is full) and each later one 4: the
//! address `addi` and the site index `li`, each with its `sd` (3 when the
//! offset is 0).
//!
//! **Cut-short runs.** A run's first snippet writes its record before it
//! moves the cursor, and every record stores its site index last, so a
//! run that a fault, the fuel or a stop cuts short leaves slots, between
//! its last record and the cursor, that do not hold the site indices the
//! run puts there. The drain ends the trace at the first such slot: a
//! record it returns is always one its snippet wrote.
//!
//! The tracer deliberately matches the emulator's memory-op oracle
//! ([`rvdyn_emu::Machine::arm_mem_oracle`]) instruction-for-instruction:
//! plain `Lb`…`Lwu`/`Sb`…`Sd` plus `Flw`/`Fld`/`Fsw`/`Fsd`, no atomics,
//! no syscall traffic. `tests/tools_memtrace.rs` holds the two sides
//! record-identical over randomized programs on both execution engines.
//!
//! Each kind of delivery has one entry point per step:
//! [`MemTracer::plan_editor`] and [`MemTracer::drain_output`] for a
//! static session, [`MemTracer::plan_fleet`] and
//! [`MemTracer::drain_fleet`] for a fleet — a
//! [`DynamicInstrumenter`](crate::DynamicInstrumenter)'s process included,
//! through its `fleet_mut` and `PID`. After the run, the drain recovers
//! the ring through that delivery's memory view and hands back decoded
//! [`TraceRecord`]s ready for [`TraceSink`](super::TraceSink)
//! serialization.

use super::trace::TraceRecord;
use crate::editor::{BinaryEditor, RunOutput};
use crate::error::Error;
use crate::fleet::FleetController;
use crate::session::Session;
use crate::telemetry::TelemetryEvent;
use rvdyn_codegen::regalloc::{RegAllocMode, CANDIDATES};
use rvdyn_codegen::snippet::{BinaryOp, Snippet, Var};
use rvdyn_dataflow::Liveness;
use rvdyn_isa::{Instruction, Op, Reg, RegSet};
use rvdyn_parse::{EdgeKind, Function};
use rvdyn_patch::{Point, PointKind};
use std::collections::BTreeSet;

/// Planning knobs for [`MemTracer`].
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Ring capacity in **records** (16 bytes each). Accesses beyond the
    /// capacity are dropped (and counted), never wrapped.
    pub capacity: u64,
    /// Restrict tracing to these functions (by symbol name); `None`
    /// traces every parsed function.
    pub funcs: Option<Vec<String>>,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions {
            capacity: 1 << 16,
            funcs: None,
        }
    }
}

/// One instrumented load/store site: what a record's site index stands
/// for.
#[derive(Debug, Clone, Copy)]
struct TraceSite {
    pc: u64,
    len: u8,
    is_store: bool,
    /// The length of the run this site starts (its records fill the
    /// next `run` slots with this index and the following ones); 1 for
    /// a single record or a later access of a run.
    run: u8,
}

/// What a drain recovered from one mutatee.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// Decoded records, in execution order.
    pub records: Vec<TraceRecord>,
    /// Accesses lost to ring exhaustion.
    pub dropped: u64,
}

/// The planned tracer: site list plus the in-mutatee ring's control
/// variables. Plan once, commit/run through the host as usual, then
/// drain per process.
pub struct MemTracer {
    sites: Vec<TraceSite>,
    /// 16 bytes per access seen: the next free record slot while the
    /// ring has room, and the dropped count beyond it.
    cursor: Var,
    /// Ring base address in the patch data area.
    base: u64,
    /// Ring capacity in bytes (records × 16).
    cap_bytes: u64,
}

/// Classify `inst` as a traceable memory access: plain integer and FP
/// loads/stores. Atomics (`lr`/`sc`/`amo*`) are excluded — they are
/// synchronization, not data movement, and the emulator's oracle
/// excludes them identically.
pub(crate) fn mem_ref(inst: &Instruction) -> Option<(u8, bool)> {
    Some(match inst.op {
        Op::Lb | Op::Lbu => (1, false),
        Op::Lh | Op::Lhu => (2, false),
        Op::Lw | Op::Lwu | Op::Flw => (4, false),
        Op::Ld | Op::Fld => (8, false),
        Op::Sb => (1, true),
        Op::Sh => (2, true),
        Op::Sw | Op::Fsw => (4, true),
        Op::Sd | Op::Fsd => (8, true),
        _ => return None,
    })
}

/// The snippet-local ids a record binds: the cursor, and its slot's
/// address.
const CURSOR: u32 = 0;
const SLOT: u32 = 1;

/// Alignment of the ring's base: a multiple of 4 KiB is one `lui`.
const RING_ALIGN: u64 = 4096;

/// The most accesses one run holds: its records sit at 12-bit offsets
/// from the slot pointer, and one `addi` moves the cursor past them.
const MAX_RUN: usize = 127;

fn add(a: Snippet, b: Snippet) -> Snippet {
    Snippet::Bin(BinaryOp::Add, Box::new(a), Box::new(b))
}

/// The two stores of the record of an access of `rs1 + imm` at
/// `slot + off`: the effective address, then the site index, so a slot
/// whose index is in place holds its address too.
fn record_stores(slot: Snippet, off: i64, index: usize, rs1: Reg, imm: i64) -> Snippet {
    // The pre-instrumentation register value the trampoline preserves,
    // stored in place when the offset is 0.
    let ea = match imm {
        0 => Snippet::ReadReg(rs1),
        _ => add(Snippet::ReadReg(rs1), Snippet::Const(imm)),
    };
    let store = |off: i64, val: Snippet| Snippet::WriteMem {
        addr: Box::new(add(slot.clone(), Snippet::Const(off))),
        val: Box::new(val),
        size: 8,
    };
    Snippet::Seq(vec![
        store(off, ea),
        store(off + 8, Snippet::Const(index as i64)),
    ])
}

/// A traceable access: the instruction and its width and direction.
type Access<'a> = (&'a Instruction, u8, bool);

/// Split one block's traceable accesses into runs, in order: each run
/// with the register that carries its slot pointer, or `None` for a
/// single record (every access, when there is no liveness `lv`).
/// `guarded` is the end of the block's first 8 bytes when a redirect can
/// enter them (else the block's start); `used` are registers earlier
/// runs of the function chose, preferred so the function reserves as few
/// as it can. Otherwise a run takes the free register the scratch
/// allocator hands out first, so a snippet inside the run that the plan
/// phase let take it as scratch would clobber it at once rather than
/// only under register pressure.
fn block_runs<'a>(
    f: &Function,
    lv: Option<&Liveness>,
    insts: &'a [Instruction],
    guarded: u64,
    used: &mut RegSet,
) -> Vec<(Vec<Access<'a>>, Option<Reg>)> {
    let order = CANDIDATES.map(Reg::x);
    let candidates = RegSet::of(&order);
    let mut runs = Vec::new();
    // The open run, the registers free through its last access, and the
    // registers free through the instruction just scanned.
    let mut run: Vec<Access> = Vec::new();
    let (mut run_free, mut free) = (RegSet::EMPTY, RegSet::EMPTY);
    let mut close = |run: &mut Vec<Access<'a>>, run_free: RegSet| {
        if run.is_empty() {
            return;
        }
        let pick = |set: RegSet| order.into_iter().rev().find(|r| set.contains(*r));
        let reg = match run.len() {
            1 => None,
            _ => pick(run_free.intersect(*used)).or_else(|| pick(run_free)),
        };
        match reg {
            Some(r) => {
                used.insert(r);
                runs.push((std::mem::take(run), Some(r)));
            }
            None => runs.extend(run.drain(..).map(|a| (vec![a], None))),
        }
    };
    for inst in insts {
        if matches!(inst.op, Op::Ecall | Op::Ebreak) {
            close(&mut run, run_free);
            continue;
        }
        let touched = inst.regs_read().union(inst.regs_written());
        free = free.minus(touched);
        let Some((len, is_store)) = mem_ref(inst).filter(|_| inst.rs1.is_some()) else {
            continue;
        };
        let joins =
            !run.is_empty() && run.len() < MAX_RUN && inst.address >= guarded && !free.is_empty();
        if !joins {
            close(&mut run, run_free);
            let dead = lv.map_or(RegSet::EMPTY, |lv| lv.dead_before(f, inst.address));
            free = dead.intersect(candidates).minus(touched);
        }
        run.push((inst, len, is_store));
        run_free = free;
    }
    close(&mut run, run_free);
    runs
}

impl MemTracer {
    fn plan(session: &mut Session, opts: &TraceOptions) -> Result<MemTracer, Error> {
        // Resolve the function filter to entry addresses first, so an
        // unknown name fails loudly instead of silently tracing nothing.
        let entries: Vec<u64> = match &opts.funcs {
            Some(names) => names
                .iter()
                .map(|n| session.function_addr(n))
                .collect::<Result<_, _>>()?,
            None => session.code().functions.keys().copied().collect(),
        };

        // Collect the sites, every plain load/store of every selected
        // function in address order (BTreeMap iteration order), each
        // block's split into runs.
        let batch = session.mode() == RegAllocMode::DeadRegisters;
        let analysis = session.analysis().clone();
        let code = analysis.code();
        let mut runs: Vec<(u64, Vec<Access>, Option<Reg>)> = Vec::new();
        for entry in &entries {
            let f = &code.functions[entry];
            // Without liveness no register is free, so no run forms.
            let lv = batch.then(|| Liveness::analyze(f));
            // Blocks a trap redirect can enter mid-way: the entry, and
            // every indirect-jump target.
            let redirected: BTreeSet<u64> = std::iter::once(f.entry)
                .chain(f.blocks.values().flat_map(|b| {
                    b.edges
                        .iter()
                        .filter(|e| e.kind == EdgeKind::IndirectJump)
                        .filter_map(|e| e.target)
                }))
                .collect();
            let mut used = RegSet::EMPTY;
            for b in f.blocks.values() {
                let guarded = b.start + if redirected.contains(&b.start) { 8 } else { 0 };
                let split = block_runs(f, lv.as_ref(), b.insts, guarded, &mut used);
                runs.extend(split.into_iter().map(|(run, reg)| (f.entry, run, reg)));
            }
        }

        // The ring first, on a 4 KiB boundary, with room past its
        // capacity for the longest run, then the cursor.
        let longest = runs
            .iter()
            .filter(|r| r.2.is_some())
            .map(|r| r.1.len())
            .max();
        let capacity = opts.capacity.max(1);
        let cap_bytes = capacity * 16;
        let next = session.layout().patch_data + session.var_bytes();
        session.alloc_region(next.wrapping_neg() % RING_ALIGN);
        let base = session.alloc_region(cap_bytes + 16 * longest.unwrap_or(0) as u64);
        let mut tracer = MemTracer {
            sites: Vec::new(),
            cursor: session.alloc_var(8),
            base,
            cap_bytes,
        };

        let mut plan: Vec<(Point, Snippet)> = Vec::new();
        let mut batched = 0usize;
        for (func, run, reg) in runs {
            let first = tracer.sites.len();
            for (i, &(inst, len, is_store)) in run.iter().enumerate() {
                let index = tracer.sites.len();
                let (rs1, imm) = (inst.rs1.expect("traced accesses have a base"), inst.imm);
                let snippet = match reg {
                    None => tracer.record(index, rs1, imm),
                    Some(r) if i == 0 => tracer.run_head(index, rs1, imm, r, run.len()),
                    Some(r) => record_stores(Snippet::ReadReg(r), 16 * i as i64, index, rs1, imm),
                };
                plan.push((
                    Point {
                        func,
                        addr: inst.address,
                        kind: PointKind::InstBefore(inst.address),
                    },
                    snippet,
                ));
                tracer.sites.push(TraceSite {
                    pc: inst.address,
                    len,
                    is_store,
                    run: 1,
                });
            }
            if reg.is_some() {
                tracer.sites[first].run = run.len() as u8;
                batched += run.len();
            }
        }
        for (point, snippet) in plan {
            session.insert(std::slice::from_ref(&point), snippet);
        }

        session.diag_mut().trace_points_planned = tracer.sites.len() as u64;
        session.diag_mut().trace_runs = batched as u64;
        session.emit(TelemetryEvent::TraceStarted {
            points: tracer.sites.len(),
            runs: batched,
            capacity,
        });
        Ok(tracer)
    }

    /// The record snippet of site `index`, an access of `rs1 + imm`:
    /// bind the cursor; while the ring has room, store the effective
    /// address and `index` in the cursor's slot; count the access either
    /// way.
    fn record(&self, index: usize, rs1: Reg, imm: i64) -> Snippet {
        let cur = || Snippet::Local(CURSOR);
        let slot = add(Snippet::Const(self.base as i64), cur());
        let body = Snippet::Seq(vec![
            Snippet::If {
                cond: Box::new(Snippet::bin(
                    BinaryOp::LtS,
                    cur(),
                    Snippet::Const(self.cap_bytes as i64),
                )),
                then_: Box::new(Snippet::bind(
                    SLOT,
                    slot,
                    record_stores(Snippet::Local(SLOT), 0, index, rs1, imm),
                )),
                else_: None,
            },
            Snippet::WriteVar(self.cursor, Box::new(add(cur(), Snippet::Const(16)))),
        ]);
        Snippet::bind(CURSOR, Snippet::ReadVar(self.cursor), body)
    }

    /// The first snippet of a run of `len` accesses whose slot pointer
    /// lives in `reg`, for site `index`, an access of `rs1 + imm`: bind
    /// the cursor, point `reg` at its slot (the slack past the capacity
    /// once the ring is full), store this access's record, and move the
    /// cursor past the whole run.
    fn run_head(&self, index: usize, rs1: Reg, imm: i64, reg: Reg, len: usize) -> Snippet {
        let cur = || Snippet::Local(CURSOR);
        let (base, cap) = (self.base as i64, self.cap_bytes as i64);
        let body = Snippet::Seq(vec![
            Snippet::WriteReg(reg, Box::new(add(Snippet::Const(base), cur()))),
            Snippet::If {
                cond: Box::new(Snippet::bin(BinaryOp::GeS, cur(), Snippet::Const(cap))),
                then_: Box::new(Snippet::WriteReg(reg, Box::new(Snippet::Const(base + cap)))),
                else_: None,
            },
            record_stores(Snippet::ReadReg(reg), 0, index, rs1, imm),
            Snippet::WriteVar(
                self.cursor,
                Box::new(add(cur(), Snippet::Const(16 * len as i64))),
            ),
        ]);
        Snippet::bind(CURSOR, Snippet::ReadVar(self.cursor), body)
    }

    /// Plan tracing on a static [`BinaryEditor`] (rewrite path).
    pub fn plan_editor(ed: &mut BinaryEditor, opts: &TraceOptions) -> Result<MemTracer, Error> {
        Self::plan(ed, opts)
    }

    /// Plan tracing fleet-wide: one plan, every process gets its own
    /// ring copy at the same addresses.
    pub fn plan_fleet(fc: &mut FleetController, opts: &TraceOptions) -> Result<MemTracer, Error> {
        Self::plan(fc.session_mut(), opts)
    }

    /// Number of instrumented load/store sites.
    pub fn sites(&self) -> usize {
        self.sites.len()
    }

    /// The original pcs of the instrumented sites, in address order.
    pub fn pcs(&self) -> Vec<u64> {
        self.sites.iter().map(|s| s.pc).collect()
    }

    /// The original pcs of each run's sites, in address order: the
    /// accesses that share one cursor update.
    pub fn runs(&self) -> Vec<Vec<u64>> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < self.sites.len() {
            let n = self.sites[i].run as usize;
            if n > 1 {
                runs.push(self.sites[i..i + n].iter().map(|s| s.pc).collect());
            }
            i += n;
        }
        runs
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> u64 {
        self.cap_bytes / 16
    }

    /// Decode the ring through an arbitrary u64-at-address view, mapping
    /// each record's site index through the site table. An index outside
    /// the table is [`Error::TraceCorrupt`] at that word's ring offset.
    /// A run cut short ends the trace where its records stop, if it is
    /// the run the cursor was last moved past (its accesses after the
    /// cut never ran); anywhere else it is [`Error::TraceCorrupt`].
    fn drain_with(&self, read_u64: &mut dyn FnMut(u64) -> Option<u64>) -> Result<Drained, Error> {
        let unreadable = |addr: u64| Error::Proc {
            source: rvdyn_proccontrol::ProcError::BadAddress(addr),
            pc: None,
        };
        let mut read = |addr: u64| read_u64(addr).ok_or_else(|| unreadable(addr));
        let cursor = read(self.cursor.addr)?;
        let used = cursor.min(self.cap_bytes);
        let mut dropped = (cursor - used) / 16;
        let mut records = Vec::with_capacity((used / 16) as usize);
        // The end of the open run's slots, and the site index its next
        // slot holds.
        let (mut run_end, mut expect) = (0u64, 0u64);
        let mut off = 0u64;
        while off < used {
            let index = read(self.base + off + 8)?;
            if off < run_end && index != expect {
                if run_end != cursor {
                    return Err(Error::TraceCorrupt {
                        offset: off + 8,
                        reason: format!("run slot names site {index} where site {expect} ran"),
                    });
                }
                dropped = 0;
                break;
            }
            let site = usize::try_from(index)
                .ok()
                .and_then(|i| self.sites.get(i))
                .ok_or_else(|| Error::TraceCorrupt {
                    offset: off + 8,
                    reason: format!(
                        "ring record names site {index}, but {} sites were planned",
                        self.sites.len()
                    ),
                })?;
            if off >= run_end {
                run_end = off + 16 * site.run as u64;
                expect = index;
            }
            expect += 1;
            records.push(TraceRecord {
                pc: site.pc,
                addr: read(self.base + off)?,
                len: site.len,
                is_store: site.is_store,
            });
            off += 16;
        }
        Ok(Drained { records, dropped })
    }

    fn fold(session: &mut Session, d: &Drained) {
        session.diag_mut().trace_records += d.records.len() as u64;
        session.diag_mut().trace_dropped += d.dropped;
        session.emit(TelemetryEvent::TraceDrained {
            records: d.records.len() as u64,
            dropped: d.dropped,
        });
    }

    /// Drain a finished static run's memory image.
    pub fn drain_output(&self, ed: &mut BinaryEditor, out: &RunOutput) -> Result<Drained, Error> {
        let d = self.drain_with(&mut |a| out.read_u64(a))?;
        Self::fold(ed, &d);
        Ok(d)
    }

    /// Drain one fleet member's ring; the per-process diagnostics (and
    /// the controller totals) absorb the counts. Fault isolation holds:
    /// a failed or lost process yields its typed error here without
    /// touching any other pid's ring.
    pub fn drain_fleet(&self, fc: &mut FleetController, pid: u32) -> Result<Drained, Error> {
        let d = fc.with_process(pid, |p| self.drain_with(&mut |a| p.read_u64(a)))??;
        if let Some(diag) = fc.process_diag_mut(pid) {
            diag.trace_records += d.records.len() as u64;
            diag.trace_dropped += d.dropped;
        }
        Self::fold(fc.session_mut(), &d);
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_codegen::emitter::generate;
    use rvdyn_codegen::regalloc::RegAllocMode;
    use rvdyn_isa::semantics::{eval_int, EvalOutcome, FlatMemory, IntState, MemoryBus};
    use rvdyn_isa::{IsaProfile, RegSet};

    /// The default ring at the default data area, its cursor behind it.
    fn tracer() -> MemTracer {
        let cap_bytes = TraceOptions::default().capacity * 16;
        MemTracer {
            sites: Vec::new(),
            cursor: Var {
                addr: 0xC_0000 + cap_bytes,
                size: 8,
            },
            base: 0xC_0000,
            cap_bytes,
        }
    }

    /// Run `snippet` for an access of `24(a0)` with every other register
    /// dead, `t`'s cursor at `cursor` and `a6` at `a6`: the instructions
    /// it retires, the memory it leaves (the ring, its slack and the
    /// cursor) and the final `a6`.
    fn run_snippet(
        t: &MemTracer,
        snippet: &Snippet,
        cursor: u64,
        a6: u64,
    ) -> (usize, FlatMemory, u64) {
        let mut dead = RegSet::ALL_GPR;
        dead.remove(Reg::x(10));
        let (code, spills) = generate(
            snippet,
            dead,
            RegAllocMode::DeadRegisters,
            IsaProfile::rv64gc(),
        )
        .unwrap();
        assert_eq!(spills, 0);
        let mut st = IntState::new(0);
        st.set(Reg::x(10), 0x1000);
        st.set(Reg::x(16), a6);
        let mut mem = FlatMemory::new(t.base, (t.cursor.addr + 8 - t.base) as usize);
        mem.store(t.cursor.addr, 8, cursor);
        let (mut ip, mut retired) = (0usize, 0);
        while ip < code.len() {
            let mut inst = code[ip];
            inst.address = 4 * ip as u64;
            st.pc = inst.address;
            retired += 1;
            ip = match eval_int(&inst, &mut st, &mut mem) {
                EvalOutcome::Next => ip + 1,
                EvalOutcome::Jump(to) => (to / 4) as usize,
                other => panic!("unexpected {other:?}"),
            };
        }
        (retired, mem, st.get(Reg::x(16)))
    }

    /// Run site 5's record for an access of `24(a0)` with every other
    /// register dead, the cursor at `cursor`: the instructions it retires
    /// and the memory it leaves.
    fn run_record(cursor: u64) -> (usize, FlatMemory) {
        let t = tracer();
        let (retired, mem, _) = run_snippet(&t, &t.record(5, Reg::x(10), 24), cursor, 0);
        (retired, mem)
    }

    #[test]
    fn a_run_costs_14_instructions_for_its_first_access_and_4_for_each_later_one() {
        // The default ring with slack for a run of three, the cursor past it.
        let mut t = tracer();
        t.cursor.addr += 48;
        let a6 = Reg::x(16);
        let head = t.run_head(5, Reg::x(10), 24, a6, 3);
        let (retired, mut mem, slot) = run_snippet(&t, &head, 0x30, 0);
        assert_eq!(retired, 14);
        assert_eq!(slot, t.base + 0x30);
        assert_eq!((mem.load(slot, 8), mem.load(slot + 8, 8)), (0x1018, 5));
        assert_eq!(mem.load(t.cursor.addr, 8), 0x30 + 48);

        // On a full ring the run writes into the slack and still counts.
        let full = t.cap_bytes + 32;
        let (retired, mut mem, slot) = run_snippet(&t, &head, full, 0);
        assert_eq!(retired, 16);
        assert_eq!(slot, t.base + t.cap_bytes);
        assert_eq!(mem.load(slot + 8, 8), 5);
        assert_eq!(mem.load(t.cursor.addr, 8), full + 48);
        assert!(mem.bytes[..t.cap_bytes as usize].iter().all(|&b| b == 0));

        // A later access stores its two words off the slot register.
        let slot = t.base + 0x30;
        for (imm, cost) in [(24, 4), (0, 3)] {
            let member = record_stores(Snippet::ReadReg(a6), 32, 7, Reg::x(10), imm);
            let (retired, mut mem, _) = run_snippet(&t, &member, 0x60, slot);
            assert_eq!(retired, cost);
            assert_eq!(mem.load(slot + 32, 8), 0x1000 + imm as u64);
            assert_eq!(mem.load(slot + 40, 8), 7);
            assert_eq!(mem.load(t.cursor.addr, 8), 0x60);
        }
    }

    #[test]
    fn site_index_outside_the_table_is_trace_corrupt() {
        let mut t = tracer();
        t.sites.push(TraceSite {
            pc: 0x1_0400,
            len: 4,
            is_store: true,
            run: 1,
        });
        // Two records in a one-site table: site 0, then `second`.
        let drain = |t: &MemTracer, second: u64| {
            let words = [
                (t.cursor.addr, 32),
                (t.base, 0x2000),
                (t.base + 8, 0),
                (t.base + 16, 0x2008),
                (t.base + 24, second),
            ];
            t.drain_with(&mut |a| words.iter().find(|w| w.0 == a).map(|w| w.1))
        };
        let d = drain(&t, 0).unwrap();
        let site = |addr| TraceRecord {
            pc: 0x1_0400,
            addr,
            len: 4,
            is_store: true,
        };
        assert_eq!(d.records, [site(0x2000), site(0x2008)]);
        for bad in [1, u64::MAX] {
            match drain(&t, bad) {
                Err(Error::TraceCorrupt { offset: 24, .. }) => {}
                other => panic!("site {bad}: expected TraceCorrupt at 24, got {other:?}"),
            }
        }
    }

    /// One function at 0x1000 assembled by `build`, with its liveness.
    fn parse_one(build: impl FnOnce(&mut rvdyn_asm::Assembler)) -> (Function, Liveness) {
        let mut a = rvdyn_asm::Assembler::new(0x1000);
        build(&mut a);
        let src = rvdyn_parse::source::RawCode {
            base: 0x1000,
            bytes: a.finish().unwrap(),
            entries: vec![0x1000],
        };
        let co = rvdyn_parse::CodeObject::parse(&src, &rvdyn_parse::ParseOptions::default());
        let f = co.functions[&0x1000].clone();
        let lv = Liveness::analyze(&f);
        (f, lv)
    }

    /// The runs of `f`'s entry block as `(access offsets, batched)`.
    fn entry_runs(f: &Function, lv: &Liveness, guard: u64) -> Vec<(Vec<u64>, bool)> {
        let b = f.blocks.at(0x1000);
        block_runs(f, Some(lv), b.insts, 0x1000 + guard, &mut RegSet::empty())
            .into_iter()
            .map(|(run, reg)| {
                let offs = run.iter().map(|a| a.0.address - 0x1000).collect();
                (offs, reg.is_some())
            })
            .collect()
    }

    #[test]
    fn runs_split_at_a_guard_an_ecall_and_a_lack_of_registers() {
        let (sp, a0, a1, t0) = (Reg::X2, Reg::x(10), Reg::x(11), Reg::x(5));
        let (f, lv) = parse_one(|a| {
            a.sd(a0, sp, 0);
            a.sd(a1, sp, 8);
            a.ld(t0, sp, 0);
            a.ecall();
            a.ld(t0, sp, 8);
            a.ld(a1, sp, 16);
            a.ret();
        });
        // A redirect may enter the first 8 bytes: the access at 4 cannot
        // follow the one at 0, but it can start a run.
        let runs = entry_runs(&f, &lv, 8);
        assert_eq!(
            runs,
            [(vec![0], false), (vec![4, 8], true), (vec![16, 20], true)]
        );
        assert_eq!(entry_runs(&f, &lv, 0)[0], (vec![0, 4, 8], true));

        // Every scratch candidate is read before the run ends: no run.
        let (f, lv) = parse_one(|a| {
            a.sd(a0, sp, 0);
            for &n in &CANDIDATES {
                a.addi(Reg::x(n), Reg::x(n), 1);
            }
            a.ld(t0, sp, 0);
            a.ret();
        });
        assert!(entry_runs(&f, &lv, 0).iter().all(|(_, batched)| !batched));
    }

    /// A ring of `cap` records with a run of three sites, then a single
    /// one, drained from `words` (ring offset → value; the cursor at -8).
    fn drain_words(cap: u64, words: &[(u64, u64)]) -> Result<Drained, Error> {
        let mut t = tracer();
        t.cap_bytes = cap * 16;
        t.cursor.addr = t.base - 8;
        for (i, run) in [3, 1, 1, 1].into_iter().enumerate() {
            t.sites.push(TraceSite {
                pc: 0x1_0000 + 4 * i as u64,
                len: 8,
                is_store: false,
                run,
            });
        }
        let base = t.base;
        t.drain_with(&mut |a| {
            let off = a.wrapping_sub(base) as i64;
            Some(words.iter().find(|w| w.0 as i64 == off).map_or(0, |w| w.1))
        })
    }

    #[test]
    fn a_cut_short_run_ends_the_trace_and_a_torn_one_is_corrupt() {
        const CUR: u64 = u64::MAX - 7; // offset -8
        let rec = |slot: u64, site: u64| [(slot * 16, 0x2000 + slot), (slot * 16 + 8, site)];
        let full: Vec<(u64, u64)> = [rec(0, 0), rec(1, 1), rec(2, 2), rec(3, 3)].concat();
        let with_cursor = |cursor: u64, words: &[(u64, u64)]| {
            let mut w = words.to_vec();
            w.push((CUR, cursor));
            w
        };
        let count = |d: Drained| (d.records.len(), d.dropped);
        assert_eq!(
            count(drain_words(8, &with_cursor(64, &full)).unwrap()),
            (4, 0)
        );
        // The run moved the cursor past three slots, but only two ran.
        let cut = [rec(0, 0), rec(1, 1)].concat();
        assert_eq!(
            count(drain_words(8, &with_cursor(48, &cut)).unwrap()),
            (2, 0)
        );
        // A capacity of two: the run's third record went to the slack,
        // and counts as dropped only when it ran.
        assert_eq!(
            count(drain_words(2, &with_cursor(48, &full)).unwrap()),
            (2, 1)
        );
        assert_eq!(
            count(drain_words(2, &with_cursor(48, &rec(0, 0))).unwrap()),
            (1, 0)
        );
        // A gap in a run the cursor has since left behind is corruption.
        let torn = [rec(0, 0), rec(1, 1), rec(3, 3)].concat();
        match drain_words(8, &with_cursor(64, &torn)) {
            Err(Error::TraceCorrupt { offset: 40, .. }) => {}
            other => panic!("expected TraceCorrupt at 40, got {other:?}"),
        }
    }

    #[test]
    fn a_record_is_13_instructions_with_room_and_7_when_full() {
        let (retired, mut mem) = run_record(0x30);
        assert_eq!(retired, 13);
        let base = tracer().base;
        assert_eq!(mem.load(base + 0x30, 8), 0x1018);
        assert_eq!(mem.load(base + 0x38, 8), 5);
        assert_eq!(mem.load(tracer().cursor.addr, 8), 0x40);

        let full = tracer().cap_bytes;
        let (retired, mut mem) = run_record(full);
        assert_eq!(retired, 7);
        assert_eq!(mem.load(tracer().cursor.addr, 8), full + 16);
        assert!(mem.bytes[..full as usize].iter().all(|&b| b == 0));
    }
}
