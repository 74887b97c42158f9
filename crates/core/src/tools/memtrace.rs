//! The memory-access tracer: §2's "memory access tracing tool" built on
//! the public instrumentation pipeline.
//!
//! [`MemTracer`]'s planners scan the shared [`Analysis`](crate::Analysis)'s
//! CFG for plain integer and floating-point loads/stores, and queues a
//! compact record-emitting snippet before each one. The snippet appends
//! a 16-byte `[effective address][site index]` record into a ring buffer
//! staked out in the patch data area
//! ([`Session::alloc_region`](crate::Session::alloc_region)). The ring's
//! cursor counts every access; the record is stored only while the
//! cursor is below capacity, so the ring never wraps, a drained trace is
//! always a faithful *prefix* of the access stream, and the drain
//! computes the dropped count from the cursor. The site index names an
//! entry of the tracer's site table, which holds the **original** pc,
//! width and direction, so traces read identically whether the site
//! executed in place or from its relocated copy in the patch area.
//!
//! The snippet loads the cursor once into a snippet-local register
//! ([`Snippet::Let`]) and the ring starts on a 4 KiB boundary, so at a
//! point that needs no spill, under the default layout, a record is 13
//! instructions while the ring has room (`lui; ld` the cursor, `lui;
//! bge` the capacity, `lui; add` the slot, two `sd`s with their values,
//! `addi; lui; sd` the cursor; one more for a site index past 2047) and
//! 7 once it is full.
//!
//! The tracer deliberately matches the emulator's memory-op oracle
//! ([`rvdyn_emu::Machine::arm_mem_oracle`]) instruction-for-instruction:
//! plain `Lb`…`Lwu`/`Sb`…`Sd` plus `Flw`/`Fld`/`Fsw`/`Fsd`, no atomics,
//! no syscall traffic. `tests/tools_memtrace.rs` holds the two sides
//! record-identical over randomized programs on both execution engines.
//!
//! After the run, `drain_*` recovers the ring through the matching
//! host's memory view and hands back decoded [`TraceRecord`]s ready for
//! [`TraceSink`](super::TraceSink) serialization.

use super::trace::TraceRecord;
use crate::dynamic::{DynamicInstrumenter, PID};
use crate::editor::{BinaryEditor, RunOutput};
use crate::error::Error;
use crate::fleet::FleetController;
use crate::session::Session;
use crate::telemetry::TelemetryEvent;
use rvdyn_codegen::snippet::{BinaryOp, Snippet, Var};
use rvdyn_isa::{Instruction, Op, Reg};
use rvdyn_patch::{Point, PointKind};

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

fn add(a: Snippet, b: Snippet) -> Snippet {
    Snippet::Bin(BinaryOp::Add, Box::new(a), Box::new(b))
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

        // The ring first, on a 4 KiB boundary, then the cursor.
        let cap_bytes = opts.capacity.max(1) * 16;
        let next = session.layout().patch_data + session.var_bytes();
        session.alloc_region(next.wrapping_neg() % RING_ALIGN);
        let base = session.alloc_region(cap_bytes);
        let mut tracer = MemTracer {
            sites: Vec::new(),
            cursor: session.alloc_var(8),
            base,
            cap_bytes,
        };

        // Collect the sites: every plain load/store in every selected
        // function, in address order (BTreeMap iteration order).
        let mut plan: Vec<(Point, Snippet)> = Vec::new();
        let code = session.code();
        for entry in &entries {
            let f = &code.functions[entry];
            for inst in f.blocks.values().flat_map(|b| &b.insts) {
                let Some((len, is_store)) = mem_ref(inst) else {
                    continue;
                };
                let Some(rs1) = inst.rs1 else {
                    continue;
                };
                let point = Point {
                    func: f.entry,
                    addr: inst.address,
                    kind: PointKind::InstBefore(inst.address),
                };
                plan.push((point, tracer.record(tracer.sites.len(), rs1, inst.imm)));
                tracer.sites.push(TraceSite {
                    pc: inst.address,
                    len,
                    is_store,
                });
            }
        }
        for (point, snippet) in plan {
            session.insert(std::slice::from_ref(&point), snippet);
        }

        session.diag_mut().trace_points_planned = tracer.sites.len() as u64;
        session.emit(TelemetryEvent::TraceStarted {
            points: tracer.sites.len(),
            capacity: opts.capacity.max(1),
        });
        Ok(tracer)
    }

    /// The record snippet of site `index`, an access of `rs1 + imm`:
    /// bind the cursor; while the ring has room, store the effective
    /// address and `index` in the cursor's slot; count the access either
    /// way.
    fn record(&self, index: usize, rs1: Reg, imm: i64) -> Snippet {
        let cur = || Snippet::Local(CURSOR);
        // The pre-instrumentation register value the trampoline
        // preserves, stored in place when the offset is 0.
        let ea = match imm {
            0 => Snippet::ReadReg(rs1),
            _ => add(Snippet::ReadReg(rs1), Snippet::Const(imm)),
        };
        let store = |off: i64, val: Snippet| Snippet::WriteMem {
            addr: Box::new(add(Snippet::Local(SLOT), Snippet::Const(off))),
            val: Box::new(val),
            size: 8,
        };
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
                    Snippet::Seq(vec![store(0, ea), store(8, Snippet::Const(index as i64))]),
                )),
                else_: None,
            },
            Snippet::WriteVar(self.cursor, Box::new(add(cur(), Snippet::Const(16)))),
        ]);
        Snippet::bind(CURSOR, Snippet::ReadVar(self.cursor), body)
    }

    /// Plan tracing on a static [`BinaryEditor`] (rewrite path).
    pub fn plan_editor(ed: &mut BinaryEditor, opts: &TraceOptions) -> Result<MemTracer, Error> {
        Self::plan(ed.session_mut(), opts)
    }

    /// Plan tracing on a live [`DynamicInstrumenter`] process (a fleet
    /// of one: [`MemTracer::plan_fleet`]).
    pub fn plan_dynamic(
        dy: &mut DynamicInstrumenter,
        opts: &TraceOptions,
    ) -> Result<MemTracer, Error> {
        Self::plan_fleet(dy.fleet_mut(), opts)
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

    /// Ring capacity in records.
    pub fn capacity(&self) -> u64 {
        self.cap_bytes / 16
    }

    /// Decode the ring through an arbitrary u64-at-address view, mapping
    /// each record's site index through the site table. An index outside
    /// the table is [`Error::TraceCorrupt`] at that word's ring offset.
    fn drain_with(&self, read_u64: &mut dyn FnMut(u64) -> Option<u64>) -> Result<Drained, Error> {
        let unreadable = |addr: u64| Error::Proc {
            source: rvdyn_proccontrol::ProcError::BadAddress(addr),
            pc: None,
        };
        let cursor = read_u64(self.cursor.addr).ok_or_else(|| unreadable(self.cursor.addr))?;
        let used = cursor.min(self.cap_bytes);
        let dropped = (cursor - used) / 16;
        let mut records = Vec::with_capacity((used / 16) as usize);
        let mut off = 0u64;
        while off < used {
            let addr = read_u64(self.base + off).ok_or_else(|| unreadable(self.base + off))?;
            let index =
                read_u64(self.base + off + 8).ok_or_else(|| unreadable(self.base + off + 8))?;
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
            records.push(TraceRecord {
                pc: site.pc,
                addr,
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
        Self::fold(ed.session_mut(), &d);
        Ok(d)
    }

    /// Drain the live (or exited-but-attached) dynamic process
    /// ([`MemTracer::drain_fleet`] on its one pid).
    pub fn drain_dynamic(&self, dy: &mut DynamicInstrumenter) -> Result<Drained, Error> {
        self.drain_fleet(dy.fleet_mut(), PID)
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

    /// Run site 5's record for an access of `24(a0)` with every other
    /// register dead, the cursor at `cursor`: the instructions it retires
    /// and the memory it leaves.
    fn run_record(cursor: u64) -> (usize, FlatMemory) {
        let t = tracer();
        let mut dead = RegSet::ALL_GPR;
        dead.remove(Reg::x(10));
        let (code, spills) = generate(
            &t.record(5, Reg::x(10), 24),
            dead,
            RegAllocMode::DeadRegisters,
            IsaProfile::rv64gc(),
        )
        .unwrap();
        assert_eq!(spills, 0);
        let mut st = IntState::new(0);
        st.set(Reg::x(10), 0x1000);
        let mut mem = FlatMemory::new(t.base, (t.cap_bytes + 8) as usize);
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
        (retired, mem)
    }

    #[test]
    fn site_index_outside_the_table_is_trace_corrupt() {
        let mut t = tracer();
        t.sites.push(TraceSite {
            pc: 0x1_0400,
            len: 4,
            is_store: true,
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
