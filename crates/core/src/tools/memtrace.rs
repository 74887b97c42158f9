//! The memory-access tracer: §2's "memory access tracing tool" built on
//! the public instrumentation pipeline.
//!
//! [`MemTracer`]'s planners scan the shared [`Analysis`](crate::Analysis)'s
//! CFG for plain integer and floating-point loads/stores, and queues a
//! compact record-emitting snippet before each one. The snippet appends
//! a 16-byte `[effective address][pc | width | direction]` record into a
//! ring buffer staked out in the patch data area
//! ([`Session::alloc_region`](crate::Session::alloc_region)). The ring's
//! cursor counts every access; the record is stored only while the
//! cursor is below capacity, so the ring never wraps, a drained trace is
//! always a faithful *prefix* of the access stream, and the drain
//! computes the dropped count from the cursor. Records bake the
//! **original** pc, so traces read identically whether the site executed
//! in place or from its relocated copy in the patch area.
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
use rvdyn_isa::{Instruction, Op};
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

/// One instrumented load/store site.
#[derive(Debug, Clone, Copy)]
struct TraceSite {
    pc: u64,
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

fn meta_word(pc: u64, len: u8, is_store: bool) -> i64 {
    debug_assert!(pc < (1 << 48), "text addresses fit 48 bits");
    (pc | ((len as u64) << 48) | ((is_store as u64) << 56)) as i64
}

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

        let cursor = session.alloc_var(8);
        let cap_bytes = opts.capacity.max(1) * 16;
        let base = session.alloc_region(cap_bytes);

        // Collect the sites: every plain load/store in every selected
        // function, in address order (BTreeMap iteration order).
        let mut plan: Vec<(Point, Snippet, u64)> = Vec::new();
        {
            let code = session.code();
            for entry in &entries {
                let f = &code.functions[entry];
                for b in f.blocks.values() {
                    for inst in &b.insts {
                        let Some((len, is_store)) = mem_ref(inst) else {
                            continue;
                        };
                        let (Some(rs1), imm) = (inst.rs1, inst.imm) else {
                            continue;
                        };
                        // Effective address of the access, computed from
                        // the pre-instrumentation register value the
                        // trampoline preserves.
                        let ea = add(Snippet::ReadReg(rs1), Snippet::Const(imm));
                        // Store the record while the cursor is below
                        // capacity; count the access either way.
                        let record = |off: i64, val: Snippet| Snippet::WriteMem {
                            addr: Box::new(add(
                                Snippet::Const(base as i64 + off),
                                Snippet::ReadVar(cursor),
                            )),
                            val: Box::new(val),
                            size: 8,
                        };
                        let meta = meta_word(inst.address, len, is_store);
                        let snippet = Snippet::Seq(vec![
                            Snippet::If {
                                cond: Box::new(Snippet::Bin(
                                    BinaryOp::LtS,
                                    Box::new(Snippet::ReadVar(cursor)),
                                    Box::new(Snippet::Const(cap_bytes as i64)),
                                )),
                                then_: Box::new(Snippet::Seq(vec![
                                    record(0, ea),
                                    record(8, Snippet::Const(meta)),
                                ])),
                                else_: None,
                            },
                            Snippet::WriteVar(
                                cursor,
                                Box::new(add(Snippet::ReadVar(cursor), Snippet::Const(16))),
                            ),
                        ]);
                        let point = Point {
                            func: f.entry,
                            addr: inst.address,
                            kind: PointKind::InstBefore(inst.address),
                        };
                        plan.push((point, snippet, inst.address));
                    }
                }
            }
        }

        let mut sites = Vec::with_capacity(plan.len());
        for (point, snippet, pc) in plan {
            session.insert(std::slice::from_ref(&point), snippet);
            sites.push(TraceSite { pc });
        }

        session.diag_mut().trace_points_planned = sites.len() as u64;
        session.emit(TelemetryEvent::TraceStarted {
            points: sites.len(),
            capacity: opts.capacity.max(1),
        });
        Ok(MemTracer {
            sites,
            cursor,
            base,
            cap_bytes,
        })
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

    /// Decode the ring through an arbitrary u64-at-address view.
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
            let meta =
                read_u64(self.base + off + 8).ok_or_else(|| unreadable(self.base + off + 8))?;
            records.push(TraceRecord {
                pc: meta & 0xFFFF_FFFF_FFFF,
                addr,
                len: ((meta >> 48) & 0xFF) as u8,
                is_store: (meta >> 56) & 1 != 0,
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
