//! Deterministic fault injection for the debug interface.
//!
//! A [`FaultPlan`] arms *one-shot, Nth-call* faults on the operations a
//! real debugger performs over `ptrace`: memory writes, stop-event
//! delivery, and (via the machine's trap-redirect resolver) springboard
//! redirection. The plan lives on the controller side — the mutatee's
//! code is never given a test-only path; instead the *debug interface
//! itself* misbehaves, exactly the way a flaky `ptrace` transport, a
//! short `PTRACE_POKEDATA` loop, or a lost `SIGTRAP` would in the field.
//!
//! This makes the library's failure contract testable end to end: a
//! corrupted or short write surfaces as `PatchVerifyFailed` from commit
//! read-back verification, a dropped redirect resolution surfaces as
//! `RedirectMiss`, and a delayed stop event exercises the controller's
//! recovery around spurious wakeups. See `docs/FAILURE-MODES.md`.

/// How an armed write fault mangles the Nth `write_mem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFaultMode {
    /// Flip every bit of one byte of the write (at `offset`, clamped to
    /// the write's last byte). Models a corrupted transport word.
    CorruptByte {
        /// Byte offset within the write to corrupt.
        offset: usize,
    },
    /// Deliver only the first `len` bytes. Models a short-write loop
    /// that stopped early.
    ShortWrite {
        /// Number of leading bytes actually delivered.
        len: usize,
    },
    /// Deliver nothing at all.
    DropWrite,
}

/// A one-shot fault on the Nth (0-based) controller-initiated memory
/// write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteFault {
    /// Which `write_mem` call (0-based) the fault fires on.
    pub nth: u64,
    /// What the fault does to that write.
    pub mode: WriteFaultMode,
}

/// A deterministic schedule of debug-interface faults.
///
/// Construct with [`FaultPlan::new`] and the builder methods, then hand
/// to `Process::set_fault_plan` (on a fleet member, the facade's
/// `FleetController::set_fault_plan`). Each armed fault fires exactly once, at the Nth matching
/// operation, and is then disarmed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub(crate) write: Option<WriteFault>,
    pub(crate) delay_stop_nth: Option<u64>,
    pub(crate) drop_redirect_nth: Option<u64>,
}

impl FaultPlan {
    /// An empty plan: no faults armed.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Corrupt one byte (bitwise NOT at `offset`) of the `nth` (0-based)
    /// `write_mem` call.
    pub fn corrupt_write(mut self, nth: u64, offset: usize) -> FaultPlan {
        self.write = Some(WriteFault {
            nth,
            mode: WriteFaultMode::CorruptByte { offset },
        });
        self
    }

    /// Truncate the `nth` (0-based) `write_mem` call to its first `len`
    /// bytes.
    pub fn short_write(mut self, nth: u64, len: usize) -> FaultPlan {
        self.write = Some(WriteFault {
            nth,
            mode: WriteFaultMode::ShortWrite { len },
        });
        self
    }

    /// Drop the `nth` (0-based) `write_mem` call entirely.
    pub fn drop_write(mut self, nth: u64) -> FaultPlan {
        self.write = Some(WriteFault {
            nth,
            mode: WriteFaultMode::DropWrite,
        });
        self
    }

    /// Delay the `nth` (0-based) breakpoint/trap stop event: the
    /// controller observes a spurious `Event::Stepped` first and receives
    /// the real event on its next `cont`. Models a lost-then-requeued
    /// `SIGTRAP`.
    pub fn delay_stop(mut self, nth: u64) -> FaultPlan {
        self.delay_stop_nth = Some(nth);
        self
    }

    /// Drop the `nth` (0-based) trap-redirect resolution in the machine,
    /// so the `ebreak` surfaces as if its trap-table entry were missing
    /// (the `RedirectMiss` path).
    pub fn drop_redirect(mut self, nth: u64) -> FaultPlan {
        self.drop_redirect_nth = Some(nth);
        self
    }
}
