//! The machine-independent snippet AST (§2, "Instrumentation Toolkits").
//!
//! A snippet is an abstract syntax tree describing code to insert at an
//! instrumentation point. The AST is completely architecture independent —
//! tools written against it port to a new ISA for free, which is the whole
//! point of Dyninst's design. [`crate::Emitter`] lowers it to RV64
//! instructions.
//!
//! [`Snippet::Let`] evaluates a value once into a snippet-local scratch
//! register, and [`Snippet::Local`] reads it anywhere in the binding's
//! body: a snippet that reads one variable four times loads it once. The
//! emitter never hands a bound register out for another value and never
//! frees it before its body ends; a spill frame or a call preserves it
//! like any other scratch register in use.

use rvdyn_isa::{Reg, RegSet};

/// An instrumentation variable: a slot in the patch area's data region.
///
/// Variables are allocated by PatchAPI (`allocate_var`) and addressed
/// absolutely by generated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var {
    /// Absolute address of the slot in the mutatee's address space.
    pub addr: u64,
    /// Width in bytes (1, 2, 4 or 8).
    pub size: u8,
}

/// Binary operators available to snippets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    LtS,
    LeS,
    GtS,
    GeS,
}

/// Unary operators available to snippets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// The snippet AST. Expression nodes produce a value; statement nodes do
/// not. [`Snippet::Seq`] sequences statements; an expression used as a
/// statement is evaluated for effect.
#[derive(Debug, Clone, PartialEq)]
pub enum Snippet {
    /// 64-bit constant.
    Const(i64),
    /// Read a mutatee register (the pre-instrumentation value, which the
    /// trampoline preserves).
    ReadReg(Reg),
    /// Write a mutatee register. **Use with care** — this changes mutatee
    /// state, which is legitimate for some tools (fault injection). A
    /// passive tool may write only a register that liveness proves dead
    /// at the point and that the original code does not touch until the
    /// tool's own later snippets have read it back: the memory tracer
    /// keeps a block's record slot pointer that way. The plan phase never
    /// takes a register that any snippet of a function writes as scratch
    /// at any point of that function, so no other snippet clobbers it.
    WriteReg(Reg, Box<Snippet>),
    /// Read an instrumentation variable.
    ReadVar(Var),
    /// Write an instrumentation variable.
    WriteVar(Var, Box<Snippet>),
    /// `*(addr)` — load from a computed address.
    ReadMem { addr: Box<Snippet>, size: u8 },
    /// `*(addr) = val` — store to a computed address.
    WriteMem {
        addr: Box<Snippet>,
        val: Box<Snippet>,
        size: u8,
    },
    /// Binary operation.
    Bin(BinaryOp, Box<Snippet>, Box<Snippet>),
    /// Unary operation.
    Un(UnaryOp, Box<Snippet>),
    /// Conditional: if `cond != 0` run `then_`, else `else_`.
    If {
        cond: Box<Snippet>,
        then_: Box<Snippet>,
        else_: Option<Box<Snippet>>,
    },
    /// Statement sequence.
    Seq(Vec<Snippet>),
    /// `var += 1` — the canonical counter snippet used by the paper's
    /// benchmarks ("this instrumentation simply increments a counter in
    /// memory", §4.1).
    IncrementVar(Var),
    /// Call a mutatee (or instrumentation-library) function by absolute
    /// address with up to 8 integer arguments.
    Call { target: u64, args: Vec<Snippet> },
    /// Evaluate `value` once, then run `body` with [`Snippet::Local`]`(id)`
    /// reading that value. The node's own value is the body's. A `Let`
    /// of an `id` already bound shadows the outer binding in its body.
    Let {
        id: u32,
        value: Box<Snippet>,
        body: Box<Snippet>,
    },
    /// The value bound to `id` by the innermost enclosing
    /// [`Snippet::Let`]; lowering one outside any such binding fails.
    Local(u32),
    /// No-op.
    Nop,
}

impl Snippet {
    /// `var += 1`.
    pub fn increment(var: Var) -> Snippet {
        Snippet::IncrementVar(var)
    }

    /// The `i`-th integer argument of the function containing the point
    /// (Dyninst's `BPatch_paramExpr`): valid at function-entry points,
    /// where the psABI guarantees arguments in `a0`–`a7`. Panics if
    /// `i >= 8` (stack-passed arguments are not modelled).
    pub fn param(i: u8) -> Snippet {
        assert!(i < 8, "only register arguments a0-a7 are addressable");
        Snippet::ReadReg(Reg::x(10 + i))
    }

    /// The function's integer return value (`a0`) — valid at exit points.
    pub fn return_value() -> Snippet {
        Snippet::ReadReg(Reg::x(10))
    }

    /// Convenience: `a op b`.
    pub fn bin(op: BinaryOp, a: Snippet, b: Snippet) -> Snippet {
        Snippet::Bin(op, Box::new(a), Box::new(b))
    }

    /// Convenience: `let id = value in body`.
    pub fn bind(id: u32, value: Snippet, body: Snippet) -> Snippet {
        Snippet::Let {
            id,
            value: Box::new(value),
            body: Box::new(body),
        }
    }

    /// Number of scratch registers needed to evaluate this snippet
    /// (Sethi–Ullman-style bound; the emitter requests this many from the
    /// register allocator up front).
    pub fn scratch_needs(&self) -> u32 {
        match self {
            Snippet::Const(_) | Snippet::ReadReg(_) | Snippet::Local(_) | Snippet::Nop => 1,
            Snippet::ReadVar(_) => 2,
            Snippet::WriteVar(_, v) => v.scratch_needs().max(1) + 1,
            Snippet::WriteReg(_, v) => v.scratch_needs(),
            Snippet::ReadMem { addr, .. } => addr.scratch_needs(),
            Snippet::WriteMem { addr, val, .. } => {
                (addr.scratch_needs() + 1).max(val.scratch_needs() + 1)
            }
            Snippet::Bin(_, a, b) => {
                let (x, y) = (a.scratch_needs(), b.scratch_needs());
                if x == y {
                    x + 1
                } else {
                    x.max(y)
                }
            }
            Snippet::Un(_, a) => a.scratch_needs(),
            Snippet::If { cond, then_, else_ } => cond
                .scratch_needs()
                .max(then_.scratch_needs())
                .max(else_.as_ref().map_or(0, |e| e.scratch_needs())),
            Snippet::Seq(v) => v.iter().map(|s| s.scratch_needs()).max().unwrap_or(1),
            Snippet::IncrementVar(_) => 2,
            Snippet::Call { args, .. } => {
                args.iter().map(|s| s.scratch_needs()).max().unwrap_or(0) + 1
            }
            // The bound register is held while the body runs.
            Snippet::Let { value, body, .. } => value.scratch_needs().max(body.scratch_needs() + 1),
        }
    }

    /// Does the snippet contain a function call? (Patch-time decision: the
    /// trampoline must then preserve the full caller-saved set.)
    pub fn contains_call(&self) -> bool {
        match self {
            Snippet::Call { .. } => true,
            Snippet::WriteReg(_, v) | Snippet::WriteVar(_, v) | Snippet::Un(_, v) => {
                v.contains_call()
            }
            Snippet::ReadMem { addr, .. } => addr.contains_call(),
            Snippet::WriteMem { addr, val, .. } => addr.contains_call() || val.contains_call(),
            Snippet::Bin(_, a, b)
            | Snippet::Let {
                value: a, body: b, ..
            } => a.contains_call() || b.contains_call(),
            Snippet::If { cond, then_, else_ } => {
                cond.contains_call()
                    || then_.contains_call()
                    || else_.as_ref().is_some_and(|e| e.contains_call())
            }
            Snippet::Seq(v) => v.iter().any(|s| s.contains_call()),
            _ => false,
        }
    }

    /// Mutatee registers the snippet reads or writes by name
    /// ([`Snippet::ReadReg`], [`Snippet::WriteReg`]); the emitter never
    /// takes these as scratch.
    pub fn named_registers(&self) -> RegSet {
        let all = |v: &[Snippet]| {
            v.iter()
                .fold(RegSet::EMPTY, |set, s| set.union(s.named_registers()))
        };
        match self {
            Snippet::ReadReg(r) => RegSet::of(&[*r]),
            Snippet::WriteReg(r, v) => v.named_registers().union(RegSet::of(&[*r])),
            Snippet::WriteVar(_, v) | Snippet::Un(_, v) | Snippet::ReadMem { addr: v, .. } => {
                v.named_registers()
            }
            Snippet::WriteMem {
                addr: a, val: b, ..
            }
            | Snippet::Bin(_, a, b)
            | Snippet::Let {
                value: a, body: b, ..
            } => a.named_registers().union(b.named_registers()),
            Snippet::If { cond, then_, else_ } => {
                let arms = cond.named_registers().union(then_.named_registers());
                else_
                    .as_ref()
                    .map_or(arms, |e| arms.union(e.named_registers()))
            }
            Snippet::Seq(v) | Snippet::Call { args: v, .. } => all(v),
            Snippet::Const(_)
            | Snippet::ReadVar(_)
            | Snippet::IncrementVar(_)
            | Snippet::Local(_)
            | Snippet::Nop => RegSet::EMPTY,
        }
    }

    /// Mutatee registers this snippet writes ([`Snippet::WriteReg`]); the
    /// plan phase takes none of them as scratch anywhere in a function
    /// that carries the snippet.
    pub fn written_registers(&self) -> RegSet {
        let all = |v: &[Snippet]| {
            v.iter()
                .fold(RegSet::EMPTY, |set, s| set.union(s.written_registers()))
        };
        match self {
            Snippet::WriteReg(r, v) => v.written_registers().union(RegSet::of(&[*r])),
            Snippet::WriteVar(_, v) | Snippet::Un(_, v) | Snippet::ReadMem { addr: v, .. } => {
                v.written_registers()
            }
            Snippet::WriteMem {
                addr: a, val: b, ..
            }
            | Snippet::Bin(_, a, b)
            | Snippet::Let {
                value: a, body: b, ..
            } => a.written_registers().union(b.written_registers()),
            Snippet::If { cond, then_, else_ } => {
                let arms = cond.written_registers().union(then_.written_registers());
                else_
                    .as_ref()
                    .map_or(arms, |e| arms.union(e.written_registers()))
            }
            Snippet::Seq(v) | Snippet::Call { args: v, .. } => all(v),
            Snippet::Const(_)
            | Snippet::ReadReg(_)
            | Snippet::ReadVar(_)
            | Snippet::IncrementVar(_)
            | Snippet::Local(_)
            | Snippet::Nop => RegSet::EMPTY,
        }
    }

    /// Does this snippet write a mutatee register (beyond scratch)? Tools
    /// use this to check a snippet is side-effect-free.
    pub fn mutates_registers(&self) -> bool {
        !self.written_registers().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_needs_bounds() {
        let v = Var {
            addr: 0x30000,
            size: 8,
        };
        assert_eq!(Snippet::increment(v).scratch_needs(), 2);
        // (a + b) * (c + d): needs 3 by Sethi–Ullman.
        let e = Snippet::bin(
            BinaryOp::Mul,
            Snippet::bin(BinaryOp::Add, Snippet::Const(1), Snippet::Const(2)),
            Snippet::bin(BinaryOp::Add, Snippet::Const(3), Snippet::Const(4)),
        );
        assert_eq!(e.scratch_needs(), 3);
        // A right-leaning chain stays at 2.
        let chain = Snippet::bin(
            BinaryOp::Add,
            Snippet::Const(1),
            Snippet::bin(BinaryOp::Add, Snippet::Const(2), Snippet::Const(3)),
        );
        assert_eq!(chain.scratch_needs(), 2);
    }

    #[test]
    fn call_detection() {
        let s = Snippet::Seq(vec![
            Snippet::Nop,
            Snippet::If {
                cond: Box::new(Snippet::Const(1)),
                then_: Box::new(Snippet::Call {
                    target: 0x1000,
                    args: vec![],
                }),
                else_: None,
            },
        ]);
        assert!(s.contains_call());
        assert!(!Snippet::Nop.contains_call());
    }

    #[test]
    fn bindings_are_walked_like_their_parts() {
        let call = Snippet::Call {
            target: 0x1000,
            args: vec![],
        };
        let write = Snippet::WriteReg(Reg::x(10), Box::new(Snippet::Local(0)));
        let s = Snippet::bind(0, Snippet::ReadReg(Reg::x(11)), write);
        assert!(s.mutates_registers() && !s.contains_call());
        assert_eq!(s.named_registers(), RegSet::of(&[Reg::x(10), Reg::x(11)]));
        assert!(Snippet::bind(0, call, Snippet::Local(0)).contains_call());
        // The bound value stays held while the body needs two more.
        let sum = Snippet::bin(BinaryOp::Add, Snippet::Local(0), Snippet::Const(1));
        let pair = Snippet::bin(BinaryOp::Mul, sum.clone(), sum);
        assert_eq!(Snippet::bind(0, Snippet::Const(1), pair).scratch_needs(), 4);
    }

    #[test]
    fn mutation_detection() {
        let v = Var {
            addr: 0x30000,
            size: 8,
        };
        assert!(!Snippet::increment(v).mutates_registers());
        let w = Snippet::WriteReg(rvdyn_isa::Reg::x(10), Box::new(Snippet::Const(0)));
        assert!(w.mutates_registers());
        // Only the written register counts, not the ones read.
        let copy = Snippet::WriteReg(Reg::x(31), Box::new(Snippet::ReadReg(Reg::x(5))));
        let s = Snippet::Seq(vec![Snippet::increment(v), copy]);
        assert_eq!(s.written_registers(), RegSet::of(&[Reg::x(31)]));
        assert_eq!(Snippet::increment(v).written_registers(), RegSet::EMPTY);
    }
}
