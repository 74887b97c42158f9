//! Differential property test of snippet lowering: random snippet trees
//! are lowered under random dead-register sets in both allocation
//! modes, encoded and decoded back, run instruction by instruction on the
//! reference semantics (`rvdyn_isa::semantics`), and the final registers
//! and memory must match a direct evaluator of the `Snippet` AST.
//!
//! The trees cover every `BinaryOp` and `UnaryOp`, nested `If` and
//! `Seq`, `ReadMem`/`WriteMem` at `expr ± const`, `var = var op c`
//! updates, register writes inside expressions (which decide when a
//! register may be read in place), and reads of `sp`, which must see the
//! `sp` the point had under any spill frame. `Let` bindings appear as
//! statements and as expressions, nested (and shadowing, as ids repeat)
//! up to two deep, and their `Local` reads appear as operands, in `If`
//! conditions and arms, and as `Local ± c` address bases. Constants
//! include the 12-bit edges (−2048, 2047, 2048) and values with bit 11
//! set; addresses include values below 2^12, just under 2^31 and above
//! 2^32, and `sp + c` up to the 12-bit edge.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rvdyn_codegen::emitter::generate;
use rvdyn_codegen::regalloc::RegAllocMode;
use rvdyn_codegen::snippet::{BinaryOp, Snippet, UnaryOp, Var};
use rvdyn_isa::decode::decode32;
use rvdyn_isa::encode::encode32;
use rvdyn_isa::semantics::{eval_int, EvalOutcome, IntState, MemoryBus};
use rvdyn_isa::{IsaProfile, Reg, RegSet};
use std::collections::HashMap;

/// The stack pointer the code runs with; spill frames live just below.
const SP: u64 = 0x4000_0000_0000;
/// Bytes below `SP` that hold the spill frame (and more).
const FRAME_WINDOW: u64 = 4096;
/// Where the lowered code is laid out.
const CODE: u64 = 0x100;

/// Sparse byte memory. A byte never written reads as a fixed function
/// of its address, so loads see varied values.
#[derive(Clone, Default)]
struct Mem(HashMap<u64, u8>);

impl Mem {
    fn byte(&self, a: u64) -> u8 {
        self.0
            .get(&a)
            .copied()
            .unwrap_or((a.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
    }
}

impl MemoryBus for Mem {
    fn load(&mut self, addr: u64, size: u8) -> u64 {
        (0..size as u64).fold(0, |v, i| {
            v | (self.byte(addr.wrapping_add(i)) as u64) << (8 * i)
        })
    }

    fn store(&mut self, addr: u64, size: u8, val: u64) {
        for i in 0..size as u64 {
            self.0.insert(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }
}

/// The reference: the `Snippet` AST evaluated directly, in the
/// emitter's operand order (the operand needing more scratch registers
/// first; address before value). `sp` reads as [`SP`] throughout.
struct Reference {
    regs: [u64; 32],
    mem: Mem,
    /// The values of the enclosing `Let`s, innermost last.
    locals: Vec<(u32, u64)>,
    /// Whether an access touched the stack just below `SP`, where the
    /// spill frame lives: no snippet may, so such a case is skipped.
    below_sp: bool,
}

fn sext(v: u64, size: u8) -> u64 {
    let shift = 64 - 8 * size as u32;
    (((v << shift) as i64) >> shift) as u64
}

fn apply(op: BinaryOp, x: u64, y: u64) -> u64 {
    let (sx, sy) = (x as i64, y as i64);
    match op {
        BinaryOp::Add => x.wrapping_add(y),
        BinaryOp::Sub => x.wrapping_sub(y),
        BinaryOp::Mul => x.wrapping_mul(y),
        BinaryOp::Div if y == 0 => u64::MAX,
        BinaryOp::Div => sx.wrapping_div(sy) as u64,
        BinaryOp::And => x & y,
        BinaryOp::Or => x | y,
        BinaryOp::Xor => x ^ y,
        BinaryOp::Shl => x << (y & 63),
        BinaryOp::Shr => x >> (y & 63),
        BinaryOp::Eq => (x == y) as u64,
        BinaryOp::Ne => (x != y) as u64,
        BinaryOp::LtS => (sx < sy) as u64,
        BinaryOp::LeS => (sx <= sy) as u64,
        BinaryOp::GtS => (sx > sy) as u64,
        BinaryOp::GeS => (sx >= sy) as u64,
    }
}

impl Reference {
    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.num() as usize]
    }

    fn access(&mut self, a: u64, size: u8) {
        let frame = SP - FRAME_WINDOW..SP;
        self.below_sp |= frame.contains(&a) || frame.contains(&a.wrapping_add(size as u64 - 1));
    }

    fn eval(&mut self, s: &Snippet) -> u64 {
        match s {
            Snippet::Const(c) => *c as u64,
            Snippet::ReadReg(r) => self.reg(*r),
            Snippet::ReadVar(v) => self.mem.load(v.addr, v.size),
            Snippet::ReadMem { addr, size } => {
                let a = self.eval(addr);
                self.access(a, *size);
                sext(self.mem.load(a, *size), *size)
            }
            Snippet::Bin(op, a, b) => {
                let (x, y) = if a.scratch_needs() >= b.scratch_needs() {
                    let x = self.eval(a);
                    (x, self.eval(b))
                } else {
                    let y = self.eval(b);
                    (self.eval(a), y)
                };
                apply(*op, x, y)
            }
            Snippet::Un(UnaryOp::Neg, a) => self.eval(a).wrapping_neg(),
            Snippet::Un(UnaryOp::Not, a) => !self.eval(a),
            Snippet::Call { .. } => unreachable!("no calls generated"),
            Snippet::Local(id) => {
                let bound = self.locals.iter().rev().find(|(i, _)| i == id);
                bound.expect("generated reads are bound").1
            }
            Snippet::Let { id, value, body } => {
                let v = self.eval(value);
                self.locals.push((*id, v));
                let x = self.eval(body);
                self.locals.pop();
                x
            }
            stmt => {
                self.exec(stmt);
                0
            }
        }
    }

    fn exec(&mut self, s: &Snippet) {
        match s {
            Snippet::Nop => {}
            Snippet::Seq(v) => v.iter().for_each(|s| self.exec(s)),
            Snippet::WriteReg(r, v) => {
                let x = self.eval(v);
                if !r.is_zero() {
                    self.regs[r.num() as usize] = x;
                }
            }
            Snippet::WriteVar(var, v) => {
                let x = self.eval(v);
                self.mem.store(var.addr, var.size, x);
            }
            Snippet::WriteMem { addr, val, size } => {
                let a = self.eval(addr);
                let x = self.eval(val);
                self.access(a, *size);
                self.mem.store(a, *size, x);
            }
            Snippet::IncrementVar(var) => {
                let x = self.mem.load(var.addr, var.size);
                self.mem.store(var.addr, var.size, x.wrapping_add(1));
            }
            Snippet::If { cond, then_, else_ } => {
                if self.eval(cond) != 0 {
                    self.exec(then_);
                } else if let Some(e) = else_ {
                    self.exec(e);
                }
            }
            Snippet::Let { id, value, body } => {
                let v = self.eval(value);
                self.locals.push((*id, v));
                self.exec(body);
                self.locals.pop();
            }
            expr => {
                self.eval(expr);
            }
        }
    }
}

/// Encode lowered code at `CODE` (every immediate must fit its field),
/// decode it back, and run it until it falls off the end.
fn run(code: &[rvdyn_isa::Instruction], st: &mut IntState, mem: &mut Mem) {
    let laid: Vec<_> = code
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let raw = encode32(inst).unwrap_or_else(|e| panic!("{inst:?}: {e}"));
            decode32(raw, CODE + 4 * i as u64).unwrap()
        })
        .collect();
    let mut ip = 0usize;
    let mut steps = 0;
    while ip < laid.len() {
        steps += 1;
        assert!(steps < 100_000, "runaway snippet");
        st.pc = laid[ip].address;
        match eval_int(&laid[ip], st, mem) {
            EvalOutcome::Next => ip += 1,
            EvalOutcome::Jump(t) => ip = ((t - CODE) / 4) as usize,
            o => panic!("unexpected outcome {o:?} at {:#x}", st.pc),
        }
    }
}

// --- generators ------------------------------------------------------------

/// Constants at the immediate edges, with bit 11 set, and at address
/// boundaries.
const EDGES: [i64; 23] = [
    0,
    1,
    -1,
    16,
    63,
    64,
    -2048,
    2047,
    2048,
    -2049,
    0x7FF,
    0x800,
    0xFFF,
    0x1800,
    -0x800,
    0x12_3800,
    0x7FFF_F800,
    0x7FFF_FFFF,
    0x8000_0000,
    -0x8000_0000,
    0x1_0000_0800,
    i64::MIN,
    i64::MAX,
];

/// Absolute addresses: below 2^12, just under 2^31 (where the upper
/// part rounds up to 2^31), above 2^32, and at the top of memory.
const ADDRESSES: [u64; 13] = [
    0x10,
    0x7F8,
    0x7FF,
    0x800,
    0xFF8,
    0x7FFF_F7F8,
    0x7FFF_F800,
    0x7FFF_FFF8,
    0x7FFF_FFFF,
    0x1_0000_0000,
    0x1_2345_6FF8,
    0xDEAD_BEEF_0800,
    0xFFFF_FFFF_FFFF_F800,
];

/// Registers snippets name: scratch candidates (t0–t3, a0–a2) and
/// registers the allocator never uses (ra, gp, tp, s0–s2, a7). `sp` is
/// also read ([`Gen::read_reg`]), never written: the spill frame below it
/// must survive the snippet.
const NAMED: [u8; 14] = [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 17, 18, 28];

const BINOPS: [BinaryOp; 15] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Shl,
    BinaryOp::Shr,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::LtS,
    BinaryOp::LeS,
    BinaryOp::GtS,
    BinaryOp::GeS,
];

/// Registers named half the time, so reads and writes of one register
/// meet often.
const HOT: [u8; 4] = [1, 5, 8, 10];

/// A random snippet-tree generator over the test RNG. `near` holds the
/// named registers' initial values: constants drawn next to them put
/// comparisons on their edges.
struct Gen<'r> {
    rng: &'r mut TestRng,
    near: Vec<i64>,
    /// The ids bound where the tree is being generated, innermost last.
    scope: Vec<u32>,
}

impl Gen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u128) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn value(&mut self) -> i64 {
        match self.below(3) {
            0 => self.pick(&EDGES),
            1 => self.below(10_000) as i64 - 5000,
            _ => self.rng.next_u64() as i64,
        }
    }

    fn konst(&mut self) -> i64 {
        if self.below(4) != 0 {
            return self.value();
        }
        let i = self.below(self.near.len());
        self.near[i].wrapping_add(self.below(3) as i64 - 1)
    }

    fn var(&mut self) -> Var {
        Var {
            addr: self.pick(&ADDRESSES),
            size: self.pick(&[1, 2, 4, 8]),
        }
    }

    fn reg(&mut self) -> Reg {
        Reg::x(if self.below(2) == 0 {
            self.pick(&HOT)
        } else {
            self.pick(&NAMED)
        })
    }

    /// A read of a bound id, when one is in scope.
    fn local(&mut self) -> Option<Snippet> {
        if self.scope.is_empty() {
            return None;
        }
        let i = self.below(self.scope.len());
        Some(Snippet::Local(self.scope[i]))
    }

    /// `let id = value in body`, with `id` (from a small pool, so inner
    /// bindings shadow outer ones) in scope while `body` is generated.
    /// At most two bindings are live at once, which keeps the tree within
    /// the scratch registers the named ones leave; past that, `body`
    /// alone.
    fn binding(&mut self, value: Snippet, body: impl FnOnce(&mut Self) -> Snippet) -> Snippet {
        if self.scope.len() >= 2 {
            return body(self);
        }
        let id = self.below(3) as u32;
        self.scope.push(id);
        let body = body(self);
        self.scope.pop();
        Snippet::bind(id, value, body)
    }

    /// A register to read: `sp` one time in six.
    fn read_reg(&mut self) -> Reg {
        if self.below(6) == 0 {
            Reg::X2
        } else {
            self.reg()
        }
    }

    /// `e ± c`, `c + e`, `sp + c` (a stack slot, up to the 12-bit edge),
    /// `local + c`, or an absolute address.
    fn address(&mut self, depth: u32) -> Snippet {
        let c = Snippet::Const(self.konst());
        match self.below(6) {
            5 if !self.scope.is_empty() => {
                let l = self.local().expect("an id is in scope");
                Snippet::bin(BinaryOp::Add, l, c)
            }
            0 => Snippet::bin(BinaryOp::Add, self.expr(depth), c),
            1 => Snippet::bin(BinaryOp::Sub, self.expr(depth), c),
            2 => Snippet::bin(BinaryOp::Add, c, self.expr(depth)),
            3 => {
                let slot = self.pick(&[0, 8, 16, 1024, 1632, 2040, 2047, 2048, 4096]);
                Snippet::bin(
                    BinaryOp::Add,
                    Snippet::ReadReg(Reg::X2),
                    Snippet::Const(slot),
                )
            }
            _ => Snippet::Const(self.pick(&ADDRESSES) as i64),
        }
    }

    fn expr(&mut self, depth: u32) -> Snippet {
        let leaf = depth == 0 || self.below(3) == 0;
        if leaf {
            return match self.below(4) {
                0 => Snippet::Const(self.konst()),
                1 => Snippet::ReadReg(self.read_reg()),
                2 => Snippet::ReadVar(self.var()),
                _ => match self.local() {
                    Some(l) => l,
                    None => Snippet::ReadVar(self.var()),
                },
            };
        }
        let d = depth - 1;
        match self.below(14) {
            // A binding in expression position: its body's value.
            12 => {
                let value = self.expr(d);
                self.binding(value, |g| g.expr(d))
            }
            0..=3 => Snippet::bin(self.pick(&BINOPS), self.expr(d), self.expr(d)),
            4 | 5 => Snippet::bin(
                self.pick(&BINOPS),
                self.expr(d),
                Snippet::Const(self.konst()),
            ),
            6 => Snippet::bin(
                self.pick(&BINOPS),
                Snippet::Const(self.konst()),
                self.expr(d),
            ),
            7 => Snippet::Un(
                self.pick(&[UnaryOp::Neg, UnaryOp::Not]),
                Box::new(self.expr(d)),
            ),
            8 | 9 => Snippet::ReadMem {
                addr: Box::new(self.address(d)),
                size: self.pick(&[1, 2, 4, 8]),
            },
            // A register write in expression position (value 0).
            10 => Snippet::Seq(vec![Snippet::WriteReg(self.reg(), Box::new(self.expr(d)))]),
            // ... evaluated after a read of the same register.
            11 => {
                let r = self.reg();
                let write = Snippet::Seq(vec![Snippet::WriteReg(r, Box::new(self.expr(0)))]);
                Snippet::bin(self.pick(&BINOPS), Snippet::ReadReg(r), write)
            }
            _ => Snippet::IncrementVar(self.var()),
        }
    }

    fn stmt(&mut self, depth: u32) -> Snippet {
        let leaf = depth == 0 || self.below(2) == 0;
        if !leaf {
            let d = depth - 1;
            return match self.below(3) {
                0 => {
                    let n = self.below(4);
                    Snippet::Seq((0..n).map(|_| self.stmt(d)).collect())
                }
                1 => {
                    let value = self.expr(2);
                    self.binding(value, |g| g.stmt(d))
                }
                _ => {
                    let cond = if self.below(3) == 0 {
                        self.expr(2)
                    } else {
                        Snippet::bin(self.pick(&BINOPS[9..]), self.expr(2), self.expr(2))
                    };
                    Snippet::If {
                        cond: Box::new(cond),
                        then_: Box::new(self.stmt(d)),
                        else_: (self.below(2) == 0).then(|| Box::new(self.stmt(d))),
                    }
                }
            };
        }
        match self.below(7) {
            0 => Snippet::WriteVar(self.var(), Box::new(self.expr(3))),
            1 => Snippet::IncrementVar(self.var()),
            2 => {
                // `var = var op c`, either operand order.
                let v = self.var();
                let (a, b) = (Snippet::ReadVar(v), Snippet::Const(self.konst()));
                let (a, b) = if self.below(2) == 0 { (a, b) } else { (b, a) };
                Snippet::WriteVar(v, Box::new(Snippet::bin(self.pick(&BINOPS), a, b)))
            }
            3 => Snippet::WriteMem {
                addr: Box::new(self.address(2)),
                val: Box::new(self.expr(3)),
                size: self.pick(&[1, 2, 4, 8]),
            },
            4 => Snippet::WriteReg(self.reg(), Box::new(self.expr(3))),
            // A store whose value writes its address's base register.
            5 => {
                let r = self.reg();
                let write = Snippet::WriteReg(r, Box::new(self.expr(1)));
                Snippet::WriteMem {
                    addr: Box::new(Snippet::bin(
                        BinaryOp::Add,
                        Snippet::ReadReg(r),
                        Snippet::Const(self.konst()),
                    )),
                    val: Box::new(Snippet::Seq(vec![write])),
                    size: 8,
                }
            }
            _ => Snippet::Nop,
        }
    }

    fn dead_set(&mut self) -> RegSet {
        match self.below(4) {
            0 => RegSet::EMPTY,
            1 => RegSet::ALL_GPR,
            _ => {
                let bits = self.rng.next_u32();
                (1..32u8)
                    .filter(|n| bits >> n & 1 != 0)
                    .map(Reg::x)
                    .collect()
            }
        }
    }
}

/// One case: a snippet, the dead set it is lowered under, the initial
/// registers, and whether every scratch register is spilled.
struct Cases;

impl Strategy for Cases {
    type Value = (Snippet, RegSet, Vec<u64>, bool);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let mut g = Gen {
            rng,
            near: Vec::new(),
            scope: Vec::new(),
        };
        let regs: Vec<u64> = (0..32).map(|_| g.value() as u64).collect();
        g.near = NAMED.iter().map(|&n| regs[n as usize] as i64).collect();
        let snippet = g.stmt(3);
        let dead = g.dead_set();
        (snippet, dead, regs, g.below(2) == 0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn lowered_snippets_match_the_ast(case in Cases) {
        let (snippet, dead, init, spill) = case;
        let mode = if spill { RegAllocMode::ForceSpill } else { RegAllocMode::DeadRegisters };
        let (code, _) = generate(&snippet, dead, mode, IsaProfile::rv64gc())
            .map_err(|e| TestCaseError::fail(format!("lowering failed: {e}")))?;
        let mut regs = [0u64; 32];
        regs.copy_from_slice(&init);
        regs[0] = 0;
        regs[2] = SP;

        let mut reference = Reference { regs, mem: Mem::default(), locals: Vec::new(), below_sp: false };
        reference.exec(&snippet);
        if reference.below_sp {
            return Ok(());
        }

        let mut st = IntState::new(CODE);
        for n in 1..32u8 {
            st.set(Reg::x(n), regs[n as usize]);
        }
        let mut mem = Mem::default();
        run(&code, &mut st, &mut mem);

        // Live and named registers hold the AST's values; sp is back.
        let named = snippet.named_registers();
        for n in 1..32u8 {
            let r = Reg::x(n);
            if n == 2 || !dead.contains(r) || named.contains(r) {
                prop_assert_eq!(st.get(r), reference.reg(r), "{:?} under {:?}\n{:?}", r, mode, code);
            }
        }
        // Memory agrees everywhere outside the spill frame.
        let frame = SP - FRAME_WINDOW..SP;
        for a in mem.0.keys().chain(reference.mem.0.keys()) {
            if !frame.contains(a) {
                prop_assert_eq!(mem.byte(*a), reference.mem.byte(*a), "byte {:#x} under {:?}\n{:?}", a, mode, code);
            }
        }
    }
}
