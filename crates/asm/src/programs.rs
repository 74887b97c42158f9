//! The mutatee program suite (the gcc-compiled-application substitute,
//! DESIGN.md §2).
//!
//! Each builder returns a complete, loadable [`Binary`] with function
//! symbols and `.riscv.attributes`. The flagship is [`matmul_program`]: the
//! §4.1 application — a multiply function with **exactly 11 basic blocks**
//! and ~2M dynamically-executed blocks per call at N=100, called in a loop
//! from `main`, with `clock_gettime` samples before and after the loop and
//! the elapsed nanoseconds written to stdout.

use crate::assembler::{AsmError, Assembler};
use rvdyn_isa::{build, IsaProfile, Op, Reg};
use rvdyn_symtab::{
    Binary, RiscvAttributes, Section, Symbol, SymbolBinding, SymbolKind, SHF_ALLOC, SHF_EXECINSTR,
    SHF_WRITE,
};

/// Address-space layout shared by all mutatee programs.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub text: u64,
    pub rodata: u64,
    pub data: u64,
    pub bss: u64,
}

impl Default for Layout {
    fn default() -> Layout {
        Layout {
            text: 0x1_0000,
            rodata: 0x1_8000,
            data: 0x2_0000,
            bss: 0x3_0000,
        }
    }
}

/// Linux RISC-V syscall numbers used by the mutatees.
pub mod sysno {
    pub const WRITE: i64 = 64;
    pub const EXIT: i64 = 93;
    pub const CLOCK_GETTIME: i64 = 113;
}

const T0: Reg = Reg::X5;
const T1: Reg = Reg::x(6);
const T2: Reg = Reg::x(7);
const T3: Reg = Reg::x(28);
const T4: Reg = Reg::x(29);
const T5: Reg = Reg::x(30);
#[allow(dead_code)] // kept for program builders that need a 7th temp
const T6: Reg = Reg::x(31);
const S0: Reg = Reg::x(8);
const S1: Reg = Reg::x(9);
const A0: Reg = Reg::x(10);
const A1: Reg = Reg::x(11);
const A2: Reg = Reg::x(12);
const A3: Reg = Reg::x(13);
const A7: Reg = Reg::x(17);
const RA: Reg = Reg::X1;
const SP: Reg = Reg::X2;
const FT0: Reg = Reg::f(0);
const FT1: Reg = Reg::f(1);
const FT2: Reg = Reg::f(2);

struct Sym {
    name: String,
    addr: u64,
    size: u64,
    kind: SymbolKind,
}

fn finish_binary(
    a: Assembler,
    layout: Layout,
    mut syms: Vec<Sym>,
    rodata: Vec<u8>,
    data: Vec<u8>,
    bss_size: usize,
    profile: IsaProfile,
) -> Result<Binary, AsmError> {
    let code = a.finish()?;
    let mut sections = vec![Section::progbits(
        ".text",
        layout.text,
        SHF_ALLOC | SHF_EXECINSTR,
        code,
    )];
    if !rodata.is_empty() {
        sections.push(Section::progbits(
            ".rodata",
            layout.rodata,
            SHF_ALLOC,
            rodata,
        ));
    }
    if !data.is_empty() {
        sections.push(Section::progbits(
            ".data",
            layout.data,
            SHF_ALLOC | SHF_WRITE,
            data,
        ));
    }
    if bss_size > 0 {
        let mut bss =
            Section::progbits(".bss", layout.bss, SHF_ALLOC | SHF_WRITE, vec![0; bss_size]);
        bss.sh_type = rvdyn_symtab::elf::SHT_NOBITS;
        sections.push(bss);
    }
    syms.sort_by_key(|s| s.addr);
    let symbols = syms
        .into_iter()
        .map(|s| Symbol {
            name: s.name,
            value: s.addr,
            size: s.size,
            kind: s.kind,
            binding: SymbolBinding::Global,
        })
        .collect();
    Ok(Binary {
        entry: layout.text,
        e_flags: Binary::eflags_for(profile),
        e_type: rvdyn_symtab::elf::ET_EXEC,
        sections,
        symbols,
        attributes: Some(RiscvAttributes::for_profile(profile)),
    })
}

/// Emit the standard `_start`: call `main`, then `exit(a0)`.
/// Must be the first code so `entry == layout.text`.
fn emit_start(a: &mut Assembler, main: crate::assembler::Label) {
    a.call(main);
    a.li(A7, sysno::EXIT);
    a.ecall();
}

/// The §4.1 matrix-multiply application.
///
/// * `n` — matrix dimension (the paper uses 100).
/// * `reps` — how many times `main` calls the multiply function.
///
/// `main` samples `clock_gettime(CLOCK_MONOTONIC)` before and after the
/// call loop, stores the elapsed nanoseconds at the `result` data slot and
/// writes the 8 raw bytes to stdout. The `matmul` function has exactly 11
/// basic blocks; for `n = 100` one call executes ~2.05M blocks.
pub fn matmul_program(n: usize, reps: usize) -> Binary {
    let layout = Layout::default();
    let elems = n * n * 8;
    let addr_a = layout.bss;
    let addr_b = layout.bss + elems as u64;
    let addr_c = layout.bss + 2 * elems as u64;
    let ts0 = layout.data; // 16-byte timespec
    let ts1 = layout.data + 16;
    let result = layout.data + 32;

    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_init = a.label();
    let l_matmul = a.label();

    // _start
    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    // ---- main ----
    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -32);
    a.sd(RA, SP, 24);
    a.sd(S0, SP, 16);
    a.sd(S1, SP, 8);
    a.call(l_init);
    // clock_gettime(CLOCK_MONOTONIC=1, &ts0)
    a.li(A0, 1);
    a.li(A1, ts0 as i64);
    a.li(A7, sysno::CLOCK_GETTIME);
    a.ecall();
    // for (s1 = 0; s1 < reps; s1++) matmul(A, B, C, n)
    a.li(S0, reps as i64);
    a.li(S1, 0);
    let l_loop = a.here_label();
    let l_done = a.label();
    a.bge(S1, S0, l_done);
    a.li(A0, addr_a as i64);
    a.li(A1, addr_b as i64);
    a.li(A2, addr_c as i64);
    a.li(A3, n as i64);
    a.call(l_matmul);
    a.addi(S1, S1, 1);
    a.jump(l_loop);
    a.bind(l_done);
    a.li(A0, 1);
    a.li(A1, ts1 as i64);
    a.li(A7, sysno::CLOCK_GETTIME);
    a.ecall();
    // elapsed = (ts1.s - ts0.s) * 1e9 + (ts1.ns - ts0.ns)
    a.li(T0, ts0 as i64);
    a.li(T1, ts1 as i64);
    a.ld(T2, T0, 0);
    a.ld(T3, T1, 0);
    a.sub(T3, T3, T2);
    a.li(T4, 1_000_000_000);
    a.mul(T3, T3, T4);
    a.ld(T2, T0, 8);
    a.ld(T4, T1, 8);
    a.sub(T4, T4, T2);
    a.add(T3, T3, T4);
    a.li(T0, result as i64);
    a.sd(T3, T0, 0);
    // write(1, &result, 8)
    a.li(A0, 1);
    a.li(A1, result as i64);
    a.li(A2, 8);
    a.li(A7, sysno::WRITE);
    a.ecall();
    a.li(A0, 0);
    a.ld(RA, SP, 24);
    a.ld(S0, SP, 16);
    a.ld(S1, SP, 8);
    a.addi(SP, SP, 32);
    a.ret();
    let main_size = a.here() - main_addr;

    // ---- init_arrays: A[i][j] = i + j, B[i][j] = i - j ----
    a.bind(l_init);
    let init_addr = a.here();
    a.li(T0, 0); // i
    a.li(T2, addr_a as i64);
    a.li(T3, addr_b as i64);
    a.li(T5, n as i64);
    let l_i = a.here_label();
    let l_idone = a.label();
    a.bge(T0, T5, l_idone);
    a.li(T1, 0); // j
    let l_j = a.here_label();
    let l_jdone = a.label();
    a.bge(T1, T5, l_jdone);
    a.add(T4, T0, T1);
    a.fcvt_d_l(FT0, T4);
    a.fsd(FT0, T2, 0);
    a.sub(T4, T0, T1);
    a.fcvt_d_l(FT0, T4);
    a.fsd(FT0, T3, 0);
    // Compressed forms for the pointer/counter bumps: realistic RV64GC
    // code mixes widths inside blocks (§3.1.2).
    a.c_inst(build::addi(T2, T2, 8));
    a.c_inst(build::addi(T1, T1, 1));
    a.addi(T3, T3, 8);
    a.jump(l_j);
    a.bind(l_jdone);
    a.c_inst(build::addi(T0, T0, 1));
    a.jump(l_i);
    a.bind(l_idone);
    a.ret();
    let init_size = a.here() - init_addr;

    // ---- matmul(a0=A, a1=B, a2=C, a3=N): exactly 11 basic blocks ----
    //
    // The body is written the way gcc's *default optimization level*
    // (-O0, §4.1 "compiled … with the default optimization level")
    // generates it: every C variable lives in a stack slot and is
    // reloaded/spilled around each use. This matters for the §4.3
    // reproduction — the relative cost of a counter snippet depends on
    // how much memory traffic the uninstrumented blocks already do.
    //
    // Frame (80 bytes): 72 s0 | 56 sum | 48 A | 40 B | 32 C | 24 N
    //                   | 16 i | 8 j | 0 k
    a.bind(l_matmul);
    let mm_addr = a.here();
    // B1: prologue — spill arguments, i = 0
    a.addi(SP, SP, -80);
    a.sd(S0, SP, 72);
    a.sd(A0, SP, 48);
    a.sd(A1, SP, 40);
    a.sd(A2, SP, 32);
    a.sd(A3, SP, 24);
    a.sd(Reg::X0, SP, 16); // i = 0
    let l_ihead = a.label();
    let l_jhead = a.label();
    let l_khead = a.label();
    let l_store = a.label();
    let l_jinc = a.label();
    let l_iinc = a.label();
    let l_exit = a.label();
    a.jump(l_ihead);
    // B2: i-loop head — if (i >= N) goto exit
    a.bind(l_ihead);
    a.ld(T0, SP, 16);
    a.ld(T1, SP, 24);
    a.bge(T0, T1, l_exit);
    // B3: j = 0
    a.sd(Reg::X0, SP, 8);
    a.jump(l_jhead);
    // B4: j-loop head — if (j >= N) goto i-inc
    a.bind(l_jhead);
    a.ld(T0, SP, 8);
    a.ld(T1, SP, 24);
    a.bge(T0, T1, l_iinc);
    // B5: sum = 0.0; k = 0
    a.fmv_d_x(FT0, Reg::X0);
    a.fsd(FT0, SP, 56);
    a.sd(Reg::X0, SP, 0);
    a.jump(l_khead);
    // B6: k-loop head — if (k >= N) goto store
    a.bind(l_khead);
    a.ld(T0, SP, 0);
    a.ld(T1, SP, 24);
    a.bge(T0, T1, l_store);
    // B7: k-loop body — sum += A[i*N+k] * B[k*N+j], k++   (-O0 style:
    // recompute both addresses from the stack slots each iteration)
    a.ld(T0, SP, 16); // i
    a.ld(T1, SP, 24); // N
    a.mul(T2, T0, T1);
    a.ld(T3, SP, 0); // k
    a.add(T2, T2, T3);
    a.slli(T2, T2, 3);
    a.ld(T4, SP, 48); // A
    a.add(T4, T4, T2);
    a.fld(FT1, T4, 0);
    a.mul(T2, T3, T1); // k*N
    a.ld(T0, SP, 8); // j
    a.add(T2, T2, T0);
    a.slli(T2, T2, 3);
    a.ld(T4, SP, 40); // B
    a.add(T4, T4, T2);
    a.fld(FT2, T4, 0);
    a.fld(FT0, SP, 56);
    a.fmadd_d(FT0, FT1, FT2, FT0);
    a.fsd(FT0, SP, 56);
    a.ld(T0, SP, 0);
    a.c_inst(build::addi(T0, T0, 1));
    a.sd(T0, SP, 0);
    a.jump(l_khead);
    // B8: C[i*N+j] = sum
    a.bind(l_store);
    a.ld(T0, SP, 16);
    a.ld(T1, SP, 24);
    a.mul(T2, T0, T1);
    a.ld(T0, SP, 8);
    a.add(T2, T2, T0);
    a.slli(T2, T2, 3);
    a.ld(T4, SP, 32);
    a.add(T4, T4, T2);
    a.fld(FT0, SP, 56);
    a.fsd(FT0, T4, 0);
    a.jump(l_jinc);
    // B9: j++
    a.bind(l_jinc);
    a.ld(T0, SP, 8);
    a.c_inst(build::addi(T0, T0, 1));
    a.sd(T0, SP, 8);
    a.jump(l_jhead);
    // B10: i++
    a.bind(l_iinc);
    a.ld(T0, SP, 16);
    a.c_inst(build::addi(T0, T0, 1));
    a.sd(T0, SP, 16);
    a.jump(l_ihead);
    // B11: epilogue
    a.bind(l_exit);
    a.ld(S0, SP, 72);
    a.addi(SP, SP, 80);
    a.ret();
    let mm_size = a.here() - mm_addr;

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "init_arrays".into(),
            addr: init_addr,
            size: init_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "matmul".into(),
            addr: mm_addr,
            size: mm_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "ts0".into(),
            addr: ts0,
            size: 16,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "ts1".into(),
            addr: ts1,
            size: 16,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "mat_a".into(),
            addr: addr_a,
            size: elems as u64,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "mat_b".into(),
            addr: addr_b,
            size: elems as u64,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "mat_c".into(),
            addr: addr_c,
            size: elems as u64,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(
        a,
        layout,
        syms,
        Vec::new(),
        vec![0; 40],
        3 * elems,
        IsaProfile::rv64gc(),
    )
    .expect("matmul program assembles")
}

/// Recursive Fibonacci — exercises deep call stacks (StackwalkerAPI) and
/// call/return classification.
pub fn fib_program(n: u64) -> Binary {
    let layout = Layout::default();
    let result = layout.data;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_fib = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -16);
    a.sd(RA, SP, 8);
    a.li(A0, n as i64);
    a.call(l_fib);
    a.li(T0, result as i64);
    a.sd(A0, T0, 0);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 8);
    a.addi(SP, SP, 16);
    a.ret();
    let main_size = a.here() - main_addr;

    // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
    a.bind(l_fib);
    let fib_addr = a.here();
    a.addi(SP, SP, -32);
    a.sd(RA, SP, 24);
    a.sd(S0, SP, 16);
    a.sd(S1, SP, 8);
    let l_base = a.label();
    a.li(T0, 2);
    a.blt(A0, T0, l_base);
    a.mv(S0, A0);
    a.addi(A0, A0, -1);
    a.call(l_fib);
    a.mv(S1, A0);
    a.addi(A0, S0, -2);
    a.call(l_fib);
    a.add(A0, A0, S1);
    a.bind(l_base);
    a.ld(RA, SP, 24);
    a.ld(S0, SP, 16);
    a.ld(S1, SP, 8);
    a.addi(SP, SP, 32);
    a.ret();
    let fib_size = a.here() - fib_addr;

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "fib".into(),
            addr: fib_addr,
            size: fib_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(
        a,
        layout,
        syms,
        Vec::new(),
        vec![0; 8],
        0,
        IsaProfile::rv64gc(),
    )
    .expect("fib program assembles")
}

/// A switch implemented through a `.rodata` jump table reached by an
/// indirect `jalr` — the §3.2.3 jump-table analysis target.
///
/// `selector(x)` bounds-checks `x`, loads `table[x]` and jumps to it; the
/// four cases return 10/20/30/40 and out-of-range returns 0. `main` sums
/// `selector(i & 7)` for `i in 0..iters` and stores the sum.
pub fn switch_program(iters: u64) -> Binary {
    let layout = Layout::default();
    let result = layout.data;
    let table = layout.rodata;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_sel = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    // main: s0 = sum, s1 = i
    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -32);
    a.sd(RA, SP, 24);
    a.sd(S0, SP, 16);
    a.sd(S1, SP, 8);
    a.li(S0, 0);
    a.li(S1, 0);
    let l_loop = a.here_label();
    let l_done = a.label();
    a.li(T0, iters as i64);
    a.bge(S1, T0, l_done);
    a.inst(build::i_type(Op::Andi, A0, S1, 7));
    a.call(l_sel);
    a.add(S0, S0, A0);
    a.addi(S1, S1, 1);
    a.jump(l_loop);
    a.bind(l_done);
    a.li(T0, result as i64);
    a.sd(S0, T0, 0);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 24);
    a.ld(S0, SP, 16);
    a.ld(S1, SP, 8);
    a.addi(SP, SP, 32);
    a.ret();
    let main_size = a.here() - main_addr;

    // selector(a0): the jump-table dispatch.
    a.bind(l_sel);
    let sel_addr = a.here();
    let l_default = a.label();
    a.li(T0, 4);
    a.bgeu(A0, T0, l_default); // bounds check — the table has 4 entries
    a.slli(T1, A0, 3);
    a.li(T2, table as i64);
    a.add(T2, T2, T1);
    a.ld(T2, T2, 0);
    a.jalr(Reg::X0, T2, 0); // indirect jump through the table
    let l_case = [a.label(), a.label(), a.label(), a.label()];
    for (i, l) in l_case.iter().enumerate() {
        a.bind(*l);
        a.li(A0, (i as i64 + 1) * 10);
        a.ret();
    }
    a.bind(l_default);
    a.li(A0, 0);
    a.ret();
    let sel_size = a.here() - sel_addr;

    // The jump table: absolute 8-byte code addresses.
    let mut rodata = Vec::with_capacity(32);
    for l in l_case {
        rodata.extend_from_slice(&a.label_addr(l).unwrap().to_le_bytes());
    }

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "selector".into(),
            addr: sel_addr,
            size: sel_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "jump_table".into(),
            addr: table,
            size: 32,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(a, layout, syms, rodata, vec![0; 8], 0, IsaProfile::rv64gc())
        .expect("switch program assembles")
}

/// The ROADMAP springboard-clobber scenario as a mutatee: a function
/// (`spin`) whose *entry block* is also an indirect-jump target, with the
/// entry made of compressed instructions so an entry springboard
/// straddles more than one of them.
///
/// `spin(a0=n, a1=0)` bumps the visit counter `a1`, decrements `n`, and —
/// while `n > 0` — re-enters its own entry through a bounds-checked
/// `.rodata` jump table (both entries point at `spin`), the §3.2.3
/// resolvable-dispatch idiom. `main` calls `spin(iters, 0)` and stores
/// the visit count (`== iters`) at `result`. Instrumenting `spin`'s entry
/// therefore requires a redirect for *every* clobbered entry-block
/// address, on pain of the table jump landing in torn bytes.
pub fn indirect_entry_program(iters: u64) -> Binary {
    assert!(iters >= 1, "spin must be entered at least once");
    let layout = Layout::default();
    let result = layout.data;
    let table = layout.rodata;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_spin = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -16);
    a.sd(RA, SP, 8);
    a.li(A0, iters as i64);
    a.li(A1, 0);
    a.call(l_spin);
    a.li(T0, result as i64);
    a.sd(A1, T0, 0);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 8);
    a.addi(SP, SP, 16);
    a.ret();
    let main_size = a.here() - main_addr;

    // spin: entry block is two compressed instructions plus the exit
    // branch; the jump-table dispatch below re-enters at l_spin.
    a.bind(l_spin);
    let spin_addr = a.here();
    let l_done = a.label();
    a.c_inst(build::addi(A1, A1, 1)); // visit counter (c.addi, 2 bytes)
    a.c_inst(build::addi(A0, A0, -1)); // remaining budget (c.addi, 2 bytes)
    a.bge(Reg::X0, A0, l_done); // n <= 0: fall out
    a.inst(build::i_type(Op::Andi, T0, A0, 1));
    a.li(T1, 2);
    a.bgeu(T0, T1, l_done); // bounds check — the table has 2 entries
    a.slli(T1, T0, 3);
    a.li(T2, table as i64);
    a.add(T2, T2, T1);
    a.ld(T2, T2, 0);
    a.jalr(Reg::X0, T2, 0); // indirect jump back to spin's entry
    a.bind(l_done);
    a.ret();
    let spin_size = a.here() - spin_addr;

    // Both table entries target spin's entry block.
    let mut rodata = Vec::with_capacity(16);
    rodata.extend_from_slice(&spin_addr.to_le_bytes());
    rodata.extend_from_slice(&spin_addr.to_le_bytes());

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "spin".into(),
            addr: spin_addr,
            size: spin_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "jump_table".into(),
            addr: table,
            size: 16,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(a, layout, syms, rodata, vec![0; 8], 0, IsaProfile::rv64gc())
        .expect("indirect-entry program assembles")
}

/// The §3.1.2 worst case as a reusable mutatee: `tiny` is a real 2-byte
/// function (a single `c.j` tail call to `bump`), so instrumenting it
/// forces the 2-byte trap springboard. `main` calls `tiny(i)` with a
/// direct `jal` for `i in 0..iters` and stores `Σ (i + 3)` at `result`;
/// instrumentation rewrites that call to enter `tiny`'s relocated copy,
/// so the trap is planted but not taken.
pub fn tiny_function_program(iters: u64) -> Binary {
    tiny_program(iters, false)
}

/// [`tiny_function_program`] with `main` calling `tiny` through a
/// register (`la`, then `jalr ra`). An indirect call cannot be
/// retargeted, so every call into an instrumented `tiny` goes through
/// its trap springboard: the mutatee that exercises the trap-redirect
/// runtime.
pub fn tiny_indirect_program(iters: u64) -> Binary {
    tiny_program(iters, true)
}

/// The tiny-function mutatee, calling `tiny` indirectly or directly.
fn tiny_program(iters: u64, indirect: bool) -> Binary {
    let layout = Layout::default();
    let result = layout.data;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_tiny = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    // main: s0 = iters, s1 = i, s2 = sum
    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -32);
    a.sd(RA, SP, 24);
    a.sd(S0, SP, 16);
    a.sd(S1, SP, 8);
    a.li(S0, iters as i64);
    a.li(S1, 0);
    a.mv(Reg::x(18), Reg::X0);
    let head = a.here_label();
    let done = a.label();
    a.bge(S1, S0, done);
    a.mv(A0, S1);
    if indirect {
        a.la(T1, l_tiny);
        a.jalr(RA, T1, 0);
    } else {
        a.call(l_tiny);
    }
    a.add(Reg::x(18), Reg::x(18), A0);
    a.addi(S1, S1, 1);
    a.jump(head);
    a.bind(done);
    a.li(T0, result as i64);
    a.sd(Reg::x(18), T0, 0);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 24);
    a.ld(S0, SP, 16);
    a.ld(S1, SP, 8);
    a.addi(SP, SP, 32);
    a.ret();
    let main_size = a.here() - main_addr;

    // tiny: exactly one compressed jump (2 bytes) — a tail call to the
    // immediately following function.
    a.bind(l_tiny);
    let tiny_addr = a.here();
    a.c_inst(build::jal(Reg::X0, 2));
    let tiny_size = a.here() - tiny_addr;
    debug_assert_eq!(tiny_size, 2, "tiny must be a 2-byte function");

    let bump_addr = a.here();
    a.addi(A0, A0, 3);
    a.ret();
    let bump_size = a.here() - bump_addr;

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "tiny".into(),
            addr: tiny_addr,
            size: tiny_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "bump".into(),
            addr: bump_addr,
            size: bump_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(a, layout, syms, vec![], vec![0; 8], 0, IsaProfile::rv64gc())
        .expect("tiny-function program assembles")
}

/// A tail-call pair: `twice_plus1` tail-calls `double_it` with `jal x0`
/// (§3.2.3 tail-call classification target).
pub fn tailcall_program() -> Binary {
    let layout = Layout::default();
    let result = layout.data;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_f = a.label();
    let l_g = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -16);
    a.sd(RA, SP, 8);
    a.li(A0, 5);
    a.call(l_f);
    a.li(T0, result as i64);
    a.sd(A0, T0, 0);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 8);
    a.addi(SP, SP, 16);
    a.ret();
    let main_size = a.here() - main_addr;

    // twice_plus1(x) = double_it(x + 1)  [tail call]
    a.bind(l_f);
    let f_addr = a.here();
    a.addi(A0, A0, 1);
    a.tail(l_g); // jal x0, g — a call in jump's clothing
    let f_size = a.here() - f_addr;

    // double_it(x) = x * 2
    a.bind(l_g);
    let g_addr = a.here();
    a.slli(A0, A0, 1);
    a.ret();
    let g_size = a.here() - g_addr;

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "twice_plus1".into(),
            addr: f_addr,
            size: f_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "double_it".into(),
            addr: g_addr,
            size: g_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(
        a,
        layout,
        syms,
        Vec::new(),
        vec![0; 8],
        0,
        IsaProfile::rv64gc(),
    )
    .expect("tailcall program assembles")
}

/// Byte-wise memcpy of a `.rodata` string into `.bss`, returning a
/// checksum — exercises byte loads/stores and bounds loops.
pub fn memcpy_program() -> Binary {
    let layout = Layout::default();
    let msg = b"rvdyn: binary instrumentation on RISC-V\n";
    let src = layout.rodata;
    let dst = layout.bss;
    let result = layout.data;

    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_copy = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -16);
    a.sd(RA, SP, 8);
    a.li(A0, src as i64);
    a.li(A1, dst as i64);
    a.li(A2, msg.len() as i64);
    a.call(l_copy);
    a.li(T0, result as i64);
    a.sd(A0, T0, 0);
    // write(1, dst, len) — observable output.
    a.li(A0, 1);
    a.li(A1, dst as i64);
    a.li(A2, msg.len() as i64);
    a.li(A7, sysno::WRITE);
    a.ecall();
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 8);
    a.addi(SP, SP, 16);
    a.ret();
    let main_size = a.here() - main_addr;

    // copy(src, dst, len) -> checksum
    a.bind(l_copy);
    let copy_addr = a.here();
    a.li(T0, 0); // index
    a.li(T3, 0); // checksum
    let l_loop = a.here_label();
    let l_done = a.label();
    a.bge(T0, A2, l_done);
    a.add(T1, A0, T0);
    a.lbu(T2, T1, 0);
    a.add(T1, A1, T0);
    a.sb(T2, T1, 0);
    a.add(T3, T3, T2);
    a.addi(T0, T0, 1);
    a.jump(l_loop);
    a.bind(l_done);
    a.mv(A0, T3);
    a.ret();
    let copy_size = a.here() - copy_addr;

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "copy".into(),
            addr: copy_addr,
            size: copy_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "message".into(),
            addr: src,
            size: msg.len() as u64,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(
        a,
        layout,
        syms,
        msg.to_vec(),
        vec![0; 8],
        msg.len(),
        IsaProfile::rv64gc(),
    )
    .expect("memcpy program assembles")
}

/// `descend(depth)` recurses to zero then executes `ebreak` — the
/// StackwalkerAPI test target: attach at the trap and walk `depth + 2`
/// frames.
pub fn deep_call_program(depth: u64) -> Binary {
    let layout = Layout::default();
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_desc = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -16);
    a.sd(RA, SP, 8);
    a.li(A0, depth as i64);
    a.call(l_desc);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 8);
    a.addi(SP, SP, 16);
    a.ret();
    let main_size = a.here() - main_addr;

    a.bind(l_desc);
    let desc_addr = a.here();
    a.addi(SP, SP, -16);
    a.sd(RA, SP, 8);
    let l_leaf = a.label();
    a.beq(A0, Reg::X0, l_leaf);
    a.addi(A0, A0, -1);
    a.call(l_desc);
    let l_out = a.label();
    a.jump(l_out);
    a.bind(l_leaf);
    a.ebreak(); // the debugger stop
    a.bind(l_out);
    a.ld(RA, SP, 8);
    a.addi(SP, SP, 16);
    a.ret();
    let desc_size = a.here() - desc_addr;

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "descend".into(),
            addr: desc_addr,
            size: desc_size,
            kind: SymbolKind::Function,
        },
    ];
    finish_binary(
        a,
        layout,
        syms,
        Vec::new(),
        Vec::new(),
        0,
        IsaProfile::rv64gc(),
    )
    .expect("deep call program assembles")
}

/// Atomic-operations mutatee: exercises the A extension end to end
/// (LR/SC retry loop, AMO arithmetic) plus a `rdinstret` CSR read
/// (Zicsr). Computes, entirely with atomics:
///
/// * `result`     = Σ i for i in 0..iters  (via `amoadd.d`)
/// * `result+8`   = iters                  (via an LR/SC increment loop)
/// * `result+16`  = max of the sequence 7, 14, 21, …  (via `amomax.d`)
pub fn atomics_program(iters: u64) -> Binary {
    let layout = Layout::default();
    let result = layout.data;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.li(T0, result as i64); // &sum
    a.li(T1, result as i64 + 8); // &count
    a.li(T2, result as i64 + 16); // &max
    a.li(S0, iters as i64);
    a.li(S1, 0); // i
    let l_loop = a.here_label();
    let l_done = a.label();
    a.bge(S1, S0, l_done);
    // sum += i  (amoadd.d x0, s1, (t0))
    a.inst(build::r_type(Op::AmoAddD, Reg::X0, T0, S1));
    // count += 1 via an LR/SC retry loop.
    let l_retry = a.here_label();
    {
        let mut lr = build::i_type(Op::LrD, T3, T1, 0);
        lr.rs1 = Some(T1);
        lr.imm = 0;
        a.inst(lr);
    }
    a.addi(T3, T3, 1);
    a.inst(build::r_type(Op::ScD, T4, T1, T3));
    a.bne(T4, Reg::X0, l_retry); // sc failed → retry
                                 // max = max(max, i*7) (amomax.d)
    a.li(T5, 7);
    a.mul(T5, T5, S1);
    a.inst(build::r_type(Op::AmoMaxD, Reg::X0, T2, T5));
    a.addi(S1, S1, 1);
    a.jump(l_loop);
    a.bind(l_done);
    // Read retired-instruction count (rdinstret) into result+24 —
    // exercises Zicsr decode/execute.
    {
        let mut csr = build::i_type(Op::Csrrs, T3, Reg::X0, 0);
        csr.csr = Some(0xC02);
        a.inst(csr);
    }
    a.li(T4, result as i64 + 24);
    a.sd(T3, T4, 0);
    a.mv(A0, Reg::X0);
    a.ret();
    let main_size = a.here() - main_addr;

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 32,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(
        a,
        layout,
        syms,
        Vec::new(),
        vec![0; 32],
        0,
        IsaProfile::rv64gc(),
    )
    .expect("atomics program assembles")
}

/// As [`switch_program`] but with a gcc-style *relative* jump table:
/// 4-byte sign-extended offsets from the selector's entry, dispatched via
/// `lw` + `add` + `jalr` — the second table idiom ParseAPI recognises.
pub fn switch_rel_program(iters: u64) -> Binary {
    let layout = Layout::default();
    let result = layout.data;
    let table = layout.rodata;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_sel = a.label();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -32);
    a.sd(RA, SP, 24);
    a.sd(S0, SP, 16);
    a.sd(S1, SP, 8);
    a.li(S0, 0);
    a.li(S1, 0);
    let l_loop = a.here_label();
    let l_done = a.label();
    a.li(T0, iters as i64);
    a.bge(S1, T0, l_done);
    a.inst(build::i_type(Op::Andi, A0, S1, 7));
    a.call(l_sel);
    a.add(S0, S0, A0);
    a.addi(S1, S1, 1);
    a.jump(l_loop);
    a.bind(l_done);
    a.li(T0, result as i64);
    a.sd(S0, T0, 0);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 24);
    a.ld(S0, SP, 16);
    a.ld(S1, SP, 8);
    a.addi(SP, SP, 32);
    a.ret();
    let main_size = a.here() - main_addr;

    // selector(a0): relative-table dispatch.
    a.bind(l_sel);
    let sel_addr = a.here();
    let l_default = a.label();
    a.li(T0, 4);
    a.bgeu(A0, T0, l_default);
    a.slli(T1, A0, 2); // 4-byte entries
    a.li(T2, table as i64);
    a.add(T2, T2, T1);
    a.lw(T3, T2, 0); // sign-extended offset
    a.li(T4, sel_addr as i64); // the offsets' base: selector entry
    a.add(T3, T4, T3);
    a.jalr(Reg::X0, T3, 0);
    let l_case = [a.label(), a.label(), a.label(), a.label()];
    for (i, l) in l_case.iter().enumerate() {
        a.bind(*l);
        a.li(A0, (i as i64 + 1) * 10);
        a.ret();
    }
    a.bind(l_default);
    a.li(A0, 0);
    a.ret();
    let sel_size = a.here() - sel_addr;

    // The relative table: i32 offsets from sel_addr.
    let mut rodata = Vec::with_capacity(16);
    for l in l_case {
        let off = a.label_addr(l).unwrap() as i64 - sel_addr as i64;
        rodata.extend_from_slice(&(off as i32).to_le_bytes());
    }

    let syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "selector".into(),
            addr: sel_addr,
            size: sel_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "jump_table".into(),
            addr: table,
            size: 16,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    finish_binary(a, layout, syms, rodata, vec![0; 8], 0, IsaProfile::rv64gc())
        .expect("relative switch program assembles")
}

/// The parallel-rewrite stress mutatee: `n` small call-connected
/// functions plus a jump-table selector.
///
/// `main` first exercises `selector` (a bounds-checked absolute jump
/// table, the §3.2.3 resolvable-dispatch idiom) with indices 0, 1 and an
/// out-of-range 5, then calls `f_0`; each `f_i` runs a 4-iteration
/// counted loop that bumps `a0` and tail of the body calls `f_{i+1}`, so
/// instrumenting the binary means planning `n + 3` functions — enough
/// work to keep a worker pool busy. The accumulated value
/// `30 + 4 * n` lands at `result`; `main` returns 0.
pub fn many_functions_program(n: usize) -> Binary {
    assert!(n >= 1, "need at least one chained function");
    // Each f_i assembles to ~44 bytes; past ~1000 functions the default
    // layout's .text span (0x8000 bytes before .rodata) would overflow
    // into the later sections, so scale the layout to the function count.
    // Small n keeps the default layout, bit-identical to before.
    let mut layout = Layout::default();
    let text_cap = 48 * n as u64 + 0x1000;
    if layout.text + text_cap > layout.rodata {
        let base = (layout.text + text_cap + 0xFFF) & !0xFFF;
        layout.rodata = base;
        layout.data = base + 0x8000;
        layout.bss = base + 0x1_8000;
    }
    let result = layout.data;
    let table = layout.rodata;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_sel = a.label();
    let l_f: Vec<_> = (0..n).map(|_| a.label()).collect();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    // main: sum the selector cases into s0, then feed it down the chain.
    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -32);
    a.sd(RA, SP, 24);
    a.sd(S0, SP, 16);
    a.li(S0, 0);
    for idx in [0i64, 1, 5] {
        a.li(A0, idx);
        a.call(l_sel);
        a.add(S0, S0, A0);
    }
    a.mv(A0, S0);
    a.call(l_f[0]);
    a.li(T0, result as i64);
    a.sd(A0, T0, 0);
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 24);
    a.ld(S0, SP, 16);
    a.addi(SP, SP, 32);
    a.ret();
    let main_size = a.here() - main_addr;

    // selector(a0): the jump-table dispatch (as in `switch_program`).
    a.bind(l_sel);
    let sel_addr = a.here();
    let l_default = a.label();
    a.li(T0, 4);
    a.bgeu(A0, T0, l_default);
    a.slli(T1, A0, 3);
    a.li(T2, table as i64);
    a.add(T2, T2, T1);
    a.ld(T2, T2, 0);
    a.jalr(Reg::X0, T2, 0);
    let l_case = [a.label(), a.label(), a.label(), a.label()];
    for (i, l) in l_case.iter().enumerate() {
        a.bind(*l);
        a.li(A0, (i as i64 + 1) * 10);
        a.ret();
    }
    a.bind(l_default);
    a.li(A0, 0);
    a.ret();
    let sel_size = a.here() - sel_addr;

    // f_i(a0): a counted loop bumping a0, then call f_{i+1}.
    let mut f_syms = Vec::with_capacity(n);
    for i in 0..n {
        a.bind(l_f[i]);
        let f_addr = a.here();
        a.addi(SP, SP, -16);
        a.sd(RA, SP, 8);
        a.li(T0, 0);
        a.li(T1, 4);
        let l_loop = a.here_label();
        let l_done = a.label();
        a.bge(T0, T1, l_done);
        a.addi(A0, A0, 1);
        a.addi(T0, T0, 1);
        a.jump(l_loop);
        a.bind(l_done);
        if i + 1 < n {
            a.call(l_f[i + 1]);
        }
        a.ld(RA, SP, 8);
        a.addi(SP, SP, 16);
        a.ret();
        f_syms.push(Sym {
            name: format!("f_{i}"),
            addr: f_addr,
            size: a.here() - f_addr,
            kind: SymbolKind::Function,
        });
    }

    // The jump table: absolute 8-byte code addresses.
    let mut rodata = Vec::with_capacity(32);
    for l in l_case {
        rodata.extend_from_slice(&a.label_addr(l).unwrap().to_le_bytes());
    }

    let mut syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "selector".into(),
            addr: sel_addr,
            size: sel_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "jump_table".into(),
            addr: table,
            size: 32,
            kind: SymbolKind::Object,
        },
        Sym {
            name: "result".into(),
            addr: result,
            size: 8,
            kind: SymbolKind::Object,
        },
    ];
    syms.extend(f_syms);
    finish_binary(a, layout, syms, rodata, vec![0; 8], 0, IsaProfile::rv64gc())
        .expect("many-functions program assembles")
}

/// Nested-call mutatee for stackwalker ground truth: a chain of
/// `frames.len()` functions `g_0 → g_1 → … → g_{n-1}`, called from
/// `main`, whose leaf executes `ebreak` with every frame live — the
/// walker must recover the exact chain `g_{n-1}, …, g_0, main, _start`.
///
/// * `frames[i]` varies `g_i`'s frame size: the frame is
///   `32 + (frames[i] % 101) * 16` bytes, so random inputs exercise the
///   stack-height analysis across 32..=1632-byte frames (within `addi`'s
///   ±2048 immediate).
/// * `frame_pointers` selects the prologue style. `false` builds
///   sp-only frames (the common RISC-V compiler output the paper
///   highlights — only the stackwalker's `SpHeightStepper` can walk
///   them); `true` maintains the gcc `s0` chain (`[fp-8]=ra,
///   [fp-16]=caller s0`), so `FpStepper` alone recovers the same
///   frames. `main` uses the same style; its saved `s0` is `_start`'s
///   0, terminating the fp chain.
///
/// Every function also stores and reloads its argument through a stack
/// slot, giving the memory tracer deterministic per-frame traffic.
pub fn nested_call_program(frames: &[u16], frame_pointers: bool) -> Binary {
    assert!(!frames.is_empty(), "need at least one nested function");
    let n = frames.len();
    // ~64 bytes per function; scale .text like many_functions_program.
    let mut layout = Layout::default();
    let text_cap = 80 * n as u64 + 0x1000;
    if layout.text + text_cap > layout.rodata {
        let base = (layout.text + text_cap + 0xFFF) & !0xFFF;
        layout.rodata = base;
        layout.data = base + 0x8000;
        layout.bss = base + 0x1_8000;
    }
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_g: Vec<_> = (0..n).map(|_| a.label()).collect();

    let start_addr = a.here();
    emit_start(&mut a, l_main);
    let start_size = a.here() - start_addr;

    // 32-byte minimum: the body spills through `sp+0`, which must not
    // alias the saved-s0 slot at `size-16` when frame pointers are on.
    let frame_size = |v: u16| 32 + (v as i64 % 101) * 16;
    let prologue = |a: &mut Assembler, size: i64| {
        a.addi(SP, SP, -size);
        a.sd(RA, SP, size - 8);
        if frame_pointers {
            a.sd(S0, SP, size - 16);
            a.addi(S0, SP, size);
        }
    };
    let epilogue = |a: &mut Assembler, size: i64| {
        a.ld(RA, SP, size - 8);
        if frame_pointers {
            a.ld(S0, SP, size - 16);
        }
        a.addi(SP, SP, size);
        a.ret();
    };

    a.bind(l_main);
    let main_addr = a.here();
    // main gets a fixed 32-byte frame in the selected style, so the fp
    // chain (when enabled) extends through main and ends at _start's
    // zero s0.
    prologue(&mut a, 32);
    a.li(A0, 0);
    a.call(l_g[0]);
    a.mv(A0, Reg::X0);
    epilogue(&mut a, 32);
    let main_size = a.here() - main_addr;

    let mut g_syms = Vec::with_capacity(n);
    for (i, v) in frames.iter().enumerate() {
        a.bind(l_g[i]);
        let g_addr = a.here();
        let size = frame_size(*v);
        prologue(&mut a, size);
        // Deterministic per-frame memory traffic: spill the depth
        // argument, reload it, pass depth+1 down the chain.
        a.sd(A0, SP, 0);
        a.ld(T0, SP, 0);
        if i + 1 < n {
            a.addi(A0, T0, 1);
            a.call(l_g[i + 1]);
        } else {
            a.ebreak(); // the debugger stop, with all n frames live
        }
        epilogue(&mut a, size);
        g_syms.push(Sym {
            name: format!("g_{i}"),
            addr: g_addr,
            size: a.here() - g_addr,
            kind: SymbolKind::Function,
        });
    }

    let mut syms = vec![
        Sym {
            name: "_start".into(),
            addr: start_addr,
            size: start_size,
            kind: SymbolKind::Function,
        },
        Sym {
            name: "main".into(),
            addr: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
        },
    ];
    syms.extend(g_syms);
    finish_binary(
        a,
        layout,
        syms,
        Vec::new(),
        Vec::new(),
        0,
        IsaProfile::rv64gc(),
    )
    .expect("nested call program assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_isa::decode::InstructionIter;

    fn decodes_cleanly(bin: &Binary) -> usize {
        let text = bin.section_by_name(".text").unwrap();
        let mut n = 0;
        for r in InstructionIter::new(&text.data, text.addr) {
            r.unwrap_or_else(|e| panic!("undecodable instruction in mutatee: {e}"));
            n += 1;
        }
        n
    }

    #[test]
    fn matmul_program_is_wellformed() {
        let bin = matmul_program(8, 1);
        assert!(decodes_cleanly(&bin) > 50);
        assert_eq!(bin.entry, 0x1_0000);
        assert!(bin.symbol_by_name("matmul").is_some());
        assert!(bin.symbol_by_name("main").is_some());
        // ELF round-trip.
        let bytes = bin.to_bytes().unwrap();
        let re = Binary::parse(&bytes).unwrap();
        assert_eq!(re.profile(), IsaProfile::rv64gc());
        assert_eq!(
            re.symbol_by_name("matmul").unwrap().value,
            bin.symbol_by_name("matmul").unwrap().value
        );
    }

    #[test]
    fn matmul_contains_compressed_instructions() {
        let bin = matmul_program(8, 1);
        let text = bin.section_by_name(".text").unwrap();
        let has_c = InstructionIter::new(&text.data, text.addr)
            .any(|r| r.map(|i| i.size == 2).unwrap_or(false));
        assert!(has_c, "mutatee should exercise the C extension");
    }

    #[test]
    fn all_programs_build_and_decode() {
        for bin in [
            matmul_program(4, 1),
            fib_program(5),
            switch_program(16),
            tailcall_program(),
            memcpy_program(),
            deep_call_program(10),
            many_functions_program(8),
        ] {
            assert!(decodes_cleanly(&bin) > 5);
            let bytes = bin.to_bytes().unwrap();
            Binary::parse(&bytes).unwrap();
        }
    }

    #[test]
    fn many_functions_has_one_symbol_per_chained_function() {
        let bin = many_functions_program(16);
        for i in 0..16 {
            let s = bin.symbol_by_name(&format!("f_{i}")).unwrap();
            assert!(s.size > 0, "f_{i} has an extent");
        }
        assert!(bin.symbol_by_name("selector").is_some());
    }

    #[test]
    fn switch_table_entries_point_into_selector() {
        let bin = switch_program(4);
        let table = bin.section_by_name(".rodata").unwrap();
        let sel = bin.symbol_by_name("selector").unwrap();
        for chunk in table.data.chunks(8) {
            let addr = u64::from_le_bytes(chunk.try_into().unwrap());
            assert!(
                addr >= sel.value && addr < sel.value + sel.size,
                "table entry {addr:#x} outside selector"
            );
        }
    }
}
