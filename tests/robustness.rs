//! Robustness suite: regression tests for found bugs plus stress and
//! fuzz-style coverage of the rewriter.

use rvdyn::{BinaryEditor, PointKind, SessionOptions, Snippet};

#[test]
fn bss_survives_elf_round_trip() {
    // Regression: SHT_NOBITS sections were serialised with sh_size = 0,
    // so reloaded binaries lost all but one page of .bss. N=30 needs
    // ~21 KiB of arrays — well past a page.
    let bin = rvdyn_asm::matmul_program(30, 1);
    let bytes = bin.to_bytes().unwrap();
    let re = rvdyn::Binary::parse(&bytes).unwrap();
    let bss = re.section_by_name(".bss").unwrap();
    assert_eq!(
        bss.data.len(),
        3 * 30 * 30 * 8,
        "bss size lost in round trip"
    );
    let r = rvdyn::run_elf(&bytes, 1_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
}

#[test]
fn whole_program_instrumentation() {
    // Per-block counters on EVERY function (including _start): every
    // function gets relocated, every call chain crosses springboards, and
    // the program must still be fully correct.
    let n = 6usize;
    let bin = rvdyn_asm::matmul_program(n, 2);
    let names: Vec<String> = rvdyn::CodeObject::parse(&bin, &rvdyn::ParseOptions::default())
        .functions
        .values()
        .filter_map(|f| f.name.clone())
        .collect();
    let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::default());
    let c = ed.alloc_var(8);
    for name in &names {
        let pts = ed.find_points(name, PointKind::BlockEntry).unwrap();
        ed.insert(&pts, Snippet::increment(c));
    }
    let out = ed.rewrite().unwrap();
    let r = rvdyn::run_elf(&out, 2_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    // Correct product despite instrumenting everything.
    let c_addr = bin.symbol_by_name("mat_c").unwrap().value;
    for i in 0..n {
        for j in 0..n {
            let mut expect = 0.0f64;
            for k in 0..n {
                expect += (i + k) as f64 * (k as f64 - j as f64);
            }
            let got = f64::from_bits(r.read_u64(c_addr + ((i * n + j) * 8) as u64).unwrap());
            assert_eq!(got, expect, "C[{i}][{j}]");
        }
    }
    // Global block count is large and sane: more than matmul's own blocks.
    let blocks = r.read_u64(c.addr).unwrap();
    assert!(blocks > 2 * 300, "whole-program count too small: {blocks}");
}

#[test]
fn random_point_subsets_never_break_the_program() {
    // Fuzz-flavoured: for a range of seeds, instrument a random subset of
    // matmul's 11 block points; the rewritten binary must always exit 0
    // with the same observable output, and the counter must equal the
    // exact sum of the chosen blocks' dynamic counts.
    let n = 5u64;
    // Per-block dynamic counts in block address order (B1..B11).
    let per_block: [u64; 11] = [
        1,
        n + 1,
        n,
        n * (n + 1),
        n * n,
        n * n * (n + 1),
        n * n * n,
        n * n,
        n * n,
        n,
        1,
    ];
    let bin = rvdyn_asm::matmul_program(n as usize, 1);
    let base = rvdyn::editor::run_binary(&bin, 1_000_000_000).unwrap();

    for seed in 0u32..24 {
        let mask = (seed.wrapping_mul(2654435761)) % (1 << 11);
        let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::default());
        let c = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::BlockEntry).unwrap();
        assert_eq!(pts.len(), 11);
        let mut expect = 0u64;
        for (i, p) in pts.iter().enumerate() {
            if mask & (1 << i) != 0 {
                ed.insert(&[*p], Snippet::increment(c));
                expect += per_block[i];
            }
        }
        let out = ed.rewrite().unwrap();
        let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
        assert_eq!(r.exit_code, 0, "seed {seed}");
        assert_eq!(
            r.read_u64(c.addr),
            Some(expect),
            "seed {seed} mask {mask:#b}: wrong counter"
        );
        assert_eq!(
            r.stdout.len(),
            base.stdout.len(),
            "seed {seed}: output shape"
        );
    }
}

#[test]
fn no_compressed_profile_gets_no_compressed_springboards() {
    // An RV64G (no C extension) mutatee: the springboard planner and the
    // relocation engine must emit only 4-byte-aligned standard encodings.
    use rvdyn_asm::Assembler;
    use rvdyn_isa::Reg;
    use rvdyn_symtab::{
        Section, Symbol, SymbolBinding, SymbolKind, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE,
    };

    let mut a = Assembler::new(0x1_0000);
    let l_main = a.label();
    a.call(l_main);
    a.li(Reg::x(17), 93);
    a.ecall();
    a.bind(l_main);
    let main_addr = a.here();
    a.addi(Reg::X2, Reg::X2, -16);
    a.sd(Reg::X1, Reg::X2, 8);
    a.li(Reg::x(5), 10);
    let head = a.here_label();
    a.addi(Reg::x(5), Reg::x(5), -1);
    a.bne(Reg::x(5), Reg::X0, head);
    a.mv(Reg::x(10), Reg::X0);
    a.ld(Reg::X1, Reg::X2, 8);
    a.addi(Reg::X2, Reg::X2, 16);
    a.ret();
    let main_size = a.here() - main_addr;
    let code = a.finish().unwrap();
    let profile = rvdyn_isa::IsaProfile::rv64g();
    let bin = rvdyn::Binary {
        entry: 0x1_0000,
        e_flags: rvdyn::Binary::eflags_for(profile),
        e_type: rvdyn_symtab::elf::ET_EXEC,
        sections: vec![
            Section::progbits(".text", 0x1_0000, SHF_ALLOC | SHF_EXECINSTR, code),
            Section::progbits(".data", 0x2_0000, SHF_ALLOC | SHF_WRITE, vec![0; 8]),
        ],
        symbols: vec![Symbol {
            name: "main".into(),
            value: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
            binding: SymbolBinding::Global,
        }],
        attributes: Some(rvdyn_symtab::RiscvAttributes::for_profile(profile)),
    };
    assert_eq!(bin.profile(), profile);

    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
    let c = ed.alloc_var(8);
    let pts = ed.find_points("main", PointKind::BlockEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c));
    let patched = ed.instrumented().unwrap();

    // The springboard at main must be the 4-byte jal, not c.j.
    let text = patched.binary.section_by_name(".text").unwrap();
    let off = (main_addr - text.addr) as usize;
    assert_eq!(
        text.data[off] & 0b11,
        0b11,
        "springboard must be a standard 4-byte encoding on RV64G"
    );
    // And the rewritten program still runs correctly.
    let r = rvdyn::editor::run_binary(&patched.binary, 10_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.read_u64(c.addr), Some(1 + 10 + 1)); // entry + 10 loop heads + exit...
}

// --- Typed error paths (the panic-free pipeline contract) ------------------
//
// A mutatee that faults, stalls, or defeats the patcher is *data* the tool
// must be able to report: every scenario below used to panic (or would
// have) and now comes back as an inspectable `rvdyn::Error`.

mod typed_errors {
    use super::*;
    use rvdyn::{DynamicInstrumenter, Error, RegAllocMode, Stage};

    #[test]
    fn mutatee_fault_is_a_typed_error_with_pc_and_addr() {
        // Instrument normally, then derail the mutatee: point its pc at
        // unmapped memory. The fetch fault must surface as MutateeFault —
        // never a mutator panic.
        let bin = rvdyn_asm::matmul_program(4, 1);
        let mut dy = DynamicInstrumenter::create(bin);
        let c = dy.alloc_var(8);
        let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
        dy.insert(&pts, Snippet::increment(c));
        dy.commit().unwrap();
        dy.process_mut().set_pc(0xDEAD_0000);
        match dy.run_to_exit() {
            Err(Error::MutateeFault { pc, addr }) => {
                assert_eq!(pc, 0xDEAD_0000);
                assert_eq!(addr, 0xDEAD_0000);
            }
            other => panic!("expected MutateeFault, got {other:?}"),
        }
        // The error also reports its stage and pc generically.
        dy.process_mut().set_pc(0xDEAD_0000);
        let err = dy.run_to_exit().unwrap_err();
        assert_eq!(err.stage(), Stage::Run);
        assert_eq!(err.pc(), Some(0xDEAD_0000));
    }

    #[test]
    fn store_to_unmapped_memory_reports_the_bad_address() {
        // A mutatee whose own code stores to an unmapped address: the
        // MemFault must carry the *data* address, distinct from the pc.
        use rvdyn_isa::Reg;
        let mut a = rvdyn_asm::Assembler::new(0x1_0000);
        a.li(Reg::x(5), 0x6666_0000); // unmapped
        let store_pc = a.here();
        a.sd(Reg::x(6), Reg::x(5), 0);
        a.li(Reg::x(17), 93);
        a.ecall();
        let code = a.finish().unwrap();
        let profile = rvdyn_isa::IsaProfile::rv64gc();
        let bin = rvdyn::Binary {
            entry: 0x1_0000,
            e_flags: rvdyn::Binary::eflags_for(profile),
            e_type: rvdyn_symtab::elf::ET_EXEC,
            sections: vec![rvdyn_symtab::Section::progbits(
                ".text",
                0x1_0000,
                rvdyn_symtab::SHF_ALLOC | rvdyn_symtab::SHF_EXECINSTR,
                code,
            )],
            symbols: vec![],
            attributes: Some(rvdyn_symtab::RiscvAttributes::for_profile(profile)),
        };
        let err = match rvdyn::editor::run_binary(&bin, 1_000_000) {
            Err(e) => e,
            Ok(_) => panic!("expected a memory fault"),
        };
        match err {
            Error::MutateeFault { pc, addr } => {
                assert_eq!(pc, store_pc);
                assert_eq!(addr, 0x6666_0000);
            }
            other => panic!("expected MutateeFault, got {other:?}"),
        }
    }

    #[test]
    fn illegal_instruction_is_the_same_mutatee_fault_static_and_live() {
        // `li a0, 5` and then an all-zero word, which decodes as nothing:
        // the mutatee faults on its own code, on every delivery path.
        use rvdyn_isa::Reg;
        let mut a = rvdyn_asm::Assembler::new(0x1_0000);
        a.li(Reg::x(10), 5);
        let bad = a.here();
        let mut code = a.finish().unwrap();
        code.extend([0u8; 4]);
        let mut bin = rvdyn_asm::fib_program(1);
        bin.entry = 0x1_0000;
        bin.sections = vec![rvdyn_symtab::Section::progbits(
            ".text",
            0x1_0000,
            rvdyn_symtab::SHF_ALLOC | rvdyn_symtab::SHF_EXECINSTR,
            code,
        )];
        bin.symbols.clear();
        let elf = bin.to_bytes().unwrap();
        let fault = |err: Error| match err {
            Error::MutateeFault { pc, addr } => (pc, addr),
            other => panic!("expected MutateeFault, got {other:?}"),
        };
        for engine in [rvdyn::EmuEngine::Interpreter, rvdyn::EmuEngine::Cached] {
            let err = match rvdyn::run_elf_with(&elf, 1_000, engine) {
                Err(e) => e,
                Ok(r) => panic!("{engine:?}: exited {}", r.exit_code),
            };
            assert_eq!(err.stage(), Stage::Run);
            assert_eq!(fault(err), (bad, bad), "{engine:?}");
        }
        let mut dy = DynamicInstrumenter::create(bin);
        assert_eq!(fault(dy.run_to_exit().unwrap_err()), (bad, bad));
    }

    #[test]
    fn fuel_exhaustion_is_a_typed_unclean_exit() {
        let elf = rvdyn_asm::matmul_program(8, 1).to_bytes().unwrap();
        match rvdyn::run_elf(&elf, 100) {
            Err(Error::UncleanExit { reason, icount, .. }) => {
                assert_eq!(icount, 100);
                assert!(reason.contains("fuel"), "reason: {reason}");
            }
            Err(other) => panic!("expected UncleanExit, got {other}"),
            Ok(_) => panic!("expected UncleanExit, got a clean exit"),
        }
    }

    #[test]
    fn far_patch_area_turns_tail_call_into_typed_relocation_error() {
        // twice_plus1 tail-calls double_it with `jal x0` — a jump with no
        // link register to spare. Relocating it ~1 GiB away exceeds jal's
        // ±1 MiB reach with no register to widen through: the springboard
        // planner's failure mode, reported as JumpOutOfRange.
        let bin = rvdyn_asm::tailcall_program();
        let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
        ed.set_layout(rvdyn::PatchLayout {
            patch_text: 0x4000_0000,
            patch_data: 0x4100_0000,
        });
        let c = ed.alloc_var(8);
        let pts = ed.find_points("twice_plus1", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, Snippet::increment(c));
        let err = match ed.rewrite() {
            Err(e) => e,
            Ok(_) => panic!("expected a relocation failure"),
        };
        assert_eq!(err.stage(), Stage::Instrument);
        match err {
            Error::Instrument {
                source:
                    rvdyn_patch::InstrumentError::Relocate(
                        rvdyn_patch::relocate::RelocateError::JumpOutOfRange { at, target },
                    ),
            } => {
                assert!(target < 0x4000_0000, "target is the original double_it");
                assert!(at >= 0x4000_0000, "jump sits in the far patch area");
            }
            other => panic!("expected JumpOutOfRange, got {other}"),
        }
    }

    /// The overlap `rewrite()` reports, or a panic naming what it got.
    fn layout_overlap(mut ed: BinaryEditor) -> (&'static str, (u64, u64), String, (u64, u64)) {
        let err = match ed.rewrite() {
            Err(e) => e,
            Ok(_) => panic!("expected an overlapping layout to be refused"),
        };
        assert_eq!(err.stage(), Stage::Instrument);
        match err {
            Error::Instrument {
                source:
                    rvdyn_patch::InstrumentError::LayoutOverlap {
                        area,
                        range,
                        other,
                        other_range,
                    },
            } => (area, range, other, other_range),
            other => panic!("expected LayoutOverlap, got {other}"),
        }
    }

    #[test]
    fn patch_area_inside_bss_is_a_typed_layout_error() {
        // matmul(200)'s .bss spans 0x30000..0x11a600 and covers both
        // default patch areas; the rewrite used to succeed and the run
        // then executed zeroed data at 0x80000.
        let mut ed =
            BinaryEditor::from_binary(rvdyn_asm::matmul_program(200, 1), SessionOptions::default());
        ed.count_blocks("matmul").unwrap();
        let (area, range, other, other_range) = layout_overlap(ed);
        assert_eq!(area, ".rvdyn.text");
        assert_eq!(range.0, 0x8_0000);
        assert_eq!(other, ".bss");
        assert_eq!(other_range, (0x3_0000, 0x11_a600));
    }

    #[test]
    fn patch_data_inside_patch_code_is_a_typed_layout_error() {
        let mut ed =
            BinaryEditor::from_binary(rvdyn_asm::fib_program(5), SessionOptions::default());
        ed.set_layout(rvdyn::PatchLayout {
            patch_text: 0x8_0000,
            patch_data: 0x8_0010,
        });
        ed.count_blocks("fib").unwrap();
        let (area, range, other, other_range) = layout_overlap(ed);
        assert_eq!(area, ".rvdyn.text");
        assert!(range.0 == 0x8_0000 && range.1 > 0x8_0010, "{range:x?}");
        assert_eq!(other, ".rvdyn.data");
        assert_eq!(other_range.0, 0x8_0010);
    }

    #[test]
    fn snippet_needing_too_many_registers_is_a_typed_codegen_error() {
        // A balanced 2^15-leaf expression tree needs 15 simultaneous
        // scratch registers (its leaf pairs fold into `addi`) — one more
        // than the allocator's candidate pool, even with every register
        // spillable.
        fn deep(depth: u32) -> Snippet {
            if depth == 0 {
                Snippet::Const(1)
            } else {
                Snippet::bin(rvdyn::BinaryOp::Add, deep(depth - 1), deep(depth - 1))
            }
        }
        let bin = rvdyn_asm::matmul_program(4, 1);
        let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
        let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, deep(15));
        let err = match ed.rewrite() {
            Err(e) => e,
            Ok(_) => panic!("expected an out-of-registers failure"),
        };
        assert_eq!(err.stage(), Stage::Instrument);
        assert!(
            err.to_string().contains("register"),
            "expected an out-of-registers diagnosis, got: {err}"
        );
    }

    #[test]
    fn zero_dead_register_point_spills_instead_of_failing() {
        // Force the all-registers-live worst case: the allocator must fall
        // back to spill slots (§4.3's slow path), succeed, and the
        // diagnostics must show zero dead-register points.
        let bin = rvdyn_asm::matmul_program(4, 2);
        let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
        ed.set_mode(RegAllocMode::ForceSpill);
        let c = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, Snippet::increment(c));
        let out = ed.rewrite().unwrap();
        let d = ed.diagnostics();
        assert_eq!(d.dead_register_points, 0, "every point must have spilled");
        assert!(d.spills > 0, "spill slots must have been used");
        let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
        assert_eq!(r.exit_code, 0);
        assert_eq!(r.read_u64(c.addr), Some(2));
    }

    #[test]
    fn diagnostics_cover_the_full_pipeline() {
        // One end-to-end dynamic run with every stage's counters checked.
        let bin = rvdyn_asm::matmul_program(5, 3);
        let mut dy = DynamicInstrumenter::create(bin);
        let parse_d = dy.diagnostics();
        assert!(parse_d.functions_parsed >= 3); // _start, main, matmul, …
        assert!(parse_d.blocks_parsed > parse_d.functions_parsed);
        assert!(parse_d.instructions_decoded as usize > parse_d.blocks_parsed);
        assert_eq!(parse_d.points_instrumented, 0);
        assert_eq!(parse_d.instret, 0);

        let c = dy.alloc_var(8);
        let pts = dy.find_points("matmul", PointKind::BlockEntry).unwrap();
        dy.insert(&pts, Snippet::increment(c));
        dy.commit().unwrap();
        let patch_d = dy.diagnostics();
        assert_eq!(patch_d.points_instrumented, pts.len());
        assert!(
            patch_d.dead_register_points > 0,
            "matmul's blocks have dead temporaries"
        );
        assert_eq!(patch_d.springboards.total(), 1); // one relocated function
        assert_eq!(patch_d.springboards.trap, 0, "no trap springboards needed");

        assert_eq!(dy.run_to_exit().unwrap(), 0);
        let run_d = dy.diagnostics();
        assert!(run_d.instret > 0);
        assert!(run_d.cycles >= run_d.instret);
        // The printable summary mentions every stage.
        let text = run_d.to_string();
        for needle in ["parse:", "instrument:", "springboards:", "run:"] {
            assert!(text.contains(needle), "summary missing {needle}: {text}");
        }
    }
}
