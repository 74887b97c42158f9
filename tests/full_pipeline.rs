//! Workspace-level integration: every component in one flow, exercising
//! both instrumentation variants of Figure 1 against the same mutatees
//! and cross-checking their results.

use rvdyn::{
    Binary, BinaryEditor, CodeObject, DynamicInstrumenter, ParseOptions, PointKind, RegAllocMode,
    SessionOptions, Snippet,
};

/// Closed-form dynamic block count of one matmul(n) call (11-block shape).
fn matmul_blocks(n: u64) -> u64 {
    1 + (n + 1) + n + n * (n + 1) + n * n + n * n * (n + 1) + n * n * n
        + 3 * n * n
        - n * n // B5 + B8 + B9 are n² each; simplify: n*n*3
        + n
        + 1
}

#[test]
fn figure1_static_and_dynamic_paths_agree_everywhere() {
    let n = 7usize;
    let reps = 3usize;

    // --- static (left path) ---
    let elf = rvdyn_asm::matmul_program(n, reps).to_bytes().unwrap();
    let mut ed = BinaryEditor::open(&elf).unwrap();
    let c_entry = ed.alloc_var(8);
    let c_block = ed.alloc_var(8);
    ed.insert(
        &ed.find_points("matmul", PointKind::FuncEntry).unwrap(),
        Snippet::increment(c_entry),
    );
    ed.insert(
        &ed.find_points("matmul", PointKind::BlockEntry).unwrap(),
        Snippet::increment(c_block),
    );
    let out = ed.rewrite().unwrap();
    let r = rvdyn::run_elf(&out, 2_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    let static_entry = r.read_u64(c_entry.addr).unwrap();
    let static_block = r.read_u64(c_block.addr).unwrap();

    // --- dynamic (right path, create variant) ---
    let bin = rvdyn_asm::matmul_program(n, reps);
    let mut dy = DynamicInstrumenter::create(bin);
    let d_entry = dy.alloc_var(8);
    let d_block = dy.alloc_var(8);
    dy.insert(
        &dy.find_points("matmul", PointKind::FuncEntry).unwrap(),
        Snippet::increment(d_entry),
    );
    dy.insert(
        &dy.find_points("matmul", PointKind::BlockEntry).unwrap(),
        Snippet::increment(d_block),
    );
    dy.commit().unwrap();
    assert_eq!(dy.run_to_exit().unwrap(), 0);

    assert_eq!(static_entry, reps as u64);
    assert_eq!(dy.read_var(d_entry), Some(static_entry));
    assert_eq!(dy.read_var(d_block), Some(static_block));
    assert_eq!(static_block, matmul_blocks(n as u64) * reps as u64);
}

#[test]
fn rewritten_binary_runs_but_is_refused_as_already_instrumented() {
    // A rewritten binary records nothing of what the rewrite did: opened
    // again, `matmul` is its 4-byte springboard, and `main` calls the
    // relocated copy directly. Counting its blocks again would report
    // one block run 0 times (near layout), so every delivery refuses it.
    let elf = rvdyn_asm::matmul_program(8, 2).to_bytes().unwrap();
    let mut ed = BinaryEditor::open(&elf).unwrap();
    let bc = ed.count_blocks("matmul").unwrap();
    let once = ed.rewrite().unwrap();

    // Running the rewritten file stays allowed, and its counters count.
    let r = rvdyn::run_elf(&once, 2_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(ed.block_counts(&bc, &r).unwrap().len(), 11);

    let refused = |res: Result<(), rvdyn::Error>, what: &str| match res {
        Err(e @ rvdyn::Error::AlreadyInstrumented { .. }) => {
            assert_eq!(e.stage(), rvdyn::Stage::Instrument, "{what}");
        }
        other => panic!("{what}: expected AlreadyInstrumented, got {other:?}"),
    };
    let layouts = [
        ("default", rvdyn::PatchLayout::default()),
        (
            "near",
            rvdyn::PatchLayout {
                patch_text: 0x10_0000,
                patch_data: 0x20_0000,
            },
        ),
        (
            "far",
            rvdyn::PatchLayout {
                patch_text: 0x1_0000_0000,
                patch_data: 0x1_1000_0000,
            },
        ),
    ];
    for (what, layout) in layouts {
        let mut ed2 = BinaryEditor::open_with(&once, SessionOptions::new().layout(layout)).unwrap();
        ed2.count_blocks("matmul").unwrap();
        refused(ed2.instrument_and_run(2_000_000_000).map(|_| ()), what);
    }

    let bin = Binary::parse(&once).unwrap();
    let mut di = DynamicInstrumenter::create_with(bin, SessionOptions::new());
    let c = di.alloc_var(8);
    di.insert(
        &di.find_points("matmul", PointKind::FuncEntry).unwrap(),
        Snippet::increment(c),
    );
    refused(di.commit(), "live commit");
}

#[test]
fn all_mutatees_instrument_and_run() {
    // Blanket coverage: per-block counters on the main worker function of
    // every mutatee in the suite; all must run to a clean exit with a
    // non-zero count.
    let cases: Vec<(Binary, &str)> = vec![
        (rvdyn_asm::matmul_program(4, 1), "matmul"),
        (rvdyn_asm::fib_program(7), "fib"),
        (rvdyn_asm::switch_program(12), "selector"),
        (rvdyn_asm::memcpy_program(), "copy"),
        (rvdyn_asm::tailcall_program(), "twice_plus1"),
    ];
    for (bin, func) in cases {
        let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
        let c = ed.alloc_var(8);
        let pts = ed
            .find_points(func, PointKind::BlockEntry)
            .unwrap_or_else(|e| panic!("{func}: {e}"));
        ed.insert(&pts, Snippet::increment(c));
        let out = ed.rewrite().unwrap_or_else(|e| panic!("{func}: {e}"));
        let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
        assert_eq!(r.exit_code, 0, "{func} exit");
        assert!(r.read_u64(c.addr).unwrap() > 0, "{func} counted nothing");
    }
}

#[test]
fn conditional_snippet_filters_events() {
    // A conditional snippet: count only calls where a3 (the N argument)
    // exceeds a threshold — exercises If/Bin lowering against mutatee
    // register state.
    let bin = rvdyn_asm::matmul_program(6, 4);
    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
    let c_all = ed.alloc_var(8);
    let c_big = ed.alloc_var(8);
    let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c_all));
    ed.insert(
        &pts,
        Snippet::If {
            cond: Box::new(Snippet::bin(
                rvdyn::BinaryOp::GtS,
                Snippet::ReadReg(rvdyn::Reg::x(13)), // a3 = N
                Snippet::Const(100),
            )),
            then_: Box::new(Snippet::increment(c_big)),
            else_: None,
        },
    );
    let out = ed.rewrite().unwrap();
    let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
    assert_eq!(r.read_u64(c_all.addr), Some(4));
    assert_eq!(r.read_u64(c_big.addr), Some(0), "N=6 is never > 100");
}

#[test]
fn snippet_reading_mutatee_state_observes_arguments() {
    // Record the a0 argument of the final call into a variable.
    let bin = rvdyn_asm::fib_program(5);
    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
    let last_arg = ed.alloc_var(8);
    let pts = ed.find_points("fib", PointKind::FuncEntry).unwrap();
    ed.insert(
        &pts,
        Snippet::WriteVar(last_arg, Box::new(Snippet::ReadReg(rvdyn::Reg::x(10)))),
    );
    let out = ed.rewrite().unwrap();
    let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
    // The recursion bottoms out at fib(1) on the rightmost path; the last
    // recorded argument is small (0 or 1).
    let v = r.read_u64(last_arg.addr).unwrap();
    assert!(v <= 1, "last fib argument should be a base case, got {v}");
}

#[test]
fn stripped_binary_full_pipeline_with_gap_parsing() {
    // Strip the symbols, parse with gap parsing, instrument the function
    // found at the known matmul address (symbols are gone, so we address
    // it by entry).
    let mut bin = rvdyn_asm::matmul_program(5, 2);
    let mm = bin.symbol_by_name("matmul").unwrap().value;
    bin.strip();
    let opts = ParseOptions {
        parse_gaps: true,
        ..Default::default()
    };
    let co = CodeObject::parse(&bin, &opts);
    assert!(co.functions.contains_key(&mm));

    let mut ins = rvdyn_patch::Instrumenter::new(&bin, &co);
    let c = ins.alloc_var(8);
    let pts = rvdyn::find_points(&co.functions[&mm], PointKind::FuncEntry);
    for p in pts {
        ins.insert(p, Snippet::increment(c));
    }
    let patched = ins.apply().unwrap();
    let r = rvdyn::editor::run_binary(&patched.binary, 1_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.read_u64(c.addr), Some(2));
}

#[test]
fn force_spill_mode_produces_correct_but_slower_binaries() {
    let bin = rvdyn_asm::matmul_program(6, 1);
    let mk = |mode: RegAllocMode| {
        let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::default());
        ed.set_mode(mode);
        let c = ed.alloc_var(8);
        ed.insert(
            &ed.find_points("matmul", PointKind::BlockEntry).unwrap(),
            Snippet::increment(c),
        );
        let out = ed.rewrite().unwrap();
        let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
        (r.read_u64(c.addr).unwrap(), r.cycles)
    };
    let (count_dead, cycles_dead) = mk(RegAllocMode::DeadRegisters);
    let (count_spill, cycles_spill) = mk(RegAllocMode::ForceSpill);
    assert_eq!(count_dead, count_spill, "semantics must be identical");
    assert!(cycles_spill > cycles_dead, "spilling must cost cycles");
}

#[test]
fn call_snippet_invokes_mutatee_function_and_preserves_state() {
    // Instrument main's entry with a snippet that CALLS the mutatee's own
    // `double_it` (x*2) and stores the result — Dyninst's "calling
    // functions" snippet type (§2). The live caller-saved registers must
    // be preserved around the call, so the program's own result (12) must
    // be unchanged.
    let bin = rvdyn_asm::tailcall_program();
    let double_it = bin.symbol_by_name("double_it").unwrap().value;
    let result = bin.symbol_by_name("result").unwrap().value;

    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
    let hook_out = ed.alloc_var(8);
    let pts = ed.find_points("main", PointKind::FuncEntry).unwrap();
    ed.insert(
        &pts,
        Snippet::WriteVar(
            hook_out,
            Box::new(Snippet::Call {
                target: double_it,
                args: vec![Snippet::Const(21)],
            }),
        ),
    );
    let out = ed.rewrite().unwrap();
    let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.read_u64(hook_out.addr), Some(42), "call snippet must run");
    let v = r.read_u64(result).unwrap();
    assert_eq!(v, 12, "mutatee state corrupted by the call snippet");
}

#[test]
fn call_snippet_at_every_block_of_hot_function() {
    // Stress: a call snippet at every block of fib — deep save/restore
    // nesting while the mutatee itself recurses.
    let bin = rvdyn_asm::tailcall_program();
    let double_it = bin.symbol_by_name("double_it").unwrap().value;
    let result = bin.symbol_by_name("result").unwrap().value;
    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
    let acc = ed.alloc_var(8);
    let pts = ed.find_points("main", PointKind::BlockEntry).unwrap();
    ed.insert(
        &pts,
        Snippet::WriteVar(
            acc,
            Box::new(Snippet::bin(
                rvdyn::BinaryOp::Add,
                Snippet::ReadVar(acc),
                Snippet::Call {
                    target: double_it,
                    args: vec![Snippet::Const(1)],
                },
            )),
        ),
    );
    let out = ed.rewrite().unwrap();
    let r = rvdyn::run_elf(&out, 1_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.read_u64(result), Some(12));
    // acc = 2 × number of executed blocks in main.
    let blocks = ed.find_points("main", PointKind::BlockEntry).unwrap().len() as u64;
    assert_eq!(r.read_u64(acc.addr), Some(2 * blocks));
}
