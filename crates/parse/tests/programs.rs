//! ParseAPI over the real mutatee suite: the §3.2.3 classification rules
//! and §4.1 CFG shape, end to end.

use rvdyn_asm::{fib_program, matmul_program, switch_program, tailcall_program};
use rvdyn_parse::{CodeObject, EdgeKind, ParseOptions};

fn parse(bin: &rvdyn_symtab::Binary) -> CodeObject {
    CodeObject::parse(bin, &ParseOptions::default())
}

#[test]
fn matmul_has_exactly_eleven_basic_blocks() {
    // §4.2: "there are 11 basic blocks in the multiply function".
    let bin = matmul_program(100, 1);
    let co = parse(&bin);
    let mm = bin.symbol_by_name("matmul").unwrap().value;
    let f = &co.functions[&mm];
    assert_eq!(
        f.blocks.len(),
        11,
        "matmul must have 11 basic blocks; got {:?}",
        f.blocks.keys().collect::<Vec<_>>()
    );
    // Three natural loops (i, j, k), properly nested.
    assert_eq!(f.loops().len(), 3, "matmul has a triple loop nest");
    let mut sizes: Vec<usize> = f.loops().iter().map(|l| l.body.len()).collect();
    sizes.sort();
    // k-loop: head+body (2); j-loop adds head/store/inc blocks; i-loop more.
    assert!(
        sizes[0] < sizes[1] && sizes[1] < sizes[2],
        "loops must nest: {sizes:?}"
    );
}

#[test]
fn matmul_function_discovery_via_calls() {
    let bin = matmul_program(10, 1);
    let co = parse(&bin);
    for name in ["_start", "main", "init_arrays", "matmul"] {
        let addr = bin.symbol_by_name(name).unwrap().value;
        let f = co
            .functions
            .get(&addr)
            .unwrap_or_else(|| panic!("{name} not discovered"));
        assert_eq!(f.name.as_deref(), Some(name));
    }
    // main calls init_arrays and matmul.
    let main = &co.functions[&bin.symbol_by_name("main").unwrap().value];
    let mm = bin.symbol_by_name("matmul").unwrap().value;
    let init = bin.symbol_by_name("init_arrays").unwrap().value;
    assert!(main.callees.contains(&mm));
    assert!(main.callees.contains(&init));
}

#[test]
fn switch_jump_table_fully_resolved() {
    let bin = switch_program(8);
    let co = parse(&bin);
    let sel = bin.symbol_by_name("selector").unwrap().value;
    let f = &co.functions[&sel];
    assert!(!f.has_unresolved, "jump table must resolve");
    // The dispatch block must carry 4 IndirectJump edges.
    let dispatch = f
        .blocks
        .values()
        .find(|b| b.edges.iter().any(|e| e.kind == EdgeKind::IndirectJump))
        .expect("no dispatch block found");
    let targets: Vec<u64> = dispatch
        .edges
        .iter()
        .filter(|e| e.kind == EdgeKind::IndirectJump)
        .map(|e| e.target.unwrap())
        .collect();
    assert_eq!(targets.len(), 4);
    // Each case block ends in a return.
    for t in targets {
        let b = f.blocks.get(t).expect("case block parsed");
        assert!(b.edges.iter().any(|e| e.kind == EdgeKind::Return));
    }
}

#[test]
fn tail_call_classified_and_target_is_function() {
    let bin = tailcall_program();
    let co = parse(&bin);
    let f_addr = bin.symbol_by_name("twice_plus1").unwrap().value;
    let g_addr = bin.symbol_by_name("double_it").unwrap().value;
    let f = &co.functions[&f_addr];
    // §3.2.3: "a simple jump actually represents a function call".
    let tc: Vec<_> = f
        .blocks
        .values()
        .flat_map(|b| b.edges.iter())
        .filter(|e| e.kind == EdgeKind::TailCall)
        .collect();
    assert_eq!(tc.len(), 1);
    assert_eq!(tc[0].target, Some(g_addr));
    assert!(f.callees.contains(&g_addr));
    // double_it is its own function, not part of twice_plus1.
    assert!(co.functions.contains_key(&g_addr));
    assert!(!f.blocks.contains_key(g_addr));
}

#[test]
fn fib_recursion_is_a_self_call() {
    let bin = fib_program(10);
    let co = parse(&bin);
    let fib = bin.symbol_by_name("fib").unwrap().value;
    let f = &co.functions[&fib];
    assert!(
        f.callees.contains(&fib),
        "recursive call must be a call edge"
    );
    // Two call sites inside fib.
    let call_edges: usize = f
        .blocks
        .values()
        .flat_map(|b| b.edges.iter())
        .filter(|e| e.kind == EdgeKind::Call && e.target == Some(fib))
        .count();
    assert_eq!(call_edges, 2);
}

#[test]
fn stripped_matmul_still_parses_from_entry() {
    // Strip symbols: traversal from the ELF entry must still find every
    // function reached by calls (§2: "operate on a binary without
    // symbols").
    let mut bin = matmul_program(10, 1);
    let mm = bin.symbol_by_name("matmul").unwrap().value;
    bin.strip();
    let co = parse(&bin);
    assert!(co.functions.contains_key(&mm), "matmul reachable via calls");
    assert_eq!(co.functions[&mm].blocks.len(), 11);
}

#[test]
fn parallel_parse_of_programs_matches_sequential() {
    for bin in [matmul_program(10, 1), switch_program(8), fib_program(5)] {
        let seq = CodeObject::parse(&bin, &ParseOptions::default());
        let par = CodeObject::parse(
            &bin,
            &ParseOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(
            seq.functions.keys().collect::<Vec<_>>(),
            par.functions.keys().collect::<Vec<_>>()
        );
        assert_eq!(seq.num_blocks(), par.num_blocks());
        assert_eq!(seq.num_insts(), par.num_insts());
    }
}

#[test]
fn block_instruction_addresses_are_contiguous() {
    let bin = matmul_program(10, 1);
    let co = parse(&bin);
    for f in co.functions.values() {
        for b in f.blocks.values() {
            let mut pc = b.start;
            for i in b.insts {
                assert_eq!(i.address, pc, "gap inside block at {pc:#x}");
                pc += i.size as u64;
            }
            assert_eq!(pc, b.end);
        }
    }
}

#[test]
fn every_intraprocedural_edge_lands_on_a_block() {
    for bin in [
        matmul_program(10, 1),
        switch_program(8),
        fib_program(5),
        tailcall_program(),
    ] {
        let co = parse(&bin);
        for f in co.functions.values() {
            for b in f.blocks.values() {
                for s in b.successors() {
                    assert!(
                        f.blocks.contains_key(s),
                        "edge {s:#x} from {:#x} dangles in {:?}",
                        b.start,
                        f.name
                    );
                }
            }
        }
    }
}

#[test]
fn relative_jump_table_fully_resolved() {
    // The gcc-style 4-byte offset table (second dispatch idiom).
    let bin = rvdyn_asm::switch_rel_program(8);
    let co = parse(&bin);
    let sel = bin.symbol_by_name("selector").unwrap().value;
    let f = &co.functions[&sel];
    assert!(!f.has_unresolved, "relative jump table must resolve");
    let dispatch = f
        .blocks
        .values()
        .find(|b| b.edges.iter().any(|e| e.kind == EdgeKind::IndirectJump))
        .expect("no dispatch block");
    let targets: Vec<u64> = dispatch
        .edges
        .iter()
        .filter(|e| e.kind == EdgeKind::IndirectJump)
        .filter_map(|e| e.target)
        .collect();
    assert_eq!(targets.len(), 4);
    for t in targets {
        assert!(f.blocks.contains_key(t), "case block {t:#x} parsed");
    }
}
