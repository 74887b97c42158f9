//! Springboard redirect soundness (DESIGN.md §4, ROADMAP "springboard
//! clobber" item): overwriting the head of a function with a springboard
//! clobbers every instruction the springboard bytes overlap. If any
//! clobbered address can still be reached — compressed instructions
//! straddled by a 4-byte jump, or an entry block that is also an
//! indirect-jump target — the patcher must either have a redirect
//! registered for it or refuse with `Error::SpringboardClobber`.
//!
//! The mutatee is `rvdyn_asm::indirect_entry_program`: `spin`'s entry
//! block opens with two compressed instructions and is re-entered through
//! a `.rodata` jump table, so a 4-byte entry springboard clobbers two
//! addresses and *both* stay reachable.

use rvdyn::{
    audit_redirect_coverage, clobbered_addresses, BinaryEditor, CodeObject, DynamicInstrumenter,
    Error, ParseOptions, PointKind, SessionOptions, Snippet, Stage,
};
use rvdyn_asm::indirect_entry_program;
use rvdyn_patch::{find_points, Instrumenter};
use std::collections::BTreeMap;

const ITERS: u64 = 9;

fn spin_entry(co: &CodeObject) -> u64 {
    co.functions
        .values()
        .find(|f| f.name.as_deref() == Some("spin"))
        .expect("spin parsed")
        .entry
}

/// The deterministic shape the whole suite relies on: the entry block is
/// an indirect-jump target and a 4-byte springboard clobbers exactly the
/// two compressed instructions at its head.
#[test]
fn entry_block_is_indirect_target_with_compressed_straddle() {
    let bin = indirect_entry_program(ITERS);
    let co = CodeObject::parse(&bin, &ParseOptions::default());
    let spin = spin_entry(&co);
    let f = &co.functions[&spin];

    let entry_block = f.blocks.at(f.entry);
    assert_eq!(entry_block.insts[0].size, 2, "entry opens compressed");
    assert_eq!(entry_block.insts[1].size, 2, "second inst compressed");

    let indirect_targets: Vec<u64> = f
        .blocks
        .values()
        .flat_map(|b| b.edges.iter())
        .filter(|e| matches!(e.kind, rvdyn::EdgeKind::IndirectJump))
        .filter_map(|e| e.target)
        .collect();
    assert_eq!(
        indirect_targets,
        vec![spin],
        "jump table must resolve back to spin's entry"
    );

    assert_eq!(
        clobbered_addresses(f, spin, 4),
        vec![spin, spin + 2],
        "4-byte springboard straddles both compressed instructions"
    );
}

/// The audit itself: with no relocation map there is no redirect coverage,
/// and the typed error names every clobbered address.
#[test]
fn audit_rejects_uncovered_clobbers_with_typed_error() {
    let bin = indirect_entry_program(ITERS);
    let co = CodeObject::parse(&bin, &ParseOptions::default());
    let spin = spin_entry(&co);
    let f = &co.functions[&spin];

    let err = audit_redirect_coverage(f, spin, 4, &BTreeMap::new()).unwrap_err();
    let err: Error = err.into();
    match &err {
        Error::SpringboardClobber { pc, clobbered } => {
            assert_eq!(*pc, spin);
            assert_eq!(clobbered, &vec![spin, spin + 2]);
        }
        other => panic!("expected SpringboardClobber, got {other:?}"),
    }
    assert_eq!(err.stage(), Stage::Instrument);
    assert_eq!(err.pc(), Some(spin));

    // Partial coverage is still a rejection, and the error lists exactly
    // the missing addresses.
    let mut partial = BTreeMap::new();
    partial.insert(spin, 0x8_0000u64);
    match audit_redirect_coverage(f, spin, 4, &partial) {
        Err(rvdyn::InstrumentError::SpringboardClobber { clobbered, .. }) => {
            assert_eq!(clobbered, vec![spin + 2]);
        }
        other => panic!("expected SpringboardClobber, got {other:?}"),
    }

    // Full coverage passes and returns the redirect pairs.
    partial.insert(spin + 2, 0x8_0004u64);
    let pairs = audit_redirect_coverage(f, spin, 4, &partial).unwrap();
    assert_eq!(pairs, vec![(spin, 0x8_0000), (spin + 2, 0x8_0004)]);
}

/// The regression the ISSUE pins: instrumenting a function whose entry
/// block is an indirect-jump target must register a redirect for EVERY
/// clobbered address — the trap table covers the full clobbered set.
#[test]
fn patch_registers_redirects_for_all_clobbered_addresses() {
    let bin = indirect_entry_program(ITERS);
    let co = CodeObject::parse(&bin, &ParseOptions::default());
    let spin = spin_entry(&co);
    let f = &co.functions[&spin];

    let mut ins = Instrumenter::new(&bin, &co);
    let counter = ins.alloc_var(8);
    ins.insert_at_points(
        &find_points(f, PointKind::FuncEntry),
        &Snippet::increment(counter),
    );
    let patched = ins.apply().unwrap();

    let clobbered = clobbered_addresses(f, spin, 4);
    assert_eq!(clobbered, vec![spin, spin + 2]);
    for pc in &clobbered {
        assert!(
            patched.trap_table.iter().any(|(from, _)| from == pc),
            "clobbered address {pc:#x} has no redirect in the trap table"
        );
    }
    assert!(patched.clobbers_audited >= clobbered.len());
    assert!(patched.redirects_registered >= clobbered.len());
}

/// Static path, end to end: the rewritten ELF still computes the right
/// answer (every table dispatch lands on covered code), the counter is
/// exact, and the audit counters surface in the session diagnostics.
#[test]
fn static_rewrite_of_indirect_entry_function_stays_correct() {
    let bin = indirect_entry_program(ITERS);
    let result_addr = bin.symbol_by_name("result").unwrap().value;

    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
    let counter = ed.alloc_var(8);
    let pts = ed.find_points("spin", PointKind::FuncEntry).unwrap();
    ed.insert(&pts, Snippet::increment(counter));
    let out = ed.rewrite().unwrap();

    let d = ed.diagnostics();
    assert!(d.clobbers_audited >= 2, "audit ran: {d:?}");
    assert!(d.redirects_registered >= 2, "redirects registered: {d:?}");
    let json = d.to_json();
    assert!(json.contains("\"clobbers_audited\":"));
    assert!(json.contains("\"redirects_registered\":"));

    let r = rvdyn::run_elf(&out, 100_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.read_u64(result_addr), Some(ITERS), "semantics preserved");
    assert_eq!(
        r.read_u64(counter.addr),
        Some(ITERS),
        "every entry — direct call and indirect re-entry — counted"
    );
}

/// Dynamic path: the same mutatee through the debug interface. The
/// runtime redirect table must cover the same clobbered set, and the live
/// run must stay correct.
#[test]
fn dynamic_commit_covers_clobbers_and_runs_correct() {
    let bin = indirect_entry_program(ITERS);
    let result_addr = bin.symbol_by_name("result").unwrap().value;
    let co = CodeObject::parse(&bin, &ParseOptions::default());
    let spin = spin_entry(&co);
    let clobbered = clobbered_addresses(&co.functions[&spin], spin, 4);

    let mut dy = DynamicInstrumenter::create(bin);
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("spin", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    dy.commit().unwrap();

    for pc in &clobbered {
        assert!(
            dy.process().machine().trap_redirects.contains_key(pc),
            "runtime redirect table missing clobbered address {pc:#x}"
        );
    }

    assert_eq!(dy.run_to_exit().unwrap(), 0);
    assert_eq!(dy.read_var(counter), Some(ITERS));
    let got = dy
        .process()
        .read_mem(result_addr, 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .ok();
    assert_eq!(got, Some(ITERS), "semantics preserved under redirects");
    assert!(dy.diagnostics().clobbers_audited >= 2);
}
