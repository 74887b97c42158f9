//! The relocation index's contract: every patch-area pc maps back to the
//! original instruction it stands for, snippet code maps to the
//! instruction it precedes, original code maps to itself, and a dynamic
//! session's index answers for every commit. The stack walker and the
//! benchmark's region classifier rely on exactly these answers.

use rvdyn::{BinaryEditor, DynamicInstrumenter, PatchLayout, SessionOptions};
use rvdyn_isa::{build, decode, Instruction, Op, Reg};
use rvdyn_parse::{BasicBlock, Edge, EdgeKind, Function};
use rvdyn_patch::{relocate_function, Insertions, Placement, RelocationIndex};
use rvdyn_symtab::{Binary, SHF_ALLOC};
use std::collections::{BTreeMap, BTreeSet};

/// Instructions the relocator copies without re-deriving a pc-relative
/// operand, so their relocated copy decodes to the same fields.
fn is_verbatim(i: &Instruction) -> bool {
    !(i.op.is_conditional_branch() || i.op == Op::Jal || i.op == Op::Auipc)
}

fn same_fields(a: &Instruction, b: &Instruction) -> bool {
    (a.op, a.rd, a.rs1, a.rs2, a.imm) == (b.op, b.rd, b.rs1, b.rs2, b.imm)
}

/// Every patch-area pc that `idx` maps somewhere else, grouped by the
/// original address it maps to, over `[lo, hi)` in 2-byte steps.
fn preimages(idx: &RelocationIndex, lo: u64, hi: u64) -> BTreeMap<u64, Vec<u64>> {
    let mut image: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for pc in (lo..hi).step_by(2) {
        let o = idx.to_original(pc);
        assert_eq!(idx.is_relocated(pc), o != pc, "is_relocated({pc:#x})");
        if o != pc {
            image.entry(o).or_default().push(pc);
        }
    }
    image
}

/// Count every block of every named function of `bin`, rewrite it
/// statically, and check the patch's relocation index against the
/// relocated code.
fn check_every_block_rewrite(bin: Binary, what: &str) {
    let elf = bin.to_bytes().unwrap();
    let mut ed = BinaryEditor::open_with(&elf, SessionOptions::new()).unwrap();
    let names: Vec<String> = ed
        .code()
        .functions
        .values()
        .filter_map(|f| f.name.clone())
        .collect();
    let mut entries = Vec::new();
    for n in &names {
        entries.push(ed.count_blocks(n).unwrap().func());
    }
    let r = ed.instrumented().unwrap();
    let idx = &r.reloc_index;
    let text = r
        .binary
        .sections
        .iter()
        .find(|s| s.name == ".rvdyn.text")
        .expect("patch code section");
    let (lo, hi) = (text.addr, text.addr + text.data.len() as u64);
    let decode_at = |pc: u64| decode(&text.data[(pc - lo) as usize..], pc).unwrap();

    let mut orig: BTreeMap<u64, Instruction> = BTreeMap::new();
    let mut starts: BTreeSet<u64> = BTreeSet::new();
    for fe in &entries {
        for b in ed.code().functions[fe].blocks.values() {
            starts.insert(b.start);
            for i in b.insts {
                orig.insert(i.address, *i);
            }
        }
    }

    let image = preimages(idx, lo, hi);
    for o in image.keys() {
        assert!(
            orig.contains_key(o),
            "{what}: patch code maps to {o:#x}, not an instrumented instruction"
        );
    }
    for (a, inst) in &orig {
        let pcs = image
            .get(a)
            .unwrap_or_else(|| panic!("{what}: no relocated pc maps back to {a:#x}"));
        if is_verbatim(inst) && !starts.contains(a) {
            assert!(
                same_fields(&decode_at(pcs[0]), inst),
                "{what}: the copy of {a:#x} at {:#x} differs",
                pcs[0]
            );
        }
    }

    // Each block starts with its counter snippet (ending in `sd`); every
    // pc of the snippet and the relocated first instruction map to the
    // block start.
    for s in &starts {
        let pcs = &image[s];
        assert!(
            pcs.windows(2).all(|w| w[1] == w[0] + 2),
            "{what}: pcs mapping to {s:#x} are not contiguous: {pcs:x?}"
        );
        let mut pc = pcs[0];
        loop {
            assert!(
                pcs.contains(&pc),
                "{what}: snippet pc {pc:#x} maps elsewhere"
            );
            let i = decode_at(pc);
            pc += i.size as u64;
            if i.op == Op::Sd {
                break;
            }
        }
        assert!(
            pcs.contains(&pc),
            "{what}: the copy of {s:#x} at {pc:#x} maps elsewhere"
        );
        if is_verbatim(&orig[s]) {
            assert!(
                same_fields(&decode_at(pc), &orig[s]),
                "{what}: the copy of {s:#x} at {pc:#x} differs"
            );
        }
    }

    // Original code and data map to themselves.
    for sec in bin.sections.iter().filter(|s| s.flags & SHF_ALLOC != 0) {
        for pc in (sec.addr..sec.addr + sec.data.len() as u64).step_by(2) {
            assert_eq!(idx.to_original(pc), pc, "{what}: {pc:#x} in {}", sec.name);
            assert!(!idx.is_relocated(pc), "{what}: {pc:#x} in {}", sec.name);
        }
    }
    let data = PatchLayout::default().patch_data;
    for pc in (data..data + 256).step_by(2) {
        assert_eq!(idx.to_original(pc), pc, "{what}: data {pc:#x}");
    }
}

#[test]
fn every_block_rewrite_of_matmul_maps_back() {
    check_every_block_rewrite(rvdyn_asm::matmul_program(8, 1), "matmul");
}

#[test]
fn every_block_rewrite_of_switch_maps_back() {
    check_every_block_rewrite(rvdyn_asm::switch_program(12), "switch");
}

#[test]
fn dynamic_index_answers_for_every_commit() {
    let bin = rvdyn_asm::matmul_program(8, 1);
    let first = PatchLayout::default();
    let second = PatchLayout {
        patch_text: 0xA_0000,
        patch_data: 0xE_0000,
    };
    let mut dy = DynamicInstrumenter::create_with(bin, SessionOptions::new());
    let mm = dy.count_blocks("matmul").unwrap().func();
    dy.commit().unwrap();
    dy.set_layout(second);
    let main = dy.count_blocks("main").unwrap().func();
    dy.commit().unwrap();

    let idx = dy.reloc_index();
    for (base, func) in [(first.patch_text, mm), (second.patch_text, main)] {
        let insts: BTreeSet<u64> = dy.code().functions[&func]
            .blocks
            .values()
            .flat_map(|b| b.insts.iter().map(|i| i.address))
            .collect();
        let image = preimages(idx, base, base + 0x4000);
        let mapped: BTreeSet<u64> = image.keys().copied().collect();
        assert_eq!(mapped, insts, "commit at {base:#x}");
    }
    assert_eq!(dy.run_to_exit().unwrap(), 0);
}

fn at(addr: u64, size: u8, i: Instruction) -> Instruction {
    Instruction {
        address: addr,
        size,
        ..i
    }
}

/// A function whose second block starts inside the first block's first
/// instruction and re-synchronises with it at 0x1004: the overlapping
/// code `parse_function` admits for misaligned branch targets.
fn overlapping_function() -> Function {
    let t0 = Reg::x(5);
    let ret = [Edge::out(EdgeKind::Return)];
    let shared = [
        at(0x1004, 4, build::addi(t0, t0, 2)),
        at(0x1008, 4, build::ret()),
    ];
    let mut first = vec![at(0x1000, 4, build::addi(t0, Reg::X0, 1))];
    first.extend(shared);
    let mut second = vec![at(0x1002, 2, build::addi(t0, t0, 3))];
    second.extend(shared);
    let block = |start, insts| BasicBlock {
        start,
        end: 0x100c,
        insts,
        edges: &ret,
    };
    Function::from_blocks(
        0x1000,
        [block(0x1000, &first[..]), block(0x1002, &second[..])],
    )
}

#[test]
fn overlapping_blocks_keep_the_first_slot_per_address() {
    let f = overlapping_function();
    let base = 0x8_0000;
    let r = relocate_function(&f, &Insertions::default(), base).unwrap();
    assert_eq!(r.code.len(), 24);
    let want: BTreeMap<u64, u64> = [
        (0x1000, base),
        (0x1002, base + 12),
        (0x1004, base + 4),
        (0x1008, base + 8),
    ]
    .into();
    assert_eq!(r.addr_map, want);
    assert_eq!(r.new_entry, base);

    // A snippet before the shared instruction is spliced into both
    // blocks; the first block's snippet slot wins.
    let mut ins = Insertions::default();
    let nop = rvdyn_isa::encode::encode32(&build::nop()).unwrap();
    ins.push(0x1004, Placement::Before, &[nop, nop]);
    let r = relocate_function(&f, &ins, base).unwrap();
    assert_eq!(r.code.len(), 40);
    let want: BTreeMap<u64, u64> = [
        (0x1000, base),
        (0x1002, base + 20),
        (0x1004, base + 4),
        (0x1008, base + 16),
    ]
    .into();
    assert_eq!(r.addr_map, want);
}
