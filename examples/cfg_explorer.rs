//! CFG explorer: the analysis side of rvdyn, no instrumentation.
//!
//! ```sh
//! cargo run --example cfg_explorer
//! ```
//!
//! Parses two mutatees and prints what ParseAPI/DataflowAPI discovered:
//! functions, basic blocks, edges (including the classified `jal`/`jalr`
//! purposes of §3.2.3), natural loops, a resolved jump table, and
//! per-block register liveness.

use rvdyn::{CodeObject, Liveness, ParseOptions};
use rvdyn_isa::disasm::format_instruction;
use rvdyn_parse::EdgeKind;

fn explore(name: &str, bin: &rvdyn::Binary) {
    println!("==== {name} ====");
    let co = CodeObject::parse(bin, &ParseOptions::default());
    for f in co.functions.values() {
        let (lo, hi) = f.extent();
        // `loops()` computes the function's natural loops on this first
        // call; the parse leaves them to whoever reads them.
        println!(
            "\nfunction {} @ {:#x}..{:#x}: {} blocks, {} loops{}",
            f.name.as_deref().unwrap_or("<anon>"),
            lo,
            hi,
            f.blocks.len(),
            f.loops().len(),
            if f.has_unresolved {
                " (has unresolved flow)"
            } else {
                ""
            }
        );
        let lv = Liveness::analyze(f);
        for b in f.blocks.values() {
            let dead = lv.live_in(b.start).complement();
            println!(
                "  block {:#x}..{:#x}  ({} dead GPRs at entry)",
                b.start,
                b.end,
                dead.intersect(rvdyn_isa::RegSet::ALL_GPR).len()
            );
            for i in b.insts {
                println!("    {:#8x}:  {}", i.address, format_instruction(i));
            }
            for e in b.edges {
                match (e.kind, e.target) {
                    (EdgeKind::Return, _) => println!("      └─ return"),
                    (k, Some(t)) => println!("      └─ {k:?} → {t:#x}"),
                    (k, None) => println!("      └─ {k:?}"),
                }
            }
        }
        for l in f.loops() {
            println!(
                "  loop: header {:#x}, {} blocks, latches {:?}",
                l.header,
                l.body.len(),
                l.latches
                    .iter()
                    .map(|x| format!("{x:#x}"))
                    .collect::<Vec<_>>()
            );
        }
    }
    println!();
}

fn main() {
    // The paper's matmul: 11 blocks, a triple loop nest.
    explore(
        "matmul application (§4.1)",
        &rvdyn_asm::matmul_program(8, 1),
    );
    // The jump-table mutatee: watch the IndirectJump edges on the
    // dispatch block — the §3.2.3 jump-table analysis at work.
    explore("switch / jump table", &rvdyn_asm::switch_program(4));
}
