//! Direct call sites by callee: the index the instrumenter reads to let
//! original code call a relocated function's copy directly.
//!
//! A call site here is a 4-byte `jal` (any link register) that ends a
//! parsed block and that the parser classified as a call or tail call to
//! its target, a function entry. Compressed `c.j` sites are left out,
//! since ±2 KiB cannot reach a patch area, and so are indirect calls and
//! `auipc; jalr` pairs, which cannot be rewritten with one write a
//! stopped process sees whole.

use rvdyn_isa::{Op, Reg};
use rvdyn_parse::{CodeObject, EdgeKind};

/// One direct call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Entry of the called function.
    pub callee: u64,
    /// Address of the `jal`.
    pub site: u64,
    /// Entry of a function the `jal` lies in. A `jal` in code that
    /// several functions share is listed once per function.
    pub caller: u64,
    /// The `jal`'s link register (`x0` for a tail call).
    pub rd: Reg,
}

/// Every direct call site of one parse, by callee. Built once per parse
/// (the facade caches it on its shared analysis), so an instrumentation
/// pass looks up the callers of the functions it relocates instead of
/// walking every function.
#[derive(Debug)]
pub struct CallSites {
    /// Sorted by callee, then site, then caller.
    sites: Vec<CallSite>,
}

impl CallSites {
    /// Index the direct call sites of `co`. The block's own edges say
    /// whether its `jal` is a call: a lookup in `co.functions` per site
    /// would cost several times the walk over the blocks.
    pub fn of(co: &CodeObject) -> CallSites {
        let call = |kind| matches!(kind, EdgeKind::Call | EdgeKind::TailCall);
        let mut sites = Vec::new();
        for f in co.functions.values() {
            for b in f.blocks.values() {
                let Some(i) = b.last_inst() else { continue };
                if i.op != Op::Jal || i.size != 4 {
                    continue;
                }
                let callee = i.address.wrapping_add(i.imm as u64);
                if b.edges
                    .iter()
                    .any(|e| call(e.kind) && e.target == Some(callee))
                {
                    sites.push(CallSite {
                        callee,
                        site: i.address,
                        caller: f.entry,
                        rd: i.rd.unwrap_or(Reg::X0),
                    });
                }
            }
        }
        sites.sort_unstable_by_key(|c| (c.callee, c.site, c.caller));
        CallSites { sites }
    }

    /// The sites that call `callee`, ascending by site address.
    pub fn to(&self, callee: u64) -> &[CallSite] {
        let lo = self.sites.partition_point(|c| c.callee < callee);
        let n = self.sites[lo..].partition_point(|c| c.callee == callee);
        &self.sites[lo..lo + n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_is_called_by_main_and_by_itself() {
        let bin = rvdyn_asm::fib_program(5);
        let co = CodeObject::parse(&bin, &rvdyn_parse::ParseOptions::default());
        let addr = |n: &str| bin.symbol_by_name(n).unwrap().value;
        let (main, fib) = (addr("main"), addr("fib"));
        let sites = CallSites::of(&co);
        let callers: Vec<u64> = sites.to(fib).iter().map(|c| c.caller).collect();
        assert!(callers.contains(&main), "{callers:x?}");
        assert!(callers.contains(&fib), "{callers:x?}");
        for c in sites.to(fib) {
            assert_eq!((c.callee, c.rd), (fib, Reg::X1));
            assert!(co.functions[&c.caller]
                .blocks
                .values()
                .any(|b| b.contains(c.site)));
        }
        assert!(sites.to(fib + 2).is_empty());
    }

    #[test]
    fn compressed_tail_call_is_not_a_site() {
        let bin = rvdyn_asm::tiny_function_program(4);
        let co = CodeObject::parse(&bin, &rvdyn_parse::ParseOptions::default());
        let bump = bin.symbol_by_name("bump").unwrap().value;
        let tiny = bin.symbol_by_name("tiny").unwrap().value;
        let sites = CallSites::of(&co);
        assert!(sites.to(bump).is_empty(), "tiny's c.j is 2 bytes");
        assert_eq!(sites.to(tiny).len(), 1, "main's jal tiny");
    }
}
