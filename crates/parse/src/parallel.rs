//! Parallel function parsing (§2: "a fast parallel algorithm … has allowed
//! Dyninst to efficiently parse binaries that have more than a gigabyte of
//! machine code").
//!
//! Functions are independent parse units: each worker pops an entry from a
//! shared worklist, parses the function, and pushes newly discovered
//! callees. The discovered-entry set is shared so tail-call classification
//! sees other workers' discoveries.
//!
//! Workers read that set in place under a read lock for the length of a
//! batch; the write lock is taken only when a batch found callees the set
//! does not hold yet. A parse seeded with every entry from the symbol
//! table never writes, so its workers never wait on one another there.

use crate::function::Function;
use crate::parser::{parse_function, CodeObject, ParseOptions, ParseScratch};
use crate::source::CodeSource;
use crate::worklist::{on_helpers, Worklist};
use std::collections::BTreeSet;
use std::sync::RwLock;

/// Parse starting from `seed` entries using `opts.threads` workers.
pub fn parse_parallel<S: CodeSource + ?Sized>(
    src: &S,
    seed: BTreeSet<u64>,
    opts: &ParseOptions,
) -> CodeObject {
    let nworkers = opts.threads.max(1);
    // The batch-claiming discipline lives in [`Worklist`]; parsing adds
    // dynamic discovery on top (a batch's callees are pushed back, and
    // the shared known-set lets tail-call classification see other
    // workers' discoveries).
    let wl = Worklist::new(seed.iter().copied(), nworkers);
    let known: RwLock<BTreeSet<u64>> = RwLock::new(seed);

    let parsed = on_helpers(nworkers, || {
        let mut local: Vec<(u64, Function)> = Vec::new();
        let mut scratch = ParseScratch::default();
        loop {
            let batch = wl.next_batch();
            if batch.is_empty() {
                break;
            }

            // No worker can insert while this batch holds the
            // read lock, so the whole batch parses against one
            // view of the set.
            let mut unseen: BTreeSet<u64> = BTreeSet::new();
            {
                let k = known.read().expect("known-entry lock poisoned");
                for &entry in &batch {
                    if src.is_code(entry) {
                        let f = parse_function(src, entry, &k, opts, &mut scratch);
                        unseen.extend(f.callees.iter().filter(|c| !k.contains(c)));
                        local.push((entry, f));
                    }
                }
            }
            // Queue only the callees this worker added to the
            // set; whoever added the others queued them.
            let mut discovered: Vec<u64> = Vec::new();
            if !unseen.is_empty() {
                let mut k = known.write().expect("known-entry lock poisoned");
                discovered.extend(unseen.into_iter().filter(|&c| k.insert(c)));
            }
            wl.complete(batch.len(), discovered);
        }
        local
    });

    CodeObject {
        functions: parsed.into_iter().flatten().collect(),
        gap_functions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::natural_loops;
    use crate::source::RawCode;
    use rvdyn_asm::Assembler;
    use rvdyn_isa::Reg;

    /// A chain of `n` functions, each calling the next.
    fn chain(n: usize) -> (RawCode, Vec<u64>) {
        let mut a = Assembler::new(0x1000);
        let labels: Vec<_> = (0..n).map(|_| a.label()).collect();
        let mut entries = Vec::new();
        for i in 0..n {
            a.bind(labels[i]);
            entries.push(a.here());
            a.addi(Reg::X2, Reg::X2, -16);
            a.sd(Reg::X1, Reg::X2, 8);
            if i + 1 < n {
                a.call(labels[i + 1]);
            }
            a.ld(Reg::X1, Reg::X2, 8);
            a.addi(Reg::X2, Reg::X2, 16);
            a.ret();
        }
        (
            RawCode {
                base: 0x1000,
                bytes: a.finish().unwrap(),
                entries: vec![0x1000],
            },
            entries,
        )
    }

    /// `main: ret`, then a function no code reaches: a standard
    /// prologue and a 4-iteration loop, found only by gap parsing.
    fn hidden_loop() -> (RawCode, u64) {
        let mut a = Assembler::new(0x1000);
        a.ret();
        let hidden = a.here();
        a.addi(Reg::X2, Reg::X2, -16);
        a.sd(Reg::X1, Reg::X2, 8);
        a.addi(Reg::x(5), Reg::X0, 4);
        let head = a.here_label();
        a.addi(Reg::x(5), Reg::x(5), -1);
        a.bne(Reg::x(5), Reg::X0, head);
        a.ld(Reg::X1, Reg::X2, 8);
        a.addi(Reg::X2, Reg::X2, 16);
        a.ret();
        let src = RawCode {
            base: 0x1000,
            bytes: a.finish().unwrap(),
            entries: vec![0x1000],
        };
        (src, hidden)
    }

    fn parse_with(src: &dyn CodeSource, threads: usize, parse_gaps: bool) -> CodeObject {
        CodeObject::parse(
            src,
            &ParseOptions {
                threads,
                parse_gaps,
                ..Default::default()
            },
        )
    }

    fn assert_same(seq: &CodeObject, par: &CodeObject, what: &str) {
        assert_eq!(
            seq.functions.keys().collect::<Vec<_>>(),
            par.functions.keys().collect::<Vec<_>>(),
            "{what}"
        );
        assert_eq!(seq.gap_functions, par.gap_functions, "{what}");
        for (e, f) in &seq.functions {
            let pf = &par.functions[e];
            assert_eq!(f.blocks.len(), pf.blocks.len(), "{what}: function {e:#x}");
            assert_eq!(f.callees, pf.callees, "{what}: function {e:#x}");
            assert_eq!(f.loops(), pf.loops(), "{what}: function {e:#x}");
            for b in f.blocks.values() {
                let pb = pf.blocks.at(b.start);
                assert_eq!(b.edges, pb.edges);
                assert_eq!(b.insts.len(), pb.insts.len());
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // The chain is seeded with its first entry only, so every other
        // function is a discovered callee; the symbol-seeded binary
        // knows every entry up front, so its workers never write.
        let (chain_src, entries) = chain(40);
        let seeded = rvdyn_asm::many_functions_program(300);
        let (hidden_src, hidden) = hidden_loop();
        for (name, src, gaps, threads) in [
            ("chain", &chain_src as &dyn CodeSource, false, &[4][..]),
            ("seeded", &seeded, false, &[2, 4]),
            ("gaps", &hidden_src, true, &[2, 4]),
        ] {
            let seq = parse_with(src, 1, gaps);
            for &t in threads {
                assert_same(
                    &seq,
                    &parse_with(src, t, gaps),
                    &format!("{name}, {t} threads"),
                );
            }
            // Every function's loops are those of its finished CFG; the
            // seeded binary's f_i each hold one.
            for f in seq.functions.values() {
                assert_eq!(
                    f.loops(),
                    natural_loops(f),
                    "{name}: function {:#x}",
                    f.entry
                );
            }
        }
        assert_eq!(
            parse_with(&chain_src, 1, false).functions.len(),
            entries.len()
        );
        let seeded_co = parse_with(&seeded, 2, false);
        assert!(seeded_co.functions.len() > 300);
        assert_eq!(
            seeded_co
                .functions
                .values()
                .filter(|f| f.loops().len() == 1)
                .count(),
            300
        );
        let gap_co = parse_with(&hidden_src, 2, true);
        assert_eq!(gap_co.gap_functions, vec![hidden]);
        assert_eq!(gap_co.functions[&hidden].loops().len(), 1);
    }

    #[test]
    fn single_thread_option_uses_sequential_path() {
        let (src, _) = chain(3);
        let co = CodeObject::parse(
            &src,
            &ParseOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(co.functions.len(), 3);
    }
}
