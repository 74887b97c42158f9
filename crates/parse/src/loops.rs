//! Dominator and natural-loop analysis over function CFGs.
//!
//! Loops are instrumentation points in their own right (loop back edges,
//! §2's point taxonomy) and feed DataflowAPI's loop analysis. They are
//! also the static frequency oracle behind the optimal counter-placement
//! pass (`rvdyn_patch::placement`): an edge nested `d` loops deep is
//! assumed to run ~10^d times as often as straight-line code, which is
//! what steers counters off hot back edges and onto cold loop-entry and
//! exit edges.
//!
//! The three analyses compose: [`reverse_postorder`] fixes an iteration
//! order over the blocks reachable from the entry, [`dominators`] runs
//! the Cooper–Harvey–Kennedy iterative data-flow algorithm over it, and
//! [`natural_loops`] detects back edges (`source` dominated by `target`)
//! and grows each loop body by reverse reachability from the latch.

use crate::function::Function;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A natural loop: header block plus body (block start addresses).
///
/// One `Loop` per header: multiple back edges into the same header (e.g.
/// `continue` statements) merge into a single loop with several
/// [`latches`](Loop::latches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The unique entry block of the loop (target of its back edges).
    pub header: u64,
    /// All blocks in the loop, including the header.
    pub body: BTreeSet<u64>,
    /// Source blocks of back edges into the header.
    pub latches: Vec<u64>,
}

impl Loop {
    /// Is `block` part of this loop's body (header included)?
    pub fn contains(&self, block: u64) -> bool {
        self.body.contains(&block)
    }
}

/// Immediate dominator map via the classic iterative data-flow algorithm
/// (Cooper–Harvey–Kennedy) over reverse postorder.
///
/// The returned map holds `block → idom(block)` for every block
/// reachable from the entry; the entry maps to itself. Unreachable
/// blocks are absent. Query transitive domination with [`dominates`].
pub fn dominators(f: &Function) -> BTreeMap<u64, u64> {
    let rpo = reverse_postorder(f);
    let index: BTreeMap<u64, usize> = rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let preds = f.predecessors();
    let mut idom: BTreeMap<u64, u64> = BTreeMap::new();
    idom.insert(f.entry, f.entry);

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let Some(ps) = preds.get(&b) else { continue };
            // First processed predecessor.
            let mut new_idom: Option<u64> = None;
            for &p in ps {
                if !idom.contains_key(&p) {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(p, cur, &idom, &index),
                });
            }
            if let Some(ni) = new_idom {
                if idom.get(&b) != Some(&ni) {
                    idom.insert(b, ni);
                    changed = true;
                }
            }
        }
    }
    idom
}

fn intersect(
    mut a: u64,
    mut b: u64,
    idom: &BTreeMap<u64, u64>,
    index: &BTreeMap<u64, usize>,
) -> u64 {
    while a != b {
        while index.get(&a) > index.get(&b) {
            a = idom[&a];
        }
        while index.get(&b) > index.get(&a) {
            b = idom[&b];
        }
    }
    a
}

/// Does `a` dominate `b`?
pub fn dominates(a: u64, b: u64, idom: &BTreeMap<u64, u64>) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom.get(&cur) {
            Some(&d) if d != cur => cur = d,
            _ => return false,
        }
    }
}

/// Reverse postorder over intraprocedural edges from the entry.
pub fn reverse_postorder(f: &Function) -> Vec<u64> {
    let mut visited = BTreeSet::new();
    let mut post = Vec::new();
    // Iterative DFS with explicit stack of (block, next-successor-index).
    let mut stack: Vec<(u64, Vec<u64>, usize)> = Vec::new();
    if f.blocks.contains_key(&f.entry) {
        visited.insert(f.entry);
        let succs: Vec<u64> = f.blocks[&f.entry].successors().collect();
        stack.push((f.entry, succs, 0));
    }
    while let Some((b, succs, idx)) = stack.last_mut() {
        if *idx < succs.len() {
            let s = succs[*idx];
            *idx += 1;
            if f.blocks.contains_key(&s) && visited.insert(s) {
                let ss: Vec<u64> = f.blocks[&s].successors().collect();
                stack.push((s, ss, 0));
            }
        } else {
            post.push(*b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Natural loops: one per header, merging bodies of back edges that share
/// a header.
pub fn natural_loops(f: &Function) -> Vec<Loop> {
    let idom = dominators(f);
    let preds = f.predecessors();
    let mut loops: BTreeMap<u64, Loop> = BTreeMap::new();

    for b in f.blocks.values() {
        for succ in b.successors() {
            // Back edge: successor dominates the source.
            if f.blocks.contains_key(&succ)
                && idom.contains_key(&b.start)
                && dominates(succ, b.start, &idom)
            {
                let l = loops.entry(succ).or_insert_with(|| Loop {
                    header: succ,
                    body: BTreeSet::from([succ]),
                    latches: Vec::new(),
                });
                l.latches.push(b.start);
                // Collect body: reverse reachability from the latch,
                // stopping at the header.
                let mut work = VecDeque::from([b.start]);
                while let Some(n) = work.pop_front() {
                    if l.body.insert(n) {
                        if let Some(ps) = preds.get(&n) {
                            for &p in ps {
                                if p != succ {
                                    work.push_back(p);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    loops.into_values().collect()
}

/// Loop-nesting depth of every block: the number of natural loops whose
/// body contains it (0 for straight-line code).
///
/// This is the static execution-frequency estimate used by the optimal
/// counter-placement pass: a block at depth `d` is assumed to execute on
/// the order of 10^`d` times per function invocation. Blocks absent from
/// every loop body are still present in the map, at depth 0.
///
/// Computes the loops from the CFG; [`nesting_depths`] counts over loops
/// already at hand, such as the parser's [`Function::loops`].
pub fn loop_depths(f: &Function) -> BTreeMap<u64, usize> {
    nesting_depths(f, &natural_loops(f))
}

/// As [`loop_depths`], counting over the given natural loops of `f`
/// instead of recomputing them.
pub fn nesting_depths(f: &Function, loops: &[Loop]) -> BTreeMap<u64, usize> {
    let mut depth: BTreeMap<u64, usize> = f.blocks.keys().map(|&b| (b, 0)).collect();
    for l in loops {
        for b in &l.body {
            if let Some(d) = depth.get_mut(b) {
                *d += 1;
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BasicBlock, Edge, EdgeKind};

    /// Build a synthetic function from (start, successors) pairs; each
    /// block is 4 bytes.
    fn mk(entry: u64, shape: &[(u64, &[u64])]) -> Function {
        let mut f = Function::new(entry);
        for &(start, succs) in shape {
            let edges = succs.iter().map(|&t| Edge::to(EdgeKind::Jump, t)).collect();
            f.blocks.insert(
                start,
                BasicBlock {
                    start,
                    end: start + 4,
                    insts: vec![],
                    edges,
                },
            );
        }
        f
    }

    #[test]
    fn diamond_dominators() {
        //    1
        //   / \
        //  2   3
        //   \ /
        //    4
        let f = mk(1, &[(1, &[2, 3]), (2, &[4]), (3, &[4]), (4, &[])]);
        let idom = dominators(&f);
        assert_eq!(idom[&2], 1);
        assert_eq!(idom[&3], 1);
        assert_eq!(idom[&4], 1);
        assert!(dominates(1, 4, &idom));
        assert!(!dominates(2, 4, &idom));
    }

    #[test]
    fn simple_loop_detected() {
        // 1 → 2 → 3 → 2 (back edge), 3 → 4
        let f = mk(1, &[(1, &[2]), (2, &[3]), (3, &[2, 4]), (4, &[])]);
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, 2);
        assert_eq!(l.body, BTreeSet::from([2, 3]));
        assert_eq!(l.latches, vec![3]);
    }

    #[test]
    fn nested_loops() {
        // outer: 2..5 ; inner: 3..4
        let f = mk(
            1,
            &[
                (1, &[2]),
                (2, &[3]),
                (3, &[4]),
                (4, &[3, 5]), // inner back edge 4→3
                (5, &[2, 6]), // outer back edge 5→2
                (6, &[]),
            ],
        );
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 2);
        let outer = loops.iter().find(|l| l.header == 2).unwrap();
        let inner = loops.iter().find(|l| l.header == 3).unwrap();
        assert!(outer.body.is_superset(&inner.body));
        assert_eq!(inner.body, BTreeSet::from([3, 4]));
    }

    #[test]
    fn loop_depths_count_nesting() {
        let f = mk(
            1,
            &[
                (1, &[2]),
                (2, &[3]),
                (3, &[4]),
                (4, &[3, 5]),
                (5, &[2, 6]),
                (6, &[]),
            ],
        );
        let d = loop_depths(&f);
        assert_eq!(d[&1], 0);
        assert_eq!(d[&2], 1);
        assert_eq!(d[&3], 2);
        assert_eq!(d[&4], 2);
        assert_eq!(d[&5], 1);
        assert_eq!(d[&6], 0);
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = mk(1, &[(1, &[2, 3]), (2, &[4]), (3, &[4]), (4, &[])]);
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], 1);
        assert_eq!(rpo.len(), 4);
        // 4 must come after both 2 and 3.
        let pos = |x: u64| rpo.iter().position(|&b| b == x).unwrap();
        assert!(pos(4) > pos(2));
        assert!(pos(4) > pos(3));
    }

    #[test]
    fn unreachable_blocks_ignored() {
        let f = mk(1, &[(1, &[]), (99, &[1])]);
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo, vec![1]);
        assert!(natural_loops(&f).is_empty());
    }
}
