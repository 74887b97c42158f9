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
//! Nothing here runs during the parse. A function's loops are computed
//! by the first [`Function::loops`] call, as Dyninst leaves loops to an
//! analysis tools run over the CFG when they need it.
//!
//! The three analyses compose: [`reverse_postorder`] fixes an iteration
//! order over the blocks reachable from the entry, [`dominators`] runs
//! the Cooper–Harvey–Kennedy iterative data-flow algorithm over it, and
//! [`natural_loops`] detects back edges (`source` dominated by `target`)
//! and grows each loop body by reverse reachability from the latch.

use crate::function::Function;
use std::collections::{BTreeMap, BTreeSet};

/// A natural loop: header block plus body (block start addresses).
///
/// One `Loop` per header: multiple back edges into the same header (e.g.
/// `continue` statements) merge into a single loop with several
/// [`latches`](Loop::latches).
///
/// The parser builds none: [`Function::loops`] computes a function's
/// loops with [`natural_loops`] the first time it is called and keeps
/// them with the function.
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

/// A function's CFG over a dense index: blocks numbered in address
/// order, with intraprocedural successors (edge order, duplicates kept,
/// targets that are not block starts dropped) and predecessors (block
/// order, then edge order) as index lists. Every analysis in this module
/// runs over it.
struct Cfg {
    starts: Vec<u64>,
    succ_off: Vec<usize>,
    succ: Vec<usize>,
    pred_off: Vec<usize>,
    pred: Vec<usize>,
    /// Index of the entry block, if the entry is a block start.
    entry: Option<usize>,
}

/// Marks an unreachable block in [`Cfg::dominators`]' result.
const NONE: usize = usize::MAX;

impl Cfg {
    fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let starts: Vec<u64> = f.blocks.keys().collect();
        let index = |a: u64| f.blocks.index_of(a);
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(f.blocks.values().map(|b| b.edges.len()).sum());
        succ_off.push(0);
        for b in f.blocks.values() {
            succ.extend(b.successors().filter_map(index));
            succ_off.push(succ.len());
        }
        // Predecessors by counting sort: `pred_off[t]` first counts up to
        // the end of `t`'s run, then a backward fill counts it down to
        // the start, which keeps block order within each run.
        let mut pred_off = vec![0; n + 1];
        for &t in &succ {
            pred_off[t] += 1;
        }
        for i in 1..n {
            pred_off[i] += pred_off[i - 1];
        }
        pred_off[n] = succ.len();
        let mut pred = vec![0; succ.len()];
        for b in (0..n).rev() {
            for &t in succ[succ_off[b]..succ_off[b + 1]].iter().rev() {
                pred_off[t] -= 1;
                pred[pred_off[t]] = b;
            }
        }
        let entry = index(f.entry);
        Cfg {
            starts,
            succ_off,
            succ,
            pred_off,
            pred,
            entry,
        }
    }

    fn succs(&self, b: usize) -> &[usize] {
        &self.succ[self.succ_off[b]..self.succ_off[b + 1]]
    }

    fn preds(&self, b: usize) -> &[usize] {
        &self.pred[self.pred_off[b]..self.pred_off[b + 1]]
    }

    /// Reverse postorder of the blocks reachable from the entry, by an
    /// iterative depth-first search that visits successors in edge order.
    fn reverse_postorder(&self) -> Vec<usize> {
        let mut post = Vec::with_capacity(self.starts.len());
        let Some(entry) = self.entry else {
            return post;
        };
        let mut visited = vec![false; self.starts.len()];
        visited[entry] = true;
        // (block, next successor position)
        let mut stack: Vec<(usize, usize)> = vec![(entry, self.succ_off[entry])];
        while let Some((b, next)) = stack.last_mut() {
            if *next < self.succ_off[*b + 1] {
                let s = self.succ[*next];
                *next += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, self.succ_off[s]));
                }
            } else {
                post.push(*b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Immediate dominators (Cooper–Harvey–Kennedy) over `rpo`: the
    /// entry is its own, an unreachable block has [`NONE`]. Also returns
    /// each block's position in `rpo` ([`NONE`] when unreachable).
    fn dominators(&self, rpo: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let n = self.starts.len();
        let mut order = vec![NONE; n];
        for (i, &b) in rpo.iter().enumerate() {
            order[b] = i;
        }
        let mut idom = vec![NONE; n];
        let Some(&entry) = rpo.first() else {
            return (idom, order);
        };
        idom[entry] = entry;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo[1..] {
                // First processed predecessor.
                let mut new_idom = NONE;
                for &p in self.preds(b) {
                    if idom[p] == NONE {
                        continue;
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(p, new_idom, &idom, &order)
                    };
                }
                if new_idom != NONE && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        (idom, order)
    }
}

fn intersect(mut a: usize, mut b: usize, idom: &[usize], order: &[usize]) -> usize {
    while a != b {
        while order[a] > order[b] {
            a = idom[a];
        }
        while order[b] > order[a] {
            b = idom[b];
        }
    }
    a
}

/// Does `a` dominate `b`, by the dense immediate-dominator array?
fn dominates_dense(a: usize, b: usize, idom: &[usize]) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur] {
            d if d != cur && d != NONE => cur = d,
            _ => return false,
        }
    }
}

/// Immediate dominator map via the classic iterative data-flow algorithm
/// (Cooper–Harvey–Kennedy) over reverse postorder.
///
/// The returned map holds `block → idom(block)` for every block
/// reachable from the entry; the entry maps to itself. Unreachable
/// blocks are absent. Query transitive domination with [`dominates`].
pub fn dominators(f: &Function) -> BTreeMap<u64, u64> {
    let cfg = Cfg::new(f);
    let (idom, _) = cfg.dominators(&cfg.reverse_postorder());
    idom.iter()
        .enumerate()
        .filter(|&(_, &d)| d != NONE)
        .map(|(b, &d)| (cfg.starts[b], cfg.starts[d]))
        .collect()
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
    let cfg = Cfg::new(f);
    cfg.reverse_postorder()
        .into_iter()
        .map(|b| cfg.starts[b])
        .collect()
}

/// Natural loops: one per header, merging bodies of back edges that share
/// a header.
///
/// A back edge runs from a reachable block to a block that dominates it.
/// Every edge counts, so a latch with two edges to its header is listed
/// twice. The body grows from each latch over predecessors, stopping at
/// the header, and so takes in any unreachable predecessor too.
pub fn natural_loops(f: &Function) -> Vec<Loop> {
    let cfg = Cfg::new(f);
    let rpo = cfg.reverse_postorder();
    let (idom, order) = cfg.dominators(&rpo);
    let mut loops: Vec<Loop> = Vec::new();
    let mut work: Vec<usize> = Vec::new();
    for b in 0..cfg.starts.len() {
        if idom[b] == NONE {
            continue;
        }
        for &h in cfg.succs(b) {
            // A dominator precedes what it dominates in reverse
            // postorder, so only edges that do not go forward in it can
            // be back edges.
            if order[h] > order[b] || !dominates_dense(h, b, &idom) {
                continue;
            }
            let header = cfg.starts[h];
            let at = match loops.iter().position(|l| l.header == header) {
                Some(at) => at,
                None => {
                    loops.push(Loop {
                        header,
                        body: BTreeSet::from([header]),
                        latches: Vec::new(),
                    });
                    loops.len() - 1
                }
            };
            let l = &mut loops[at];
            l.latches.push(cfg.starts[b]);
            // Reverse reachability from the latch, stopping at the header.
            work.push(b);
            while let Some(x) = work.pop() {
                if l.body.insert(cfg.starts[x]) {
                    work.extend(cfg.preds(x).iter().filter(|&&p| p != h));
                }
            }
        }
    }
    loops.sort_by_key(|l| l.header);
    loops
}

/// Loop-nesting depth of every block: the number of natural loops whose
/// body contains it (0 for straight-line code).
///
/// This is the static execution-frequency estimate used by the optimal
/// counter-placement pass: a block at depth `d` is assumed to execute on
/// the order of 10^`d` times per function invocation. Blocks absent from
/// every loop body are still present in the map, at depth 0.
///
/// Computes the loops from the CFG every call; [`nesting_depths`] counts
/// over loops already at hand, such as those [`Function::loops`] keeps.
pub fn loop_depths(f: &Function) -> BTreeMap<u64, usize> {
    nesting_depths(f, &natural_loops(f))
}

/// As [`loop_depths`], counting over the given natural loops of `f`
/// instead of recomputing them.
pub fn nesting_depths(f: &Function, loops: &[Loop]) -> BTreeMap<u64, usize> {
    let mut depth: BTreeMap<u64, usize> = f.blocks.keys().map(|b| (b, 0)).collect();
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
        let edges: Vec<Vec<Edge>> = shape
            .iter()
            .map(|(_, succs)| succs.iter().map(|&t| Edge::to(EdgeKind::Jump, t)).collect())
            .collect();
        Function::from_blocks(
            entry,
            shape
                .iter()
                .zip(&edges)
                .map(|(&(start, _), edges)| BasicBlock {
                    start,
                    end: start + 4,
                    insts: &[],
                    edges,
                }),
        )
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
