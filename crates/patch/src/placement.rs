//! Optimal counter placement for basic-block counting (Knuth /
//! Ball–Larus style).
//!
//! Counting every basic block costs one increment snippet per dynamic
//! block — the dominant term of the paper's Table 1 overhead. But block
//! counts are not independent: Kirchhoff's law holds on a control-flow
//! graph (flow in = flow out at every vertex), so most counts are *linear
//! combinations* of a few others. The classic result (Knuth & Stevenson;
//! Ball & Larus, "Optimally profiling and tracing programs") is that it
//! suffices to count the edges in the complement of a spanning tree of
//! the CFG, and that picking a **maximum** spanning tree under an
//! execution-frequency weighting pushes the counters onto the *coldest*
//! edges. Every block count is then reconstructed exactly after the run.
//!
//! ## Algorithm
//!
//! 1. Build an undirected multigraph over the function's blocks plus a
//!    virtual `EXIT` vertex: one edge per intraprocedural CFG edge, one
//!    `block → EXIT` edge per exit (return / tail-call) block, and a
//!    virtual `EXIT → entry` edge closing the graph (its count is the
//!    number of function invocations).
//! 2. Weight each edge `10^min(depth(u), depth(v))` where `depth` is the
//!    natural-loop nesting depth ([`rvdyn_parse::loops::nesting_depths`]) —
//!    the standard static frequency estimate. The virtual edge is forced
//!    into the tree (it cannot be instrumented).
//! 3. Run Kruskal's algorithm for a maximum spanning tree. Each
//!    *non-tree* edge becomes a [`CounterSite`]; hot back edges end up in
//!    the tree and are never counted directly.
//! 4. Solve the tree symbolically by leaf-peeling: at a vertex with one
//!    unsolved incident edge, flow conservation determines that edge as
//!    an integer combination of the counter sites. A block's count is the
//!    sum of its outgoing edge vectors — the reconstruction matrix stored
//!    in [`BlockCountPlan`].
//!
//! For the matmul kernel's 11-block triple loop this places **4**
//! counters (one per loop plus one for the invocation count) instead of
//! 11, and — more importantly — the counters run `n³ + n² + n + 1` times
//! per call instead of `Θ(2n³)`: the innermost 2-cycle pins one counter
//! at `n³` frequency (that is information-theoretically unavoidable —
//! every edge of that cycle runs `Θ(n³)` times), and everything else is
//! relegated to colder edges.
//!
//! ## Scope and fallback
//!
//! [`plan_block_counters`] returns `None` — and callers fall back to
//! every-block counting — whenever exact reconstruction cannot be
//! guaranteed: unresolved or indirect intraprocedural edges, unreachable
//! blocks, blocks with edge shapes the site mapping does not cover, or a
//! CFG where the co-tree is not actually smaller than the block set.
//! `Call` edges are ignored (control returns via the `CallFallthrough`
//! edge), which assumes callees return; that holds for the bundled
//! mutatees and is the same assumption Ball–Larus profiling makes.

use rvdyn_parse::block::EdgeKind;
use rvdyn_parse::loops::{nesting_depths, reverse_postorder};
use rvdyn_parse::Function;
use std::collections::BTreeMap;

use crate::points::{Point, PointKind};

/// Counter-placement strategy for basic-block counting.
///
/// Selected via `SessionOptions::counter_placement`; consumed by the
/// session's `count_blocks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterPlacement {
    /// One counter per basic block, incremented at block entry. Simple,
    /// always applicable, and what Table 1's `bb_count` row measures.
    #[default]
    EveryBlock,
    /// Knuth/Ball–Larus co-tree placement: counters on a minimal set of
    /// cold CFG locations, exact per-block counts reconstructed from the
    /// flow equations after the run ([`plan_block_counters`]). Falls
    /// back to [`EveryBlock`](CounterPlacement::EveryBlock) per function
    /// when no plan exists.
    Optimal,
}

/// One location where an increment snippet is placed by an optimal plan.
///
/// A site counts the traversals of one *non-tree CFG edge*. Edges whose
/// source block has a single successor are counted at the source block
/// itself (a plain block-entry probe); the two sides of a conditional
/// branch are counted on the taken / not-taken edge via the
/// corresponding edge points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterSite {
    /// Increment at entry to `block` (counts the block's executions,
    /// which equal its single outgoing edge's traversals).
    Block { block: u64 },
    /// Increment when the conditional branch ending `block` (at address
    /// `branch`) is taken.
    TakenEdge { block: u64, branch: u64 },
    /// Increment when that branch falls through.
    NotTakenEdge { block: u64, branch: u64 },
}

impl CounterSite {
    /// The block this site's probe lives in.
    pub fn block(&self) -> u64 {
        match *self {
            CounterSite::Block { block }
            | CounterSite::TakenEdge { block, .. }
            | CounterSite::NotTakenEdge { block, .. } => block,
        }
    }

    /// The instrumentation [`Point`] that materialises this site in
    /// function `func`.
    pub fn point(&self, func: u64) -> Point {
        match *self {
            CounterSite::Block { block } => Point {
                func,
                addr: block,
                kind: PointKind::BlockEntry,
            },
            CounterSite::TakenEdge { branch, .. } => Point {
                func,
                addr: branch,
                kind: PointKind::BranchTaken,
            },
            CounterSite::NotTakenEdge { branch, .. } => Point {
                func,
                addr: branch,
                kind: PointKind::BranchNotTaken,
            },
        }
    }
}

/// Why a reconstruction failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// `reconstruct` was handed the wrong number of counter values.
    CounterMismatch { expected: usize, got: usize },
    /// A block's flow equation produced a negative or overflowing count —
    /// the counter values cannot have come from a run of this CFG.
    InconsistentCounts { block: u64 },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::CounterMismatch { expected, got } => {
                write!(f, "expected {expected} counter values, got {got}")
            }
            PlacementError::InconsistentCounts { block } => {
                write!(f, "flow equations inconsistent at block {block:#x}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// An optimal counter placement for one function: where to put the
/// increment snippets, and how to get every block count back.
///
/// Produced by [`plan_block_counters`]; a plan is only returned when it
/// strictly beats every-block placement (`sites.len() < block count`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCountPlan {
    /// Entry address of the function the plan was computed for.
    pub func: u64,
    /// The counter sites, in deterministic order; the i-th site's runtime
    /// value is the i-th entry of the slice passed to [`reconstruct`](Self::reconstruct).
    pub sites: Vec<CounterSite>,
    /// Reconstruction matrix: block start → integer coefficients over the
    /// site values, such that `count(block) = Σ matrix[block][i] · site[i]`.
    pub matrix: BTreeMap<u64, Vec<i64>>,
}

impl BlockCountPlan {
    /// Number of increment snippets this plan places.
    pub fn counters_placed(&self) -> usize {
        self.sites.len()
    }

    /// Number of counters saved versus every-block placement.
    pub fn counters_elided(&self) -> usize {
        self.matrix.len() - self.sites.len()
    }

    /// Solve the flow equations: given the runtime value of each counter
    /// site (in [`sites`](Self::sites) order), return the exact execution
    /// count of every basic block.
    pub fn reconstruct(&self, counters: &[u64]) -> Result<BTreeMap<u64, u64>, PlacementError> {
        if counters.len() != self.sites.len() {
            return Err(PlacementError::CounterMismatch {
                expected: self.sites.len(),
                got: counters.len(),
            });
        }
        let mut counts = BTreeMap::new();
        for (&block, coeffs) in &self.matrix {
            let mut acc: i128 = 0;
            for (&c, &v) in coeffs.iter().zip(counters) {
                acc += c as i128 * v as i128;
            }
            if acc < 0 || acc > u64::MAX as i128 {
                return Err(PlacementError::InconsistentCounts { block });
            }
            counts.insert(block, acc as u64);
        }
        Ok(counts)
    }
}

/// Index of the virtual EXIT vertex's placeholder address.
const EXIT: u64 = u64::MAX;

/// How a CFG edge is measured if it ends up outside the spanning tree.
#[derive(Debug, Clone, Copy)]
enum EdgeSite {
    Vertex(u64),
    Taken {
        block: u64,
        branch: u64,
    },
    NotTaken {
        block: u64,
        branch: u64,
    },
    /// The virtual EXIT→entry edge; forced into the tree, never counted.
    Virtual,
}

struct GEdge {
    u: usize,
    v: usize,
    weight: u64,
    site: EdgeSite,
}

/// Union-find with path halving.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Compute an optimal counter placement for `f`, or `None` when the CFG
/// is outside the supported shape (see the [module docs](self) for the
/// exact fallback conditions) or the plan would not save any counters.
///
/// The edge weights count over the function's natural loops
/// ([`Function::loops`], computed by their first reader and kept with
/// the parse). The placement is deterministic: blocks and edges are
/// enumerated in address order and the spanning-tree construction
/// breaks weight ties by that order.
pub fn plan_block_counters(f: &Function) -> Option<BlockCountPlan> {
    if f.blocks.is_empty() || !f.blocks.contains_key(f.entry) {
        return None;
    }
    // Every block must be reachable, else its flow equation is
    // disconnected from the instrumented ones.
    if reverse_postorder(f).len() != f.blocks.len() {
        return None;
    }
    let depth = nesting_depths(f, f.loops());

    let verts: Vec<u64> = f.blocks.keys().chain(std::iter::once(EXIT)).collect();
    let vidx: BTreeMap<u64, usize> = verts.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let d = |b: u64| if b == EXIT { 0 } else { depth[&b] };
    // 10^d with a cap well below the virtual edge's weight.
    let w10 = |e: usize| 10u64.saturating_pow(e.min(18) as u32);

    let mut edges: Vec<GEdge> = Vec::new();
    let mut saw_exit = false;
    for b in f.blocks.values() {
        let mut intra: Vec<(EdgeKind, u64)> = Vec::new();
        let mut exits = 0usize;
        for e in b.edges {
            match e.kind {
                EdgeKind::IndirectJump | EdgeKind::Unresolved => return None,
                EdgeKind::Return | EdgeKind::TailCall => exits += 1,
                EdgeKind::Call => {}
                EdgeKind::Fallthrough
                | EdgeKind::Jump
                | EdgeKind::CallFallthrough
                | EdgeKind::Taken
                | EdgeKind::NotTaken => {
                    let t = e.target?;
                    if !f.blocks.contains_key(t) {
                        return None;
                    }
                    intra.push((e.kind, t));
                }
            }
        }
        let weight = |t: u64| w10(d(b.start).min(d(t)));
        match (intra.as_slice(), exits) {
            // Exit block: one edge to the virtual EXIT vertex, counted
            // (if needed) at the block itself.
            ([], n) if n >= 1 => {
                saw_exit = true;
                edges.push(GEdge {
                    u: vidx[&b.start],
                    v: vidx[&EXIT],
                    weight: weight(EXIT),
                    site: EdgeSite::Vertex(b.start),
                });
            }
            // Single successor: the edge count equals the block count.
            ([(_, t)], 0) => edges.push(GEdge {
                u: vidx[&b.start],
                v: vidx[t],
                weight: weight(*t),
                site: EdgeSite::Vertex(b.start),
            }),
            // Conditional branch: two edges, each measurable on its own
            // side of the branch.
            ([a, c], 0) => {
                let (taken, not_taken) = match (a, c) {
                    ((EdgeKind::Taken, t), (EdgeKind::NotTaken, n)) => (*t, *n),
                    ((EdgeKind::NotTaken, n), (EdgeKind::Taken, t)) => (*t, *n),
                    _ => return None,
                };
                let branch = b.last_inst()?.address;
                edges.push(GEdge {
                    u: vidx[&b.start],
                    v: vidx[&taken],
                    weight: weight(taken),
                    site: EdgeSite::Taken {
                        block: b.start,
                        branch,
                    },
                });
                edges.push(GEdge {
                    u: vidx[&b.start],
                    v: vidx[&not_taken],
                    weight: weight(not_taken),
                    site: EdgeSite::NotTaken {
                        block: b.start,
                        branch,
                    },
                });
            }
            _ => return None,
        }
    }
    if !saw_exit {
        // No return path: the flow graph never closes and the equations
        // are underdetermined.
        return None;
    }
    // Virtual back edge EXIT→entry; its count is the invocation count.
    edges.push(GEdge {
        u: vidx[&EXIT],
        v: vidx[&f.entry],
        weight: u64::MAX,
        site: EdgeSite::Virtual,
    });

    // Maximum spanning tree (Kruskal). Stable sort keeps address order
    // within equal weights, making tie-breaks deterministic.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by(|&a, &b| edges[b].weight.cmp(&edges[a].weight));
    let mut parent: Vec<usize> = (0..verts.len()).collect();
    let mut in_tree = vec![false; edges.len()];
    for &ei in &order {
        let (ru, rv) = (
            find(&mut parent, edges[ei].u),
            find(&mut parent, edges[ei].v),
        );
        if ru != rv {
            parent[ru] = rv;
            in_tree[ei] = true;
        }
    }

    // Non-tree edges become counter sites (edge order = address order).
    let mut sites: Vec<CounterSite> = Vec::new();
    let mut site_of_edge: Vec<Option<usize>> = vec![None; edges.len()];
    for (ei, e) in edges.iter().enumerate() {
        if in_tree[ei] {
            continue;
        }
        let site = match e.site {
            EdgeSite::Vertex(b) => CounterSite::Block { block: b },
            EdgeSite::Taken { block, branch } => CounterSite::TakenEdge { block, branch },
            EdgeSite::NotTaken { block, branch } => CounterSite::NotTakenEdge { block, branch },
            EdgeSite::Virtual => return None, // forced into the tree above
        };
        site_of_edge[ei] = Some(sites.len());
        sites.push(site);
    }
    if sites.len() >= f.blocks.len() {
        // Cyclomatic number ≥ block count: no saving over EveryBlock.
        return None;
    }

    // Solve tree edges by leaf-peeling over the flow equations.
    let nsites = sites.len();
    let mut vec_of: Vec<Option<Vec<i64>>> = site_of_edge
        .iter()
        .map(|s| {
            s.map(|i| {
                let mut v = vec![0i64; nsites];
                v[i] = 1;
                v
            })
        })
        .collect();
    // adjacency: vertex → [(edge index, edge is outgoing at vertex)]
    let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); verts.len()];
    for (ei, e) in edges.iter().enumerate() {
        adj[e.u].push((ei, true));
        adj[e.v].push((ei, false));
    }
    let mut unsolved: Vec<usize> = vec![0; verts.len()];
    for (ei, e) in edges.iter().enumerate() {
        if vec_of[ei].is_none() {
            unsolved[e.u] += 1;
            unsolved[e.v] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..verts.len()).filter(|&v| unsolved[v] == 1).collect();
    while let Some(v) = queue.pop() {
        if unsolved[v] != 1 {
            continue;
        }
        let (ei, is_out) = *adj[v]
            .iter()
            .find(|&&(ei, _)| vec_of[ei].is_none())
            .expect("vertex with one unsolved edge");
        // Flow conservation at v: Σ in − Σ out = 0.
        let mut acc = vec![0i64; nsites];
        for &(oi, out) in &adj[v] {
            if oi == ei {
                continue;
            }
            let ov = vec_of[oi].as_ref().expect("other edges solved");
            for (a, &b) in acc.iter_mut().zip(ov) {
                *a += if out { -b } else { b };
            }
        }
        if !is_out {
            for a in acc.iter_mut() {
                *a = -*a;
            }
        }
        vec_of[ei] = Some(acc);
        unsolved[edges[ei].u] -= 1;
        unsolved[edges[ei].v] -= 1;
        for x in [edges[ei].u, edges[ei].v] {
            if unsolved[x] == 1 {
                queue.push(x);
            }
        }
    }
    debug_assert!(vec_of.iter().all(|v| v.is_some()));

    // Block count = Σ outgoing edge vectors (every block has ≥ 1 out
    // edge by construction).
    let mut matrix: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    for (ei, e) in edges.iter().enumerate() {
        let src = verts[e.u];
        if src == EXIT {
            continue;
        }
        let ev = vec_of[ei].as_ref()?;
        let row = matrix.entry(src).or_insert_with(|| vec![0i64; nsites]);
        for (a, &b) in row.iter_mut().zip(ev) {
            *a += b;
        }
    }
    debug_assert_eq!(matrix.len(), f.blocks.len());

    Some(BlockCountPlan {
        func: f.entry,
        sites,
        matrix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_parse::block::{BasicBlock, Edge};

    /// Build a synthetic function; each block is 4 bytes with one `nop`
    /// so branch points have a `last_inst`.
    fn mk(entry: u64, shape: &[(u64, Vec<Edge>)]) -> Function {
        let nops: Vec<_> = shape
            .iter()
            .map(|(start, _)| {
                let mut inst = rvdyn_isa::build::nop();
                inst.address = *start;
                inst
            })
            .collect();
        Function::from_blocks(
            entry,
            shape
                .iter()
                .zip(&nops)
                .map(|((start, edges), inst)| BasicBlock {
                    start: *start,
                    end: *start + 4,
                    insts: std::slice::from_ref(inst),
                    edges,
                }),
        )
    }

    fn jump(t: u64) -> Edge {
        Edge::to(EdgeKind::Jump, t)
    }
    fn cond(taken: u64, not_taken: u64) -> Vec<Edge> {
        vec![
            Edge::to(EdgeKind::Taken, taken),
            Edge::to(EdgeKind::NotTaken, not_taken),
        ]
    }
    fn ret() -> Edge {
        Edge::out(EdgeKind::Return)
    }

    /// Simulate executions of the CFG and return (true block counts,
    /// simulated site counter values).
    fn simulate(
        f: &Function,
        plan: &BlockCountPlan,
        decisions: &mut impl FnMut(u64) -> bool,
        invocations: usize,
    ) -> (BTreeMap<u64, u64>, Vec<u64>) {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        let mut taken_counts: BTreeMap<u64, u64> = BTreeMap::new();
        let mut nt_counts: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..invocations {
            let mut cur = f.entry;
            loop {
                *counts.entry(cur).or_default() += 1;
                let b = f.blocks.at(cur);
                let intra: Vec<&Edge> = b
                    .edges
                    .iter()
                    .filter(|e| e.kind.is_intraprocedural())
                    .collect();
                if intra.is_empty() {
                    break; // exit block
                }
                if intra.len() == 1 {
                    cur = intra[0].target.unwrap();
                } else {
                    let take = decisions(cur);
                    let kind = if take {
                        EdgeKind::Taken
                    } else {
                        EdgeKind::NotTaken
                    };
                    let e = intra.iter().find(|e| e.kind == kind).unwrap();
                    if take {
                        *taken_counts.entry(cur).or_default() += 1;
                    } else {
                        *nt_counts.entry(cur).or_default() += 1;
                    }
                    cur = e.target.unwrap();
                }
            }
        }
        let counters = plan
            .sites
            .iter()
            .map(|s| match *s {
                CounterSite::Block { block } => counts.get(&block).copied().unwrap_or(0),
                CounterSite::TakenEdge { block, .. } => {
                    taken_counts.get(&block).copied().unwrap_or(0)
                }
                CounterSite::NotTakenEdge { block, .. } => {
                    nt_counts.get(&block).copied().unwrap_or(0)
                }
            })
            .collect();
        // Blocks never reached still need an entry for comparison.
        for b in f.blocks.keys() {
            counts.entry(b).or_default();
        }
        (counts, counters)
    }

    #[test]
    fn straight_line_needs_one_counter() {
        // 1 → 2 → 3 → ret
        let f = mk(
            0x10,
            &[
                (0x10, vec![jump(0x20)]),
                (0x20, vec![jump(0x30)]),
                (0x30, vec![ret()]),
            ],
        );
        let plan = plan_block_counters(&f).expect("plan");
        assert_eq!(plan.counters_placed(), 1);
        assert_eq!(plan.counters_elided(), 2);
        let counts = plan.reconstruct(&[7]).unwrap();
        assert!(counts.values().all(|&c| c == 7));
    }

    #[test]
    fn diamond_needs_two_counters() {
        //      0x10 (cond)
        //     /    \
        //  0x20    0x30
        //     \    /
        //      0x40 ret
        let f = mk(
            0x10,
            &[
                (0x10, cond(0x20, 0x30)),
                (0x20, vec![jump(0x40)]),
                (0x30, vec![jump(0x40)]),
                (0x40, vec![ret()]),
            ],
        );
        let plan = plan_block_counters(&f).expect("plan");
        assert_eq!(plan.counters_placed(), 2);
        assert_eq!(plan.counters_elided(), 2);
        // 5 invocations, alternating sides (3 taken, 2 not-taken).
        let mut flip = 0u64;
        let (truth, counters) = simulate(
            &f,
            &plan,
            &mut |_| {
                flip += 1;
                flip % 2 == 1
            },
            5,
        );
        assert_eq!(plan.reconstruct(&counters).unwrap(), truth);
    }

    #[test]
    fn loop_counter_avoids_back_edge() {
        // 0x10 → 0x20(header, cond: taken→0x40 exit, nt→0x30 body) ;
        // 0x30 → 0x20 back edge ; 0x40 ret
        let f = mk(
            0x10,
            &[
                (0x10, vec![jump(0x20)]),
                (0x20, cond(0x40, 0x30)),
                (0x30, vec![jump(0x20)]),
                (0x40, vec![ret()]),
            ],
        );
        let plan = plan_block_counters(&f).expect("plan");
        assert_eq!(plan.counters_placed(), 2);
        // One site must count the loop (body or back edge region), the
        // other the invocation-frequency part; reconstruct an execution
        // with 3 invocations × 4 iterations.
        let mut iters = 0u64;
        let (truth, counters) = simulate(
            &f,
            &plan,
            &mut |_| {
                iters += 1;
                iters.is_multiple_of(5) // take the exit every 5th query
            },
            3,
        );
        assert_eq!(plan.reconstruct(&counters).unwrap(), truth);
        assert_eq!(truth[&0x30], 12); // 3 invocations × 4 body iterations
    }

    #[test]
    fn nested_loops_place_one_counter_per_cycle() {
        // entry → outer header → inner header ⇄ inner body ; exits.
        // outer: 0x20..0x40 ; inner: 0x30 self-nesting via 0x38.
        let f = mk(
            0x10,
            &[
                (0x10, vec![jump(0x20)]),
                (0x20, cond(0x60, 0x30)), // outer header
                (0x30, cond(0x50, 0x38)), // inner header
                (0x38, vec![jump(0x30)]), // inner latch
                (0x50, vec![jump(0x20)]), // outer latch
                (0x60, vec![ret()]),
            ],
        );
        let plan = plan_block_counters(&f).expect("plan");
        // cyclomatic number: E=8 (incl. exit edge) + virtual, V=7 → 8+1-7=2… compute:
        // edges: 10→20, 20→60, 20→30, 30→50, 30→38, 38→30, 50→20, 60→EXIT,
        // EXIT→10 ⇒ 9 edges, 7 vertices ⇒ 3 sites.
        assert_eq!(plan.counters_placed(), 3);
        assert_eq!(plan.counters_elided(), 3);
        let mut n = 0u64;
        let (truth, counters) = simulate(
            &f,
            &plan,
            &mut |_| {
                n = n
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (n >> 33).is_multiple_of(3)
            },
            4,
        );
        assert_eq!(plan.reconstruct(&counters).unwrap(), truth);
    }

    #[test]
    fn indirect_edges_defeat_planning() {
        let f = mk(
            0x10,
            &[
                (0x10, vec![Edge::to(EdgeKind::IndirectJump, 0x20)]),
                (0x20, vec![ret()]),
            ],
        );
        assert!(plan_block_counters(&f).is_none());
    }

    #[test]
    fn unreachable_blocks_defeat_planning() {
        let f = mk(0x10, &[(0x10, vec![ret()]), (0x90, vec![jump(0x10)])]);
        assert!(plan_block_counters(&f).is_none());
    }

    #[test]
    fn single_block_gains_nothing() {
        // 1 block, 1 site — not a saving, so no plan.
        let f = mk(0x10, &[(0x10, vec![ret()])]);
        assert!(plan_block_counters(&f).is_none());
    }

    #[test]
    fn no_exit_defeats_planning() {
        let f = mk(0x10, &[(0x10, vec![jump(0x10)])]);
        assert!(plan_block_counters(&f).is_none());
    }

    #[test]
    fn reconstruct_rejects_wrong_arity_and_inconsistent_counters() {
        let f = mk(
            0x10,
            &[
                (0x10, cond(0x20, 0x30)),
                (0x20, vec![jump(0x40)]),
                (0x30, vec![jump(0x40)]),
                (0x40, vec![ret()]),
            ],
        );
        let plan = plan_block_counters(&f).expect("plan");
        assert!(matches!(
            plan.reconstruct(&[1]),
            Err(PlacementError::CounterMismatch {
                expected: 2,
                got: 1
            })
        ));
        // Some coefficient is negative (a difference of flows), so a
        // wildly lopsided pair must trip the consistency check.
        let bad = plan.reconstruct(&[0, u64::MAX]);
        let good = plan.reconstruct(&[u64::MAX, 0]);
        assert!(bad.is_err() || good.is_err());
    }
}
