//! Instrumentation points (§2): where snippets may be inserted.

use rvdyn_parse::{EdgeKind, Function};

/// The abstract location classes Dyninst exposes (§2's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// Before the first instruction of the function.
    FuncEntry,
    /// Before each return-class terminator.
    FuncExit,
    /// Before the first instruction of every basic block.
    BlockEntry,
    /// Before each call-site terminator.
    PreCall,
    /// After each call site (at the call's fallthrough).
    PostCall,
    /// Before the latch branch of each natural loop (loop back edge).
    LoopBackEdge,
    /// On the taken edge of every conditional branch: the snippet runs
    /// only when the branch is taken (§2's "branch-taken edges").
    BranchTaken,
    /// On the not-taken (fallthrough) edge of every conditional branch.
    BranchNotTaken,
    /// Before one specific instruction.
    InstBefore(u64),
}

/// A concrete instrumentation point: an instruction address within a
/// function, before which snippet code will execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    pub func: u64,
    pub addr: u64,
    pub kind: PointKind,
}

/// Enumerate the points of `kind` in `f`.
pub fn find_points(f: &Function, kind: PointKind) -> Vec<Point> {
    let mut pts = Vec::new();
    match kind {
        PointKind::FuncEntry => {
            pts.push(Point {
                func: f.entry,
                addr: f.entry,
                kind,
            });
        }
        PointKind::FuncExit => {
            for b in f.blocks.values() {
                let exits = b
                    .edges
                    .iter()
                    .any(|e| matches!(e.kind, EdgeKind::Return | EdgeKind::TailCall));
                if exits {
                    if let Some(last) = b.last_inst() {
                        pts.push(Point {
                            func: f.entry,
                            addr: last.address,
                            kind,
                        });
                    }
                }
            }
        }
        PointKind::BlockEntry => {
            for s in f.blocks.keys() {
                pts.push(Point {
                    func: f.entry,
                    addr: s,
                    kind,
                });
            }
        }
        PointKind::PreCall => {
            for b in f.call_sites() {
                if let Some(last) = b.last_inst() {
                    pts.push(Point {
                        func: f.entry,
                        addr: last.address,
                        kind,
                    });
                }
            }
        }
        PointKind::PostCall => {
            for b in f.call_sites() {
                for e in b.edges {
                    if e.kind == EdgeKind::CallFallthrough {
                        if let Some(t) = e.target {
                            pts.push(Point {
                                func: f.entry,
                                addr: t,
                                kind,
                            });
                        }
                    }
                }
            }
        }
        PointKind::LoopBackEdge => {
            for l in f.loops() {
                for &latch in &l.latches {
                    if let Some(b) = f.blocks.get(latch) {
                        if let Some(last) = b.last_inst() {
                            pts.push(Point {
                                func: f.entry,
                                addr: last.address,
                                kind,
                            });
                        }
                    }
                }
            }
        }
        PointKind::BranchTaken | PointKind::BranchNotTaken => {
            for b in f.blocks.values() {
                let conditional = b
                    .last_inst()
                    .map(|i| i.op.is_conditional_branch())
                    .unwrap_or(false);
                if conditional {
                    if let Some(last) = b.last_inst() {
                        pts.push(Point {
                            func: f.entry,
                            addr: last.address,
                            kind,
                        });
                    }
                }
            }
        }
        PointKind::InstBefore(addr) => {
            if f.block_containing(addr).is_some() {
                pts.push(Point {
                    func: f.entry,
                    addr,
                    kind,
                });
            }
        }
    }
    pts.sort_by_key(|p| p.addr);
    pts.dedup_by_key(|p| p.addr);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_asm::matmul_program;
    use rvdyn_parse::{CodeObject, ParseOptions};

    fn matmul_fn() -> Function {
        let bin = matmul_program(8, 1);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let mm = bin.symbol_by_name("matmul").unwrap().value;
        co.functions[&mm].clone()
    }

    #[test]
    fn block_entry_points_cover_all_blocks() {
        let f = matmul_fn();
        let pts = find_points(&f, PointKind::BlockEntry);
        assert_eq!(pts.len(), 11, "§4.1: 11 instrumentation points");
        for p in &pts {
            assert!(f.blocks.contains_key(p.addr));
        }
    }

    #[test]
    fn entry_and_exit_points() {
        let f = matmul_fn();
        let entry = find_points(&f, PointKind::FuncEntry);
        assert_eq!(entry.len(), 1);
        assert_eq!(entry[0].addr, f.entry);
        let exits = find_points(&f, PointKind::FuncExit);
        assert_eq!(exits.len(), 1); // single ret
                                    // Exit point is the ret instruction itself.
        let b = f.block_containing(exits[0].addr).unwrap();
        assert!(b.last_inst().unwrap().is_canonical_return());
    }

    #[test]
    fn loop_back_edge_points() {
        let f = matmul_fn();
        let pts = find_points(&f, PointKind::LoopBackEdge);
        // Three loops, each with one latch (the jump back to the head).
        assert_eq!(pts.len(), 3);
    }

    #[test]
    fn call_points_in_main() {
        let bin = matmul_program(8, 2);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let main = bin.symbol_by_name("main").unwrap().value;
        let f = &co.functions[&main];
        let pre = find_points(f, PointKind::PreCall);
        // main calls init_arrays once and matmul once (in the loop).
        assert_eq!(pre.len(), 2);
        let post = find_points(f, PointKind::PostCall);
        assert_eq!(post.len(), 2);
    }
}
