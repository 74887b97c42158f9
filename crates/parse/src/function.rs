//! Functions: named CFG regions with entry, blocks, exits and loops.

use crate::block::{BasicBlock, Blocks, EdgeKind};
use crate::loops::Loop;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A function as discovered by ParseAPI: the set of blocks reachable from
/// `entry` along intraprocedural edges.
///
/// The blocks are one [`Blocks`] collection, sorted by start, whose
/// instructions and edges sit in two arenas that belong to the function.
/// Natural loops are not part of the parse: [`Function::loops`] computes
/// them on its first call and keeps them.
#[derive(Debug, Clone)]
pub struct Function {
    pub entry: u64,
    pub name: Option<String>,
    /// Blocks, sorted by start address.
    pub blocks: Blocks,
    /// Entries of functions this one calls (directly or by tail call),
    /// ascending.
    pub callees: Vec<u64>,
    /// True if any branch in the function was left unresolved (gaps may
    /// exist — §2's "parsing may leave gaps in the binary").
    pub has_unresolved: bool,
    /// Natural loops, filled by the first [`Function::loops`] call.
    loops: OnceLock<Vec<Loop>>,
}

impl Function {
    /// Build a CFG by hand from block views, in any order; no two may
    /// share a start. Their instructions and edges are copied into the
    /// function's arenas.
    pub fn from_blocks<'a>(
        entry: u64,
        blocks: impl IntoIterator<Item = BasicBlock<'a>>,
    ) -> Function {
        let mut blocks: Vec<BasicBlock<'a>> = blocks.into_iter().collect();
        blocks.sort_by_key(|b| b.start);
        assert!(
            blocks.windows(2).all(|w| w[0].start < w[1].start),
            "two blocks share a start"
        );
        Function::with_blocks(entry, Blocks::from_sorted(blocks.iter().copied()))
    }

    pub(crate) fn with_blocks(entry: u64, blocks: Blocks) -> Function {
        Function {
            entry,
            name: None,
            blocks,
            callees: Vec::new(),
            has_unresolved: false,
            loops: OnceLock::new(),
        }
    }

    /// The function's natural loops, ordered by header. The first call
    /// computes them with [`natural_loops`](crate::natural_loops); later
    /// calls, from any thread, return the same slice.
    pub fn loops(&self) -> &[Loop] {
        self.loops.get_or_init(|| crate::loops::natural_loops(self))
    }

    /// Address extent `[lowest block start, highest block end)`, or
    /// `(entry, entry)` for a function with no blocks.
    pub fn extent(&self) -> (u64, u64) {
        self.blocks.extent().unwrap_or((self.entry, self.entry))
    }

    /// The latest-starting block containing `addr`, if any.
    pub fn block_containing(&self, addr: u64) -> Option<BasicBlock<'_>> {
        self.blocks.containing(addr)
    }

    /// Blocks whose terminator leaves the function (returns, tail calls,
    /// unresolved indirect jumps).
    pub fn exit_blocks(&self) -> impl Iterator<Item = BasicBlock<'_>> {
        self.blocks.values().filter(|b| {
            b.edges.iter().any(|e| {
                matches!(
                    e.kind,
                    EdgeKind::Return | EdgeKind::TailCall | EdgeKind::Unresolved
                )
            })
        })
    }

    /// Call-site blocks (blocks with a Call edge).
    pub fn call_sites(&self) -> impl Iterator<Item = BasicBlock<'_>> {
        self.blocks
            .values()
            .filter(|b| b.edges.iter().any(|e| e.kind == EdgeKind::Call))
    }

    /// Total instruction count.
    pub fn num_insts(&self) -> usize {
        self.blocks.num_insts()
    }

    /// Predecessor map (intraprocedural).
    pub fn predecessors(&self) -> BTreeMap<u64, Vec<u64>> {
        let mut preds: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for b in self.blocks.values() {
            for succ in b.successors() {
                preds.entry(succ).or_default().push(b.start);
            }
        }
        preds
    }
}

impl Function {
    /// Render the CFG as Graphviz DOT (blocks as nodes, edges coloured by
    /// kind) — the visual companion tools expect from a CFG API.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let name = self.name.as_deref().unwrap_or("function");
        let _ = writeln!(s, "digraph \"{name}\" {{");
        let _ = writeln!(s, "  node [shape=box, fontname=\"monospace\"];");
        let _ = writeln!(
            s,
            "  entry [shape=plaintext, label=\"{name} @ {:#x}\"];",
            self.entry
        );
        let _ = writeln!(s, "  entry -> \"b{:x}\";", self.entry);
        for b in self.blocks.values() {
            let _ = writeln!(
                s,
                "  \"b{:x}\" [label=\"{:#x}..{:#x}\\n{} insts\"];",
                b.start,
                b.start,
                b.end,
                b.insts.len()
            );
            for e in b.edges {
                let (style, color) = match e.kind {
                    EdgeKind::Taken => ("solid", "darkgreen"),
                    EdgeKind::NotTaken => ("solid", "firebrick"),
                    EdgeKind::Fallthrough | EdgeKind::CallFallthrough => ("solid", "black"),
                    EdgeKind::Jump => ("solid", "blue"),
                    EdgeKind::IndirectJump => ("dashed", "blue"),
                    EdgeKind::Call => ("dotted", "purple"),
                    EdgeKind::TailCall => ("dashed", "purple"),
                    EdgeKind::Return => ("bold", "gray"),
                    EdgeKind::Unresolved => ("dashed", "red"),
                };
                match e.target {
                    Some(t) if e.kind.is_intraprocedural() => {
                        let _ = writeln!(
                            s,
                            "  \"b{:x}\" -> \"b{:x}\" [style={style}, color={color}, label=\"{:?}\"];",
                            b.start, t, e.kind
                        );
                    }
                    Some(t) => {
                        let _ = writeln!(
                            s,
                            "  \"b{:x}\" -> \"x{:x}\" [style={style}, color={color}, label=\"{:?}\"];\n  \"x{:x}\" [shape=oval, label=\"{:#x}\"];",
                            b.start, t, e.kind, t, t
                        );
                    }
                    None => {
                        let _ = writeln!(
                            s,
                            "  \"b{:x}\" -> \"exit_{:x}\" [style={style}, color={color}, label=\"{:?}\"];\n  \"exit_{:x}\" [shape=plaintext, label=\"exit\"];",
                            b.start, b.start, e.kind, b.start
                        );
                    }
                }
            }
        }
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::block::{BasicBlock, Edge};

    #[test]
    fn dot_output_is_wellformed() {
        let taken = [
            Edge::to(EdgeKind::Taken, 0x1008),
            Edge::out(EdgeKind::Return),
        ];
        let block = |start, edges| BasicBlock {
            start,
            end: start + 4,
            insts: &[],
            edges,
        };
        let mut f = Function::from_blocks(0x1000, [block(0x1000, &taken[..]), block(0x1008, &[])]);
        f.name = Some("demo".into());
        let dot = f.to_dot();
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("\"b1000\" -> \"b1008\""));
        assert!(dot.contains("exit"));
        assert!(dot.ends_with("}\n"));
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
