//! Functions: named CFG regions with entry, blocks, exits and loops.

use crate::block::{BasicBlock, EdgeKind};
use crate::loops::Loop;
use std::collections::BTreeMap;

/// A function as discovered by ParseAPI: the set of blocks reachable from
/// `entry` along intraprocedural edges.
#[derive(Debug, Clone)]
pub struct Function {
    pub entry: u64,
    pub name: Option<String>,
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u64, BasicBlock>,
    /// Entries of functions this one calls (directly or by tail call).
    pub callees: Vec<u64>,
    /// Natural loops, computed by the parser once the CFG is complete.
    pub loops: Vec<Loop>,
    /// True if any branch in the function was left unresolved (gaps may
    /// exist — §2's "parsing may leave gaps in the binary").
    pub has_unresolved: bool,
}

impl Function {
    pub fn new(entry: u64) -> Function {
        Function {
            entry,
            name: None,
            blocks: BTreeMap::new(),
            callees: Vec::new(),
            loops: Vec::new(),
            has_unresolved: false,
        }
    }

    /// Address extent `[lowest block start, highest block end)`.
    pub fn extent(&self) -> (u64, u64) {
        let lo = self.blocks.keys().next().copied().unwrap_or(self.entry);
        let hi = self
            .blocks
            .values()
            .map(|b| b.end)
            .max()
            .unwrap_or(self.entry);
        (lo, hi)
    }

    /// The block containing `addr`, if any.
    pub fn block_containing(&self, addr: u64) -> Option<&BasicBlock> {
        self.blocks
            .range(..=addr)
            .next_back()
            .map(|(_, b)| b)
            .filter(|b| b.contains(addr))
    }

    /// Blocks whose terminator leaves the function (returns, tail calls,
    /// unresolved indirect jumps).
    pub fn exit_blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.values().filter(|b| {
            b.edges.iter().any(|e| {
                matches!(
                    e.kind,
                    EdgeKind::Return | EdgeKind::TailCall | EdgeKind::Unresolved
                )
            })
        })
    }

    /// Block start addresses of call sites (blocks with a Call edge).
    pub fn call_sites(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks
            .values()
            .filter(|b| b.edges.iter().any(|e| e.kind == EdgeKind::Call))
    }

    /// Total instruction count.
    pub fn num_insts(&self) -> usize {
        self.blocks.values().map(|b| b.insts.len()).sum()
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
            for e in &b.edges {
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
        let mut f = Function::new(0x1000);
        f.name = Some("demo".into());
        f.blocks.insert(
            0x1000,
            BasicBlock {
                start: 0x1000,
                end: 0x1004,
                insts: vec![],
                edges: vec![
                    Edge::to(EdgeKind::Taken, 0x1008),
                    Edge::out(EdgeKind::Return),
                ],
            },
        );
        f.blocks.insert(
            0x1008,
            BasicBlock {
                start: 0x1008,
                end: 0x100C,
                insts: vec![],
                edges: vec![],
            },
        );
        let dot = f.to_dot();
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("\"b1000\" -> \"b1008\""));
        assert!(dot.contains("exit"));
        assert!(dot.ends_with("}\n"));
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
