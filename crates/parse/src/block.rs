//! Basic blocks, CFG edges, and a function's block collection.
//!
//! A function stores its blocks in one [`Blocks`]: a vector of block
//! extents sorted by start, plus two arenas that hold every block's
//! instructions and every block's edges back to back, in block order.
//! Consumers read a block through a [`BasicBlock`] view, whose
//! [`insts`](BasicBlock::insts) and [`edges`](BasicBlock::edges) are
//! slices of those arenas.

use rvdyn_isa::Instruction;

/// The kind of a CFG edge (Dyninst's edge taxonomy, RISC-V flavoured).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Sequential flow into the next block.
    Fallthrough,
    /// Conditional branch, taken side.
    Taken,
    /// Conditional branch, not-taken side.
    NotTaken,
    /// Unconditional intra-function jump.
    Jump,
    /// Call to a function entry (interprocedural).
    Call,
    /// Flow from a call site to the instruction after it.
    CallFallthrough,
    /// Function return (no static target).
    Return,
    /// Tail call: a jump that is semantically a call (§3.2.3).
    TailCall,
    /// One resolved target of an indirect jump (jump table).
    IndirectJump,
    /// Indirect transfer whose target could not be resolved.
    Unresolved,
}

impl EdgeKind {
    /// Does this edge stay within the current function?
    pub fn is_intraprocedural(self) -> bool {
        matches!(
            self,
            EdgeKind::Fallthrough
                | EdgeKind::Taken
                | EdgeKind::NotTaken
                | EdgeKind::Jump
                | EdgeKind::CallFallthrough
                | EdgeKind::IndirectJump
        )
    }
}

/// A CFG edge: kind plus target address (`None` for returns/unresolved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub kind: EdgeKind,
    pub target: Option<u64>,
}

impl Edge {
    pub fn to(kind: EdgeKind, target: u64) -> Edge {
        Edge {
            kind,
            target: Some(target),
        }
    }

    pub fn out(kind: EdgeKind) -> Edge {
        Edge { kind, target: None }
    }
}

/// A basic block: a maximal single-entry straight-line instruction run.
///
/// This is a view: its instructions and edges are slices of the owning
/// function's arenas, and it is `Copy`. [`Blocks`] hands blocks out this
/// way, and [`Function::from_blocks`](crate::Function::from_blocks) takes
/// them in to build a CFG by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock<'a> {
    /// Address of the first instruction.
    pub start: u64,
    /// Address one past the last instruction.
    pub end: u64,
    /// Decoded instructions, in address order.
    pub insts: &'a [Instruction],
    /// Outgoing edges.
    pub edges: &'a [Edge],
}

impl<'a> BasicBlock<'a> {
    pub fn len_bytes(&self) -> u64 {
        self.end - self.start
    }

    pub fn last_inst(&self) -> Option<&'a Instruction> {
        self.insts.last()
    }

    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Is `addr` the address of one of this block's instructions?
    pub fn is_inst_boundary(&self, addr: u64) -> bool {
        self.insts.iter().any(|i| i.address == addr)
    }

    /// Intraprocedural successor block addresses.
    pub fn successors(&self) -> impl Iterator<Item = u64> + 'a {
        self.edges
            .iter()
            .filter(|e| e.kind.is_intraprocedural())
            .filter_map(|e| e.target)
    }
}

/// One stored block: its extent and where its instructions and edges
/// begin in the arenas. They end where the next block's begin.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    /// The highest `end` of this block and every block that starts
    /// before it, so that a lookup knows when no earlier block can
    /// contain an address.
    reach: u64,
    insts: usize,
    edges: usize,
}

/// A function's basic blocks, sorted by start address. Instructions and
/// edges live in two arenas shared by all the blocks.
///
/// It answers what a map keyed by block start would:
/// [`len`](Blocks::len), [`keys`](Blocks::keys),
/// [`values`](Blocks::values), [`get`](Blocks::get),
/// [`at`](Blocks::at) and [`contains_key`](Blocks::contains_key).
#[derive(Debug, Clone, Default)]
pub struct Blocks {
    spans: Vec<Span>,
    insts: Vec<Instruction>,
    edges: Vec<Edge>,
}

impl Blocks {
    /// Copy `blocks`, which must be sorted by start with no start
    /// repeated, into one sorted vector and two arenas of exactly the
    /// size they need. The iterator is walked twice: once to size the
    /// arenas, once to fill them.
    pub(crate) fn from_sorted<'a, I>(blocks: I) -> Blocks
    where
        I: Iterator<Item = BasicBlock<'a>> + Clone,
    {
        let (mut n, mut ni, mut ne) = (0, 0, 0);
        for b in blocks.clone() {
            n += 1;
            ni += b.insts.len();
            ne += b.edges.len();
        }
        let mut out = Blocks {
            spans: Vec::with_capacity(n),
            insts: Vec::with_capacity(ni),
            edges: Vec::with_capacity(ne),
        };
        let mut reach = 0;
        for b in blocks {
            debug_assert!(
                out.spans.last().is_none_or(|s| s.start < b.start),
                "blocks out of order at {:#x}",
                b.start
            );
            reach = reach.max(b.end);
            out.spans.push(Span {
                start: b.start,
                end: b.end,
                reach,
                insts: out.insts.len(),
                edges: out.edges.len(),
            });
            out.insts.extend_from_slice(b.insts);
            out.edges.extend_from_slice(b.edges);
        }
        out
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of instructions over all the blocks.
    pub(crate) fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Block start addresses, ascending.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.spans.iter().map(|s| s.start)
    }

    /// Blocks in ascending start order.
    pub fn values(&self) -> impl Iterator<Item = BasicBlock<'_>> + '_ {
        (0..self.spans.len()).map(|i| self.view(i))
    }

    /// The block starting at `start`.
    pub fn get(&self, start: u64) -> Option<BasicBlock<'_>> {
        self.index_of(start).map(|i| self.view(i))
    }

    /// The block starting at `start`, which must exist.
    ///
    /// # Panics
    ///
    /// If no block starts at `start`.
    pub fn at(&self, start: u64) -> BasicBlock<'_> {
        self.get(start)
            .unwrap_or_else(|| panic!("no block starts at {start:#x}"))
    }

    /// Does a block start at `start`?
    pub fn contains_key(&self, start: u64) -> bool {
        self.index_of(start).is_some()
    }

    /// The position of the block starting at `start` in start order.
    pub(crate) fn index_of(&self, start: u64) -> Option<usize> {
        self.spans.binary_search_by_key(&start, |s| s.start).ok()
    }

    /// The latest-starting block that contains `addr`. Overlapping code
    /// can put a short block that starts later inside a longer one, so
    /// the lookup walks back past blocks that start at or before `addr`
    /// but end before it, until no earlier block reaches `addr`.
    pub(crate) fn containing(&self, addr: u64) -> Option<BasicBlock<'_>> {
        let upto = self.spans.partition_point(|s| s.start <= addr);
        (0..upto)
            .rev()
            .take_while(|&i| self.spans[i].reach > addr)
            .find(|&i| self.spans[i].end > addr)
            .map(|i| self.view(i))
    }

    /// `(lowest start, highest end)` over the blocks, if there are any.
    pub(crate) fn extent(&self) -> Option<(u64, u64)> {
        Some((self.spans.first()?.start, self.spans.last()?.reach))
    }

    fn view(&self, i: usize) -> BasicBlock<'_> {
        let s = &self.spans[i];
        let (insts_end, edges_end) = match self.spans.get(i + 1) {
            Some(next) => (next.insts, next.edges),
            None => (self.insts.len(), self.edges.len()),
        };
        BasicBlock {
            start: s.start,
            end: s.end,
            insts: &self.insts[s.insts..insts_end],
            edges: &self.edges[s.edges..edges_end],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_isa::build;

    fn nops(addrs: &[u64]) -> Vec<Instruction> {
        addrs
            .iter()
            .map(|&a| {
                let mut i = build::nop();
                i.address = a;
                i
            })
            .collect()
    }

    #[test]
    fn blocks_view_their_own_slices_of_the_arenas() {
        let (a, b) = (nops(&[0x100, 0x104]), nops(&[0x108]));
        let ret = [Edge::out(EdgeKind::Return)];
        let fall = [Edge::to(EdgeKind::Fallthrough, 0x108)];
        let blocks = Blocks::from_sorted(
            [
                BasicBlock {
                    start: 0x100,
                    end: 0x108,
                    insts: &a,
                    edges: &fall,
                },
                BasicBlock {
                    start: 0x108,
                    end: 0x10C,
                    insts: &b,
                    edges: &ret,
                },
            ]
            .into_iter(),
        );
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks.keys().collect::<Vec<_>>(), vec![0x100, 0x108]);
        let head = blocks.at(0x100);
        assert_eq!((head.start, head.end), (0x100, 0x108));
        assert_eq!(head.insts, &a[..]);
        assert_eq!(head.edges, &fall[..]);
        assert_eq!(head.successors().collect::<Vec<_>>(), vec![0x108]);
        let tail = blocks.at(0x108);
        assert_eq!(tail.insts, &b[..]);
        assert_eq!(tail.edges, &ret[..]);
        assert!(tail.is_inst_boundary(0x108) && !tail.is_inst_boundary(0x10A));
        assert!(blocks.get(0x104).is_none() && !blocks.contains_key(0x104));
        assert_eq!(blocks.extent(), Some((0x100, 0x10C)));
        assert_eq!(Blocks::default().extent(), None);
    }

    #[test]
    fn containing_sees_past_a_shorter_later_block() {
        // [0x1004, 0x1014) holds [0x100a, 0x100c), as overlapping code
        // decodes: a lookup at 0x100c or 0x1010 must find the long block.
        let span = |start, end| BasicBlock {
            start,
            end,
            insts: &[],
            edges: &[],
        };
        let blocks = Blocks::from_sorted(
            [
                span(0x1000, 0x1004),
                span(0x1004, 0x1014),
                span(0x100a, 0x100c),
            ]
            .into_iter(),
        );
        let at = |a| blocks.containing(a).map(|b| b.start);
        assert_eq!(at(0x1000), Some(0x1000));
        assert_eq!(at(0x1008), Some(0x1004));
        assert_eq!(at(0x100a), Some(0x100a));
        assert_eq!(at(0x100c), Some(0x1004));
        assert_eq!(at(0x1010), Some(0x1004));
        assert_eq!(at(0x1014), None);
        assert_eq!(at(0x0ffc), None);
    }

    #[test]
    fn edge_kind_classification() {
        assert!(EdgeKind::Fallthrough.is_intraprocedural());
        assert!(EdgeKind::CallFallthrough.is_intraprocedural());
        assert!(!EdgeKind::Call.is_intraprocedural());
        assert!(!EdgeKind::TailCall.is_intraprocedural());
        assert!(!EdgeKind::Return.is_intraprocedural());
    }
}
