//! Dominator and natural-loop analysis — standard binary-optimizer
//! equipment used for reporting and instrumentation placement sanity.
//!
//! Dominators follow Cooper–Harvey–Kennedy's "simple, fast" iterative
//! algorithm over reverse post-order; natural loops are recovered from
//! back edges `(tail → head)` with `head` dominating `tail`, taking the
//! union of bodies for loops sharing a head.

use crate::cfg::Cfg;

/// Immediate-dominator tree over a CFG's blocks.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of block `b`; `idom[entry] =
    /// entry`. Unreachable blocks map to `usize::MAX`.
    idom: Vec<usize>,
}

impl Dominators {
    /// Computes dominators for `cfg` (entry = block 0).
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.len();
        let rpo = cfg.reverse_post_order();
        // Position of each block in RPO (usize::MAX = unreachable).
        let mut order = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            order[b] = i;
        }
        let mut idom = vec![usize::MAX; n];
        idom[0] = 0;

        let intersect = |idom: &[usize], order: &[usize], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while order[a] > order[b] {
                    a = idom[a];
                }
                while order[b] > order[a] {
                    b = idom[b];
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // First processed predecessor.
                let mut new_idom = usize::MAX;
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == usize::MAX {
                        continue; // not yet processed or unreachable
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, &order, new_idom, p)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// The immediate dominator of `b` (`b` itself for the entry).
    /// Returns `None` for unreachable blocks.
    pub fn idom(&self, b: usize) -> Option<usize> {
        match self.idom.get(b) {
            Some(&d) if d != usize::MAX => Some(d),
            _ => None,
        }
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom.get(b).copied().unwrap_or(usize::MAX) == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let next = self.idom[cur];
            if next == cur {
                return a == cur;
            }
            cur = next;
        }
    }
}

/// A natural loop: the blocks strictly reachable backwards from a back
/// edge without passing the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (dominates every body block).
    pub header: usize,
    /// All blocks of the loop, header included, sorted.
    pub body: Vec<usize>,
}

/// Finds the natural loops of `cfg`, merging loops that share a header.
pub fn natural_loops(cfg: &Cfg) -> Vec<NaturalLoop> {
    let dom = Dominators::compute(cfg);
    let mut by_header: std::collections::BTreeMap<usize, std::collections::BTreeSet<usize>> =
        std::collections::BTreeMap::new();

    for (tail, head) in cfg.back_edges() {
        if !dom.dominates(head, tail) {
            // Irreducible edge: skip (cannot arise from the structured
            // builder, but rewritten binaries are checked anyway).
            continue;
        }
        let body = by_header.entry(head).or_default();
        body.insert(head);
        // Walk predecessors backwards from the tail until the header.
        let mut stack = vec![tail];
        while let Some(b) = stack.pop() {
            if body.insert(b) {
                for &p in &cfg.blocks[b].preds {
                    if b != head {
                        stack.push(p);
                    }
                }
            }
        }
    }

    by_header
        .into_iter()
        .map(|(header, body)| NaturalLoop {
            header,
            body: body.into_iter().collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, Program, ProgramBuilder, Reg};

    fn simple_loop() -> Program {
        // 0..2 preamble | 2..4 body (self loop) | 4 exit
        let mut b = ProgramBuilder::new("l");
        b.imm(Reg(0), 3).imm(Reg(1), 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, Reg(0), Reg(0), Reg(1), 1);
        b.branch(Cond::Nez, Reg(0), top);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn dominators_of_a_chain() {
        let cfg = Cfg::build(&simple_loop());
        let dom = Dominators::compute(&cfg);
        // Blocks: 0 = preamble, 1 = body, 2 = exit.
        assert_eq!(dom.idom(0), Some(0));
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(1));
        assert!(dom.dominates(0, 2));
        assert!(dom.dominates(1, 2));
        assert!(!dom.dominates(2, 1));
        assert!(dom.dominates(1, 1), "dominance is reflexive");
    }

    #[test]
    fn natural_loop_of_self_edge() {
        let cfg = Cfg::build(&simple_loop());
        let loops = natural_loops(&cfg);
        assert_eq!(
            loops,
            vec![NaturalLoop {
                header: 1,
                body: vec![1]
            }]
        );
    }

    #[test]
    fn nested_loops_found() {
        // outer: { inner: {...} }
        let mut b = ProgramBuilder::new("nest");
        let r = Reg(0);
        let s = Reg(1);
        let one = Reg(2);
        b.imm(one, 1);
        b.imm(r, 3);
        let outer = b.label();
        b.bind(outer);
        b.imm(s, 2);
        let inner = b.label();
        b.bind(inner);
        b.alu(AluOp::Sub, s, s, one, 1);
        b.branch(Cond::Nez, s, inner);
        b.alu(AluOp::Sub, r, r, one, 1);
        b.branch(Cond::Nez, r, outer);
        b.halt();
        let p = b.finish().unwrap();
        let cfg = Cfg::build(&p);
        let loops = natural_loops(&cfg);
        assert_eq!(loops.len(), 2);
        // The inner loop body is a subset of the outer's.
        let inner_l = &loops[1];
        let outer_l = &loops[0];
        assert!(
            inner_l.body.iter().all(|b| outer_l.body.contains(b))
                || outer_l.body.iter().all(|b| inner_l.body.contains(b)),
            "one loop nests in the other: {loops:?}"
        );
    }

    #[test]
    fn diamond_has_no_loops() {
        let mut b = ProgramBuilder::new("d");
        let then_l = b.label();
        let join = b.label();
        b.branch(Cond::Nez, Reg(0), then_l);
        b.imm(Reg(1), 2);
        b.jump(join);
        b.bind(then_l);
        b.imm(Reg(1), 1);
        b.bind(join);
        b.halt();
        let p = b.finish().unwrap();
        let cfg = Cfg::build(&p);
        assert!(natural_loops(&cfg).is_empty());
        let dom = Dominators::compute(&cfg);
        let join_id = cfg.block_of_pc(4);
        assert_eq!(dom.idom(join_id), Some(0), "join is dominated by the fork");
    }
}
