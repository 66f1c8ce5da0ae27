//! Dependence analysis for yield coalescing (§3.2: "independence of
//! adjacent loads can be determined via dependence analysis [4, 43]").
//!
//! Coalescing rewrites `pref A; yield; load A; …; pref B; yield; load B`
//! into `pref A; pref B; yield; load A; …; load B`, amortizing one switch
//! over several fills. That is only legal when B's *address* is already
//! computable at A's position, i.e. B's address register is not defined by
//! anything between the group start and B (including A itself — the very
//! dependence that makes a pointer chase a chase). Stores and control
//! transfers in between end a group conservatively: our micro-IR cannot
//! prove a store does not feed a later load through memory.

use reach_sim::Inst;

/// Returns `true` if the load at relative index `j` of `window` could be
/// hoisted to the start of the window: no instruction in `window[..j]`
/// defines its address register, and the window prefix contains no store,
/// call/ret, branch or yield.
///
/// `window[0]` is the group's first (anchor) instruction.
pub(crate) fn hoistable_to_start(window: &[Inst], j: usize) -> bool {
    let Some(Inst::Load { addr, .. }) = window.get(j) else {
        return false;
    };
    for inst in &window[..j] {
        match inst {
            Inst::Store { .. }
            | Inst::Branch { .. }
            | Inst::Call { .. }
            | Inst::Ret
            | Inst::Halt
            | Inst::Yield { .. } => return false,
            _ => {}
        }
        if inst.def() == Some(*addr) {
            return false;
        }
    }
    true
}

/// Partitions the selected loads of one basic block into coalescable
/// groups.
///
/// `selected` holds block-relative instruction indices of chosen loads in
/// ascending order. Each returned group is a run of selected loads whose
/// later members are all [`hoistable_to_start`] relative to the group's
/// anchor. Groups preserve order and cover `selected` exactly.
pub(crate) fn coalesce_groups(insts: &[Inst], selected: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < selected.len() {
        let anchor = selected[i];
        let mut group = vec![anchor];
        let mut j = i + 1;
        while j < selected.len() {
            let cand = selected[j];
            // Window from the anchor up to (and excluding) the candidate.
            let rel = cand - anchor;
            if hoistable_to_start(&insts[anchor..=cand], rel) {
                group.push(cand);
                j += 1;
            } else {
                break;
            }
        }
        i = j;
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Reg};

    fn load(dst: u8, addr: u8) -> Inst {
        Inst::Load {
            dst: Reg(dst),
            addr: Reg(addr),
            offset: 0,
        }
    }

    fn alu(dst: u8, a: u8, b: u8) -> Inst {
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            src1: Reg(a),
            src2: Reg(b),
            lat: 1,
        }
    }

    #[test]
    fn independent_adjacent_loads_coalesce() {
        // load r1,[r8]; load r2,[r9]; load r3,[r10] — all independent.
        let insts = vec![load(1, 8), load(2, 9), load(3, 10)];
        let groups = coalesce_groups(&insts, &[0, 1, 2]);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn dependent_chain_does_not_coalesce() {
        // load r1,[r0]; load r2,[r1] — the second depends on the first.
        let insts = vec![load(1, 0), load(2, 1)];
        let groups = coalesce_groups(&insts, &[0, 1]);
        assert_eq!(groups, vec![vec![0], vec![1]]);
    }

    #[test]
    fn intervening_alu_defining_addr_breaks_group() {
        // load r1,[r8]; r9 = r1+r1; load r2,[r9].
        let insts = vec![load(1, 8), alu(9, 1, 1), load(2, 9)];
        let groups = coalesce_groups(&insts, &[0, 2]);
        assert_eq!(groups, vec![vec![0], vec![2]]);
    }

    #[test]
    fn intervening_unrelated_alu_is_fine() {
        // load r1,[r8]; r5 = r6+r6; load r2,[r9].
        let insts = vec![load(1, 8), alu(5, 6, 6), load(2, 9)];
        let groups = coalesce_groups(&insts, &[0, 2]);
        assert_eq!(groups, vec![vec![0, 2]]);
    }

    #[test]
    fn store_breaks_group_conservatively() {
        let insts = vec![
            load(1, 8),
            Inst::Store {
                src: Reg(1),
                addr: Reg(12),
                offset: 0,
            },
            load(2, 9),
        ];
        let groups = coalesce_groups(&insts, &[0, 2]);
        assert_eq!(groups, vec![vec![0], vec![2]]);
    }

    #[test]
    fn partial_groups_split_correctly() {
        // l0 indep, l1 indep, l2 depends on l1's dst.
        let insts = vec![load(1, 8), load(2, 9), load(3, 2)];
        let groups = coalesce_groups(&insts, &[0, 1, 2]);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn hoistable_rejects_non_load() {
        let insts = vec![alu(1, 2, 3)];
        assert!(!hoistable_to_start(&insts, 0) || matches!(insts[0], Inst::Load { .. }));
        assert!(!hoistable_to_start(&insts, 5), "out of range");
    }

    #[test]
    fn empty_selection_yields_no_groups() {
        let insts = vec![load(1, 8)];
        assert!(coalesce_groups(&insts, &[]).is_empty());
    }
}
