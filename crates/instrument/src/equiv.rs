//! Translation validation: a CFG bisimulation checker that *proves*
//! each rewrite observationally equivalent to its input, modulo the
//! yields and prefetches the pipeline inserts.
//!
//! [`crate::validate`] checks a rewrite syntactically (survivors intact,
//! insertions drawn from a whitelist, targets relocated). This module
//! goes further: it symbolically executes every corresponding block pair
//! with [`crate::symexec`] and proves, on every path the original can
//! take, that the rewritten program performs the *same stores* (same
//! symbolic address, same symbolic value, same order), takes the *same
//! branches* (same condition over the same operand term, targets related
//! by the pc map), and reaches returns/halts in the *same register
//! state* — the three channels through which a micro-IR program is
//! observable. Yields are invisible to the proof (the executor
//! save/restores context around them) and prefetches are architectural
//! no-ops, which is precisely what "equivalent modulo inserted
//! yields/prefetches" means.
//!
//! The candidate block correspondence comes from the rewrite's own
//! origin map (`PcMap::origin`): original block `[s, e)` corresponds to
//! the rewritten range `[entry(s), new_of(e-1)]`, where `entry` places
//! insertions *before* their anchor inside the anchor's range. The
//! checker runs a forward fixpoint over the original CFG tracking, per
//! block, the set of registers provably equal on entry (the bisimulation
//! relation); unproven registers enter as distinct
//! [`crate::symexec::Term::Diverged`] terms so coincidences never count
//! as proofs. A final reporting pass re-executes each reachable pair and
//! emits deny-level lints through the [`crate::lint`] machinery:
//!
//! | code   | lint                       | fires when |
//! |--------|----------------------------|------------|
//! | RL0008 | pass-equivalence-violation | a store/branch/exit/register-state obligation cannot be proven, an inserted prefetch lacks a consuming load, or a rewritten access is unmasked under SFI |
//! | RL0009 | save-set-unprovable        | an unsaved register can flow from a yield to a use (or a return) without an intervening redefinition |
//! | RL0010 | pcmap-inconsistent         | the pc map is not a faithful order-preserving embedding of the original program |
//!
//! RL0009 *subsumes* RL0001 with a proof: RL0001 flags `live_before(y) &
//! !mask`, a backward may-analysis; the checker runs the exact forward
//! dual (taint the unsaved registers at the yield, kill on
//! redefinition, flag any use the taint reaches — returns count as uses
//! of everything, matching the liveness boundary). The two agree on
//! every program, but the forward run also names the *witness use* that
//! makes the save set insufficient.

use crate::cfg::Cfg;
use crate::lint::{Diagnostic, Level, Lint, LintOptions, LintReport};
use crate::liveness::{regset_to_string, RegSet, ALL_REGS};
use crate::rewrite::PcMap;
use crate::sfi::{R_SFI_ADDR, R_SFI_MASK};
use crate::symexec::{entry_state, sym_exec_range, BlockRun, MemEvent, MemKind, SymExit, TermPool};
use reach_sim::{Inst, Program, Reg, NUM_REGS};
use std::fmt;

/// The outcome of verifying one rewrite.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Diagnostics, reported through the lint machinery (RL0008–RL0010).
    pub lint: LintReport,
    /// Reachable original blocks whose pair was checked.
    pub blocks_checked: usize,
    /// Yield save-mask obligations discharged (yields carrying a mask).
    pub save_obligations: usize,
    /// Inserted-prefetch consuming-load obligations discharged.
    pub prefetch_obligations: usize,
    /// Distinct terms interned while proving.
    pub terms: usize,
}

impl VerifyReport {
    /// `true` when the rewrite is proven equivalent (no deny-level
    /// finding).
    pub fn ok(&self) -> bool {
        !self.lint.has_deny()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.lint.diagnostics.is_empty() {
            writeln!(f, "{}", self.lint)?;
        }
        write!(
            f,
            "verified {} block pair(s): {} save-mask + {} prefetch obligation(s), {} terms — {}",
            self.blocks_checked,
            self.save_obligations,
            self.prefetch_obligations,
            self.terms,
            if self.ok() { "equivalent" } else { "REFUSED" }
        )
    }
}

/// Verifies that `rewritten` is observationally equivalent to
/// `original`, modulo inserted yields/prefetches, using the
/// rewrite's origin map (`origin[new_pc] = Some(old_pc)` for survivors,
/// `None` for insertions).
///
/// `opts.sfi` additionally requires every rewritten memory access to be
/// provably masked (and excuses the SFI scratch register from
/// return/halt state equality). Lint levels in `opts` apply to
/// RL0008–RL0010 like any other lint.
pub fn verify_rewrite(
    original: &Program,
    rewritten: &Program,
    origin: &[Option<usize>],
    opts: &LintOptions,
) -> VerifyReport {
    verify_inner(original, rewritten, origin, None, opts)
}

/// [`verify_rewrite`] plus a consistency check of the full [`PcMap`]:
/// `new_of` must agree with the survivor positions recoverable from
/// `origin` (RL0010 otherwise).
pub fn verify_rewrite_map(
    original: &Program,
    rewritten: &Program,
    map: &PcMap,
    opts: &LintOptions,
) -> VerifyReport {
    verify_inner(original, rewritten, &map.origin, Some(&map.new_of), opts)
}

fn verify_inner(
    original: &Program,
    rewritten: &Program,
    origin: &[Option<usize>],
    new_of_claim: Option<&[usize]>,
    opts: &LintOptions,
) -> VerifyReport {
    let mut v = Verifier {
        original,
        rewritten,
        origin,
        opts,
        entry: Vec::new(),
        new_of: Vec::new(),
        pool: TermPool::new(),
        diags: Vec::new(),
        blocks_checked: 0,
        save_obligations: 0,
        prefetch_obligations: 0,
    };

    // The programs themselves must be well-formed before any CFG is
    // built (Cfg::build panics on invalid programs by contract).
    let mut valid = true;
    if let Err(e) = original.validate() {
        v.emit(
            Lint::PassEquivalenceViolation,
            None,
            format!("original program fails validation: {e}"),
        );
        valid = false;
    }
    if let Err(e) = rewritten.validate() {
        v.emit(
            Lint::PassEquivalenceViolation,
            None,
            format!("rewritten program fails validation: {e}"),
        );
        valid = false;
    }
    if valid && v.check_pc_map(new_of_claim) {
        v.check_save_masks();
        v.bisimulate();
    }
    v.seal()
}

/// A taint witness: the first pc where an unsaved register's stale value
/// becomes observable (`at_ret` distinguishes "used" from "escapes to
/// the caller").
type Witness = (usize, RegSet, bool);

struct Verifier<'a> {
    original: &'a Program,
    rewritten: &'a Program,
    origin: &'a [Option<usize>],
    opts: &'a LintOptions,
    /// `entry[old_pc]`: rewritten pc where `old_pc`'s range (insertions
    /// then survivor) begins.
    entry: Vec<usize>,
    /// `new_of[old_pc]`: rewritten pc of the surviving instruction.
    new_of: Vec<usize>,
    pool: TermPool,
    diags: Vec<Diagnostic>,
    blocks_checked: usize,
    save_obligations: usize,
    prefetch_obligations: usize,
}

impl Verifier<'_> {
    fn emit(&mut self, lint: Lint, pc: Option<usize>, message: String) {
        let level = self.opts.level(lint);
        if level != Level::Allow {
            self.diags.push(Diagnostic {
                lint,
                level,
                pc,
                message,
            });
        }
    }

    fn seal(mut self) -> VerifyReport {
        self.diags
            .sort_by_key(|d| (d.pc.unwrap_or(usize::MAX), d.lint));
        VerifyReport {
            lint: LintReport {
                diagnostics: self.diags,
            },
            blocks_checked: self.blocks_checked,
            save_obligations: self.save_obligations,
            prefetch_obligations: self.prefetch_obligations,
            terms: self.pool.len(),
        }
    }

    /// Structural pc-map checks (RL0010). Returns `false` when the map
    /// is too broken for the bisimulation to even set up its block
    /// correspondence.
    fn check_pc_map(&mut self, new_of_claim: Option<&[usize]>) -> bool {
        let n_old = self.original.len();
        if self.origin.len() != self.rewritten.len() {
            self.emit(
                Lint::PcMapInconsistent,
                None,
                format!(
                    "origin map has {} entries for a {}-instruction rewritten program",
                    self.origin.len(),
                    self.rewritten.len()
                ),
            );
            return false;
        }
        // Survivors must enumerate the original exactly once, in order —
        // the rewrite is an order-preserving embedding.
        let mut next = 0usize;
        for (new_pc, o) in self.origin.iter().enumerate() {
            let Some(old_pc) = *o else { continue };
            if old_pc != next {
                self.emit(
                    Lint::PcMapInconsistent,
                    Some(new_pc),
                    format!(
                        "origin map places original pc {old_pc} here, but pc {next} \
                         is the next original instruction unaccounted for"
                    ),
                );
                return false;
            }
            next += 1;
        }
        if next != n_old {
            self.emit(
                Lint::PcMapInconsistent,
                None,
                format!("origin map covers {next} of {n_old} original instructions"),
            );
            return false;
        }

        // entry[old] = first pc of old's range (insertions ride before
        // their anchor); new_of[old] = the survivor itself.
        self.entry = vec![0; n_old];
        self.new_of = vec![0; n_old];
        let mut prev_new: Option<usize> = None;
        for (new_pc, o) in self.origin.iter().enumerate() {
            let Some(old_pc) = *o else { continue };
            self.entry[old_pc] = match prev_new {
                None => 0,
                Some(p) => p + 1,
            };
            self.new_of[old_pc] = new_pc;
            prev_new = Some(new_pc);
        }

        // The composed map's new_of must tell the same story as its
        // origin — a desynchronized pair means some pass composed or
        // relocated against the wrong image.
        if let Some(claim) = new_of_claim {
            if claim.len() != n_old {
                self.emit(
                    Lint::PcMapInconsistent,
                    None,
                    format!(
                        "pc map new_of has {} entries for a {n_old}-instruction original",
                        claim.len()
                    ),
                );
            } else if let Some((old_pc, &claimed)) = claim
                .iter()
                .enumerate()
                .find(|&(old_pc, &claimed)| claimed != self.new_of[old_pc])
            {
                let actual = self.new_of[old_pc];
                self.emit(
                    Lint::PcMapInconsistent,
                    Some(claimed.min(self.rewritten.len() - 1)),
                    format!(
                        "pc map sends original pc {old_pc} to {claimed}, but the origin \
                         map places its survivor at {actual}"
                    ),
                );
            }
        }
        true
    }

    /// RL0009: for every yield that declares a save mask, prove no
    /// unsaved register flows to a use (or a return) without being
    /// redefined first. Forward taint over the rewritten CFG, the exact
    /// dual of RL0001's backward liveness.
    fn check_save_masks(&mut self) {
        let prog = self.rewritten;
        let cfg = Cfg::build(prog);
        for (ypc, inst) in prog.insts.iter().enumerate() {
            let Inst::Yield {
                save_regs: Some(mask),
                ..
            } = inst
            else {
                continue;
            };
            self.save_obligations += 1;
            let seed: RegSet = !mask & ALL_REGS;
            if seed == 0 {
                continue; // full save: nothing to prove
            }
            let yb = cfg.block_of_pc(ypc);

            // Fixpoint: push the taint out of the yield's block until
            // block-entry taints stabilize.
            let mut tin = vec![0 as RegSet; cfg.len()];
            let mut in_work = vec![false; cfg.len()];
            let mut work = vec![yb];
            in_work[yb] = true;
            while let Some(b) = work.pop() {
                in_work[b] = false;
                let seeded = (b == yb).then_some(ypc);
                let (tout, _) = taint_walk(prog, &cfg.blocks[b], tin[b], seeded, seed, false);
                for &s in &cfg.blocks[b].succs {
                    let merged = tin[s] | tout;
                    if merged != tin[s] {
                        tin[s] = merged;
                        if !in_work[s] {
                            in_work[s] = true;
                            work.push(s);
                        }
                    }
                }
            }

            // Reporting: earliest witness, if any.
            let mut best: Option<Witness> = None;
            for (b, blk) in cfg.blocks.iter().enumerate() {
                if tin[b] == 0 && b != yb {
                    continue;
                }
                let seeded = (b == yb).then_some(ypc);
                let (_, w) = taint_walk(prog, blk, tin[b], seeded, seed, true);
                if let Some(w) = w {
                    if best.map(|(pc, _, _)| w.0 < pc).unwrap_or(true) {
                        best = Some(w);
                    }
                }
            }
            if let Some((pc, bad, at_ret)) = best {
                let regs = regset_to_string(bad);
                let msg = if at_ret {
                    format!(
                        "save mask omits {regs}, which can reach the return at pc {pc} \
                         unredefined — the caller observes clobbered state"
                    )
                } else {
                    format!(
                        "save mask omits {regs}, which can reach the use at pc {pc} \
                         unredefined — a context switch here is unprovably safe"
                    )
                };
                self.emit(Lint::SaveSetUnprovable, Some(ypc), msg);
            }
        }
    }

    /// The rewritten range corresponding to original block
    /// `[start, end)`.
    fn rewritten_range(&self, start: usize, end: usize) -> (usize, usize) {
        (self.entry[start], self.new_of[end - 1] + 1)
    }

    /// Symbolically executes an original block and its rewritten range
    /// from a shared cut-point state where `eq` registers are equal.
    fn run_pair(&mut self, start: usize, end: usize, eq: RegSet) -> (BlockRun, BlockRun) {
        let e_o = entry_state(&mut self.pool, eq, 0);
        let e_r = entry_state(&mut self.pool, eq, 1);
        let mask_o = self.opts.sfi.then(|| e_o[R_SFI_MASK.index()]);
        let mask_r = self.opts.sfi.then(|| e_r[R_SFI_MASK.index()]);
        let o = sym_exec_range(self.original, start..end, &e_o, &mut self.pool, mask_o);
        let (rs, re) = self.rewritten_range(start, end);
        let r = sym_exec_range(self.rewritten, rs..re, &e_r, &mut self.pool, mask_r);
        (o, r)
    }

    /// Forward fixpoint over the original CFG computing, per block, the
    /// registers provably equal on entry; then a reporting pass that
    /// re-executes every reachable pair and emits RL0008 findings.
    fn bisimulate(&mut self) {
        let cfg = Cfg::build(self.original);
        let rpo = cfg.reverse_post_order();
        let mut eq_in: Vec<Option<RegSet>> = vec![None; cfg.len()];
        eq_in[0] = Some(ALL_REGS);

        loop {
            let mut changed = false;
            for &b in &rpo {
                let Some(eq) = eq_in[b] else { continue };
                let blk = &cfg.blocks[b];
                let (o, r) = self.run_pair(blk.start, blk.end, eq);
                let eq_out = eq_regs(&o, &r);
                for &s in &cfg.blocks[b].succs {
                    let merged = match eq_in[s] {
                        None => eq_out,
                        Some(cur) => cur & eq_out,
                    };
                    if eq_in[s] != Some(merged) {
                        eq_in[s] = Some(merged);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        for &b in &rpo {
            let Some(eq) = eq_in[b] else { continue };
            self.blocks_checked += 1;
            let blk = &cfg.blocks[b];
            let (o, r) = self.run_pair(blk.start, blk.end, eq);
            self.compare_pair(&o, &r);
        }
    }

    /// All per-block observation obligations for one pair.
    fn compare_pair(&mut self, o: &BlockRun, r: &BlockRun) {
        self.compare_exits(o, r);
        self.compare_stores(o, r);
        if self.opts.sfi {
            for e in &r.mem {
                if !e.masked {
                    self.emit(
                        Lint::PassEquivalenceViolation,
                        Some(e.pc),
                        format!(
                            "{} address is not provably masked — a rewritten path \
                             may escape the sandbox",
                            kind_name(e.kind)
                        ),
                    );
                }
            }
        }
        // Inserted prefetches must provably request a line some later
        // load in the same block actually reads.
        for (i, e) in r.mem.iter().enumerate() {
            if e.kind != MemKind::Prefetch || self.origin[e.pc].is_some() {
                continue;
            }
            self.prefetch_obligations += 1;
            let consumed = r.mem[i + 1..]
                .iter()
                .any(|l| l.kind == MemKind::Load && l.addr == e.addr);
            if !consumed {
                self.emit(
                    Lint::PassEquivalenceViolation,
                    Some(e.pc),
                    "inserted prefetch's address matches no later load in its block — \
                     cannot prove it prefetches the intended line"
                        .to_string(),
                );
            }
        }
    }

    fn compare_exits(&mut self, o: &BlockRun, r: &BlockRun) {
        match (o.exit, r.exit) {
            (
                SymExit::Branch {
                    cond: c1,
                    src: s1,
                    target: t1,
                },
                SymExit::Branch {
                    cond: c2,
                    src: s2,
                    target: t2,
                },
            ) => {
                if c1 != c2 {
                    self.emit(
                        Lint::PassEquivalenceViolation,
                        Some(r.exit_pc),
                        format!("branch condition {c2:?} differs from the original's {c1:?}"),
                    );
                } else if s1 != s2 {
                    self.emit(
                        Lint::PassEquivalenceViolation,
                        Some(r.exit_pc),
                        format!(
                            "cannot prove the branch at original pc {} decides \
                             identically: the condition operand's term diverges",
                            o.exit_pc
                        ),
                    );
                }
                self.check_relocation("branch", t1, t2, r.exit_pc);
            }
            (SymExit::Call { target: t1 }, SymExit::Call { target: t2 }) => {
                self.check_relocation("call", t1, t2, r.exit_pc);
            }
            (SymExit::Ret, SymExit::Ret) => self.check_observable_state(o, r, "return"),
            (SymExit::Halt, SymExit::Halt) => self.check_observable_state(o, r, "halt"),
            (SymExit::Fallthrough, SymExit::Fallthrough) => {}
            (eo, er) => {
                self.emit(
                    Lint::PassEquivalenceViolation,
                    Some(r.exit_pc),
                    format!(
                        "exit behavior diverges: original block ends at pc {} with {}, \
                         rewritten ends with {}",
                        o.exit_pc,
                        describe_exit(eo),
                        describe_exit(er)
                    ),
                );
            }
        }
    }

    /// The store channel: same count, same symbolic addresses, same
    /// symbolic values, same order.
    fn compare_stores(&mut self, o: &BlockRun, r: &BlockRun) {
        let so: Vec<&MemEvent> = o.mem.iter().filter(|e| e.kind == MemKind::Store).collect();
        let sr: Vec<&MemEvent> = r.mem.iter().filter(|e| e.kind == MemKind::Store).collect();
        if so.len() != sr.len() {
            self.emit(
                Lint::PassEquivalenceViolation,
                Some(r.exit_pc),
                format!(
                    "block performs {} store(s) where the original performs {}",
                    sr.len(),
                    so.len()
                ),
            );
            return;
        }
        for (eo, er) in so.iter().zip(&sr) {
            if eo.addr != er.addr {
                self.emit(
                    Lint::PassEquivalenceViolation,
                    Some(er.pc),
                    format!(
                        "store address term diverges from the original store at pc {}",
                        eo.pc
                    ),
                );
            }
            if eo.value != er.value {
                self.emit(
                    Lint::PassEquivalenceViolation,
                    Some(er.pc),
                    format!(
                        "stored value term diverges from the original store at pc {}",
                        eo.pc
                    ),
                );
            }
        }
    }

    fn check_relocation(&mut self, what: &str, old_target: usize, new_target: usize, pc: usize) {
        let want = self.entry[old_target];
        if new_target != want {
            self.emit(
                Lint::PassEquivalenceViolation,
                Some(pc),
                format!(
                    "{what} targets pc {new_target}, but original target {old_target} \
                     relocates to pc {want}"
                ),
            );
        }
    }

    /// At returns and halts the full register file is observable (minus
    /// the runtime-owned SFI scratch register when sandboxing).
    fn check_observable_state(&mut self, o: &BlockRun, r: &BlockRun, what: &str) {
        let mut required = ALL_REGS;
        if self.opts.sfi {
            required &= !(1 << R_SFI_ADDR.index());
        }
        let missing = required & !eq_regs(o, r);
        if missing != 0 {
            self.emit(
                Lint::PassEquivalenceViolation,
                Some(r.exit_pc),
                format!(
                    "cannot prove {} equal at the {what} — that state is observable",
                    regset_to_string(missing)
                ),
            );
        }
    }
}

/// Registers whose final terms agree between the two runs.
fn eq_regs(o: &BlockRun, r: &BlockRun) -> RegSet {
    (0..NUM_REGS).fold(0, |m, i| {
        if o.regs[i] == r.regs[i] {
            m | (1 << i)
        } else {
            m
        }
    })
}

/// One pass over a block for the save-mask taint: kills taint on
/// definition, injects `seed` right after the yield at `seeded_pc`, and
/// (when `check`) returns the first pc where live taint meets a use or
/// a return.
fn taint_walk(
    prog: &Program,
    blk: &crate::cfg::BasicBlock,
    tin: RegSet,
    seeded_pc: Option<usize>,
    seed: RegSet,
    check: bool,
) -> (RegSet, Option<Witness>) {
    let mut t = tin;
    let mut witness: Option<Witness> = None;
    let mut used: Vec<Reg> = Vec::new();
    for pc in blk.start..blk.end {
        let inst = &prog.insts[pc];
        if check && t != 0 && witness.is_none() {
            used.clear();
            inst.uses(&mut used);
            let used_set: RegSet = used.iter().fold(0, |m, r| m | (1 << r.index()));
            let bad = used_set & t;
            if bad != 0 {
                witness = Some((pc, bad, false));
            } else if matches!(inst, Inst::Ret) {
                witness = Some((pc, t, true));
            }
        }
        if let Some(d) = inst.def() {
            t &= !(1 << d.index());
        }
        if seeded_pc == Some(pc) {
            t |= seed;
        }
    }
    (t, witness)
}

fn kind_name(k: MemKind) -> &'static str {
    match k {
        MemKind::Load => "load",
        MemKind::Store => "store",
        MemKind::Prefetch => "prefetch",
    }
}

fn describe_exit(e: SymExit) -> String {
    match e {
        SymExit::Fallthrough => "fallthrough".to_string(),
        SymExit::Branch { cond, target, .. } => format!("branch({cond:?} -> pc {target})"),
        SymExit::Call { target } => format!("call(pc {target})"),
        SymExit::Ret => "ret".to_string(),
        SymExit::Halt => "halt".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elide::{elide_yields, ElideMode};
    use crate::primary::{instrument_primary, PrimaryOptions};
    use crate::rewrite::{insert_before, Insertion};
    use crate::scavenger::{instrument_scavenger, ScavengerOptions};
    use crate::sfi::instrument_sfi;
    use reach_profile::{Periods, Profile};
    use reach_sim::{AluOp, Cond, MachineConfig, ProgramBuilder, YieldKind};

    /// chase-like loop: 0: load r4,[r0]; 1: mov r0,r4; 2: sub r1; 3: bnez; 4: halt.
    fn chase_prog() -> Program {
        let mut b = ProgramBuilder::new("chase");
        let top = b.label();
        b.bind(top);
        b.load(Reg(4), Reg(0), 0);
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    fn hot_profile_for(pc: usize) -> Profile {
        let periods = Periods {
            l2_miss: 1,
            l3_miss: 1,
            stall: 1,
            retired: 1,
        };
        let mut p = Profile::new("chase", periods);
        p.retired_samples.insert(pc, 1000);
        p.l2_miss_samples.insert(pc, 950);
        p.stall_samples.insert(pc, 950 * 270);
        p
    }

    fn primary_chase() -> (Program, Program, PcMap) {
        let prog = chase_prog();
        let (q, rep) = instrument_primary(
            &prog,
            &hot_profile_for(0),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        (prog, q, rep.pc_map)
    }

    #[test]
    fn primary_pass_output_verifies() {
        let (prog, q, map) = primary_chase();
        let rep = verify_rewrite_map(&prog, &q, &map, &LintOptions::default());
        assert!(rep.ok(), "primary rewrite should prove out:\n{rep}");
        assert!(rep.lint.is_clean(), "no findings expected:\n{rep}");
        assert!(rep.blocks_checked >= 2);
        assert!(rep.save_obligations >= 1);
        assert!(rep.prefetch_obligations >= 1);
    }

    #[test]
    fn scavenger_pass_output_verifies() {
        let prog = chase_prog();
        let (q, rep) = instrument_scavenger(
            &prog,
            None,
            &MachineConfig::default(),
            &ScavengerOptions::default(),
        )
        .unwrap();
        let v = verify_rewrite_map(&prog, &q, &rep.pc_map, &LintOptions::default());
        assert!(v.ok(), "scavenger rewrite should prove out:\n{v}");
    }

    #[test]
    fn elision_verifies_via_or_identity() {
        // Elide a primary yield into `or x,x,x`: still equivalent — the
        // algebra sees through the no-op.
        let (prog, q, map) = primary_chase();
        let (e, _rep) = elide_yields(&q, ElideMode::All, 1.0, 7, 1);
        let v = verify_rewrite_map(&prog, &e, &map, &LintOptions::default());
        assert!(v.ok(), "elided rewrite should prove out:\n{v}");
    }

    #[test]
    fn sfi_pass_output_verifies_with_maskedness() {
        let prog = chase_prog();
        let (q, rep) = instrument_sfi(&prog).unwrap();
        let opts = LintOptions {
            sfi: true,
            ..Default::default()
        };
        let v = verify_rewrite_map(&prog, &q, &rep.pc_map, &opts);
        assert!(v.ok(), "sfi rewrite should prove out:\n{v}");
    }

    #[test]
    fn clobbering_insertion_fires_rl0008() {
        // Insert `imm r1, 0` before the branch: r1 is the loop counter,
        // observable at the halt and deciding the branch.
        let prog = chase_prog();
        let (q, map) = insert_before(
            &prog,
            vec![Insertion {
                at_pc: 3,
                insts: vec![Inst::Imm {
                    dst: Reg(1),
                    val: 0,
                }],
            }],
        )
        .unwrap();
        let v = verify_rewrite_map(&prog, &q, &map, &LintOptions::default());
        assert!(!v.ok());
        assert!(
            v.lint.fired_codes().contains(&"RL0008"),
            "expected RL0008:\n{v}"
        );
    }

    #[test]
    fn dropped_save_bit_fires_rl0009() {
        let (prog, mut q, map) = primary_chase();
        let ypc = q
            .insts
            .iter()
            .position(|i| matches!(i, Inst::Yield { .. }))
            .unwrap();
        if let Inst::Yield { save_regs, .. } = &mut q.insts[ypc] {
            *save_regs = Some(0); // saves nothing; r0/r1/r6 are live
        }
        let v = verify_rewrite_map(&prog, &q, &map, &LintOptions::default());
        assert!(!v.ok());
        assert!(
            v.lint.fired_codes().contains(&"RL0009"),
            "expected RL0009:\n{v}"
        );
        assert!(v.lint.diagnostics.iter().any(|d| d.pc == Some(ypc)));
    }

    #[test]
    fn retargeted_branch_fires_rl0008() {
        let (prog, mut q, map) = primary_chase();
        let bpc = q
            .insts
            .iter()
            .position(|i| matches!(i, Inst::Branch { .. }))
            .unwrap();
        if let Inst::Branch { target, .. } = &mut q.insts[bpc] {
            *target += 1; // skips the prefetch: not the mapped entry
        }
        let v = verify_rewrite_map(&prog, &q, &map, &LintOptions::default());
        assert!(!v.ok());
        assert!(v.lint.fired_codes().contains(&"RL0008"));
    }

    #[test]
    fn corrupted_origin_fires_rl0010() {
        let (prog, q, map) = primary_chase();
        let mut origin = map.origin.clone();
        // Claim the first two survivors in swapped order.
        let survivors: Vec<usize> = origin
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|_| i))
            .collect();
        origin.swap(survivors[0], survivors[1]);
        let v = verify_rewrite(&prog, &q, &origin, &LintOptions::default());
        assert!(!v.ok());
        assert_eq!(v.lint.fired_codes(), vec!["RL0010"]);
    }

    #[test]
    fn desynchronized_new_of_fires_rl0010() {
        let (prog, q, mut map) = primary_chase();
        map.new_of[1] += 1;
        let v = verify_rewrite_map(&prog, &q, &map, &LintOptions::default());
        assert!(!v.ok());
        assert!(v.lint.fired_codes().contains(&"RL0010"));
    }

    #[test]
    fn skewed_prefetch_offset_fires_rl0008() {
        let (prog, mut q, map) = primary_chase();
        let ppc = q
            .insts
            .iter()
            .position(|i| matches!(i, Inst::Prefetch { .. }))
            .unwrap();
        if let Inst::Prefetch { offset, .. } = &mut q.insts[ppc] {
            *offset += 4096;
        }
        let v = verify_rewrite_map(&prog, &q, &map, &LintOptions::default());
        assert!(!v.ok());
        assert!(
            v.lint.fired_codes().contains(&"RL0008"),
            "expected RL0008:\n{v}"
        );
    }

    #[test]
    fn identity_map_on_identical_program_verifies() {
        let prog = chase_prog();
        let map = PcMap::identity(prog.len());
        let v = verify_rewrite_map(&prog, &prog, &map, &LintOptions::default());
        assert!(v.ok(), "{v}");
        assert_eq!(v.blocks_checked, 2);
    }

    #[test]
    fn manual_yield_without_mask_carries_no_obligation() {
        let mut b = ProgramBuilder::new("m");
        b.imm(Reg(1), 5);
        b.push(Inst::Yield {
            kind: YieldKind::Manual,
            save_regs: None,
        });
        b.halt();
        let prog = b.finish().unwrap();
        let map = PcMap::identity(prog.len());
        let v = verify_rewrite_map(&prog, &prog, &map, &LintOptions::default());
        assert!(v.ok());
        assert_eq!(v.save_obligations, 0);
    }
}
