//! `reach-lint` — a static verifier for micro-IR binaries.
//!
//! Instrumented binaries ship only after translation validation
//! ([`crate::validate`]) proves they are faithful rewrites. That check is
//! *relative* (rewritten vs. original); the lints here are *absolute*
//! properties of the final binary, computed from the dataflow analyses in
//! [`crate::analyses`], and form a second, independent defense-in-depth
//! gate in the PGO pipeline:
//!
//! | code   | lint                           | default | meaning |
//! |--------|--------------------------------|---------|---------|
//! | RL0001 | clobbered-live-at-yield        | deny    | a yield's save mask omits a live register — a context switch would corrupt state |
//! | RL0002 | prefetch-without-consuming-load| warn    | no path loads the prefetched line before its address register dies |
//! | RL0003 | redundant-prefetch             | warn    | the line is already in flight on every path (and no yield intervened) |
//! | RL0004 | unbounded-inter-yield-loop     | warn    | a yielding program contains a loop that can iterate without ever yielding |
//! | RL0005 | sfi-escape                     | deny    | a memory access whose address is not provably masked, or a clobber of the mask register (SFI mode only) |
//! | RL0006 | unreachable-code               | warn    | instructions no path from entry can execute |
//! | RL0007 | branch-into-instrumentation    | deny    | a control transfer targets the middle of an inserted run instead of an original instruction's entry |
//! | RL0008 | pass-equivalence-violation     | deny    | translation validation ([`crate::equiv`]) cannot prove the rewrite observationally equivalent |
//! | RL0009 | save-set-unprovable            | deny    | a yield's save mask cannot be proven sufficient — an unsaved register flows to a use |
//! | RL0010 | pcmap-inconsistent             | deny    | a rewrite's pc map is not a faithful order-preserving embedding of the original |
//!
//! Diagnostics are PC-anchored with stable codes so tests (and humans)
//! can match on them. Deny-level findings make
//! [`LintReport::has_deny`] true, which the pipeline treats as a refusal
//! to ship.

use crate::analyses::{AnticipatedLoads, AvailablePrefetches, SfiMasked};
use crate::cfg::Cfg;
use crate::liveness::{regset_to_string, Liveness};
use crate::loops::natural_loops;
use crate::sfi::R_SFI_MASK;
use reach_sim::{Inst, Program};
use std::collections::BTreeSet;

/// The lint catalog. Codes are stable: tests and tooling match on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// RL0001: a yield's register save mask omits a live register.
    ClobberedLiveAtYield,
    /// RL0002: a prefetched line is never loaded afterwards.
    PrefetchWithoutConsumingLoad,
    /// RL0003: a prefetch of a line already in flight on every path.
    RedundantPrefetch,
    /// RL0004: a loop in a yielding program that can iterate without
    /// yielding.
    UnboundedInterYieldLoop,
    /// RL0005: a memory access that may escape the SFI sandbox, or a
    /// clobber of the runtime-owned mask register.
    SfiEscape,
    /// RL0006: code no path from entry reaches.
    UnreachableCode,
    /// RL0007: a control transfer into the middle of inserted
    /// instrumentation.
    BranchIntoInstrumentation,
    /// RL0008: translation validation cannot prove the rewrite
    /// observationally equivalent to its input (see [`crate::verify_rewrite`]).
    PassEquivalenceViolation,
    /// RL0009: a yield's save mask cannot be proven sufficient — an
    /// unsaved register can flow from the yield to a use.
    SaveSetUnprovable,
    /// RL0010: a rewrite's pc map is internally inconsistent or not an
    /// order-preserving embedding of the original program.
    PcMapInconsistent,
}

impl Lint {
    /// Every lint, in code order.
    pub const ALL: [Lint; 10] = [
        Lint::ClobberedLiveAtYield,
        Lint::PrefetchWithoutConsumingLoad,
        Lint::RedundantPrefetch,
        Lint::UnboundedInterYieldLoop,
        Lint::SfiEscape,
        Lint::UnreachableCode,
        Lint::BranchIntoInstrumentation,
        Lint::PassEquivalenceViolation,
        Lint::SaveSetUnprovable,
        Lint::PcMapInconsistent,
    ];

    /// The stable diagnostic code (`"RL0001"`...).
    pub fn code(self) -> &'static str {
        match self {
            Lint::ClobberedLiveAtYield => "RL0001",
            Lint::PrefetchWithoutConsumingLoad => "RL0002",
            Lint::RedundantPrefetch => "RL0003",
            Lint::UnboundedInterYieldLoop => "RL0004",
            Lint::SfiEscape => "RL0005",
            Lint::UnreachableCode => "RL0006",
            Lint::BranchIntoInstrumentation => "RL0007",
            Lint::PassEquivalenceViolation => "RL0008",
            Lint::SaveSetUnprovable => "RL0009",
            Lint::PcMapInconsistent => "RL0010",
        }
    }

    /// The human-readable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::ClobberedLiveAtYield => "clobbered-live-at-yield",
            Lint::PrefetchWithoutConsumingLoad => "prefetch-without-consuming-load",
            Lint::RedundantPrefetch => "redundant-prefetch",
            Lint::UnboundedInterYieldLoop => "unbounded-inter-yield-loop",
            Lint::SfiEscape => "sfi-escape",
            Lint::UnreachableCode => "unreachable-code",
            Lint::BranchIntoInstrumentation => "branch-into-instrumentation",
            Lint::PassEquivalenceViolation => "pass-equivalence-violation",
            Lint::SaveSetUnprovable => "save-set-unprovable",
            Lint::PcMapInconsistent => "pcmap-inconsistent",
        }
    }

    /// Parses a stable code (`"RL0003"`) or kebab-case name
    /// (`"redundant-prefetch"`), case-insensitively.
    pub fn parse(s: &str) -> Option<Lint> {
        let s = s.to_ascii_lowercase();
        Lint::ALL
            .into_iter()
            .find(|l| l.code().eq_ignore_ascii_case(&s) || l.name() == s)
    }

    /// Default severity: correctness-critical lints deny, efficiency and
    /// hygiene lints warn.
    pub fn default_level(self) -> Level {
        match self {
            Lint::ClobberedLiveAtYield
            | Lint::SfiEscape
            | Lint::BranchIntoInstrumentation
            | Lint::PassEquivalenceViolation
            | Lint::SaveSetUnprovable
            | Lint::PcMapInconsistent => Level::Deny,
            Lint::PrefetchWithoutConsumingLoad
            | Lint::RedundantPrefetch
            | Lint::UnboundedInterYieldLoop
            | Lint::UnreachableCode => Level::Warn,
        }
    }
}

/// Severity of a lint finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Suppressed entirely.
    Allow,
    /// Reported, does not block shipping.
    Warn,
    /// Reported, blocks the pipeline.
    Deny,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        })
    }
}

/// One finding: a lint, its effective level, and where it fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Effective severity (after [`LintOptions`] overrides).
    pub level: Level,
    /// Anchor PC in the linted program, if the finding is located at a
    /// single instruction.
    pub pc: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pc {
            Some(pc) => write!(
                f,
                "{} {:4} pc {:4}  {} ({})",
                self.lint.code(),
                self.level,
                pc,
                self.message,
                self.lint.name()
            ),
            None => write!(
                f,
                "{} {:4} pc    -  {} ({})",
                self.lint.code(),
                self.level,
                self.message,
                self.lint.name()
            ),
        }
    }
}

/// Configuration for a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Enable the SFI checks (RL0005). Off by default: un-sandboxed
    /// binaries legitimately access raw addresses.
    pub sfi: bool,
    /// Per-lint severity overrides (last entry wins). `Level::Allow`
    /// suppresses a lint entirely.
    pub levels: Vec<(Lint, Level)>,
}

impl LintOptions {
    /// The effective level for `lint` after overrides.
    pub(crate) fn level(&self, lint: Lint) -> Level {
        self.levels
            .iter()
            .rev()
            .find(|(l, _)| *l == lint)
            .map(|&(_, lv)| lv)
            .unwrap_or_else(|| lint.default_level())
    }
}

/// The outcome of linting one program.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, in ascending PC order (unanchored findings last).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` if any finding is deny-level — the pipeline's refusal
    /// signal.
    pub fn has_deny(&self) -> bool {
        self.diagnostics.iter().any(|d| d.level == Level::Deny)
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Warn)
            .count()
    }

    /// `true` if nothing fired at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The codes that fired, deduplicated, in code order.
    pub fn fired_codes(&self) -> Vec<&'static str> {
        let set: BTreeSet<Lint> = self.diagnostics.iter().map(|d| d.lint).collect();
        set.into_iter().map(Lint::code).collect()
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "clean: no lints fired");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(
            f,
            "{} finding(s): {} deny, {} warn",
            self.diagnostics.len(),
            self.deny_count(),
            self.warn_count()
        )
    }
}

/// Lints `prog`.
///
/// `origin` is the rewriting origin map (`origin[new_pc] = Some(old_pc)`
/// for surviving instructions, `None` for inserted ones) when the
/// program is the output of an instrumentation pipeline; it enables the
/// RL0007 branch-into-instrumentation check. Pass `None` for
/// uninstrumented programs (RL0007 is skipped).
pub fn lint_program(
    prog: &Program,
    origin: Option<&[Option<usize>]>,
    opts: &LintOptions,
) -> LintReport {
    let cfg = Cfg::build(prog);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut emit = |lint: Lint, pc: Option<usize>, message: String| {
        let level = opts.level(lint);
        if level != Level::Allow {
            diags.push(Diagnostic {
                lint,
                level,
                pc,
                message,
            });
        }
    };

    // RL0001: every yield's save mask must cover the live set.
    let liveness = Liveness::compute(prog, &cfg);
    for (pc, inst) in prog.insts.iter().enumerate() {
        if let Inst::Yield {
            save_regs: Some(mask),
            ..
        } = inst
        {
            let clobbered = liveness.live_before(pc) & !mask;
            if clobbered != 0 {
                emit(
                    Lint::ClobberedLiveAtYield,
                    Some(pc),
                    format!(
                        "yield saves {} but {} is live — a context switch here corrupts state",
                        regset_to_string(*mask),
                        regset_to_string(clobbered)
                    ),
                );
            }
        }
    }

    // RL0002 / RL0003: prefetch usefulness.
    let anticipated = AnticipatedLoads::compute(prog, &cfg);
    let available = AvailablePrefetches::compute(prog, &cfg);
    for (pc, inst) in prog.insts.iter().enumerate() {
        if let Inst::Prefetch { addr, offset } = inst {
            let line = (addr.index() as u8, *offset);
            if !anticipated.anticipated_after(pc, line) {
                emit(
                    Lint::PrefetchWithoutConsumingLoad,
                    Some(pc),
                    format!(
                        "prefetch [r{}{:+}] is never consumed by a load on any path",
                        line.0, line.1
                    ),
                );
            } else if available.available_before(pc, line) {
                emit(
                    Lint::RedundantPrefetch,
                    Some(pc),
                    format!(
                        "line [r{}{:+}] is already in flight on every path to this prefetch",
                        line.0, line.1
                    ),
                );
            }
        }
    }

    // RL0004: in a yielding program, every loop should yield. Programs
    // with no yields at all are simply uninstrumented — not lint matter.
    if prog.insts.iter().any(Inst::is_yield) {
        for l in natural_loops(&cfg) {
            let yields = l.body.iter().any(|&b| {
                let blk = &cfg.blocks[b];
                prog.insts[blk.start..blk.end].iter().any(Inst::is_yield)
            });
            if !yields {
                let header_pc = cfg.blocks[l.header].start;
                emit(
                    Lint::UnboundedInterYieldLoop,
                    Some(header_pc),
                    format!(
                        "loop headed at pc {header_pc} can iterate without yielding \
                         (inter-yield interval unbounded)"
                    ),
                );
            }
        }
    }

    // RL0005: SFI escape analysis (abstract interpretation).
    if opts.sfi {
        let masked = SfiMasked::compute(prog, &cfg);
        for (pc, inst) in prog.insts.iter().enumerate() {
            if inst.def() == Some(R_SFI_MASK) {
                emit(
                    Lint::SfiEscape,
                    Some(pc),
                    format!(
                        "instruction clobbers the runtime-owned SFI mask register r{}",
                        R_SFI_MASK.index()
                    ),
                );
            }
            let (what, addr) = match inst {
                Inst::Load { addr, .. } => ("load", addr),
                Inst::Store { addr, .. } => ("store", addr),
                Inst::Prefetch { addr, .. } => ("prefetch", addr),
                _ => continue,
            };
            if !masked.masked_before(pc, addr.index() as u8) {
                emit(
                    Lint::SfiEscape,
                    Some(pc),
                    format!(
                        "{what} address r{} is not provably masked on every path — \
                         access may escape the sandbox",
                        addr.index()
                    ),
                );
            }
        }
    }

    // RL0006: blocks absent from the reverse post-order are unreachable.
    let reachable: BTreeSet<usize> = cfg.reverse_post_order().into_iter().collect();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reachable.contains(&b) {
            emit(
                Lint::UnreachableCode,
                Some(blk.start),
                format!(
                    "instructions {}..{} are unreachable from entry",
                    blk.start,
                    blk.end - 1
                ),
            );
        }
    }

    // RL0007: control transfers must land on original-instruction
    // entries, never inside an inserted instrumentation run.
    if let Some(origin) = origin {
        if origin.len() == prog.len() {
            // entry(old) = start of the inserted run preceding old's
            // relocated position (identical to validate.rs's relocation
            // target rule).
            let mut legal: BTreeSet<usize> = BTreeSet::new();
            let mut prev_new: Option<usize> = None;
            for (new_pc, o) in origin.iter().enumerate() {
                if o.is_some() {
                    legal.insert(match prev_new {
                        None => 0,
                        Some(p) => p + 1,
                    });
                    prev_new = Some(new_pc);
                }
            }
            for (pc, inst) in prog.insts.iter().enumerate() {
                let target = match inst {
                    Inst::Branch { target, .. } => *target,
                    Inst::Call { target } => *target,
                    _ => continue,
                };
                if !legal.contains(&target) {
                    emit(
                        Lint::BranchIntoInstrumentation,
                        Some(pc),
                        format!(
                            "control transfer to pc {target} lands inside inserted \
                             instrumentation, not at an original instruction's entry"
                        ),
                    );
                }
            }
        }
    }

    diags.sort_by_key(|d| (d.pc.unwrap_or(usize::MAX), d.lint));
    LintReport { diagnostics: diags }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfi::instrument_sfi;
    use reach_sim::{AluOp, Cond, ProgramBuilder, Reg, YieldKind};

    fn lint(prog: &Program) -> LintReport {
        lint_program(prog, None, &LintOptions::default())
    }

    #[test]
    fn clean_straightline_program_is_clean() {
        let mut b = ProgramBuilder::new("c");
        b.imm(Reg(0), 1);
        b.store(Reg(0), Reg(1), 0);
        b.halt();
        let r = lint(&b.finish().unwrap());
        assert!(r.is_clean(), "unexpected findings:\n{r}");
    }

    #[test]
    fn clobbered_live_at_yield_fires() {
        let mut b = ProgramBuilder::new("y");
        b.imm(Reg(2), 7);
        b.push(Inst::Yield {
            kind: YieldKind::Manual,
            save_regs: Some(0), // saves nothing; r2 and r3 are live
        });
        b.store(Reg(2), Reg(3), 0);
        b.halt();
        let r = lint(&b.finish().unwrap());
        assert_eq!(r.fired_codes(), vec!["RL0001"]);
        assert!(r.has_deny());
        assert_eq!(r.diagnostics[0].pc, Some(1));
    }

    #[test]
    fn exact_save_mask_is_clean() {
        let mut b = ProgramBuilder::new("y2");
        b.imm(Reg(2), 7);
        b.push(Inst::Yield {
            kind: YieldKind::Manual,
            save_regs: Some((1 << 2) | (1 << 3)),
        });
        b.store(Reg(2), Reg(3), 0);
        b.halt();
        assert!(lint(&b.finish().unwrap()).is_clean());
    }

    #[test]
    fn orphan_prefetch_fires_rl0002() {
        let mut b = ProgramBuilder::new("o");
        b.prefetch(Reg(3), 8); // nothing ever loads [r3+8]
        b.imm(Reg(0), 1);
        b.halt();
        let r = lint(&b.finish().unwrap());
        assert_eq!(r.fired_codes(), vec!["RL0002"]);
        assert!(!r.has_deny());
    }

    #[test]
    fn redundant_prefetch_fires_rl0003() {
        let mut b = ProgramBuilder::new("rp");
        b.prefetch(Reg(3), 8);
        b.prefetch(Reg(3), 8); // same line, no yield/redef between
        b.load(Reg(4), Reg(3), 8);
        b.halt();
        let r = lint(&b.finish().unwrap());
        assert_eq!(r.fired_codes(), vec!["RL0003"]);
        assert_eq!(r.diagnostics[0].pc, Some(1));
    }

    #[test]
    fn prefetch_across_yield_is_not_redundant() {
        let mut b = ProgramBuilder::new("py");
        b.prefetch(Reg(3), 8);
        b.load(Reg(4), Reg(3), 8);
        b.yield_manual();
        b.prefetch(Reg(3), 8); // line may have been evicted: legitimate
        b.load(Reg(5), Reg(3), 8);
        b.halt();
        assert!(lint(&b.finish().unwrap()).is_clean());
    }

    #[test]
    fn yieldless_loop_in_yielding_program_fires_rl0004() {
        let mut b = ProgramBuilder::new("ul");
        b.yield_manual(); // the program does yield...
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, Reg(0), Reg(0), Reg(1), 1);
        b.branch(Cond::Nez, Reg(0), top); // ...but this loop never does
        b.halt();
        let r = lint(&b.finish().unwrap());
        assert_eq!(r.fired_codes(), vec!["RL0004"]);
    }

    #[test]
    fn yieldless_program_with_loop_is_not_rl0004() {
        let mut b = ProgramBuilder::new("nl");
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, Reg(0), Reg(0), Reg(1), 1);
        b.branch(Cond::Nez, Reg(0), top);
        b.halt();
        assert!(lint(&b.finish().unwrap()).is_clean());
    }

    #[test]
    fn sfi_mode_accepts_instrumented_and_rejects_raw() {
        let mut b = ProgramBuilder::new("s");
        b.load(Reg(4), Reg(0), 0);
        b.store(Reg(4), Reg(1), 8);
        b.halt();
        let p = b.finish().unwrap();
        let opts = LintOptions {
            sfi: true,
            ..Default::default()
        };
        // Raw program: two escapes.
        let raw = lint_program(&p, None, &opts);
        assert_eq!(raw.fired_codes(), vec!["RL0005"]);
        assert_eq!(raw.deny_count(), 2);
        // SFI-instrumented: clean.
        let (q, _) = instrument_sfi(&p).unwrap();
        let inst = lint_program(&q, None, &opts);
        assert!(inst.is_clean(), "unexpected findings:\n{inst}");
    }

    #[test]
    fn mask_clobber_fires_rl0005() {
        let mut b = ProgramBuilder::new("mc");
        b.load(Reg(4), Reg(0), 0);
        b.halt();
        let (mut q, _) = instrument_sfi(&b.finish().unwrap()).unwrap();
        // Tamper: overwrite the mask register before the access.
        q.insts[0] = Inst::Imm {
            dst: R_SFI_MASK,
            val: u64::MAX,
        };
        let opts = LintOptions {
            sfi: true,
            ..Default::default()
        };
        let r = lint_program(&q, None, &opts);
        assert!(r.fired_codes().contains(&"RL0005"));
        assert!(r.has_deny());
    }

    #[test]
    fn unreachable_code_fires_rl0006() {
        let mut b = ProgramBuilder::new("u");
        let over = b.label();
        b.jump(over);
        b.imm(Reg(0), 1); // skipped by the unconditional jump
        b.bind(over);
        b.halt();
        let r = lint(&b.finish().unwrap());
        assert_eq!(r.fired_codes(), vec!["RL0006"]);
        assert_eq!(r.diagnostics[0].pc, Some(1));
    }

    #[test]
    fn branch_into_instrumentation_fires_rl0007() {
        // original: loop back to pc 0.
        let mut b = ProgramBuilder::new("bi");
        let top = b.label();
        b.bind(top);
        b.load(Reg(4), Reg(0), 0);
        b.branch(Cond::Nez, Reg(4), top);
        b.halt();
        let p = b.finish().unwrap();
        // "Instrumented": one prefetch inserted at the front, branch
        // relocated... wrongly, to pc 1 (the load) instead of pc 0 (the
        // inserted run's start).
        let q = {
            let mut insts = vec![Inst::Prefetch {
                addr: Reg(0),
                offset: 0,
            }];
            insts.extend(p.insts.iter().cloned());
            if let Inst::Branch { target, .. } = &mut insts[2] {
                *target = 1;
            }
            Program {
                name: "bi+".into(),
                insts,
            }
        };
        let origin = [None, Some(0), Some(1), Some(2)];
        let r = lint_program(&q, Some(&origin), &LintOptions::default());
        assert!(r.fired_codes().contains(&"RL0007"));
        assert!(r.has_deny());
        // With the correct relocation (target 0 = run entry), RL0007 is
        // quiet.
        let mut ok = q.clone();
        if let Inst::Branch { target, .. } = &mut ok.insts[2] {
            *target = 0;
        }
        let r2 = lint_program(&ok, Some(&origin), &LintOptions::default());
        assert!(!r2.fired_codes().contains(&"RL0007"));
    }

    #[test]
    fn level_overrides_apply() {
        let mut b = ProgramBuilder::new("lv");
        b.prefetch(Reg(3), 8);
        b.imm(Reg(0), 1);
        b.halt();
        let p = b.finish().unwrap();
        // Promote RL0002 to deny.
        let deny = LintOptions {
            sfi: false,
            levels: vec![(Lint::PrefetchWithoutConsumingLoad, Level::Deny)],
        };
        assert!(lint_program(&p, None, &deny).has_deny());
        // Allow silences it.
        let allow = LintOptions {
            sfi: false,
            levels: vec![(Lint::PrefetchWithoutConsumingLoad, Level::Allow)],
        };
        assert!(lint_program(&p, None, &allow).is_clean());
    }

    #[test]
    fn lint_parse_accepts_codes_and_names() {
        assert_eq!(Lint::parse("RL0003"), Some(Lint::RedundantPrefetch));
        assert_eq!(Lint::parse("rl0003"), Some(Lint::RedundantPrefetch));
        assert_eq!(Lint::parse("sfi-escape"), Some(Lint::SfiEscape));
        assert_eq!(Lint::parse("nope"), None);
        for l in Lint::ALL {
            assert_eq!(Lint::parse(l.code()), Some(l));
            assert_eq!(Lint::parse(l.name()), Some(l));
        }
    }

    #[test]
    fn report_formatting_is_stable() {
        let mut b = ProgramBuilder::new("f");
        b.prefetch(Reg(3), 8);
        b.imm(Reg(0), 1);
        b.halt();
        let r = lint(&b.finish().unwrap());
        let text = r.to_string();
        assert!(text.contains("RL0002"), "{text}");
        assert!(text.contains("pc    0"), "{text}");
        assert!(text.contains("1 finding(s): 0 deny, 1 warn"), "{text}");
    }
}
