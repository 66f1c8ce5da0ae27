//! # reach-instrument — profile-guided yield instrumentation
//!
//! Step (ii) of the paper's pipeline (§3.2–3.3), operating at the binary
//! (micro-IR) level like BOLT-class rewriters so it "can be applied to any
//! application or implementation":
//!
//! 1. [`Cfg`] — disassembly: CFG construction over the flat instruction
//!    stream (leaders, blocks, edges, back edges, RPO).
//! 2. [`Liveness`] — backward register-liveness dataflow; yields save only
//!    live registers, shrinking switch cost.
//! 3. Dependence analysis — independence of adjacent loads, enabling
//!    *yield coalescing* (several prefetches amortize one switch).
//! 4. [`smooth_profile`] and [`Policy`] — the quantitative gain/cost
//!    model plus the insertion policies (threshold, top-K, cost-model,
//!    all).
//! 5. [`instrument_primary`] — insert `prefetch + yield` at likely-miss
//!    loads.
//! 6. [`instrument_scavenger`] — insert *conditional* yields so the
//!    inter-yield interval along every path stays below a target
//!    (profile-priced loads, fixed cycles for everything else, and a
//!    static worst-case bound).
//! 7. [`insert_before`] and [`PcMap`] — the relocation engine that keeps
//!    branch targets correct across insertions and maps PCs between
//!    program versions.
//! 8. [`solve`] — the generic worklist engine (forward/backward,
//!    join-semilattice, widening) every analysis above instantiates.
//! 9. Analyses — reaching definitions ([`ReachingDefsProblem`]),
//!    available prefetches, anticipated loads, SFI maskedness.
//! 10. [`lint_program`] — `reach-lint`, the static verifier: stable-coded,
//!     PC-anchored diagnostics (RL0001–RL0010) over the analyses, used
//!     as a defense-in-depth shipping gate next to translation
//!     validation.
//! 11. [`verify_rewrite`] — translation validation: a symbolic
//!     evaluator over a small term algebra and a CFG bisimulation
//!     checker that *proves* each rewrite observationally equivalent to
//!     its input modulo inserted yields/prefetches, discharging
//!     save-mask, prefetch-address and SFI-maskedness obligations
//!     (RL0008–RL0010).
//!
//! All passes are semantics-preserving: instrumented programs compute the
//! same results as the originals under any interleaving (enforced by
//! integration and property tests, including register-poisoning runs that
//! verify liveness soundness).

mod analyses;
mod cfg;
mod cost_model;
mod counting;
mod dataflow;
mod dependence;
mod elide;
mod equiv;
mod lint;
mod liveness;
mod loops;
mod primary;
mod rewrite;
mod scavenger;
mod sfi;
mod symexec;
mod validate;

pub use analyses::ReachingDefsProblem;
pub use cfg::{BasicBlock, Cfg};
pub use cost_model::{remap_to_origin, smooth_profile, Policy, SiteDecision};
pub use counting::{instrument_counting, CountingInstrumented, R_COUNTER_BASE};
pub use dataflow::{solve, DataflowProblem, Direction, Solution};
pub use elide::{elide_yields, ElideMode, ElideReport};
pub use equiv::{verify_rewrite, verify_rewrite_map, VerifyReport};
pub use lint::{lint_program, Diagnostic, Level, Lint, LintOptions, LintReport};
pub use liveness::{Liveness, LivenessProblem, RegSet, ALL_REGS};
pub use loops::{natural_loops, Dominators, NaturalLoop};
pub use primary::{instrument_primary, PrimaryOptions, PrimaryReport};
pub use rewrite::{insert_before, Insertion, PcMap, RewriteError};
pub use scavenger::{instrument_scavenger, ScavReport, ScavengerOptions};
pub use sfi::{instrument_sfi, SfiReport, R_SFI_ADDR, R_SFI_MASK};
pub use validate::{validate_rewrite, ValidationError};
