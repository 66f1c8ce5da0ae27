//! Fault matrix: every workload in the registry run under each injected
//! fault class, through the degrading PGO pipeline and the hardened
//! dual-mode runtime (watchdog + trap isolation).
//!
//! Each cell answers two robustness questions:
//!
//! 1. **Which rung did the build land on?** Profiling-side faults (PEBS
//!    sample loss/skid/corruption, LBR truncation, stale profiles) must
//!    surface as explicit rung/reason outcomes (string metrics), never
//!    panics or silent misbuilds.
//! 2. **Did the primary's latency stay bounded?** Runtime-side faults
//!    (wrong-address prefetches, runaway scavengers, injected coroutine
//!    traps) must be contained by the watchdog/isolation machinery: the
//!    primary finishes within [`BOUND`]× its healthy latency (or is
//!    explicitly reported as trapped).
//!
//! The bound checks run in [`Experiment::finish`] over the assembled
//! report (the healthy reference is the same workload's `baseline` cell),
//! so cells stay independent under the parallel driver; violations make
//! the run exit non-zero, which fails CI's baseline regeneration.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::report::{BenchReport, CellStatus};
use crate::{fresh, workload_builder, WORKLOAD_NAMES};
use reach_core::{
    pgo_pipeline_degrading, ratio, run_dual_mode, DegradeOptions, DegradeReason, DualModeOptions,
    PipelineOptions, WatchdogOptions,
};
use reach_instrument::{elide_yields, ElideMode};
use reach_profile::{Profile, ProfileValidationOptions};
use reach_sim::{FaultInjector, FaultPlan, MachineConfig, SplitMix64};

/// Max tolerated primary-latency inflation vs the healthy (baseline)
/// cell of the same workload, for containment-class faults.
const BOUND: f64 = 3.0;

/// Slack over the *uninstrumented* solo latency for faults that corrupt
/// the build. A corrupted profile that still passes validation yields
/// *misplaced* instrumentation: the primary pays switch/check/prefetch
/// overhead on top of its now-unhidden misses. That overhead is bounded
/// by a constant factor of the work itself, so 2x the uninstrumented
/// floor is the divergence line.
const LOSE_OPT_SLACK: f64 = 2.0;

/// What a fault class may legitimately cost.
#[derive(Clone, Copy, PartialEq)]
enum BoundKind {
    /// Runtime containment: the hardened executor must keep the primary
    /// within [`BOUND`]× its healthy latency.
    Contain,
    /// Build corruption: the optimization may be lost entirely, so the
    /// primary is bounded by the uninstrumented latency (with
    /// [`LOSE_OPT_SLACK`]), never by divergence.
    LoseOpt,
}

/// One fault class: what is injected where.
struct Class {
    name: &'static str,
    /// Plan armed on the profiling machine (corrupts collection).
    pipeline_plan: FaultPlan,
    /// Plan armed on the evaluation machine (corrupts the run).
    eval_plan: FaultPlan,
    /// Simulate a stale profile (drift injected post-smoothing).
    stale: bool,
    /// Replace the scavenger binary with its yield-elided twin.
    runaway: bool,
    /// Which latency bound this class must respect.
    bound: BoundKind,
}

fn classes() -> Vec<Class> {
    let s = 0xFA_0175u64;
    let none = FaultPlan::none(s);
    vec![
        Class {
            name: "baseline",
            pipeline_plan: none,
            eval_plan: none,
            stale: false,
            runaway: false,
            bound: BoundKind::Contain,
        },
        Class {
            name: "pebs-drop",
            pipeline_plan: FaultPlan::none(s).with_pebs_drop(0.7),
            eval_plan: none,
            stale: false,
            runaway: false,
            bound: BoundKind::LoseOpt,
        },
        Class {
            name: "pebs-skid",
            pipeline_plan: FaultPlan::none(s).with_pebs_extra_skid(12),
            eval_plan: none,
            stale: false,
            runaway: false,
            bound: BoundKind::LoseOpt,
        },
        Class {
            name: "pebs-pc-corrupt",
            pipeline_plan: FaultPlan::none(s).with_pebs_pc_corrupt(0.5, 16),
            eval_plan: none,
            stale: false,
            runaway: false,
            bound: BoundKind::LoseOpt,
        },
        Class {
            name: "lbr-trunc",
            pipeline_plan: FaultPlan::none(s).with_lbr_drop(0.8),
            eval_plan: none,
            stale: false,
            runaway: false,
            bound: BoundKind::LoseOpt,
        },
        Class {
            name: "stale-profile",
            pipeline_plan: none,
            eval_plan: none,
            stale: true,
            runaway: false,
            bound: BoundKind::LoseOpt,
        },
        Class {
            name: "prefetch-corrupt",
            pipeline_plan: none,
            eval_plan: FaultPlan::none(s).with_prefetch_corrupt(0.9, 32),
            stale: false,
            runaway: false,
            bound: BoundKind::LoseOpt,
        },
        Class {
            name: "runaway-scav",
            pipeline_plan: none,
            eval_plan: none,
            stale: false,
            runaway: true,
            bound: BoundKind::Contain,
        },
        Class {
            name: "coro-trap",
            pipeline_plan: none,
            eval_plan: FaultPlan::none(s).with_trap_every(10_000),
            stale: false,
            runaway: false,
            bound: BoundKind::Contain,
        },
    ]
}

fn class_bound(name: &str) -> Option<BoundKind> {
    classes().iter().find(|c| c.name == name).map(|c| c.bound)
}

/// The stale-profile fault: move 90% of the miss mass to pseudo-random
/// PCs, as if the binary drifted since the profile was taken.
fn stale_mutator(p: &mut Profile) {
    let mut rng = SplitMix64::new(0x57A1E);
    p.inject_drift(0.9, 512, &mut rng);
}

fn reason_code(r: &DegradeReason) -> &'static str {
    match r {
        DegradeReason::ProfilingFailed(_) => "profiling-failed",
        DegradeReason::ProfileRejected(_) => "profile-rejected",
        DegradeReason::ReprofileExhausted { .. } => "reprofile-exhausted",
        DegradeReason::PipelineRefused(_) => "pipeline-refused",
        DegradeReason::ScavengerOnlyFailed(_) => "scav-only-failed",
    }
}

/// The robustness fault-injection matrix.
pub(super) struct FaultMatrix;

impl Experiment for FaultMatrix {
    fn name(&self) -> &'static str {
        "fault_matrix"
    }

    fn title(&self) -> &'static str {
        "Fault matrix: degradation rung + primary-latency containment per fault class"
    }

    fn notes(&self) -> &'static str {
        "clean if every fault class degraded to an explicit rung with \
         primary latency within its bound (3x healthy for containment \
         classes, the uninstrumented floor for build-corruption classes), \
         or an isolated, reported trap."
    }

    fn cells(&self) -> Vec<Cell> {
        WORKLOAD_NAMES
            .iter()
            .flat_map(|w| classes().into_iter().map(move |c| Cell::new(*w, c.name)))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let class = classes()
            .into_iter()
            .find(|c| c.name == cell.config)
            .expect("known fault class");
        let build = workload_builder(&cell.workload).expect("known workload");
        let cfg = MachineConfig::default();
        let watchdog = WatchdogOptions {
            slice_steps: 500,
            overrun_cycles: 1_200,
            max_overruns: 3,
            ..WatchdogOptions::default()
        };

        // Uninstrumented solo latency: the floor LoseOpt classes degrade
        // toward when the profile-guided build is lost.
        let uninstr = {
            let (mut sm, sw) = fresh(&cfg, &*build);
            sw.run_solo(&mut sm, 0, 1 << 24).stats.latency().unwrap()
        };

        // --- Build: degrading pipeline on a (possibly faulty) profiling
        // machine. ---
        let (mut pm, pw) = fresh(&cfg, &*build);
        if !class.pipeline_plan.is_none() {
            pm.faults = Some(FaultInjector::new(class.pipeline_plan));
        }
        let dopts = DegradeOptions {
            profile_mutator: class.stale.then_some(stale_mutator as fn(&mut Profile)),
            pipeline: PipelineOptions {
                // Stricter than the ladder default: a profile whose
                // sample mass has skidded off the load instructions
                // must be rejected, not turned into misplaced
                // prefetches that cost more than no PGO at all.
                validation: Some(ProfileValidationOptions {
                    min_load_coverage: 0.5,
                    ..ProfileValidationOptions::default()
                }),
                ..PipelineOptions::default()
            },
            ..DegradeOptions::default()
        };
        let built = pgo_pipeline_degrading(
            &mut pm,
            &pw.prog,
            |attempt| vec![pw.instances[1].make_context(1000 + attempt as usize)],
            &dopts,
        );
        let why = built
            .reasons
            .first()
            .map(reason_code)
            .unwrap_or("-")
            .to_string();
        let log_total = |fi: &FaultInjector| {
            fi.log.pebs_events_dropped
                + fi.log.pebs_pcs_corrupted
                + fi.log.lbr_records_dropped
                + fi.log.prefetches_corrupted
                + fi.log.traps_injected
        };
        let injected_pipeline = pm.faults.as_ref().map(&log_total).unwrap_or(0);

        // --- Run: hardened dual-mode on a fresh (possibly faulty)
        // evaluation machine. ---
        let (mut em, ew) = fresh(&cfg, &*build);
        if !class.eval_plan.is_none() {
            em.faults = Some(FaultInjector::new(class.eval_plan));
        }
        let scav_prog = if class.runaway {
            elide_yields(&built.prog, ElideMode::All, 1.0, 7, cfg.cond_check_cost).0
        } else {
            built.prog.clone()
        };
        let mut primary = ew.instances[0].make_context(0);
        let mut scavs = vec![ew.instances[1].make_context(1)];
        let rep = run_dual_mode(
            &mut em,
            &built.prog,
            &mut primary,
            &scav_prog,
            &mut scavs,
            &DualModeOptions {
                watchdog: Some(watchdog),
                isolate_faults: true,
                max_steps_per_ctx: 1 << 24,
                ..DualModeOptions::default()
            },
        )
        .expect("isolation must contain every injected fault");

        // --- Record the cell; the bound check happens in finish(). ---
        let injected = injected_pipeline + em.faults.as_ref().map(&log_total).unwrap_or(0);
        let latency = match rep.primary_latency {
            Some(lat) => {
                if class.name != "coro-trap" {
                    ew.instances[0].assert_checksum(&primary);
                }
                lat as f64
            }
            None => f64::NAN, // trapped: isolated and reported, no latency
        };
        // Per-channel injection counts (pipeline + eval injectors
        // summed): additive columns after the original metrics, so the
        // long-standing baseline values stay byte-identical.
        let channel = |f: fn(&reach_sim::FaultLog) -> u64| {
            pm.faults.as_ref().map(|i| f(&i.log)).unwrap_or(0)
                + em.faults.as_ref().map(|i| f(&i.log)).unwrap_or(0)
        };
        let mut out = CellMetrics::new();
        out.put_str("rung", built.rung.to_string())
            .put_str("why", why)
            .put_f64("latency_cyc", latency)
            .put_u64("uninstr_cyc", uninstr)
            .put_f64("eff", em.counters.cpu_efficiency())
            .put_u64("quarantined", rep.quarantined.len() as u64)
            .put_u64("overruns", rep.overruns)
            .put_u64("ctx_faults", rep.context_faults.len() as u64)
            .put_u64("injected", injected)
            .put_u64("inj_pebs_dropped", channel(|l| l.pebs_events_dropped))
            .put_u64("inj_pebs_pc_corrupted", channel(|l| l.pebs_pcs_corrupted))
            .put_u64("inj_lbr_dropped", channel(|l| l.lbr_records_dropped))
            .put_u64(
                "inj_prefetch_corrupted",
                channel(|l| l.prefetches_corrupted),
            )
            .put_u64("inj_traps", channel(|l| l.traps_injected));
        out
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        let mut violations = Vec::new();
        // Healthy (baseline-class) latency per workload.
        let healthy: Vec<(String, Option<f64>)> = report
            .cells
            .iter()
            .filter(|c| c.cell.config == "baseline" && c.status == CellStatus::Ok)
            .map(|c| (c.cell.workload.clone(), c.metrics.get_f64("latency_cyc")))
            .collect();

        for c in &mut report.cells {
            if c.status != CellStatus::Ok {
                continue;
            }
            let wname = &c.cell.workload;
            let class_name = &c.cell.config;
            let healthy_lat = healthy
                .iter()
                .find(|(w, _)| w == wname)
                .and_then(|(_, l)| *l)
                .filter(|l| !l.is_nan());
            let lat = c.metrics.get_f64("latency_cyc").unwrap_or(f64::NAN);

            // lat_vs_healthy: n/a when trapped or no healthy reference.
            let vs = match healthy_lat {
                Some(h) if !lat.is_nan() => ratio(lat as u64, h as u64),
                _ => f64::NAN,
            };
            c.metrics.put_f64("lat_vs_healthy", vs);

            let Some(bound) = class_bound(class_name) else {
                violations.push(format!("{wname}/{class_name}: unknown fault class"));
                continue;
            };
            if !lat.is_nan() {
                if let Some(h) = healthy_lat {
                    let uninstr = c.metrics.get_f64("uninstr_cyc").unwrap_or(f64::NAN);
                    let allowed = match bound {
                        BoundKind::Contain => BOUND * h,
                        // Losing the optimization is legitimate; diverging
                        // past the uninstrumented floor is not.
                        BoundKind::LoseOpt => (BOUND * h).max(LOSE_OPT_SLACK * uninstr),
                    };
                    if lat > allowed {
                        violations.push(format!(
                            "{wname}/{class_name}: primary latency {vs:.2}x healthy \
                             ({lat:.0} cyc > allowed {allowed:.0} cyc)"
                        ));
                    }
                }
            }
            if class_name == "runaway-scav" {
                let quarantined = c.metrics.get_f64("quarantined").unwrap_or(0.0);
                let overruns = c.metrics.get_f64("overruns").unwrap_or(0.0);
                if quarantined == 0.0 && overruns == 0.0 {
                    violations.push(format!(
                        "{wname}/runaway-scav: watchdog saw no overrun and quarantined nothing"
                    ));
                }
            }
        }
        violations
    }
}
