//! MULTICORE: sharded fleet serving on the N-core machine model.
//!
//! Each cell runs the key-sharded zipf-KV fleet of
//! [`reach_core::run_fleet`] on an N-core [`reach_sim::MultiCore`]
//! (per-core private L1/L2, shared-L3 occupancy + DRAM-bandwidth
//! contention model) and reports jobs served, per-shard tail latency,
//! cross-shard forwarding behavior and — in the deploy cells — the
//! rolling re-instrumentation rollout riding behind the
//! max-unavailable=1 gate, with drained shards donating their scavenger
//! slices to the survivors.
//!
//! The matrix crosses core count {1, 2, 4} with supervised vs.
//! unsupervised serving and steady-state vs. deploy-in-flight. Traffic
//! is one owner-rotating arrival per shard per epoch, each ingressing
//! at its neighbor, so a steady cell's `served` is shards × epochs by
//! construction: a count, not a scaling result. What the core count
//! moves is `p99_max` (the worst shard's tail), forwarding and the
//! uncore contention peaks. Whether the fleet scales on the host is
//! measured by `benchmark/` (`core.fleet.shard_scaling`), not here.
//!
//! Everything here is simulated and deterministic: every counter, the
//! per-shard p99s and the fleet event-log hash regenerate
//! byte-identically. Zero `violations` doubles as the fleet-invariant gate
//! (capacity during healthy rolling deploys, poison containment, no
//! untrusted recovery, every journal replaying to its shard's live
//! state).
//!
//! `reach_chaos` is the operator's view of the same world: randomized
//! fleet schedules (shard crashes mid-rollout, torn journals on one
//! shard, poisoned rollouts) over the same
//! [`fleet_world`](crate::serving::fleet_world), audited by the same
//! oracles.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::report::{BenchReport, CellStatus};
use crate::serving::{default_fleet_opts, default_rollout, fleet_world};
use reach_core::run_fleet;

/// One matrix point.
struct Config {
    name: &'static str,
    cores: usize,
    supervised: bool,
    deploy: bool,
}

fn configs() -> Vec<Config> {
    vec![
        Config {
            name: "c1-sup-steady",
            cores: 1,
            supervised: true,
            deploy: false,
        },
        Config {
            name: "c2-sup-steady",
            cores: 2,
            supervised: true,
            deploy: false,
        },
        Config {
            name: "c4-sup-steady",
            cores: 4,
            supervised: true,
            deploy: false,
        },
        Config {
            name: "c2-sup-deploy",
            cores: 2,
            supervised: true,
            deploy: true,
        },
        Config {
            name: "c4-sup-deploy",
            cores: 4,
            supervised: true,
            deploy: true,
        },
        Config {
            name: "c2-unsup-steady",
            cores: 2,
            supervised: false,
            deploy: false,
        },
        Config {
            name: "c4-unsup-steady",
            cores: 4,
            supervised: false,
            deploy: false,
        },
    ]
}

/// The sharded-fleet experiment.
pub(super) struct Multicore;

impl Experiment for Multicore {
    fn name(&self) -> &'static str {
        "multicore"
    }

    fn title(&self) -> &'static str {
        "MULTICORE: sharded fleet serving (core count x supervision x deploy-in-flight)"
    }

    fn notes(&self) -> &'static str {
        "clean if every cell reports zero fleet-invariant violations \
         (capacity >= (N-1)/N during healthy rolling deploys, poison \
         containment, journal projection == live state) and the deploy \
         cells complete their rollout behind the max-unavailable=1 \
         gate. Traffic is one arrival per shard per epoch, so served is \
         shards x epochs by construction (a drained shard-epoch costs \
         one job), not a scaling result; p99_max is the worst shard's \
         tail; fleet_hash certifies the fleet event + incident logs \
         replayed bit-for-bit."
    }

    fn cells(&self) -> Vec<Cell> {
        configs()
            .iter()
            .map(|c| Cell::new("zipf-fleet", c.name))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, seed: u64) -> CellMetrics {
        let cfg = configs()
            .into_iter()
            .find(|c| c.name == cell.config)
            .expect("known fleet config");
        let (mut mc, mut svc, orig, initial) = fleet_world(cfg.cores, false);
        let mut opts = default_fleet_opts(cfg.cores, seed);
        opts.sup.supervise = cfg.supervised;
        if cfg.deploy {
            opts.rollout = Some(default_rollout());
        }
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).expect("validated config");
        let uncore = mc.status();

        let shed_jobs: u64 = rep.shards.iter().map(|s| s.shed_jobs).sum();
        let swaps: u64 = rep.shards.iter().map(|s| s.swaps).sum();
        let job_faults: u64 = rep.shards.iter().map(|s| s.job_faults).sum();
        let p99s: Vec<u64> = rep.shards.iter().map(|s| s.p99()).collect();
        let mut m = CellMetrics::new();
        m.put_u64("cores", cfg.cores as u64)
            .put_u64("violations", rep.violations.len() as u64)
            .put_u64("served", rep.served())
            .put_u64("p99_max", p99s.iter().copied().max().unwrap_or(0))
            .put_u64("p99_min", p99s.iter().copied().min().unwrap_or(0))
            .put_u64("job_faults", job_faults)
            .put_u64("admitted_direct", rep.admitted_direct)
            .put_u64("forwarded", rep.forwarded)
            .put_u64("retries", rep.retries)
            .put_u64("timeouts", rep.timeouts)
            .put_u64("forward_shed", rep.forward_shed)
            .put_u64("shed_jobs", shed_jobs)
            .put_u64("swaps", swaps)
            .put_u64("min_serving_healthy", rep.min_serving_healthy as u64)
            .put_u64("rollout_deploys", rep.rollout_deploys)
            .put_u64("rollout_completed", u64::from(rep.rollout_completed))
            .put_u64("rollout_frozen", u64::from(rep.rollout_frozen))
            .put_u64("steals", rep.steals)
            .put_u64("l3_extra_peak", uncore.l3_extra_peak)
            .put_u64("mem_extra_peak", uncore.mem_extra_peak)
            .put_u64("fleet_hash", rep.fleet_hash());
        m
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        let mut violations = Vec::new();
        for c in &report.cells {
            if c.status != CellStatus::Ok {
                continue;
            }
            let n = c.metrics.get_f64("violations").unwrap_or(f64::NAN);
            if n != 0.0 {
                violations.push(format!("{}: {n:.0} fleet-invariant violation(s)", c.cell));
            }
            if c.metrics.get_f64("served").unwrap_or(0.0) == 0.0 {
                violations.push(format!("{}: fleet served nothing", c.cell));
            }
            let deploy = c.cell.config.ends_with("-deploy");
            if deploy && c.metrics.get_f64("rollout_completed").unwrap_or(0.0) != 1.0 {
                violations.push(format!("{}: rolling deploy did not complete", c.cell));
            }
            if deploy && c.metrics.get_f64("steals").unwrap_or(0.0) == 0.0 {
                violations.push(format!(
                    "{}: no scavenger slices were stolen from the drained shard",
                    c.cell
                ));
            }
            // max-unavailable=1: deploy cells may dip to N-1 but never
            // below; steady cells must never lose a shard at all.
            let cores = c.metrics.get_f64("cores").unwrap_or(0.0);
            let min_serving = c.metrics.get_f64("min_serving_healthy").unwrap_or(0.0);
            let floor = if deploy { cores - 1.0 } else { cores };
            if min_serving < floor {
                violations.push(format!(
                    "{}: min serving shards {min_serving:.0} under the {floor:.0} floor",
                    c.cell
                ));
            }
        }
        violations
    }
}
