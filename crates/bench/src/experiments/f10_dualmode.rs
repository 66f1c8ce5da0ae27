//! F10 (§3.3): dual-mode execution as the scavenger pool scales.
//!
//! A latency-sensitive primary chase co-runs with 0–8 scavenger
//! instances. More scavengers fill more of the primary's miss windows
//! (starved fills drop to zero) and raise machine efficiency, while the
//! primary's latency stays within a small factor of solo — and the
//! on-demand scale-up depth (scavengers chained per fill) reveals how
//! many contexts one 100 ns miss actually needs when the scavengers
//! themselves keep missing.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::{fresh, pgo_build};
use reach_core::{ratio, run_dual_mode, DualModeOptions, PipelineOptions};
use reach_sim::{Context, MachineConfig};
use reach_workloads::{build_chase, ChaseParams};

const MAX_POOL: usize = 8;

fn params() -> ChaseParams {
    ChaseParams {
        nodes: 512,
        hops: 512,
        node_stride: 4096,
        work_per_hop: 60, // ~20 ns of work per hop
        work_insts: 1,
        seed: 0xf10,
    }
}

/// The F10 scavenger-pool sweep.
pub struct F10DualMode;

impl Experiment for F10DualMode {
    fn name(&self) -> &'static str {
        "f10_dualmode"
    }

    fn title(&self) -> &'static str {
        "F10: dual-mode as the scavenger pool grows (primary = cold chase)"
    }

    fn notes(&self) -> &'static str {
        "shape: a handful of scavengers suffices (chains >1 show on-demand \
         scale-up); primary latency stays bounded while efficiency climbs."
    }

    fn cells(&self) -> Vec<Cell> {
        (0..=MAX_POOL)
            .map(|p| Cell::new("chase", format!("pool={p}")))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let pool: usize = cell
            .config
            .strip_prefix("pool=")
            .and_then(|s| s.parse().ok())
            .expect("config is pool=<n>");
        let cfg = MachineConfig::default();
        let build = |mem: &mut _, alloc: &mut _| build_chase(mem, alloc, params(), MAX_POOL + 2);
        let built = pgo_build(&cfg, build, MAX_POOL + 1, &PipelineOptions::default());

        // Solo latency reference (deterministic, so safe to recompute
        // per cell under the parallel driver).
        let (mut m, w) = fresh(&cfg, build);
        let solo = w.run_solo(&mut m, 0, 1 << 24).stats.latency().unwrap();

        let (mut m, w) = fresh(&cfg, build);
        let mut primary = w.instances[0].make_context(0);
        let mut scavs: Vec<Context> = (1..=pool).map(|i| w.instances[i].make_context(i)).collect();
        let rep = run_dual_mode(
            &mut m,
            &built.prog,
            &mut primary,
            &built.prog,
            &mut scavs,
            &DualModeOptions::default(),
        )
        .unwrap();
        w.instances[0].assert_checksum(&primary);
        let lat = rep.primary_latency.unwrap();

        let mut out = CellMetrics::new();
        out.put_u64("latency_cyc", lat)
            .put_f64("vs_solo", ratio(lat, solo))
            .put_u64("starved_fills", rep.starved_fills)
            .put_u64("max_chain", rep.max_scavengers_per_fill as u64)
            .put_f64("mean_fill_cyc", rep.mean_fill())
            .put_f64("eff", m.counters.cpu_efficiency());
        out
    }
}
