//! T11 (§3.2): sampling-parameter trade-offs.
//!
//! "Higher sampling frequency expedites profile collections at the cost
//! of higher run time overhead" — and precision (skid) and buffer sizing
//! matter too. The simulator maintains exact ground truth, so profile
//! fidelity is directly scoreable: precision/recall of the predicted
//! miss-PC set (at the 0.5-likelihood threshold) plus the mean absolute
//! error of likelihood estimates, against the run-time cost of sampling.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::fresh;
use reach_profile::{collect, score, CollectorConfig, Periods};
use reach_sim::MachineConfig;
use reach_workloads::{build_tiered, TieredParams};

/// (config key, period scale, skid, buffer capacity).
const CONFIGS: &[(&str, u64, u32, usize)] = &[
    ("periods=1x,skid=0,buf=4096", 1, 0, 4096),
    ("periods=4x,skid=0,buf=4096", 4, 0, 4096),
    ("periods=16x,skid=0,buf=4096", 16, 0, 4096),
    ("periods=64x,skid=0,buf=4096", 64, 0, 4096),
    ("periods=256x,skid=0,buf=4096", 256, 0, 4096),
    ("periods=1x,skid=4,buf=4096", 1, 4, 4096), // samples land late
    ("periods=1x,skid=16,buf=4096", 1, 16, 4096),
    ("periods=1x,skid=0,buf=32", 1, 0, 32), // tiny buffer: drops
];

/// The T11 sampling-fidelity experiment.
pub struct T11Sampling;

impl Experiment for T11Sampling {
    fn name(&self) -> &'static str {
        "t11_sampling"
    }

    fn title(&self) -> &'static str {
        "T11: profile fidelity vs sampling cost (tiered workload)"
    }

    fn notes(&self) -> &'static str {
        "shape: fidelity degrades gracefully with coarser periods while \
         overhead falls; skid smears attribution across neighbouring PCs; \
         undersized buffers drop samples."
    }

    fn cells(&self) -> Vec<Cell> {
        CONFIGS
            .iter()
            .map(|&(c, _, _, _)| Cell::new("tiered", c))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let &(_, scale, skid, buffer) = CONFIGS
            .iter()
            .find(|(c, _, _, _)| *c == cell.config)
            .expect("known sampling config");
        let cfg = MachineConfig::default();
        let params = TieredParams {
            iters: 16_384,
            ..TieredParams::default()
        };
        let build = |mem: &mut _, alloc: &mut _| build_tiered(mem, alloc, &params, 1);

        let (mut m, w) = fresh(&cfg, build);
        let mut ctxs = w.make_contexts();
        let base = Periods::default();
        let ccfg = CollectorConfig {
            periods: Periods {
                l2_miss: base.l2_miss * scale,
                l3_miss: base.l3_miss * scale,
                stall: base.stall * scale,
                retired: base.retired * scale,
            },
            skid,
            buffer_capacity: buffer,
            ..CollectorConfig::default()
        };
        let (mut profile, cost) = collect(&mut m, &w.prog, &mut ctxs, &ccfg).unwrap();
        // Score with block smoothing, exactly as the instrumenter will
        // consume it.
        profile = reach_instrument::smooth_profile(&profile, &w.prog);
        let acc = score(&profile, &m.counters, 0.5);

        let mut out = CellMetrics::new();
        out.put_f64("overhead", cost.overhead())
            .put_u64("dropped", cost.dropped_samples)
            .put_f64("precision", acc.precision)
            .put_f64("recall", acc.recall)
            .put_f64("mae", acc.likelihood_mae);
        out
    }
}
