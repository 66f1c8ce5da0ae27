//! One workload, measured: set-up, the timed loop, the layer replays, and
//! every metric `BENCHMARK.json` names.

use crate::cal::{factor, Calibrator};
use crate::layers::{self, Json, Rep, World};
use crate::spec::Spec;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{self, self_ns, Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Repetitions of each layer replay in a full run.
const PROBE_REPS: usize = 10;
/// Reps of each kind below which a kind's median is not to be compared.
const MIN_ROUNDS: usize = 10;

/// How long to measure.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Whole rounds until this many seconds of wall time have passed.
    Seconds(u64),
    /// This many rounds and a single set-up: the smoke test, whose
    /// numbers are not for comparison.
    #[cfg_attr(not(test), allow(dead_code))]
    Rounds(usize),
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Directory for the result file and, when tracing, the trace file.
    pub out: Option<PathBuf>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reps timed (traced ones included).
    pub n: usize,
    /// Digests of a round's reps folded together; equal on every round.
    pub digest: u64,
    /// Why this run's numbers are not to be compared with another's;
    /// empty for a run of full length on the build `run.sh` makes.
    pub caveats: Vec<String>,
    /// `(name, value, unit)` of every metric of this run's kind, in
    /// `BENCHMARK.json`'s order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The result line: one JSON object with exactly these four keys.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = Json::Object(vec![
                    ("value".into(), Json::Float(*value)),
                    ("unit".into(), Json::Str(unit.clone())),
                ]);
                (name.clone(), v)
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Object(metrics)),
        ])
    }
}

/// Runs layer replays, each under its own calibration bracket and op id.
pub struct Prober<'a> {
    tracer: &'a mut Tracer,
    cal: &'a mut Calibrator,
    /// Calibration factor by op; a replay's op is its index here.
    factors: &'a mut Vec<f64>,
    last_cal_ns: u64,
    /// Repetitions of each replay.
    pub reps: usize,
}

impl Prober<'_> {
    /// One replay: `f` records its spans in the tracer it is handed.
    pub fn op(&mut self, f: impl FnOnce(&mut Tracer)) {
        self.tracer.start_op(self.factors.len(), true);
        f(self.tracer);
        let after = self.cal.run();
        self.factors.push(factor(self.last_cal_ns, after));
        self.last_cal_ns = after;
    }
}

/// A timed rep and how it was taken.
struct Timed {
    rep: Rep,
    kind: usize,
    op: usize,
    traced: bool,
}

/// `a / b`, and 0 for a layer that did no work on this workload.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in ticks of 1/100 s.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Everything a run measured, before it is read into metrics.
struct Measured {
    /// Calibrated ns of each set-up.
    setup_ns: Vec<f64>,
    round_len: usize,
    /// Every timed rep, in order; whole rounds.
    timed: Vec<Timed>,
    /// Each kind's digest in the untimed first round.
    digests: Vec<u64>,
    /// Calibration factor by op.
    factors: Vec<f64>,
    /// Ops below this belong to set-up and the timed loop.
    loop_ops: usize,
    loop_counts: BTreeMap<&'static str, u64>,
    tracer: Tracer,
    cal: Calibrator,
    resident_bytes: u64,
    /// CPU seconds per wall second over the whole run.
    cpu_per_wall: f64,
}

impl Measured {
    fn cal_ns(&self, t: &Timed) -> f64 {
        t.rep.raw_ns as f64 * self.factors[t.op]
    }

    fn reps(&self, traced: bool) -> impl Iterator<Item = &Timed> {
        self.timed.iter().filter(move |t| t.traced == traced)
    }

    /// The median rep of each kind (of the traced or the untraced reps),
    /// in calibrated ms.
    fn kind_ms(&self, traced: bool) -> Vec<f64> {
        (0..self.round_len)
            .map(|k| {
                let of_kind = self.reps(traced).filter(|t| t.kind == k);
                median(&of_kind.map(|t| self.cal_ns(t) / 1e6).collect::<Vec<_>>())
            })
            .collect()
    }

    /// Every untraced rep's time over its kind's median, sorted. Reps of
    /// one kind do identical work (the digest proves it), so this is one
    /// distribution over all kinds: how far from the typical rep of their
    /// kind the slow reps run.
    fn slowdowns(&self, kind_ms: &[f64]) -> Vec<f64> {
        let of = |t: &Timed| self.cal_ns(t) / 1e6 / kind_ms[t.kind];
        sorted(&self.reps(false).map(of).collect::<Vec<_>>())
    }

    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.tracer.spans.iter().filter(move |s| s.name == name)
    }

    /// Calibrated ns inside spans called `name`.
    fn ns(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| s.ns() as f64 * self.factors[s.op])
            .sum()
    }

    /// As [`Measured::ns`], set-up and timed loop only (no replays).
    fn loop_ns(&self, name: &str) -> f64 {
        self.named(name)
            .filter(|s| s.op < self.loop_ops)
            .map(|s| s.ns() as f64 * self.factors[s.op])
            .sum()
    }

    fn calls(&self, name: &str) -> f64 {
        self.named(name).count() as f64
    }

    /// Work counted by spans called `name`.
    fn work(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.count).sum::<u64>() as f64
    }

    /// Calibrated ns per unit of work.
    fn ns_per_work(&self, name: &str) -> f64 {
        ratio(self.ns(name), self.work(name))
    }

    /// A count filed by the timed loop, else by the replays.
    fn count(&self, name: &str) -> f64 {
        let filed = self.loop_counts.get(name);
        let filed = filed.or_else(|| self.tracer.counts.get(name));
        filed.copied().unwrap_or(0) as f64
    }
}

fn measure(cfg: &Config) -> Result<Measured, String> {
    let started = Instant::now();
    let cpu_started = cpu_seconds();
    let mut cal = Calibrator::new();
    let mut tracer = Tracer::new();
    let mut factors: Vec<f64> = Vec::new();
    let (setup_reps, probe_reps) = match cfg.budget {
        Budget::Seconds(_) => (SETUP_REPS, PROBE_REPS),
        Budget::Rounds(_) => (1, 1),
    };

    // Set-up, several times over: one reading of a 50 ms stretch on this
    // box says little. Each world is dropped before the next is built.
    let mut setup_ns = Vec::new();
    let mut world: Option<Box<dyn World>> = None;
    let mut last_cal = cal.run();
    for _ in 0..setup_reps {
        drop(world.take());
        tracer.start_op(factors.len(), cfg.trace);
        let t = Instant::now();
        world = Some(layers::setup(&cfg.workload, cfg.seed, &mut tracer)?);
        let raw = t.elapsed().as_nanos() as f64;
        let after = cal.run();
        factors.push(factor(last_cal, after));
        setup_ns.push(raw * factor(last_cal, after));
        last_cal = after;
    }
    let mut world = world.expect("at least one set-up");
    let round_len = world.round_len();
    let group = world.cal_group();
    assert!(
        round_len.is_multiple_of(group),
        "calibration groups tile a round"
    );

    // One untimed round: lazy set-up finishes, and each kind's digest is
    // learnt for the rounds that follow to be held to.
    tracer.start_op(factors.len(), false);
    let mut digests = Vec::with_capacity(round_len);
    for kind in 0..round_len {
        world.prepare(kind);
        digests.push(world.run(kind, &mut tracer).digest);
    }

    // The timed loop, in whole rounds. A traced run alternates untraced
    // and traced rounds, so both see the same host weather and their
    // difference is the tracing overhead; it measures half as long, to
    // leave the replays their share of the run.
    let loop_started = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    let mut rounds = 0;
    last_cal = cal.run();
    loop {
        let traced = cfg.trace && rounds % 2 == 1;
        for first in (0..round_len).step_by(group) {
            for (g, kind) in (first..first + group).enumerate() {
                let op = factors.len() + g;
                tracer.start_op(op, traced);
                tracer.span("restore", || (world.prepare(kind), 0));
                let rep = world.run(kind, &mut tracer);
                if rep.digest != digests[kind] {
                    return Err(format!(
                        "{}: rep {} (kind {kind}) has digest {:#x}, the first round had {:#x}: \
                         the run is not deterministic",
                        cfg.workload,
                        timed.len(),
                        rep.digest,
                        digests[kind]
                    ));
                }
                timed.push(Timed {
                    rep,
                    kind,
                    op,
                    traced,
                });
            }
            let after = cal.run();
            factors.extend(std::iter::repeat_n(factor(last_cal, after), group));
            last_cal = after;
        }
        rounds += 1;
        let enough = match cfg.budget {
            Budget::Seconds(s) if cfg.trace => {
                loop_started.elapsed().as_secs_f64() * 2.0 >= s as f64
            }
            Budget::Seconds(s) => loop_started.elapsed().as_secs() >= s,
            Budget::Rounds(r) => rounds >= r,
        };
        if enough && (!cfg.trace || rounds % 2 == 0) {
            break;
        }
    }
    let loop_ops = factors.len();
    let loop_counts = std::mem::take(&mut tracer.counts);

    if cfg.trace {
        world.probes(&mut Prober {
            tracer: &mut tracer,
            cal: &mut cal,
            factors: &mut factors,
            last_cal_ns: last_cal,
            reps: probe_reps,
        });
    }
    Ok(Measured {
        setup_ns,
        round_len,
        timed,
        digests,
        factors,
        loop_ops,
        loop_counts,
        tracer,
        cal,
        resident_bytes: world.resident_bytes(),
        cpu_per_wall: (cpu_seconds() - cpu_started) / started.elapsed().as_secs_f64(),
    })
}

/// Untraced reps only, in calibrated time. The rates are over every rep
/// as it ran. `rep_ms_p50` is the median kind's median rep; `rep_ms_p90`
/// is that rep slowed as the rep at the tail of [`Measured::slowdowns`]
/// was: the highest percentile up to the 90th with ten samples beyond it.
fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let total_s = m.reps(false).map(|t| m.cal_ns(t)).sum::<f64>() / 1e9;
    let sum = |f: fn(&Rep) -> u64| m.reps(false).map(|t| f(&t.rep)).sum::<u64>() as f64;
    let kind_ms = m.kind_ms(false);
    let p50 = median(&kind_ms);
    let slowdowns = m.slowdowns(&kind_ms);
    let tail = tail_percentile(slowdowns.len()).map_or(50, |p| p.min(90));
    vec![
        ("setup_s", median(&m.setup_ns) / 1e9),
        ("ops_per_s", sum(|r| r.ops) / total_s),
        ("rep_ms_p50", p50),
        ("rep_ms_p90", p50 * percentile(&slowdowns, f64::from(tail))),
        ("sim_minst_per_s", sum(|r| r.insts) / 1e6 / total_s),
        ("sim_cycles_per_op", sum(|r| r.cycles) / sum(|r| r.ops)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Traced reps and layer replays. Counts are per round; a layer that did
/// no work on this workload reads 0.
fn per_layer(m: &Measured) -> Vec<(&'static str, f64)> {
    let traced_reps = m.reps(true).count() as f64;
    let rounds = traced_reps / m.round_len as f64;
    let per_round = |name: &str| ratio(m.count(name), rounds);
    let traced_sum = |f: fn(&Rep) -> u64| m.reps(true).map(|t| f(&t.rep)).sum::<u64>() as f64;
    let mean_us = |name: &str| ratio(m.ns(name), m.calls(name)) / 1e3;

    let (unobs, obs) = (
        m.ns_per_work("run_unobserved"),
        m.ns_per_work("run_observed"),
    );
    let block_runs = m.count("blocks_hits") + m.count("blocks_misses");
    let levels = ["cache_l1", "cache_l2", "cache_l3", "cache_mem"];
    let accesses: f64 = levels.iter().map(|l| m.count(l)).sum();

    // The rebuild cycle: the timed loop's own on rebuild-cycle, a replay
    // on the fleet's program on fleet-*.
    let cycles = m.calls("cycle");
    let cycle_ns = m.ns("cycle");
    let per_cycle_us = |name: &str| ratio(m.ns(name), cycles) / 1e3;
    let per_cycle = |name: &str| ratio(m.count(name), cycles);
    let work_per_cycle = |name: &str| ratio(m.work(name), cycles);
    let own = self_ns(&m.tracer.spans);
    let cycle_self: f64 = (m.tracer.spans.iter().zip(&own))
        .filter(|(s, _)| s.name == "cycle")
        .map(|(s, &own)| own as f64 * m.factors[s.op])
        .sum();
    let ladder_ns = m.ns("pgo_pipeline_degrading") - m.ns("pgo_pipeline");

    // The fleet: the callbacks `run_fleet` made in the timed loop, and
    // steady serving replayed through `run_fleet` at full width, through
    // `run_dual_mode` alone over the same jobs (the difference is
    // supervisor and fleet control), and through `run_fleet` on 1 shard.
    let fleet_ns = m.loop_ns("run_fleet");
    let dual_runs = m.calls("run_dual_mode");
    let (wide_ns, dual_ns) = (m.ns("run_fleet_wide"), m.ns("run_dual_mode"));
    let jobs_per_ns = |name: &str| ratio(m.work(name), m.ns(name));

    // What the host did: kernel runs, and how much slower than its kind's
    // median the tail rep ran, at the highest percentile with ten samples
    // beyond it.
    let cal_ms = sorted(
        &m.cal
            .runs_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let raw_ms: Vec<f64> = m.reps(false).map(|t| t.rep.raw_ns as f64 / 1e6).collect();
    let slowdowns = m.slowdowns(&m.kind_ms(false));
    let tail = f64::from(tail_percentile(slowdowns.len()).unwrap_or(50));
    let round_ms = |traced| m.kind_ms(traced).iter().sum::<f64>();

    vec![
        ("sim.machine.insts", ratio(traced_sum(|r| r.insts), rounds)),
        (
            "sim.machine.cycles",
            ratio(traced_sum(|r| r.cycles), rounds),
        ),
        ("sim.machine.unobs_ns_per_inst", unobs),
        ("sim.machine.obs_ns_per_inst", obs),
        ("sim.machine.obs_penalty", ratio(obs, unobs)),
        ("sim.blocks.compiled", per_round("blocks_compiled")),
        (
            "sim.blocks.hit_rate",
            ratio(m.count("blocks_hits"), block_runs),
        ),
        (
            "sim.blocks.invalidations",
            per_round("blocks_invalidations"),
        ),
        ("sim.cache.accesses", ratio(accesses, rounds)),
        (
            "sim.cache.l1_hit_share",
            ratio(m.count("cache_l1"), accesses),
        ),
        ("sim.cache.mem_share", ratio(m.count("cache_mem"), accesses)),
        (
            "sim.cache.merged_share",
            ratio(m.count("cache_merged"), accesses),
        ),
        ("sim.cache.ns_per_access", m.ns_per_work("hier_access")),
        ("sim.mem.ns_per_read", m.ns_per_work("mem_read")),
        (
            "sim.mem.resident_mb",
            m.resident_bytes as f64 / (1 << 20) as f64,
        ),
        ("sim.pebs.samples", per_round("pebs_samples")),
        (
            "sim.multicore.contention_ns",
            m.ns_per_work("apply_contention"),
        ),
        ("profile.collector.ns_per_inst", m.ns_per_work("collect")),
        ("profile.collector.samples", per_cycle("collector_samples")),
        ("profile.collector.share", ratio(m.ns("collect"), cycle_ns)),
        (
            "profile.online.ns_per_observe",
            m.ns_per_work("estimator_observe"),
        ),
        (
            "profile.online.staleness_ns",
            m.ns_per_work("estimator_staleness"),
        ),
        (
            "instrument.cost_model.smooth_us",
            per_cycle_us("smooth_profile"),
        ),
        ("instrument.primary.us", per_cycle_us("instrument_primary")),
        (
            "instrument.primary.yields",
            work_per_cycle("instrument_primary"),
        ),
        (
            "instrument.scavenger.us",
            per_cycle_us("instrument_scavenger"),
        ),
        (
            "instrument.scavenger.yields",
            work_per_cycle("instrument_scavenger"),
        ),
        ("instrument.validate.us", per_cycle_us("validate_rewrite")),
        ("instrument.equiv.us", per_cycle_us("verify_rewrite_map")),
        ("instrument.equiv.terms", per_cycle("equiv_terms")),
        (
            "instrument.equiv.obligations",
            per_cycle("equiv_obligations"),
        ),
        ("instrument.lint.us", per_cycle_us("lint_program")),
        ("instrument.lint.findings", work_per_cycle("lint_program")),
        ("instrument.prog_len_in", per_cycle("prog_len_in")),
        ("instrument.prog_len_out", per_cycle("prog_len_out")),
        ("core.pipeline.cycle_us", per_cycle_us("cycle")),
        (
            "core.pipeline.unattributed_share",
            ratio(cycle_self, cycle_ns),
        ),
        (
            "core.degrade.ladder_us",
            ratio(ladder_ns, m.calls("pgo_pipeline")) / 1e3,
        ),
        ("core.dualmode.ns_per_inst", m.ns_per_work("run_dual_mode")),
        (
            "core.dualmode.fills",
            ratio(m.count("dual_fills"), dual_runs),
        ),
        (
            "core.dualmode.starved_share",
            ratio(m.count("dual_starved"), m.count("dual_fills")),
        ),
        (
            "core.dualmode.overruns",
            ratio(m.count("dual_overruns"), dual_runs),
        ),
        ("core.supervisor.serve_share", ratio(dual_ns, wide_ns)),
        (
            "core.supervisor.control_us_per_epoch",
            ratio(wide_ns - dual_ns, m.count("probe_epochs")) / 1e3,
        ),
        ("core.supervisor.rebuilds", per_round("rebuilds")),
        ("core.supervisor.swaps", per_round("swaps")),
        ("core.supervisor.rebuild_us", mean_us("rebuild")),
        ("core.supervisor.recover_us", mean_us("recover")),
        ("core.journal.records", work_per_cycle("journal_append")),
        ("core.journal.append_ns", m.ns_per_work("journal_append")),
        (
            "core.journal.replay_ns_per_rec",
            m.ns_per_work("journal_replay"),
        ),
        ("core.journal.store_build_us", per_cycle_us("store_build")),
        (
            "core.fleet.control_share",
            ratio(fleet_ns - m.loop_ns("job"), fleet_ns),
        ),
        (
            "core.fleet.ctx_build_share",
            ratio(m.loop_ns("ctx_build"), fleet_ns),
        ),
        (
            "core.fleet.shard_scaling",
            ratio(
                jobs_per_ns("run_fleet_wide"),
                jobs_per_ns("run_fleet_narrow"),
            ),
        ),
        ("core.fleet.forwarded", per_round("forwarded")),
        ("core.fleet.retries", per_round("retries")),
        ("core.fleet.timeouts", per_round("timeouts")),
        ("core.fleet.steals", per_round("steals")),
        ("core.fleet.rollout_deploys", per_round("rollout_deploys")),
        ("core.fleet.crashes", per_round("crashes")),
        ("core.fleet.recoveries", per_round("recoveries")),
        ("core.chaos.violations", per_round("violations")),
        (
            "workloads.build_ms",
            ratio(m.ns("generate"), m.setup_ns.len() as f64) / 1e6,
        ),
        ("workloads.ctx_ns", m.ns_per_work("make_context")),
        (
            "world.restore_ms",
            ratio(m.loop_ns("restore"), traced_reps) / 1e6,
        ),
        ("host.cal_ms_p50", percentile(&cal_ms, 50.0)),
        (
            "host.cal_spread",
            percentile(&cal_ms, 90.0) / percentile(&cal_ms, 10.0),
        ),
        ("host.raw_rep_ms_p50", median(&raw_ms)),
        ("host.rep_noise_tail", percentile(&slowdowns, tail)),
        ("host.cpu_per_wall", m.cpu_per_wall),
        (
            "host.trace_overhead",
            ratio(round_ms(true), round_ms(false)) - 1.0,
        ),
    ]
}

pub fn run(cfg: &Config, spec: &Spec) -> Result<Outcome, String> {
    if !spec.has_workload(&cfg.workload) {
        return Err(format!("unknown workload {}", cfg.workload));
    }
    let m = measure(cfg)?;

    // Exactly the metrics the spec names for this kind of run, in its
    // order; a name without a value is a drift between file and binary.
    let (wanted, values) = if cfg.trace {
        (&spec.per_layer, per_layer(&m))
    } else {
        (&spec.end_to_end, end_to_end(&m))
    };
    let metrics = wanted
        .iter()
        .map(|w| {
            let (_, v) = values
                .iter()
                .find(|(name, _)| *name == w.name)
                .ok_or_else(|| {
                    format!("BENCHMARK.json names {}, which nothing measures", w.name)
                })?;
            Ok((w.name.clone(), *v, w.unit.clone()))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let mut caveats = Vec::new();
    match cfg.budget {
        Budget::Rounds(_) => caveats.push("a smoke run of a few rounds".to_owned()),
        Budget::Seconds(s) if s != spec.run_seconds => caveats.push(format!(
            "measured for {s} s, not the {} s of BENCHMARK.json",
            spec.run_seconds
        )),
        Budget::Seconds(_) => {}
    }
    if !cfg.trace && m.reps(false).count() < MIN_ROUNDS * m.round_len {
        caveats.push(format!("fewer than {MIN_ROUNDS} reps of each kind"));
    }
    if !layers::aligned_build() {
        caveats.push(
            "functions are not on 64-byte lines: built without benchmark/run.sh's flag".to_owned(),
        );
    }
    let outcome = Outcome {
        attempted: m.timed.iter().map(|t| t.rep.ops).sum(),
        failed: m.timed.iter().map(|t| t.rep.failed).sum(),
        n: m.timed.len(),
        digest: m.digests.iter().fold(0, |h, d| h.rotate_left(7) ^ d),
        caveats,
        metrics,
    };
    if let Some(dir) = &cfg.out {
        let write = |file: String, json: Json| {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(&file), json.to_string()))
                .map_err(|e| format!("{}: {e}", dir.join(&file).display()))
        };
        write(format!("result-{}.json", cfg.workload), outcome.to_json())?;
        if cfg.trace {
            let json = trace::to_json(&cfg.workload, &m.tracer.spans, &m.factors);
            write(format!("trace-{}.json", cfg.workload), json)?;
        }
    }
    Ok(outcome)
}
