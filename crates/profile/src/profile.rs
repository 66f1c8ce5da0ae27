//! The [`Profile`]: aggregated sample-based profiling data for one program.
//!
//! A profile is built from PEBS-style samples of four events (L2-miss
//! loads, L3-miss loads, stalled cycles, retired instructions) plus
//! LBR-derived block timings. Sample counts are scaled by their sampling
//! periods into occurrence *estimates*; every estimate is therefore noisy
//! in exactly the way a production profile is — which is the point: the
//! instrumentation downstream must work from this, not from ground truth.

use crate::json::{pc_map_from_json, pc_map_to_json, Json, JsonError};
use crate::lbr_analysis::BlockLatencyEstimator;
use reach_sim::SplitMix64;
use std::collections::HashMap;

/// Sampling periods the profile was collected with (needed to scale
/// sample counts back into occurrence estimates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Periods {
    /// Period of the L2-miss load counter.
    pub l2_miss: u64,
    /// Period of the L3-miss load counter.
    pub l3_miss: u64,
    /// Period of the stalled-cycle counter.
    pub stall: u64,
    /// Period of the retired-instruction counter.
    pub retired: u64,
}

impl Default for Periods {
    fn default() -> Self {
        Periods {
            l2_miss: 127,
            l3_miss: 127,
            stall: 509,
            retired: 997,
        }
    }
}

/// Aggregated profile for one program image.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Program name this profile belongs to.
    pub program: String,
    /// The sampling configuration.
    pub periods: Periods,
    /// L2-miss load samples per PC.
    pub l2_miss_samples: HashMap<usize, u64>,
    /// L3-miss load samples per PC.
    pub l3_miss_samples: HashMap<usize, u64>,
    /// Stalled-cycle samples per PC.
    pub stall_samples: HashMap<usize, u64>,
    /// Retired-instruction samples per PC.
    pub retired_samples: HashMap<usize, u64>,
    /// LBR-derived block latency and path frequency data.
    pub blocks: BlockLatencyEstimator,
    /// Total samples folded in (all events).
    pub total_samples: u64,
    /// Basic-block-smoothed execution estimates per PC (see
    /// [`Profile::set_block_smoothing`]). Empty until smoothing is
    /// applied.
    pub smoothed_execs: HashMap<usize, f64>,
    /// Fingerprint of the binary this profile was collected on
    /// (`Program::fingerprint`); `0` means unknown provenance (e.g. a
    /// profile from before fingerprints were recorded, or one remapped
    /// across binaries).
    pub fingerprint: u64,
}

impl Profile {
    /// Creates an empty profile for `program` collected at `periods`.
    pub fn new(program: impl Into<String>, periods: Periods) -> Self {
        Profile {
            program: program.into(),
            periods,
            ..Profile::default()
        }
    }

    /// Estimated number of L2-miss loads at `pc` (samples × period).
    pub(crate) fn est_l2_misses(&self, pc: usize) -> f64 {
        self.l2_miss_samples.get(&pc).copied().unwrap_or(0) as f64 * self.periods.l2_miss as f64
    }

    /// Estimated executions of the instruction at `pc`.
    ///
    /// Uses the block-smoothed estimate when
    /// [`Profile::set_block_smoothing`] has been applied; otherwise the
    /// raw per-PC sample count scaled by the period. Raw per-PC counts are
    /// very noisy for short loops (a period-997 instruction counter lands
    /// on only a few PCs), which is why production FDO systems aggregate
    /// at basic-block granularity — and so do we.
    pub fn est_executions(&self, pc: usize) -> f64 {
        if let Some(&e) = self.smoothed_execs.get(&pc) {
            return e;
        }
        self.retired_samples.get(&pc).copied().unwrap_or(0) as f64 * self.periods.retired as f64
    }

    /// Applies basic-block smoothing: every instruction of a block
    /// executes equally often, so each block's retired samples are pooled
    /// and divided evenly across its PCs.
    ///
    /// `blocks` are the half-open PC ranges of the profiled program's
    /// basic blocks (from CFG construction; the profile crate itself has
    /// no CFG machinery — callers pass the ranges in).
    pub fn set_block_smoothing(
        &mut self,
        blocks: impl IntoIterator<Item = std::ops::Range<usize>>,
    ) {
        self.smoothed_execs.clear();
        for range in blocks {
            let len = range.len();
            if len == 0 {
                continue;
            }
            let samples: u64 = range
                .clone()
                .map(|pc| self.retired_samples.get(&pc).copied().unwrap_or(0))
                .sum();
            let per_pc = samples as f64 * self.periods.retired as f64 / len as f64;
            for pc in range {
                self.smoothed_execs.insert(pc, per_pc);
            }
        }
    }

    /// Estimated stalled cycles attributed to `pc`.
    pub(crate) fn est_stall_cycles(&self, pc: usize) -> f64 {
        self.stall_samples.get(&pc).copied().unwrap_or(0) as f64 * self.periods.stall as f64
    }

    /// Estimated probability that an execution of the load at `pc` misses
    /// L2, clamped to `[0, 1]`.
    ///
    /// Returns 0 for PCs with no retired-instruction samples: with no
    /// execution estimate there is nothing to normalize by (such a PC is
    /// too cold to be worth instrumenting anyway).
    pub fn miss_likelihood(&self, pc: usize) -> f64 {
        let execs = self.est_executions(pc);
        if execs <= 0.0 {
            return 0.0;
        }
        (self.est_l2_misses(pc) / execs).min(1.0)
    }

    /// §3.2 event correlation: estimated average *stall* cycles caused per
    /// L2 miss at `pc`, combining the miss counter (i) with the
    /// stalled-cycle counter (ii). Returns `None` when either signal has
    /// no samples at this PC — misses that never show up in the stall
    /// profile are being absorbed by the OoO window and need no hiding.
    pub fn stall_per_miss(&self, pc: usize) -> Option<f64> {
        let misses = self.est_l2_misses(pc);
        let stalls = self.est_stall_cycles(pc);
        if misses <= 0.0 || stalls <= 0.0 {
            return None;
        }
        Some(stalls / misses)
    }

    /// PCs whose estimated miss likelihood is at least `threshold`,
    /// sorted.
    pub(crate) fn miss_pcs(&self, threshold: f64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .l2_miss_samples
            .keys()
            .copied()
            .filter(|&pc| self.miss_likelihood(pc) >= threshold)
            .collect();
        v.sort_unstable();
        v
    }

    /// Staleness of this profile relative to a fresher one: the total
    /// variation distance between their normalized per-PC miss
    /// distributions, in `[0, 1]` (0 = identical shape, 1 = disjoint
    /// supports).
    ///
    /// Production FDO systems track this to know when a shipped profile
    /// no longer matches live behaviour (workload drift, as in the BFS
    /// representativeness discussion); re-profile when it grows.
    pub fn miss_distribution_distance(&self, other: &Profile) -> f64 {
        let total = |p: &Profile| p.l2_miss_samples.values().sum::<u64>() as f64;
        let (ta, tb) = (total(self), total(other));
        if ta == 0.0 && tb == 0.0 {
            return 0.0;
        }
        if ta == 0.0 || tb == 0.0 {
            return 1.0;
        }
        let mut pcs: Vec<usize> = self
            .l2_miss_samples
            .keys()
            .chain(other.l2_miss_samples.keys())
            .copied()
            .collect();
        pcs.sort_unstable();
        pcs.dedup();
        0.5 * pcs
            .iter()
            .map(|pc| {
                let a = self.l2_miss_samples.get(pc).copied().unwrap_or(0) as f64 / ta;
                let b = other.l2_miss_samples.get(pc).copied().unwrap_or(0) as f64 / tb;
                (a - b).abs()
            })
            .sum::<f64>()
    }

    /// Serializes to JSON (profile persistence between the profiling and
    /// instrumentation phases of the PGO pipeline).
    pub fn to_json(&self) -> String {
        let mut smoothed: Vec<(usize, f64)> =
            self.smoothed_execs.iter().map(|(&k, &v)| (k, v)).collect();
        smoothed.sort_by_key(|a| a.0);
        Json::Object(vec![
            ("program".into(), Json::Str(self.program.clone())),
            (
                "periods".into(),
                Json::Object(vec![
                    ("l2_miss".into(), Json::UInt(self.periods.l2_miss)),
                    ("l3_miss".into(), Json::UInt(self.periods.l3_miss)),
                    ("stall".into(), Json::UInt(self.periods.stall)),
                    ("retired".into(), Json::UInt(self.periods.retired)),
                ]),
            ),
            (
                "l2_miss_samples".into(),
                pc_map_to_json(&self.l2_miss_samples),
            ),
            (
                "l3_miss_samples".into(),
                pc_map_to_json(&self.l3_miss_samples),
            ),
            ("stall_samples".into(), pc_map_to_json(&self.stall_samples)),
            (
                "retired_samples".into(),
                pc_map_to_json(&self.retired_samples),
            ),
            ("blocks".into(), self.blocks.to_json_value()),
            ("total_samples".into(), Json::UInt(self.total_samples)),
            ("fingerprint".into(), Json::UInt(self.fingerprint)),
            (
                "smoothed_execs".into(),
                Json::Array(
                    smoothed
                        .into_iter()
                        .map(|(pc, e)| Json::Array(vec![Json::UInt(pc as u64), Json::Float(e)]))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Profile, JsonError> {
        let v = Json::parse(s)?;
        let periods = v.get("periods")?;
        let mut smoothed_execs = HashMap::new();
        for pair in v.get("smoothed_execs")?.as_array()? {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return Err(JsonError::shape("smoothed_execs entry is not a pair"));
            }
            smoothed_execs.insert(pair[0].as_usize()?, pair[1].as_f64()?);
        }
        Ok(Profile {
            program: v.get("program")?.as_str()?.to_string(),
            periods: Periods {
                l2_miss: periods.get("l2_miss")?.as_u64()?,
                l3_miss: periods.get("l3_miss")?.as_u64()?,
                stall: periods.get("stall")?.as_u64()?,
                retired: periods.get("retired")?.as_u64()?,
            },
            l2_miss_samples: pc_map_from_json(v.get("l2_miss_samples")?)?,
            l3_miss_samples: pc_map_from_json(v.get("l3_miss_samples")?)?,
            stall_samples: pc_map_from_json(v.get("stall_samples")?)?,
            retired_samples: pc_map_from_json(v.get("retired_samples")?)?,
            blocks: BlockLatencyEstimator::from_json_value(v.get("blocks")?)?,
            total_samples: v.get("total_samples")?.as_u64()?,
            smoothed_execs,
            // Absent in profiles written before provenance tracking:
            // treat as unknown rather than rejecting the file.
            fingerprint: match v.get("fingerprint") {
                Ok(f) => f.as_u64()?,
                Err(_) => 0,
            },
        })
    }

    /// Stale-profile simulation for the fault-injection harness: moves
    /// roughly `fraction` of each miss-sample entry to a uniformly
    /// random PC in `[0, pc_range)`, modelling a profile whose workload
    /// drifted since collection — the miss sites are plausible but
    /// wrong, while provenance (same binary) still checks out.
    /// Deterministic given `rng`; entries are visited in PC order.
    pub fn inject_drift(&mut self, fraction: f64, pc_range: usize, rng: &mut SplitMix64) {
        if pc_range == 0 {
            return;
        }
        for map in [
            &mut self.l2_miss_samples,
            &mut self.l3_miss_samples,
            &mut self.stall_samples,
        ] {
            let mut pcs: Vec<usize> = map.keys().copied().collect();
            pcs.sort_unstable();
            for pc in pcs {
                let n = map[&pc];
                let moved = (n as f64 * fraction).round() as u64;
                if moved == 0 {
                    continue;
                }
                let dest = rng.next_below(pc_range as u64) as usize;
                *map.get_mut(&pc).expect("key present") -= moved;
                *map.entry(dest).or_insert(0) += moved;
            }
            map.retain(|_, n| *n > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        let mut p = Profile::new(
            "t",
            Periods {
                l2_miss: 10,
                l3_miss: 10,
                stall: 100,
                retired: 50,
            },
        );
        p.l2_miss_samples.insert(5, 8); // est 80 misses
        p.l3_miss_samples.insert(5, 6); // est 60 DRAM misses
        p.retired_samples.insert(5, 2); // est 100 executions
        p.stall_samples.insert(5, 216); // est 21600 stall cycles
        p.retired_samples.insert(9, 4); // est 200 executions, no misses
        p.total_samples = 236;
        p
    }

    #[test]
    fn estimates_scale_by_period() {
        let p = sample_profile();
        assert_eq!(p.est_l2_misses(5), 80.0);
        assert_eq!(p.est_executions(5), 100.0);
        assert_eq!(p.est_stall_cycles(5), 21600.0);
        assert_eq!(p.est_l2_misses(42), 0.0);
    }

    #[test]
    fn miss_likelihood_normalizes_and_clamps() {
        let p = sample_profile();
        assert!((p.miss_likelihood(5) - 0.8).abs() < 1e-12);
        assert_eq!(p.miss_likelihood(9), 0.0, "no miss samples");
        assert_eq!(p.miss_likelihood(1234), 0.0, "unseen pc");
        let mut q = sample_profile();
        q.l2_miss_samples.insert(5, 100); // est 1000 > 100 execs
        assert_eq!(q.miss_likelihood(5), 1.0, "clamped");
    }

    #[test]
    fn stall_per_miss_correlates_the_two_counters() {
        let p = sample_profile();
        assert!((p.stall_per_miss(5).unwrap() - 270.0).abs() < 1e-9);
        assert_eq!(p.stall_per_miss(9), None);
    }

    #[test]
    fn miss_pcs_filters_by_threshold() {
        let mut p = sample_profile();
        p.l2_miss_samples.insert(9, 1); // est 10 / 200 execs = 0.05
        assert_eq!(p.miss_pcs(0.5), vec![5]);
        assert_eq!(p.miss_pcs(0.01), vec![5, 9]);
    }

    #[test]
    fn block_smoothing_pools_samples_across_the_block() {
        let mut p = Profile::new(
            "t",
            Periods {
                l2_miss: 1,
                l3_miss: 1,
                stall: 1,
                retired: 10,
            },
        );
        // A 4-instruction block where only pc 2 happened to be sampled.
        p.retired_samples.insert(2, 8); // raw est: 80 execs at pc 2 only
        assert_eq!(p.est_executions(0), 0.0);
        p.set_block_smoothing(std::iter::once(0..4));
        // Pooled: 8 samples * 10 / 4 = 20 execs per pc.
        for pc in 0..4 {
            assert_eq!(p.est_executions(pc), 20.0);
        }
        // Smoothing changes likelihood denominators accordingly.
        p.l2_miss_samples.insert(0, 18);
        assert!((p.miss_likelihood(0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn staleness_distance_behaves() {
        let a = sample_profile();
        assert_eq!(a.miss_distribution_distance(&a), 0.0, "self-distance");
        let mut b = sample_profile();
        b.l2_miss_samples.clear();
        b.l2_miss_samples.insert(99, 10); // completely different site
        assert!((a.miss_distribution_distance(&b) - 1.0).abs() < 1e-12);
        // Partial overlap sits strictly between.
        let mut c = sample_profile();
        c.l2_miss_samples.insert(99, 8); // half its mass elsewhere
        let d = a.miss_distribution_distance(&c);
        assert!(d > 0.0 && d < 1.0, "got {d}");
        // Empty vs non-empty is maximally stale; empty vs empty is fresh.
        let e = Profile::new("t", a.periods);
        assert_eq!(a.miss_distribution_distance(&e), 1.0);
        assert_eq!(e.miss_distribution_distance(&e), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let mut p = sample_profile();
        p.set_block_smoothing(std::iter::once(5..7));
        p.fingerprint = 0xDEAD_BEEF_1234_5678;
        let q = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(q.l2_miss_samples, p.l2_miss_samples);
        assert_eq!(q.l3_miss_samples, p.l3_miss_samples);
        assert_eq!(q.stall_samples, p.stall_samples);
        assert_eq!(q.retired_samples, p.retired_samples);
        assert_eq!(q.smoothed_execs, p.smoothed_execs);
        assert_eq!(q.total_samples, p.total_samples);
        assert_eq!(q.periods, p.periods);
        assert_eq!(q.program, "t");
        assert_eq!(q.fingerprint, p.fingerprint);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Profile::from_json("not json").is_err());
        assert!(Profile::from_json("{}").is_err());
    }

    #[test]
    fn from_json_tolerates_missing_fingerprint() {
        // Profiles written before provenance tracking load with
        // fingerprint 0 (unknown) instead of being rejected.
        let text = sample_profile().to_json().replace(",\"fingerprint\":0", "");
        assert!(!text.contains("fingerprint"), "key really removed");
        assert_eq!(Profile::from_json(&text).unwrap().fingerprint, 0);
    }

    #[test]
    fn from_json_truncation_is_always_a_typed_error() {
        let mut p = sample_profile();
        p.set_block_smoothing(std::iter::once(5..7));
        let text = p.to_json();
        for cut in 0..text.len() {
            // Every strict prefix must fail cleanly — this is the path a
            // profile file truncated mid-write takes.
            assert!(Profile::from_json(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn from_json_byte_corruption_never_panics() {
        let text = sample_profile().to_json();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x20, 0x80] {
                let mut corrupted = bytes.to_vec();
                corrupted[i] ^= flip;
                if let Ok(s) = String::from_utf8(corrupted) {
                    // Result may be Ok (a flipped digit is still a valid
                    // profile) or Err; it must never panic.
                    let _ = Profile::from_json(&s);
                }
            }
        }
    }

    #[test]
    fn inject_drift_moves_miss_mass_deterministically() {
        let mut a = sample_profile();
        let mut b = sample_profile();
        let total_before: u64 = a.l2_miss_samples.values().sum();
        let mut rng_a = SplitMix64::new(11);
        let mut rng_b = SplitMix64::new(11);
        a.inject_drift(0.5, 64, &mut rng_a);
        b.inject_drift(0.5, 64, &mut rng_b);
        assert_eq!(a.l2_miss_samples, b.l2_miss_samples, "deterministic");
        assert_eq!(a.stall_samples, b.stall_samples);
        let total_after: u64 = a.l2_miss_samples.values().sum();
        assert_eq!(total_before, total_after, "mass conserved");
        // The distribution actually moved.
        let fresh = sample_profile();
        assert!(fresh.miss_distribution_distance(&a) > 0.0);
    }
}
