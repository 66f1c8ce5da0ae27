//! `BENCHMARK.json`, compiled into the binary: the one list of
//! workloads, metrics, units, directions and bounds. `list` prints it,
//! `run` refuses to finish without a value for every metric it names, and
//! `selfcheck` judges against its bounds, so the file and the binary
//! cannot drift apart.

use crate::layers::{Json, JsonError};

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while sizing the workloads or choosing the bounds;
/// a claim measured with this benchmark must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_230_622;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn err(e: JsonError) -> String {
    e.to_string()
}

fn strings(v: &Json) -> Result<Vec<String>, String> {
    v.as_array()
        .map_err(err)?
        .iter()
        .map(|s| s.as_str().map(str::to_owned).map_err(err))
        .collect()
}

fn metrics(v: &Json, bounded: bool) -> Result<Vec<Metric>, String> {
    let field = |m: &Json, k: &str| -> Result<String, String> {
        Ok(m.get(k).and_then(Json::as_str).map_err(err)?.to_owned())
    };
    v.as_array()
        .map_err(err)?
        .iter()
        .map(|m| {
            let better = field(m, "better")?;
            Ok(Metric {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher or lower, not {other}")),
                },
                bound: if bounded {
                    Some(m.get("bound").and_then(Json::as_f64).map_err(err)?)
                } else {
                    None
                },
            })
        })
        .collect()
}

impl Spec {
    /// Parses the embedded file.
    pub fn embedded() -> Result<Spec, String> {
        let j = Json::parse(TEXT).map_err(err)?;
        let get = |k: &str| j.get(k).map_err(err);
        let workloads = get("workloads")?
            .as_array()
            .map_err(err)?
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).map(str::to_owned);
                Ok((s("name").map_err(err)?, s("why").map_err(err)?))
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            command: strings(get("command")?)?,
            paths: strings(get("paths")?)?,
            run_seconds: get("run_seconds")?.as_u64().map_err(err)?,
            workloads,
            end_to_end: metrics(get("end_to_end")?, true)?,
            per_layer: metrics(get("per_layer")?, false)?,
        })
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    /// The driver's limits on `BENCHMARK.json`, checked here so a bad edit
    /// fails `cargo test` rather than the first driver run.
    #[test]
    fn benchmark_json_is_inside_the_contract() {
        let raw = Json::parse(TEXT).unwrap();
        let Json::Object(fields) = &raw else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(TEXT.len() <= 64 * 1024);

        let s = Spec::embedded().unwrap();
        assert!((1..=32).contains(&s.command.len()));
        assert!(s.command.iter().all(|a| a.len() <= 200));
        assert_eq!(s.paths, ["benchmark"]);
        assert!((1..=60).contains(&s.run_seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));

        let mut seen = BTreeSet::new();
        for (name, why) in &s.workloads {
            assert!(name_ok(name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(name_ok(&m.name), "metric name {}", m.name);
            assert!(unit_ok(&m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        for m in &s.end_to_end {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "bound of {}", m.name);
        }
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the widest bound");
    }
}
