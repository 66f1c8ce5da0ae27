//! `bench/history.jsonl` is the benchmark trajectory (ROADMAP 2d): one
//! JSON object per PR, `{pr, commit, parent, <workload>: {ops_per_s:
//! [parent_median, change_median], pairs}, ...}`, appended by the PR it
//! describes — which therefore cannot know its own hash and writes
//! `"commit": null`. A row that does not parse, or has another shape,
//! fails here; CI runs this test with `--nocapture` so the log shows the
//! newest row.

use reach_profile::Json;

#[test]
fn every_row_parses_and_pr_numbers_increase() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/history.jsonl");
    let text = std::fs::read_to_string(path).expect("bench/history.jsonl is committed");
    let mut last_pr = 0;
    for (n, line) in text.lines().enumerate() {
        let n = n + 1;
        let row = Json::parse(line).unwrap_or_else(|e| panic!("line {n}: {e}"));
        let Json::Object(fields) = &row else {
            panic!("line {n}: not an object");
        };
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("pr", Json::UInt(pr)) => {
                    assert!(*pr > last_pr, "line {n}: pr {pr} after {last_pr}");
                    last_pr = *pr;
                }
                ("commit", Json::Str(_) | Json::Null) | ("parent", Json::Str(_)) => {}
                ("pr" | "commit" | "parent", other) => panic!("line {n}: {key} is {other}"),
                (workload, cell) => {
                    let medians = cell.get("ops_per_s").and_then(Json::as_array);
                    let medians = medians.unwrap_or_else(|e| panic!("line {n}, {workload}: {e}"));
                    assert_eq!(medians.len(), 2, "line {n}, {workload}: [parent, change]");
                    for m in medians {
                        assert!(m.as_f64().is_ok_and(|x| x > 0.0), "line {n}, {workload}");
                    }
                    let pairs = cell.get("pairs").and_then(Json::as_u64);
                    assert!(pairs.is_ok_and(|p| p > 0), "line {n}, {workload}: pairs");
                }
            }
        }
        for key in ["pr", "commit", "parent"] {
            assert!(row.get(key).is_ok(), "line {n}: no {key}");
        }
    }
    assert!(last_pr > 0, "no rows");
    println!("{}", text.lines().last().expect("no rows"));
}
