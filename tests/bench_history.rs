//! `bench/history.jsonl` is the benchmark trajectory (ROADMAP 2d): one
//! JSON object per PR, `{pr, commit, parent, claim?, <workload>: {<metric>:
//! [parent_median, change_median], ..., pairs}, ...}`, appended by the PR
//! it describes — which therefore cannot know its own hash and writes
//! `"commit": null`; the next PR to touch the file fills it in. So only
//! the newest row may carry a null commit.
//!
//! A workload cell carries `ops_per_s` and may carry any other end-to-end
//! metric `BENCHMARK.json` names. It may also carry `"spread": {<metric>:
//! x}`, the parent runs' interquartile range over their median, so a
//! reader can set each change against its `BENCHMARK.json` bound; a
//! spread wider than the bound leaves that metric unresolved by the row.
//! A row whose PR claimed a gain says where
//! — `"claim": {"workload", "metric"}` — and must carry that metric for
//! that workload, so the trajectory shows the number the claim was judged
//! on. A row that does not parse, or has another shape, fails here; CI
//! runs this test with `--nocapture` so the log shows the newest row.

use reach_profile::Json;

fn committed(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} is committed: {e}"))
}

/// The `name`s under `key` in `BENCHMARK.json`.
fn benchmark_names(spec: &Json, key: &str) -> Vec<String> {
    let entries = spec.get(key).and_then(Json::as_array);
    let entries = entries.unwrap_or_else(|e| panic!("BENCHMARK.json, {key}: {e}"));
    let name = |e: &Json| e.get("name").and_then(Json::as_str).map(String::from);
    let names: Result<Vec<String>, _> = entries.iter().map(name).collect();
    names.unwrap_or_else(|e| panic!("BENCHMARK.json, {key}: {e}"))
}

/// Checks every row of `text`, a history, against the end-to-end
/// `metrics`, panicking at the first fault.
fn check_history(text: &str, metrics: &[String]) {
    let mut last_pr = 0;
    let rows = text.lines().count();
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
                ("commit", Json::Null) => {
                    assert!(
                        n == rows,
                        "line {n}: commit is null, but it is not the newest row"
                    );
                }
                ("commit", Json::Str(_)) | ("parent", Json::Str(_)) => {}
                ("claim", claim) => {
                    let field = |f| claim.get(f).and_then(Json::as_str);
                    let (workload, metric) = (field("workload"), field("metric"));
                    let (Ok(workload), Ok(metric)) = (workload, metric) else {
                        panic!("line {n}: claim is {claim}, not {{workload, metric}}");
                    };
                    let claimed = row.get(workload).and_then(|cell| cell.get(metric));
                    assert!(claimed.is_ok(), "line {n}: no {workload} {metric} to claim");
                }
                ("pr" | "commit" | "parent", other) => panic!("line {n}: {key} is {other}"),
                (workload, Json::Object(cell)) => {
                    for (metric, value) in cell {
                        if metric == "pairs" {
                            let pairs = value.as_u64();
                            assert!(pairs.is_ok_and(|p| p > 0), "line {n}, {workload}: pairs");
                            continue;
                        }
                        if metric == "spread" {
                            let Json::Object(spreads) = value else {
                                panic!("line {n}, {workload}: spread is {value}");
                            };
                            for (metric, s) in spreads {
                                let known = metrics.iter().any(|m| m == metric);
                                let ok = s.as_f64().is_ok_and(|x| x >= 0.0);
                                assert!(known && ok, "line {n}, {workload}: spread {metric}");
                            }
                            continue;
                        }
                        let known = metrics.iter().any(|m| m == metric);
                        assert!(
                            known,
                            "line {n}, {workload}: {metric} is no end-to-end metric"
                        );
                        let medians = value.as_array().unwrap_or_default();
                        let positive = medians.iter().all(|m| m.as_f64().is_ok_and(|x| x > 0.0));
                        assert!(
                            medians.len() == 2 && positive,
                            "line {n}, {workload} {metric}: [parent, change]"
                        );
                    }
                    for key in ["ops_per_s", "pairs"] {
                        assert!(value.get(key).is_ok(), "line {n}, {workload}: no {key}");
                    }
                }
                (workload, other) => panic!("line {n}: {workload} is {other}"),
            }
        }
        for key in ["pr", "commit", "parent"] {
            assert!(row.get(key).is_ok(), "line {n}: no {key}");
        }
    }
    assert!(last_pr > 0, "no rows");
}

#[test]
fn every_row_parses_and_pr_numbers_increase() {
    let spec = Json::parse(&committed("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let text = committed("bench/history.jsonl");
    check_history(&text, &benchmark_names(&spec, "end_to_end"));
    println!("{}", text.lines().last().expect("no rows"));
}

#[test]
fn a_null_commit_before_the_newest_row_fails() {
    let spec = Json::parse(&committed("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let metrics = benchmark_names(&spec, "end_to_end");
    let text = committed("bench/history.jsonl");
    let row_34 = r#""pr":34,"commit":"1624ea0264718c1830a1514630f3331a98521488""#;
    assert!(text.contains(row_34), "row 34 is committed");
    let nulled = text.replace(row_34, r#""pr":34,"commit":null"#);
    let check = std::panic::catch_unwind(|| check_history(&nulled, &metrics));
    let fault = check.expect_err("a null commit in row 34 passes the history check");
    let message = fault.downcast_ref::<String>().map_or("", String::as_str);
    assert!(message.contains("not the newest row"), "{message}");
}
