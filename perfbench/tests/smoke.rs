//! Smoke sizes of all three workloads: every correctness check of a full
//! run (reference answers for direct, planned, sharded and served queries,
//! byte-identical builds, the codec round trip, reloads) in seconds, plus
//! the result contract against `BENCHMARK.json`.

use rlc_perfbench::run::{result_json, run, Options, OPEN_RATE};
use rlc_perfbench::workload::NAMES;

/// `"name"` values of one array of `BENCHMARK.json`, read without a JSON
/// dependency: the array runs from `"key": [` to its closing `]`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let mut depth = 0;
    let mut end = open;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    json[open..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

fn smoke(workload: &str, trace: bool) -> rlc_perfbench::run::Outcome {
    let opts = Options {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.0,
        trace,
        rate: OPEN_RATE,
        smoke: true,
        trace_dir: None,
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_is_correct_and_reports_every_metric() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = names_in(&bench, "workloads");
    assert!(
        workloads.iter().all(|w| NAMES.contains(&w.as_str())),
        "BENCHMARK.json lists only workloads the binary runs: {workloads:?}"
    );
    let end_to_end = names_in(&bench, "end_to_end");
    let per_layer = names_in(&bench, "per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));

    for workload in NAMES {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = smoke(workload, trace);
            assert!(
                outcome.correct,
                "{workload} (trace {trace}): {:?}",
                outcome.problems
            );
            assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.problems);
            assert!(outcome.attempted > 0);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(&names, expected, "{workload} (trace {trace}) metric names");
            let line = result_json(&outcome);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            if !trace {
                for m in &outcome.metrics {
                    assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
                }
            }
        }
    }
}
