//! Command line of the benchmark; see `perfbench/README.md`.

use rlc_perfbench::run::{result_json, run, Options, OPEN_RATE};
use std::process::ExitCode;

const USAGE: &str =
    "usage: rlc-perfbench --workload <paper-rlc|concat-reuse|sharded-reload> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-dir <dir>] [--rate <requests/s>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rate: OPEN_RATE,
        smoke: false,
        trace_dir: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            opts.smoke = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for {flag}")),
                }
            }
            "--trace-dir" => opts.trace_dir = Some(value.into()),
            "--rate" => {
                opts.rate = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(opts.rate > 0.0 && opts.rate.is_finite()) {
                    return Err(format!("--rate must be a positive number, got {value}"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if opts.trace && opts.trace_dir.is_none() {
        opts.trace_dir = Some("perfbench/out".into());
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("problem: {problem}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    println!("facts {}", outcome.facts);
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
