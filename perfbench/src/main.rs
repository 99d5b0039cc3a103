//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper|serve|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the product's own entry points with inputs made
//! from the seed, measures for the given number of seconds, checks every
//! output against a reference the run did not produce, and prints its
//! metrics, the last line being one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run composes the same call sequence from the layers'
//! public functions, records a span around each call, writes the spans as
//! Chrome trace-event JSON under `.bench_out/`, and reports per-layer
//! metrics instead. Exit status: 0 when every output was correct, 1 when
//! any operation failed, 2 for a usage error, 3 when the run overran its
//! time limit.

mod campaign;
mod gen;
mod layers;
mod paper;
mod refs;
mod report;
mod serve;
mod trace;

use std::time::Duration;

/// How many times a run performs its set-up before measuring (it repeats
/// it between passes too; `setup_s` is the median of all).
pub const SETUP_REPS: usize = 9;

/// A run that has not finished after this long is stopped with exit code
/// 3 and no result line.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `paper`, `serve` or `campaign`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper|serve|campaign> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper", "serve", "campaign"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Writes the traced run's spans to
/// `.bench_out/trace-<workload>-seed<seed>.json`.
pub fn write_trace(t: &layers::Tracer, args: &Args) {
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match t.rec.write_chrome_trace(&path) {
        Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!(
            "perfbench: run exceeded {} s; stopping",
            RUN_LIMIT.as_secs()
        );
        std::process::exit(3);
    });
    let rep = match args.workload.as_str() {
        "paper" => paper::run(&args),
        "serve" => serve::run(&args),
        _ => campaign::run(&args),
    };
    for f in &rep.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}: attempted {}, failed {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rep.attempted,
        rep.failed
    );
    for line in rep.human_lines() {
        println!("{line}");
    }
    println!("{}", rep.json_line());
    if !rep.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload paper --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload paper --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper --seconds 10")).is_err());
    }
}
