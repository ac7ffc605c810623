//! The BTCFast benchmark: end-to-end and per-layer metrics of three seeded
//! workloads, timed from outside the program.
//!
//! ```text
//! btcfast-perfbench --workload <steady|open_loop|chaos_dispute>
//!                   --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced for the given seconds and prints
//! the end-to-end metrics; `--trace 1` runs the program untraced and a
//! traced replay of the same seed and prints the per-layer metrics. Every
//! output is checked; the last line of stdout is the JSON result. A failed
//! check prints `"correct": false` and exits 1; a usage error exits 2.
//! See `perfbench/README.md` for the workloads and metrics.

mod calib;
mod e2e;
#[cfg(test)]
mod json;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workload;

use metrics::{render_result, render_table, RunResult, Values};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

const USAGE: &str = "usage: btcfast-perfbench --workload <steady|open_loop|chaos_dispute> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("btcfast-perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalogue = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let outcome = if args.trace {
        replay::run(args.workload, args.seed)
    } else {
        e2e::run(args.workload, args.seed, args.seconds, started)
    }
    .and_then(|result| result.values.check_complete(catalogue).map(|()| result));
    match outcome {
        Ok(result) => {
            println!(
                "workload {} seed {} ({}), {} threads available",
                args.workload.name(),
                args.seed,
                if args.trace {
                    "traced, per-layer"
                } else {
                    "untraced, end-to-end"
                },
                std::thread::available_parallelism().map_or(1, |n| n.get())
            );
            print!("{}", render_table(catalogue, &result.values));
            println!("{}", render_result(true, &result, catalogue));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("btcfast-perfbench: output check failed: {msg}");
            let failed = RunResult {
                attempted: 1,
                failed: 1,
                values: Values::default(),
            };
            println!("{}", render_result(false, &failed, catalogue));
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            parse("--workload open_loop --seed 42 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::OpenLoop,
                seed: 42,
                seconds: 10,
                trace: true,
            })
        );
        assert!(parse("--workload hit --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload steady --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload steady --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload steady --seed 1 --seconds 1").is_err());
        assert!(parse("--workload steady --seed").is_err());
    }
}
