//! The untraced run: set-up, then the seeded work repeated for the run's
//! seconds, timed from outside the program, with every output checked.
//! It prints the end-to-end metrics; host times are scaled to the
//! reference host's speed ([`crate::calib`]).

use crate::calib::{at_reference_speed, host_speed};
use crate::metrics::{self, RunResult, Values};
use crate::stats::{median, percentile};
use crate::workload::{
    check_open, check_steady, on_fresh_thread, open_admission, open_engine, run_chaos_op,
    steady_engine, summarize_chaos, warm_up, CheckResult, Inputs, PassSummary, Workload,
    STEADY_PAYMENTS_PER_SHARD, THREADS,
};
use btcfast_crypto::WorkerPool;
use std::time::{Duration, Instant};

/// Fewest set-ups a run times; `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;
/// `chaos_dispute` operations re-run, at the least, to check that a
/// repetition replays identically.
pub const CHAOS_RECHECK: usize = 16;
/// `chaos_dispute` operations per throughput sample: about half a second
/// of host time, so the host-speed calibrations around it see the host
/// speed it ran at.
pub const CHAOS_CHUNK: usize = 20;

/// One set-up: the worker pool, the generated inputs, and one warm-up
/// operation.
pub fn set_up(workload: Workload, seed: u64) -> CheckResult<(WorkerPool, Inputs)> {
    let pool = WorkerPool::new(THREADS);
    let inputs = Inputs::generate(workload, seed);
    warm_up(workload, &pool)?;
    Ok((pool, inputs))
}

/// The set-up times of one run, at reference host speed. The first
/// set-up is timed from process start, so it includes building the
/// program's lazy static tables; the run repeats the set-up between its
/// timed samples, so the median spans the same stretch of host time as
/// the throughput samples do.
struct SetupTimes {
    workload: Workload,
    seed: u64,
    seconds: Vec<f64>,
}

impl SetupTimes {
    /// Times one more set-up, discarding what it builds.
    fn repeat(&mut self) -> CheckResult<()> {
        let (built, secs) =
            at_reference_speed(self.workload.threads(), || set_up(self.workload, self.seed));
        built?;
        self.seconds.push(secs.as_secs_f64());
        Ok(())
    }
}

/// What the timed phase measured.
struct Timed {
    /// The first pass's summary (every repetition must equal it).
    pass: PassSummary,
    /// Accepted payments per host second of program calls at reference
    /// host speed, one sample per pass (per [`CHAOS_CHUNK`] operations on
    /// `chaos_dispute`).
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Runs `workload` untraced for `seconds` and returns its end-to-end
/// metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    started: Instant,
) -> CheckResult<RunResult> {
    let (pool, inputs) = set_up(workload, seed)?;
    let first = started.elapsed().as_secs_f64() * host_speed(workload.threads());
    let mut setups = SetupTimes {
        workload,
        seed,
        seconds: vec![first],
    };
    let budget = Duration::from_secs(seconds);
    let between = &mut || setups.repeat();
    let timed = match &inputs {
        Inputs::Steady { seed } => {
            let engine = steady_engine(STEADY_PAYMENTS_PER_SHARD);
            repeat_passes(budget, between, || {
                let (report, wall) = at_reference_speed(THREADS, || engine.run(*seed, &pool));
                let report = report.map_err(|e| format!("steady: {e}"))?;
                Ok((check_steady(&report, STEADY_PAYMENTS_PER_SHARD)?, wall))
            })?
        }
        Inputs::OpenLoop { seed, schedule } => {
            let engine = open_engine();
            repeat_passes(budget, between, || {
                let (report, wall) = on_fresh_thread(|| {
                    at_reference_speed(1, || engine.run_load(*seed, schedule, open_admission()))
                });
                let report = report.map_err(|e| format!("open_loop: {e}"))?;
                Ok((check_open(&report)?, wall))
            })?
        }
        Inputs::ChaosDispute { ops } => chaos_pass(ops, budget, between)?,
    };
    while setups.seconds.len() < MIN_SETUPS {
        setups.repeat()?;
    }

    let mut values = Values::default();
    values.set(
        "setup_s",
        median(&setups.seconds).expect("at least one set-up"),
    );
    eprintln!(
        "pay_per_s samples (payments/s at reference host speed): {:?}",
        timed.rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    values.set(
        "pay_per_s",
        median(&timed.rates).expect("at least two throughput samples"),
    );
    values.set("rss_peak_mb", metrics::rss_peak_mb()?);
    let pass = &timed.pass;
    values.set("ok_ratio", 1.0 - pass.failed as f64 / pass.offered as f64);
    values.set("admit_ratio", pass.admitted as f64 / pass.offered as f64);
    for (name, q) in [("accept_sim_p50_s", 0.50), ("accept_sim_p99_s", 0.99)] {
        let us = percentile(&pass.accept_us, q).ok_or_else(|| {
            format!(
                "{}: {} accept samples are too few for {name}",
                workload.name(),
                pass.accept_us.len()
            )
        })?;
        values.set(name, us as f64 / 1e6);
    }
    Ok(RunResult {
        attempted: timed.attempted,
        failed: timed.failed,
        values,
    })
}

/// Repeats a whole pass until `budget` has elapsed, at least twice, with
/// `between` run (untimed) before each repetition; every repetition must
/// summarize identically to the first (same seed, same fingerprint, same
/// simulated latencies and ratios).
fn repeat_passes(
    budget: Duration,
    between: &mut dyn FnMut() -> CheckResult<()>,
    mut pass: impl FnMut() -> CheckResult<(PassSummary, Duration)>,
) -> CheckResult<Timed> {
    let start = Instant::now();
    let (first, wall) = pass()?;
    let mut timed = Timed {
        rates: vec![first.accepted as f64 / wall.as_secs_f64()],
        attempted: first.offered,
        failed: first.failed,
        pass: first,
    };
    while timed.rates.len() < 2 || start.elapsed() < budget {
        between()?;
        let (again, wall) = pass()?;
        if again != timed.pass {
            return Err(format!(
                "repetition {} of the same seed diverged: fingerprint {} vs {}",
                timed.rates.len(),
                again.fingerprint,
                timed.pass.fingerprint
            ));
        }
        timed.rates.push(again.accepted as f64 / wall.as_secs_f64());
        timed.attempted += again.offered;
        timed.failed += again.failed;
    }
    Ok(timed)
}

/// One full `chaos_dispute` pass, timed per [`CHAOS_CHUNK`] operations
/// with `between` run (untimed) before each chunk after the first, then
/// repetitions of its leading operations until `budget` has elapsed (at
/// least [`CHAOS_RECHECK`]), each of which must replay its first run
/// exactly.
fn chaos_pass(
    ops: &[(u64, btcfast_netsim::faults::FaultPlan)],
    budget: Duration,
    between: &mut dyn FnMut() -> CheckResult<()>,
) -> CheckResult<Timed> {
    let start = Instant::now();
    let mut results = Vec::with_capacity(ops.len());
    let mut rates = Vec::new();
    for (index, chunk) in ops.chunks(CHAOS_CHUNK).enumerate() {
        if index > 0 {
            between()?;
        }
        let before = host_speed(1);
        let mut program = Duration::ZERO;
        let mut accepted = 0u64;
        for (seed, plan) in chunk {
            let (op, timing) = run_chaos_op(*seed, plan)?;
            program += timing.total();
            accepted += u64::from(op.accepted);
            results.push(op);
        }
        let speed = (before + host_speed(1)) / 2.0;
        rates.push(accepted as f64 / (program.as_secs_f64() * speed));
    }
    let pass = summarize_chaos(&results);
    let mut timed = Timed {
        rates,
        attempted: pass.offered,
        failed: pass.failed,
        pass,
    };
    let mut i = 0;
    while i < CHAOS_RECHECK || start.elapsed() < budget {
        let index = i % ops.len();
        let (seed, plan) = &ops[index];
        let (op, _) = run_chaos_op(*seed, plan)?;
        if op != results[index] {
            return Err(format!(
                "chaos_dispute: operation {index} diverged on repetition"
            ));
        }
        timed.attempted += 1;
        timed.failed += u64::from(op.failed);
        i += 1;
    }
    Ok(timed)
}
