//! The three seeded workloads: their inputs, the program calls that run
//! them, and the checks every result must pass.
//!
//! Inputs are pure functions of the workload seed. The program receives
//! only the generated inputs, through its public entry points:
//! [`PaymentEngine::run`], [`PaymentEngine::run_load`] and
//! [`ChaosSession::run_dispute_chaos`].

use btcfast::admission::{AdmissionConfig, SheddingPolicy};
use btcfast::chaos::{ChaosDisputeReport, ChaosSession};
use btcfast::config::SessionConfig;
use btcfast::engine::{EngineConfig, EngineReport, LoadArrival, LoadReport, PaymentEngine};
use btcfast::robustness::{ChaosConfig, RobustnessError};
use btcfast_bench::load::LoadGen;
use btcfast_crypto::sha256::sha256d;
use btcfast_crypto::{Hash256, WorkerPool};
use btcfast_netsim::faults::{ChaosSpec, FaultPlan};
use btcfast_netsim::network::NodeId;
use btcfast_netsim::time::SimTime;
use btcfast_payjudger::types::DisputeVerdict;
use std::time::{Duration, Instant};

/// Worker threads any workload may use (the benchmark host has 2 cores).
pub const THREADS: usize = 2;
/// Value of every payment, satoshis.
pub const AMOUNT_SATS: u64 = 1_000_000;

/// `steady`: shards on the engine's worker pool.
pub const STEADY_SHARDS: usize = 2;
/// `steady`: payments per shard in one pass — a long session, so the
/// per-payment cost growth with session age is on the clock.
pub const STEADY_PAYMENTS_PER_SHARD: usize = 4000;
/// `steady`: payments per service round.
pub const STEADY_BATCH: usize = 8;
/// `steady`: a crash-restart drill after every this many rounds.
pub const STEADY_CRASH_EVERY: usize = 25;

/// `open_loop`: shards served by the single-threaded event loop.
pub const OPEN_SHARDS: usize = 2;
/// `open_loop`: aggregate Poisson arrival rate, payments per simulated
/// second: 0.8 × the ~3.0/s per-shard capacity `harness e14` measures.
pub const OPEN_RATE_PER_SEC: f64 = 4.8;
/// `open_loop`: payments offered in one pass, enough that the accept
/// latency p99 keeps ten samples beyond it after shedding.
pub const OPEN_OFFERED: usize = 2400;
/// `open_loop`: payments per service round (at most).
pub const OPEN_BATCH: usize = 4;
/// `open_loop`: bounded admission capacity across all shards.
pub const OPEN_CAPACITY: usize = 8;

/// `chaos_dispute`: operations in one pass.
pub const CHAOS_OPS: usize = 1200;
/// `chaos_dispute`: the attacker's share of the BTC hash rate.
pub const ATTACKER_HASHRATE: f64 = 0.3;
/// `chaos_dispute`: honest blocks after which the attacker gives up.
pub const MAX_RACE_BLOCKS: u64 = 24;
/// `chaos_dispute`: the contract's challenge window, s, sized to cover the
/// double-spend race as the program's own attack experiment (E3) and chaos
/// tests size it. The race ends by the [`MAX_RACE_BLOCKS`]th honest block,
/// and honest blocks arrive every 600 s / 0.7 ≈ 857 s on average, so a race
/// averages 5.7 h and outlasts 16 h with probability below 1e-9. Under
/// `SessionConfig::default()`'s 1 h window, the ~5 % of operations whose
/// attacker wins after the first hour end in the contract's `challenge
/// window has expired` revert instead of a judgment.
pub const CHAOS_CHALLENGE_WINDOW_SECS: u64 = 16 * 3600;
/// `chaos_dispute`: the fault plan's horizon on the transport clock, s.
pub const CHAOS_HORIZON_SECS: u64 = 5;
/// `chaos_dispute`: transmissions per message before the transport gives
/// up.
pub const CHAOS_MAX_ATTEMPTS: u32 = 12;

/// The seed of the warm-up operation every set-up runs. Fixed, so set-up
/// does the same work whatever the workload seed.
pub const WARMUP_SEED: u64 = 0x5EED_BE7C;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, long sessions on two engine shards.
    Steady,
    /// Open-loop Poisson arrivals with bounded admission.
    OpenLoop,
    /// One fresh chaos session and double-spend dispute per operation.
    ChaosDispute,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::OpenLoop, Workload::ChaosDispute];
    /// The workloads `BENCHMARK.json` lists, in its order. `open_loop` is
    /// left out: on the shared reference host its `pay_per_s` spread over
    /// ten seeds (0.19–0.28 of the median) reaches the 0.25 bound. It
    /// still runs by name.
    #[cfg(test)]
    pub const LISTED: [Workload; 2] = [Workload::Steady, Workload::ChaosDispute];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::OpenLoop => "open_loop",
            Workload::ChaosDispute => "chaos_dispute",
        }
    }

    /// Threads the workload's timed work runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::Steady => THREADS,
            Workload::OpenLoop | Workload::ChaosDispute => 1,
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `steady` engine.
pub fn steady_engine(payments_per_shard: usize) -> PaymentEngine {
    PaymentEngine::new(EngineConfig {
        session: SessionConfig::default(),
        shards: STEADY_SHARDS,
        payments_per_shard,
        batch_size: STEADY_BATCH,
        amount_sats: AMOUNT_SATS,
        crash_restart_every: STEADY_CRASH_EVERY,
    })
}

/// The `open_loop` engine (`payments_per_shard` is unused by `run_load`).
pub fn open_engine() -> PaymentEngine {
    PaymentEngine::new(EngineConfig {
        session: SessionConfig::eos_flavored(),
        shards: OPEN_SHARDS,
        payments_per_shard: 0,
        batch_size: OPEN_BATCH,
        amount_sats: AMOUNT_SATS,
        crash_restart_every: 0,
    })
}

/// The `open_loop` admission policy.
pub fn open_admission() -> AdmissionConfig {
    AdmissionConfig::bounded(OPEN_CAPACITY, SheddingPolicy::FairPerShard)
}

/// The `open_loop` arrival schedule of `offered` payments for `seed`.
pub fn open_schedule(seed: u64, offered: usize) -> Vec<LoadArrival> {
    LoadGen {
        rate_per_sec: OPEN_RATE_PER_SEC,
        shards: OPEN_SHARDS,
        payments: offered,
    }
    .schedule(seed)
}

/// A splitmix64 finalizer over `(seed, index)`: the engine's per-shard
/// seed derivation, also used for operation seeds, so neighbouring indices
/// get uncorrelated streams.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault plan of one `chaos_dispute` operation: 10% message loss for
/// the whole run plus one crash-restart of a node chosen by the seed, at a
/// seeded instant in the first [`CHAOS_HORIZON_SECS`]·0.8 s of transport
/// time — the span an operation's messages occupy, so the bounce lands
/// while the protocol runs.
pub fn fault_plan(op_seed: u64) -> FaultPlan {
    let spec = ChaosSpec {
        horizon: SimTime::from_secs(CHAOS_HORIZON_SECS),
        loss_rate: 0.1,
        partition_cycles: 0,
        crash_restart_cycles: 1,
        nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
        ..ChaosSpec::default()
    };
    FaultPlan::from_seed(op_seed, &spec)
}

/// The session configuration of every `chaos_dispute` operation: the
/// default with the challenge window set to
/// [`CHAOS_CHALLENGE_WINDOW_SECS`].
pub fn chaos_session_config() -> SessionConfig {
    SessionConfig {
        challenge_window_secs: CHAOS_CHALLENGE_WINDOW_SECS,
        ..SessionConfig::default()
    }
}

/// The chaos knobs of every `chaos_dispute` operation.
pub fn chaos_config() -> ChaosConfig {
    let mut config = ChaosConfig::default();
    config.transport.max_attempts = CHAOS_MAX_ATTEMPTS;
    config
}

/// The generated inputs of one run.
pub enum Inputs {
    /// `steady`: the engine's base seed.
    Steady { seed: u64 },
    /// `open_loop`: the engine's base seed and the arrival schedule.
    OpenLoop {
        seed: u64,
        schedule: Vec<LoadArrival>,
    },
    /// `chaos_dispute`: per operation, its seed and fault plan.
    ChaosDispute { ops: Vec<(u64, FaultPlan)> },
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::Steady => Inputs::Steady { seed },
            Workload::OpenLoop => Inputs::OpenLoop {
                seed,
                schedule: open_schedule(seed, OPEN_OFFERED),
            },
            Workload::ChaosDispute => Inputs::ChaosDispute {
                ops: (0..CHAOS_OPS as u64)
                    .map(|i| {
                        let s = derive_seed(seed, i);
                        (s, fault_plan(s))
                    })
                    .collect(),
            },
        }
    }
}

/// What one pass of a workload produced, in a seed-pure form: two passes
/// with the same seed must compare equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassSummary {
    /// The program's replay fingerprint (for `chaos_dispute`, a hash over
    /// every operation's fingerprint).
    pub fingerprint: Hash256,
    /// Operations offered.
    pub offered: u64,
    /// Operations admitted (offered minus shed).
    pub admitted: u64,
    /// Payments the merchant accepted.
    pub accepted: u64,
    /// Operations that returned an error or that the merchant rejected.
    pub failed: u64,
    /// The accept latency of every accepted payment, simulated µs, sorted.
    pub accept_us: Vec<u64>,
}

/// A pass result that failed an output check.
pub type CheckResult<T> = Result<T, String>;

/// Checks a `steady` report and summarizes it: every payment accepted,
/// every shard's crash drills ran (the engine fails the run itself when a
/// recovered store digest diverges).
pub fn check_steady(report: &EngineReport, payments_per_shard: usize) -> CheckResult<PassSummary> {
    let rounds = payments_per_shard.div_ceil(STEADY_BATCH);
    let drills = (rounds / STEADY_CRASH_EVERY) as u64;
    if report.total_accepted != report.total_payments {
        return Err(format!(
            "steady: {} of {} payments accepted",
            report.total_accepted, report.total_payments
        ));
    }
    for outcome in &report.outcomes {
        if outcome.rejected != 0 || outcome.accepted != payments_per_shard {
            return Err(format!("steady: shard {} rejected payments", outcome.shard));
        }
        if outcome.recoveries != drills {
            return Err(format!(
                "steady: shard {} ran {} crash drills, expected {drills}",
                outcome.shard, outcome.recoveries
            ));
        }
    }
    let accept_us = sorted_micros(report.outcomes.iter().flat_map(|o| &o.accept_latencies));
    check_median(&accept_us, report.accept_latency_quantiles(), "steady")?;
    Ok(PassSummary {
        fingerprint: report.fingerprint,
        offered: report.total_payments as u64,
        admitted: report.total_payments as u64,
        accepted: report.total_accepted as u64,
        failed: 0,
        accept_us,
    })
}

/// Checks an `open_loop` report and summarizes it: served plus shed equals
/// offered, shed payments left no escrow residue, every shard solvent.
pub fn check_open(report: &LoadReport) -> CheckResult<PassSummary> {
    if report.executed + report.shed_count() != report.offered {
        return Err(format!(
            "open_loop: executed {} + shed {} != offered {}",
            report.executed,
            report.shed_count(),
            report.offered
        ));
    }
    if report.escrow_residue() != 0 {
        return Err(format!(
            "open_loop: escrow residue {}",
            report.escrow_residue()
        ));
    }
    if let Some(o) = report
        .outcomes
        .iter()
        .find(|o| o.escrow_locked > o.escrow_balance)
    {
        return Err(format!(
            "open_loop: shard {} locks more than its balance",
            o.shard
        ));
    }
    let rejected: usize = report.outcomes.iter().map(|o| o.rejected).sum();
    let accept_us = sorted_micros(report.outcomes.iter().flat_map(|o| &o.accept_latencies));
    check_median(&accept_us, report.accept_latency_quantiles(), "open_loop")?;
    Ok(PassSummary {
        fingerprint: report.fingerprint,
        offered: report.offered as u64,
        admitted: report.executed as u64,
        accepted: report.total_accepted() as u64,
        failed: rejected as u64,
        accept_us,
    })
}

/// The benchmark's percentile helper must read the same median as the
/// report's own quantiles.
fn check_median(sorted: &[u64], report: Option<(f64, f64)>, what: &str) -> CheckResult<()> {
    let ours = crate::stats::percentile(sorted, 0.5).map(|us| us as f64 / 1e6);
    if ours != report.map(|(p50, _)| p50) {
        return Err(format!(
            "{what}: median {ours:?} disagrees with report {report:?}"
        ));
    }
    Ok(())
}

fn sorted_micros<'a>(
    latencies: impl Iterator<Item = &'a btcfast_netsim::time::SimTime>,
) -> Vec<u64> {
    let mut micros: Vec<u64> = latencies.map(|t| t.as_micros()).collect();
    micros.sort_unstable();
    micros
}

/// One `chaos_dispute` operation's checked outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosOp {
    /// Hash over the operation's report (or error), durable-store digest,
    /// and final chain tips.
    pub fingerprint: Hash256,
    /// Did the merchant accept the payment (per the durable ledger)?
    pub accepted: bool,
    /// Did the call return an error (a phase failure)?
    pub failed: bool,
    /// Point-of-sale wait of the attacked payment, simulated µs (`None`
    /// when the call failed and returned no report).
    pub pos_wait_us: Option<u64>,
    /// Dispute open → verdict, simulated µs, when a dispute reached
    /// judgment.
    pub dispute_us: Option<u64>,
}

/// Builds operation `op_seed`'s chaos session.
pub fn chaos_session(op_seed: u64, plan: FaultPlan) -> ChaosSession {
    ChaosSession::new(chaos_session_config(), chaos_config(), plan, op_seed)
}

/// Runs the double-spend dispute of one operation.
pub fn chaos_dispute(chaos: &mut ChaosSession) -> Result<ChaosDisputeReport, RobustnessError> {
    chaos.run_dispute_chaos(AMOUNT_SATS, ATTACKER_HASHRATE, MAX_RACE_BLOCKS)
}

/// Checks one operation: a dispute that reaches judgment ends
/// `MerchantWins`; every error names its protocol phase; a completed
/// operation's durable ledger holds exactly the accepted value (E13's
/// zero-lost-value check).
pub fn check_chaos_op(
    chaos: &ChaosSession,
    result: &Result<ChaosDisputeReport, RobustnessError>,
) -> CheckResult<ChaosOp> {
    let durable = chaos.recovery().ledger().value_accepted_sats;
    let (pos_wait_us, dispute_us) = match result {
        Ok(report) => {
            if durable != AMOUNT_SATS {
                return Err(format!(
                    "chaos_dispute: durable ledger holds {durable} sats"
                ));
            }
            let judged = report.race.merchant_lost_payment;
            if judged
                && (report.verdict != Some(DisputeVerdict::MerchantWins)
                    || !report.merchant_compensated)
            {
                return Err(format!("chaos_dispute: dispute ended {:?}", report.verdict));
            }
            if !judged && report.verdict.is_some() {
                return Err("chaos_dispute: a judgment without a lost race".into());
            }
            (
                Some(report.payment.waiting.as_micros()),
                judged.then(|| report.dispute_duration.as_micros()),
            )
        }
        Err(e) => {
            if e.phase().is_none() {
                return Err(format!("chaos_dispute: untyped failure: {e}"));
            }
            (None, None)
        }
    };
    let session = &chaos.session;
    let mut bytes = format!("{result:?}").into_bytes();
    bytes.extend_from_slice(&chaos.store_digest().0);
    bytes.extend_from_slice(&session.btc.tip_hash().0);
    bytes.extend_from_slice(&session.psc.state_commitment().0);
    Ok(ChaosOp {
        fingerprint: sha256d(&bytes),
        accepted: durable == AMOUNT_SATS,
        failed: result.is_err(),
        pos_wait_us,
        dispute_us,
    })
}

/// Summarizes a full `chaos_dispute` pass.
pub fn summarize_chaos(ops: &[ChaosOp]) -> PassSummary {
    let mut bytes = Vec::with_capacity(ops.len() * 32);
    for op in ops {
        bytes.extend_from_slice(&op.fingerprint.0);
    }
    let mut accept_us: Vec<u64> = ops.iter().filter_map(|o| o.pos_wait_us).collect();
    accept_us.sort_unstable();
    PassSummary {
        fingerprint: sha256d(&bytes),
        offered: ops.len() as u64,
        admitted: ops.len() as u64,
        accepted: ops.iter().filter(|o| o.accepted).count() as u64,
        failed: ops.iter().filter(|o| o.failed).count() as u64,
        accept_us,
    }
}

/// Host time of one `chaos_dispute` operation.
#[derive(Clone, Copy, Debug)]
pub struct OpTiming {
    /// `ChaosSession::new`.
    pub session_new: Duration,
    /// `ChaosSession::run_dispute_chaos`.
    pub dispute: Duration,
}

impl OpTiming {
    /// The whole operation.
    pub fn total(&self) -> Duration {
        self.session_new + self.dispute
    }
}

/// Runs and checks `chaos_dispute` operation `(op_seed, plan)`, timing
/// only the two program calls.
pub fn run_chaos_op(op_seed: u64, plan: &FaultPlan) -> CheckResult<(ChaosOp, OpTiming)> {
    let start = Instant::now();
    let mut chaos = chaos_session(op_seed, plan.clone());
    let built = Instant::now();
    let result = chaos_dispute(&mut chaos);
    let done = Instant::now();
    let op = check_chaos_op(&chaos, &result)?;
    Ok((
        op,
        OpTiming {
            session_new: built - start,
            dispute: done - built,
        },
    ))
}

/// Runs `f` on a new thread, so it starts with empty thread-local caches
/// (signature validity, public-key tables) as a fresh program run does,
/// instead of reusing what an earlier repetition of the same seed left.
pub fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| scope.spawn(f).join().expect("a benchmark thread panicked"))
}

/// Runs one warm-up operation of `workload` at [`WARMUP_SEED`]: it builds
/// the lazy static tables and thread-local caches a timed operation would
/// otherwise pay for.
pub fn warm_up(workload: Workload, pool: &WorkerPool) -> CheckResult<()> {
    match workload {
        Workload::Steady => {
            let payments = STEADY_BATCH * STEADY_CRASH_EVERY;
            let report = steady_engine(payments)
                .run(WARMUP_SEED, pool)
                .map_err(|e| format!("steady warm-up: {e}"))?;
            check_steady(&report, payments).map(|_| ())
        }
        Workload::OpenLoop => {
            let report = open_engine()
                .run_load(
                    WARMUP_SEED,
                    &open_schedule(WARMUP_SEED, 16),
                    open_admission(),
                )
                .map_err(|e| format!("open_loop warm-up: {e}"))?;
            check_open(&report).map(|_| ())
        }
        Workload::ChaosDispute => {
            let seed = derive_seed(WARMUP_SEED, 0);
            run_chaos_op(seed, &fault_plan(seed)).map(|_| ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedules_are_pure_in_the_seed() {
        let a = open_schedule(17, 200);
        assert_eq!(a, open_schedule(17, 200));
        assert_ne!(a, open_schedule(18, 200));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.shard < OPEN_SHARDS && x.payments == 1));
    }

    #[test]
    fn fault_plans_are_pure_in_the_seed() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let a = fault_plan(derive_seed(seed, 3));
            assert_eq!(a, fault_plan(derive_seed(seed, 3)));
            assert_eq!(
                a.fingerprint(),
                fault_plan(derive_seed(seed, 3)).fingerprint()
            );
            assert_ne!(
                a.fingerprint(),
                fault_plan(derive_seed(seed, 4)).fingerprint()
            );
        }
    }

    #[test]
    fn generated_inputs_are_pure_in_the_seed() {
        let ops = |seed| match Inputs::generate(Workload::ChaosDispute, seed) {
            Inputs::ChaosDispute { ops } => ops,
            _ => unreachable!(),
        };
        let a = ops(5);
        assert_eq!(a.len(), CHAOS_OPS);
        assert_eq!(a, ops(5));
        assert_ne!(a, ops(6));
        let distinct: std::collections::HashSet<u64> = a.iter().map(|(s, _)| *s).collect();
        assert_eq!(distinct.len(), CHAOS_OPS, "operation seeds never repeat");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn a_chaos_operation_replays_identically() {
        let seed = derive_seed(9, 0);
        let (a, _) = run_chaos_op(seed, &fault_plan(seed)).unwrap();
        let (b, _) = run_chaos_op(seed, &fault_plan(seed)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn the_challenge_window_covers_a_race_the_default_window_does_not() {
        let run = |config: SessionConfig, seed: u64| {
            let mut chaos = ChaosSession::new(config, chaos_config(), fault_plan(seed), seed);
            let result = chaos_dispute(&mut chaos);
            (check_chaos_op(&chaos, &result).unwrap(), result)
        };
        let expired = (0..400)
            .map(|i| derive_seed(1, i))
            .find(|&seed| run(SessionConfig::default(), seed).0.failed)
            .expect("some race outlasts the default 1 h window");
        let (op, result) = run(chaos_session_config(), expired);
        assert!(!op.failed, "{result:?}");
        assert!(op.dispute_us.is_some(), "the dispute reaches judgment");
    }
}
