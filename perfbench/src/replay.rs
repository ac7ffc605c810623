//! The traced run: the program runs untraced over the seed, the same seed
//! is replayed through each layer's public calls with a span around every
//! call, and the program runs untraced again (the overhead's baseline is
//! the mean of the two). The replay must end in the program run's exact
//! state — that is what shows the spans time the program's work and not
//! a look-alike. It prints the per-layer metrics.
//!
//! `steady` and `open_loop` open `PaymentEngine::run`/`run_load` and
//! `FastPaySession::run_fast_payment_batch` into their public constituent
//! calls, in the program's order. `chaos_dispute`'s pipeline is private,
//! so its replay spans whole operations (`session_new`, `dispute_op`) and
//! reads the layers' counters around them.

use crate::e2e::set_up;
use crate::metrics::{self, RunResult, Values};
use crate::spans::{durations_ns, write_jsonl, Accounting, Layer, Recorder, Span};
use crate::stats::{mean, percentile};
use crate::workload::{
    chaos_dispute, chaos_session, check_chaos_op, check_open, check_steady, derive_seed,
    on_fresh_thread, open_admission, open_engine, run_chaos_op, steady_engine, summarize_chaos,
    CheckResult, Inputs, OpTiming, Workload, STEADY_PAYMENTS_PER_SHARD,
};
use btcfast::admission::{AdmissionConfig, AdmissionQueue};
use btcfast::engine::{EngineConfig, LoadArrival, ShardLoadOutcome, ShardOutcome};
use btcfast::recovery::{Outcome, RecoveryManager, Step};
use btcfast::session::{FastPayReport, FastPaySession};
use btcfast_btcsim::transaction::Transaction;
use btcfast_btcsim::Amount;
use btcfast_crypto::batch::BatchItem;
use btcfast_crypto::WorkerPool;
use btcfast_netsim::time::SimTime;
use btcfast_payjudger::PayJudgerClient;
use btcfast_store::MemStorage;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// XOR salt of a session's batch-verification seed stream
/// (`FastPaySession`'s `batch_seed`).
const BATCH_SEED_SALT: u64 = 0xBA7C_5EED_0F5E_C256;

/// Span id of payment `seq` of `shard`: all spans of one payment share it.
fn payment_id(shard: usize, seq: usize) -> u64 {
    ((shard as u64) << 32) | seq as u64
}

/// Span id of service round `round` of `shard`, for the spans a whole
/// batch shares (registration block, batch verification, mining).
fn round_id(shard: usize, round: usize) -> u64 {
    (1 << 63) | ((shard as u64) << 32) | round as u64
}

/// Layer counters read around the replayed calls. Sizes are per session
/// (mean over the replay's sessions); events are totals.
#[derive(Default)]
struct Counters {
    sessions: u64,
    accepted: u64,
    btc_blocks: u64,
    utxo_entries: u64,
    psc_blocks: u64,
    psc_empty_blocks: u64,
    psc_gas: u64,
    batch_items: u64,
    batch_bisections: u64,
    headers_verified: u64,
    segment_hits: u64,
    segment_lookups: u64,
    pubkey_hits: u64,
    pubkey_lookups: u64,
    wal_bytes: u64,
    recoveries: u64,
    trace_events: u64,
    trace_dropped: u64,
    admission_offered: u64,
    admission_shed: u64,
    queue_depth_max: u64,
    net_sent: u64,
    net_retransmissions: u64,
    net_failed: u64,
    net_delivered: u64,
    backoff_wait_us: u64,
    dispute_gas: Vec<f64>,
}

impl Counters {
    /// Folds in one finished session: `btc_from`/`psc_from` are its chain
    /// heights right after provisioning.
    fn session(
        &mut self,
        session: &FastPaySession,
        recovery: Option<&RecoveryManager<MemStorage>>,
        btc_from: u64,
        psc_from: u64,
        trace_events: usize,
    ) {
        self.sessions += 1;
        self.btc_blocks += session.btc.height() - btc_from;
        self.utxo_entries += session.btc.utxo().len() as u64;
        let psc_to = session.psc.height();
        self.psc_blocks += psc_to - psc_from;
        self.psc_empty_blocks += (psc_from + 1..=psc_to)
            .filter(|&n| session.psc.block(n).is_some_and(|b| b.tx_hashes.is_empty()))
            .count() as u64;
        self.psc_gas += session.psc.total_gas_used();
        let cache = session.verifier().cache_stats();
        self.headers_verified += cache.headers_verified;
        self.segment_hits += cache.full_hits + cache.prefix_hits;
        self.segment_lookups += cache.full_hits + cache.prefix_hits + cache.misses;
        let batch = session.verifier().sig_batch_stats();
        self.batch_items += batch.items;
        self.batch_bisections += batch.bisections;
        self.wal_bytes += recovery.map_or(0, |r| r.wal_medium().bytes().len() as u64);
        self.trace_events += trace_events as u64;
        self.trace_dropped += session.trace_dropped();
    }

    /// Folds in this thread's public-key table cache counters since
    /// `before`.
    fn pubkey_cache_since(&mut self, before: (u64, u64)) {
        let after = btcfast_crypto::ecdsa::pubkey_cache_stats();
        self.pubkey_hits += after.hits - before.0;
        self.pubkey_lookups += after.hits + after.misses - before.0 - before.1;
    }

    fn absorb(&mut self, other: Counters) {
        macro_rules! add {
            ($($field:ident),*) => { $(self.$field += other.$field;)* };
        }
        add!(
            sessions,
            accepted,
            btc_blocks,
            utxo_entries,
            psc_blocks,
            psc_empty_blocks,
            psc_gas,
            batch_items,
            batch_bisections,
            headers_verified,
            segment_hits,
            segment_lookups,
            pubkey_hits,
            pubkey_lookups,
            wal_bytes,
            recoveries,
            trace_events,
            trace_dropped,
            admission_offered,
            admission_shed,
            net_sent,
            net_retransmissions,
            net_failed,
            net_delivered,
            backoff_wait_us
        );
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.dispute_gas.extend(other.dispute_gas);
    }
}

fn pubkey_cache_now() -> (u64, u64) {
    let stats = btcfast_crypto::ecdsa::pubkey_cache_stats();
    (stats.hits, stats.misses)
}

/// What a traced run measured.
struct Traced {
    /// Span forests, one per thread.
    threads: Vec<Vec<Span>>,
    counters: Counters,
    /// Wall time of the untraced program (the mean of the runs before and
    /// after the replay; on `chaos_dispute`, summed over operations).
    untraced: Duration,
    /// Wall time of the traced replay (summed over operations likewise).
    traced: Duration,
    /// Chaos only: per-operation host times of the untraced runs and the
    /// simulated durations of judged disputes, µs.
    chaos: Option<(Vec<OpTiming>, Vec<u64>)>,
    attempted: u64,
    failed: u64,
}

/// Runs `workload`'s traced run and returns its per-layer metrics.
pub fn run(workload: Workload, seed: u64) -> CheckResult<RunResult> {
    let (pool, inputs) = set_up(workload, seed)?;
    let traced = match &inputs {
        Inputs::Steady { seed } => steady(*seed, STEADY_PAYMENTS_PER_SHARD, &pool)?,
        Inputs::OpenLoop { seed, schedule } => open_loop(*seed, schedule)?,
        Inputs::ChaosDispute { ops } => chaos(ops)?,
    };
    let result = per_layer_metrics(&traced)?;
    write_spans(workload, &traced.threads)?;
    Ok(result)
}

/// Where a traced run writes its spans.
pub const SPANS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Writes the run's spans to `SPANS_DIR/spans-<workload>.jsonl` (the
/// latest traced run of each workload), after everything was measured.
fn write_spans(workload: Workload, threads: &[Vec<Span>]) -> CheckResult<()> {
    let path = format!("{SPANS_DIR}/spans-{}.jsonl", workload.name());
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(SPANS_DIR)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write_jsonl(threads, &mut out)?;
        std::io::Write::flush(&mut out)
    };
    write().map_err(|e| format!("writing {path}: {e}"))
}

/// `steady`: the program's `PaymentEngine::run`, then its shards replayed
/// on the same pool (one shard a thread, as the program runs them).
fn steady(seed: u64, payments_per_shard: usize, pool: &WorkerPool) -> CheckResult<Traced> {
    let engine = steady_engine(payments_per_shard);
    let untraced_pass = || -> CheckResult<_> {
        let start = Instant::now();
        let report = engine.run(seed, pool).map_err(|e| format!("steady: {e}"))?;
        Ok((report, start.elapsed()))
    };
    let (report, before) = untraced_pass()?;
    let summary = check_steady(&report, payments_per_shard)?;

    let epoch = Instant::now();
    let shards: Vec<usize> = (0..engine.config().shards).collect();
    let replays = pool.map_coarse(&shards, |&shard| {
        replay_shard(
            engine.config(),
            shard,
            derive_seed(seed, shard as u64),
            epoch,
        )
    });
    let traced = epoch.elapsed();
    let (again, after) = untraced_pass()?;
    if again.fingerprint != report.fingerprint {
        return Err("steady: a repetition of the seed diverged".into());
    }

    let mut threads = Vec::new();
    let mut counters = Counters::default();
    for (replay, program) in replays.into_iter().zip(&report.outcomes) {
        let (outcome, spans, shard_counters) = replay?;
        check_same_shard(&outcome, program)?;
        threads.push(spans);
        counters.absorb(shard_counters);
    }
    Ok(Traced {
        threads,
        counters,
        untraced: (before + after) / 2,
        traced,
        chaos: None,
        attempted: summary.offered,
        failed: summary.failed,
    })
}

/// Names the first observable on which a replayed shard differs from the
/// program's.
fn check_same_shard(replay: &ShardOutcome, program: &ShardOutcome) -> CheckResult<()> {
    if replay == program {
        return Ok(());
    }
    let field = if replay.seed != program.seed {
        "seed"
    } else if replay.accepted != program.accepted || replay.rejected != program.rejected {
        "accepted count"
    } else if replay.accept_latencies != program.accept_latencies {
        "accept latencies"
    } else if replay.psc_commitment != program.psc_commitment {
        "psc_commitment"
    } else if replay.btc_tip != program.btc_tip {
        "btc_tip"
    } else if replay.store_digest != program.store_digest {
        "store digest"
    } else if replay.trace_jsonl != program.trace_jsonl {
        "sim-time trace"
    } else {
        "recoveries"
    };
    Err(format!(
        "shard {}: the traced replay diverged from the program run ({field})",
        program.shard
    ))
}

/// One `steady` shard, as `engine::run_shard` drives it.
fn replay_shard(
    config: &EngineConfig,
    shard: usize,
    seed: u64,
    epoch: Instant,
) -> CheckResult<(ShardOutcome, Vec<Span>, Counters)> {
    let mut rec = Recorder::new(epoch);
    let mut counters = Counters::default();
    let pubkeys = pubkey_cache_now();
    rec.enter(Layer::Bench, "bench.shard");

    let mut session_config = config.session.clone();
    let per_payment = session_config.required_collateral(config.amount_sats);
    let whole_run = per_payment.saturating_mul(config.payments_per_shard as u128 + 1);
    session_config.escrow_deposit = session_config.escrow_deposit.max(whole_run);
    let mut session = rec.span(Layer::Core, "core.session_new", || {
        FastPaySession::new(session_config, seed)
    });
    let (btc_from, psc_from) = (session.btc.height(), session.psc.height());
    let batch = config.batch_size.max(1);
    rec.span(Layer::Core, "core.fund_coins", || {
        session.fund_customer_coins(batch)
    })
    .map_err(|e| format!("steady replay: {e}"))?;

    let wal_medium = MemStorage::new();
    let snap_medium = MemStorage::new();
    let (mut recovery, _) = rec
        .span(Layer::Store, "store.open", || {
            RecoveryManager::open(wal_medium.clone(), snap_medium.clone())
        })
        .map_err(|e| format!("steady replay store: {e}"))?;
    let mut recoveries = 0u64;
    let mut batch_seed = seed ^ BATCH_SEED_SALT;

    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut accept_latencies = Vec::with_capacity(config.payments_per_shard);
    let mut remaining = config.payments_per_shard;
    let mut batches = 0usize;
    while remaining > 0 {
        let k = remaining.min(batch);
        let first = config.payments_per_shard - remaining;
        rec.set_id(round_id(shard, batches));
        rec.enter(Layer::Core, "core.round");
        rec.span(Layer::Obs, "obs.trace", || {
            session.trace_point(
                "engine.batch",
                vec![
                    ("shard", shard.into()),
                    ("size", k.into()),
                    ("queued", remaining.into()),
                ],
            )
        });
        let amounts = vec![config.amount_sats; k];
        let ids: Vec<u64> = (first..first + k)
            .map(|seq| payment_id(shard, seq))
            .collect();
        let reports = replay_batch(
            &mut session,
            &amounts,
            &mut batch_seed,
            &mut rec,
            &ids,
            round_id(shard, batches),
            commitment_probe(first, config.payments_per_shard),
        )?;
        for (report, &id) in reports.iter().zip(&ids) {
            rec.set_id(id);
            journal(
                &mut rec,
                &mut recovery,
                Step::OpenPayment {
                    txid: report.txid,
                    amount_sats: config.amount_sats,
                    collateral: per_payment,
                    psc_nonce: report.payment_id,
                },
                Outcome::PaymentRegistered {
                    payment_id: report.payment_id,
                },
            )?;
            journal(
                &mut rec,
                &mut recovery,
                Step::AcceptanceSend {
                    payment_id: report.payment_id,
                    accepted: report.accepted,
                },
                if report.accepted {
                    Outcome::Applied
                } else {
                    Outcome::Rejected
                },
            )?;
            if report.accepted {
                journal(
                    &mut rec,
                    &mut recovery,
                    Step::Broadcast {
                        payment_id: report.payment_id,
                        txid: report.txid,
                    },
                    Outcome::Applied,
                )?;
                accepted += 1;
                accept_latencies.push(report.waiting);
            } else {
                rejected += 1;
            }
        }
        rec.set_id(round_id(shard, batches));
        rec.span(Layer::Btcsim, "btcsim.block", || {
            session.mine_public_block()
        })
        .map_err(|e| format!("steady replay: {e}"))?;
        rec.exit();
        remaining -= k;
        batches += 1;

        if batches.is_multiple_of(2) {
            rec.span(Layer::Store, "store.checkpoint", || recovery.checkpoint())
                .map_err(|e| format!("steady replay store: {e}"))?;
        }
        if config.crash_restart_every > 0 && batches.is_multiple_of(config.crash_restart_every) {
            let digest_before = recovery.digest();
            drop(recovery);
            let (restored, report) = rec
                .span(Layer::Store, "store.recover", || {
                    RecoveryManager::open(wal_medium.clone(), snap_medium.clone())
                })
                .map_err(|e| format!("steady replay store: {e}"))?;
            if restored.digest() != digest_before {
                return Err(format!(
                    "steady replay: shard {shard} recovered a different digest"
                ));
            }
            recovery = restored;
            recoveries += 1;
            rec.span(Layer::Obs, "obs.trace", || {
                session.trace_point(
                    "recovery.restart",
                    vec![
                        ("shard", shard.into()),
                        ("replayed", report.replayed_records.into()),
                        ("snapshot", report.snapshot_used.into()),
                    ],
                )
            });
        }
    }

    let trace_events = session.trace().len();
    let trace_jsonl = rec.span(Layer::Obs, "obs.render", || {
        btcfast_obs::render_jsonl(&session.take_trace())
    });
    let psc_commitment = rec.span(Layer::Pscsim, "pscsim.final_commitment", || {
        session.psc.state_commitment()
    });
    rec.exit();

    // The engine's escrow invariant: every registered payment locks its
    // collateral, nothing else does.
    let escrow = session
        .judger
        .escrow(&session.psc, session.customer.psc_account())
        .map_err(|e| format!("steady replay escrow view: {e}"))?;
    let expected_locked = per_payment.saturating_mul(config.payments_per_shard as u128);
    if escrow.locked != expected_locked || escrow.locked > escrow.balance {
        return Err(format!(
            "steady: shard {shard} escrow locks {} of {}, expected {expected_locked}",
            escrow.locked, escrow.balance
        ));
    }
    counters.session(&session, Some(&recovery), btc_from, psc_from, trace_events);
    counters.accepted += accepted as u64;
    counters.recoveries += recoveries;
    counters.pubkey_cache_since(pubkeys);
    let outcome = ShardOutcome {
        shard,
        seed,
        accepted,
        rejected,
        accept_latencies,
        psc_commitment,
        btc_tip: session.btc.tip_hash(),
        trace_jsonl,
        store_digest: recovery.digest(),
        recoveries,
    };
    Ok((outcome, rec.finish(), counters))
}

/// The commitment probe of a round whose first payment is `first` of a
/// shard's `total`: rounds starting in the first or the last tenth are
/// probed.
fn commitment_probe(first: usize, total: usize) -> Option<&'static str> {
    let tenth = total.div_ceil(10);
    if first < tenth {
        Some("pscsim.commitment_first")
    } else if first + tenth >= total {
        Some("pscsim.commitment_last")
    } else {
        None
    }
}

/// Journals one step (`RecoveryManager::begin` + `complete`).
fn journal(
    rec: &mut Recorder,
    recovery: &mut RecoveryManager<MemStorage>,
    step: Step,
    outcome: Outcome,
) -> CheckResult<()> {
    rec.span(Layer::Store, "store.journal", || {
        let intent = recovery.begin(step)?;
        recovery.complete(intent, outcome)
    })
    .map_err(|e| format!("replay journal: {e}"))
}

/// `FastPaySession::run_fast_payment_batch`, call for call: disjoint BTC
/// payments, K registrations in one PSC block, batch signature
/// pre-verification, then the point-of-sale exchange one offer at a time.
/// `ids` are the payments' span ids, `round` the batch's. `probe` names
/// the span that times a separate `state_commitment` call on the
/// post-block state, when this round is probed.
fn replay_batch(
    session: &mut FastPaySession,
    amounts: &[u64],
    batch_seed: &mut u64,
    rec: &mut Recorder,
    ids: &[u64],
    round: u64,
    probe: Option<&'static str>,
) -> CheckResult<Vec<FastPayReport>> {
    let btc_err = |e: String| format!("replay batch: {e}");
    let fee = Amount::from_sats(session.config.btc_fee_sats).map_err(|e| btc_err(e.to_string()))?;

    let mut exclude = HashSet::new();
    let mut txs = Vec::with_capacity(amounts.len());
    for (&amount_sats, &id) in amounts.iter().zip(ids) {
        rec.set_id(id);
        let amount = Amount::from_sats(amount_sats).map_err(|e| btc_err(e.to_string()))?;
        let tx = rec
            .span(Layer::Btcsim, "btcsim.tx_build", || {
                session.customer.build_btc_payment_excluding(
                    &session.btc,
                    session.merchant.btc_wallet().address(),
                    amount,
                    fee,
                    None,
                    &exclude,
                )
            })
            .map_err(|e| btc_err(e.to_string()))?;
        for input in &tx.inputs {
            exclude.insert(input.previous_output);
        }
        txs.push(tx);
    }

    let registration_start = session.clock;
    let nonce_base = session.psc.nonce_of(&session.customer.psc_account());
    let mut hashes = Vec::with_capacity(txs.len());
    for (i, tx) in txs.iter().enumerate() {
        rec.set_id(ids[i]);
        let collateral = session.config.required_collateral(amounts[i]);
        let open = rec.span(Layer::Payjudger, "payjudger.open_build", || {
            session.customer.build_open_payment_at(
                &session.judger,
                nonce_base + i as u64,
                session.merchant.psc_account(),
                tx.txid(),
                amounts[i],
                collateral,
            )
        });
        let hash = rec
            .span(Layer::Pscsim, "pscsim.submit", || {
                session.psc.submit_transaction(open)
            })
            .map_err(|e| btc_err(format!("registration refused: {e}")))?;
        hashes.push(hash);
    }
    rec.set_id(round);
    session.clock += SimTime::from_secs_f64(session.config.psc_params.block_interval_secs);
    let t = session.clock.as_secs().max(session.psc.tip_time() + 1);
    rec.span(Layer::Pscsim, "pscsim.block", || {
        session.psc.produce_block(t);
    });
    if let Some(name) = probe {
        rec.span(Layer::Probe, name, || session.psc.state_commitment());
    }
    let registration = session.clock - registration_start;
    rec.span(Layer::Obs, "obs.trace", || {
        session.trace_span_from(
            "session.register",
            registration_start,
            vec![("batch", txs.len().into())],
        )
    });
    if session.config.batch_verify {
        preverify(session, &txs, batch_seed, rec);
    }

    let latency = session.config.latency;
    let mut reports = Vec::with_capacity(txs.len());
    for (i, tx) in txs.into_iter().enumerate() {
        rec.set_id(ids[i]);
        let receipt = rec
            .span(Layer::Pscsim, "pscsim.receipt", || {
                session.psc.receipt(&hashes[i]).cloned()
            })
            .ok_or_else(|| btc_err("registration receipt missing".into()))?;
        if !receipt.status.is_success() {
            return Err(btc_err(format!(
                "registration {i} failed: {:?}",
                receipt.status
            )));
        }
        let payment_id = rec
            .span(Layer::Payjudger, "payjudger.payment_id", || {
                PayJudgerClient::payment_id_from(&receipt)
            })
            .ok_or_else(|| btc_err("registration carried no payment id".into()))?;
        let txid = tx.txid();
        let offer = rec.span(Layer::Core, "core.make_offer", || {
            session
                .customer
                .make_offer(tx.clone(), payment_id, amounts[i])
        });

        let wait_start = session.clock;
        let (root, accept_ctx) = rec.span(Layer::Obs, "obs.trace", || {
            let root = session.mint_trace_root();
            (root, session.trace_child(&root))
        });
        let delivery = rec.span(Layer::Netsim, "netsim.latency", || {
            latency.sample(session.rng())
        });
        session.clock += delivery;
        rec.span(Layer::Obs, "obs.trace", || {
            let ctx = session.trace_child(&accept_ctx);
            session.trace_span_from_ctx(
                "session.offer_delivery",
                ctx,
                wait_start,
                vec![("payment", payment_id.into())],
            )
        });
        let verify_start = session.clock;
        let decision = rec.span(Layer::Core, "core.evaluate_offer", || {
            session.merchant.evaluate_offer(
                &offer,
                &session.btc,
                &session.mempool,
                &session.psc,
                &session.judger,
            )
        });
        session.clock += SimTime::from_secs_f64(session.config.verify_secs);
        rec.span(Layer::Obs, "obs.trace", || {
            let ctx = session.trace_child(&accept_ctx);
            session.trace_span_from_ctx(
                "session.merchant_verify",
                ctx,
                verify_start,
                vec![
                    ("payment", payment_id.into()),
                    ("ok", decision.is_ok().into()),
                ],
            )
        });
        let response_start = session.clock;
        let response = rec.span(Layer::Netsim, "netsim.latency", || {
            latency.sample(session.rng())
        });
        session.clock += response;
        rec.span(Layer::Obs, "obs.trace", || {
            let ctx = session.trace_child(&accept_ctx);
            session.trace_span_from_ctx(
                "session.acceptance_delivery",
                ctx,
                response_start,
                vec![("payment", payment_id.into())],
            )
        });
        let waiting = session.clock - wait_start;

        let (accepted, reject) = match decision {
            Ok(_) => {
                let height = session.btc.height() + 1;
                let now = session.clock.as_secs();
                rec.span(Layer::Btcsim, "btcsim.mempool_insert", || {
                    session.mempool.insert(tx, session.btc.utxo(), height, now)
                })
                .map_err(|e| btc_err(e.to_string()))?;
                rec.span(Layer::Obs, "obs.trace", || {
                    let ctx = session.trace_child(&accept_ctx);
                    let pool = session.mempool.len();
                    session.trace_point_ctx(
                        "session.broadcast",
                        ctx,
                        vec![("payment", payment_id.into()), ("pool", pool.into())],
                    )
                });
                (true, None)
            }
            Err(reason) => (false, Some(reason)),
        };
        rec.span(Layer::Obs, "obs.trace", || {
            session.trace_span_from_ctx(
                "session.accept",
                accept_ctx,
                wait_start,
                vec![
                    ("payment", payment_id.into()),
                    ("accepted", accepted.into()),
                ],
            );
            session.trace_span_from_ctx(
                "session.payment",
                root,
                wait_start,
                vec![
                    ("payment", payment_id.into()),
                    ("accepted", accepted.into()),
                ],
            )
        });
        reports.push(FastPayReport {
            waiting,
            accepted_at: session.clock,
            registration,
            end_to_end: waiting + registration,
            accepted,
            reject,
            txid,
            payment_id,
            registration_gas: receipt.gas_used,
        });
    }
    Ok(reports)
}

/// The session's batch signature pre-verification: every payment
/// signature checked at once through the merchant's verifier, then the
/// fully valid transactions primed in this thread's signature cache.
fn preverify(
    session: &FastPaySession,
    txs: &[Transaction],
    batch_seed: &mut u64,
    rec: &mut Recorder,
) {
    let mut items = Vec::new();
    let mut spans = Vec::with_capacity(txs.len());
    rec.enter(Layer::Btcsim, "btcsim.sig_statements");
    for tx in txs {
        let Some(scripts) = session.btc.utxo().spent_scripts(tx) else {
            continue;
        };
        let Ok(statements) = tx.signature_statements(&scripts) else {
            continue;
        };
        let start = items.len();
        items.extend(statements.iter().map(|s| BatchItem {
            pubkey: *s.pubkey.point(),
            digest: s.sighash,
            signature: s.signature,
            recovery: s.recovery,
        }));
        spans.push((tx, scripts, start..items.len()));
    }
    rec.exit();
    if items.is_empty() {
        return;
    }
    *batch_seed = batch_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let outcome = rec.span(Layer::Payjudger, "payjudger.batch_verify", || {
        session
            .verifier()
            .verify_signature_batch(&items, *batch_seed)
    });
    rec.span(Layer::Btcsim, "btcsim.prime_sig_cache", || {
        for (tx, scripts, range) in spans {
            if !outcome.invalid.iter().any(|&i| range.contains(&i)) {
                btcfast_btcsim::utxo::prime_sig_cache(tx, &scripts);
            }
        }
    });
}

/// One `open_loop` shard server of the replayed event loop.
struct Server {
    session: FastPaySession,
    start: SimTime,
    busy_until: Option<SimTime>,
    batch_seed: u64,
    btc_from: u64,
    psc_from: u64,
    rounds: usize,
    served: usize,
    /// Payments the program run served on this shard: probes cover the
    /// first and last tenth of them.
    expected: usize,
    executed: usize,
    accepted: usize,
    rejected: usize,
    latencies: Vec<SimTime>,
}

/// `open_loop`: the program's `PaymentEngine::run_load`, then its
/// discrete-event loop replayed on one thread, as the program runs it.
fn open_loop(seed: u64, schedule: &[LoadArrival]) -> CheckResult<Traced> {
    let engine = open_engine();
    let admission = open_admission();
    let untraced_pass = || -> CheckResult<_> {
        let (report, wall) = on_fresh_thread(|| {
            let start = Instant::now();
            let report = engine.run_load(seed, schedule, admission);
            (report, start.elapsed())
        });
        Ok((report.map_err(|e| format!("open_loop: {e}"))?, wall))
    };
    let (report, before) = untraced_pass()?;
    let summary = check_open(&report)?;

    let expected: Vec<usize> = report.outcomes.iter().map(|o| o.executed).collect();
    let (replayed, traced) = on_fresh_thread(|| {
        let epoch = Instant::now();
        let pubkeys = pubkey_cache_now();
        let mut rec = Recorder::new(epoch);
        rec.enter(Layer::Bench, "bench.load");
        let replayed = replay_load(
            engine.config(),
            seed,
            schedule,
            admission,
            &expected,
            &mut rec,
        );
        rec.exit();
        let traced = epoch.elapsed();
        let replayed = replayed.map(|(outcomes, shed, makespan, mut counters)| {
            counters.pubkey_cache_since(pubkeys);
            (outcomes, shed, makespan, counters, rec.finish())
        });
        (replayed, traced)
    });
    let (outcomes, shed, makespan, counters, spans) = replayed?;
    let (again, after) = untraced_pass()?;
    if again.fingerprint != report.fingerprint {
        return Err("open_loop: a repetition of the seed diverged".into());
    }

    if outcomes.len() != report.outcomes.len() {
        return Err("open_loop: the replay served a different shard count".into());
    }
    for (replay, program) in outcomes.iter().zip(&report.outcomes) {
        if replay != program {
            return Err(format!(
                "open_loop: shard {}: the traced replay diverged from the program run",
                program.shard
            ));
        }
    }
    if shed != report.shed || makespan != report.makespan {
        return Err("open_loop: the replay shed or finished differently".into());
    }
    Ok(Traced {
        threads: vec![spans],
        counters,
        untraced: (before + after) / 2,
        traced,
        chaos: None,
        attempted: summary.offered,
        failed: summary.failed,
    })
}

/// `PaymentEngine::run_load`'s provisioning and event loop, call for call.
#[allow(clippy::type_complexity)]
fn replay_load(
    config: &EngineConfig,
    seed: u64,
    schedule: &[LoadArrival],
    admission: AdmissionConfig,
    expected: &[usize],
    rec: &mut Recorder,
) -> CheckResult<(
    Vec<ShardLoadOutcome>,
    Vec<btcfast::admission::Ticket>,
    SimTime,
    Counters,
)> {
    let shards = config.shards;
    let mut offered = vec![0usize; shards];
    for arrival in schedule {
        offered[arrival.shard] += arrival.payments;
    }
    let per_payment = config.session.required_collateral(config.amount_sats);
    let mut servers = Vec::with_capacity(shards);
    for (shard, &shard_offered) in offered.iter().enumerate() {
        let mut session_config = config.session.clone();
        let worst_case = per_payment.saturating_mul(shard_offered as u128 + 1);
        session_config.escrow_deposit = session_config.escrow_deposit.max(worst_case);
        let shard_seed = derive_seed(seed, shard as u64);
        let mut session = rec.span(Layer::Core, "core.session_new", || {
            FastPaySession::new(session_config, shard_seed)
        });
        let (btc_from, psc_from) = (session.btc.height(), session.psc.height());
        rec.span(Layer::Core, "core.fund_coins", || {
            session.fund_customer_coins(config.batch_size.max(1))
        })
        .map_err(|e| format!("open_loop replay: {e}"))?;
        let start = session.clock;
        servers.push(Server {
            session,
            start,
            busy_until: None,
            batch_seed: shard_seed ^ BATCH_SEED_SALT,
            btc_from,
            psc_from,
            rounds: 0,
            served: 0,
            expected: expected.get(shard).copied().unwrap_or(0),
            executed: 0,
            accepted: 0,
            rejected: 0,
            latencies: Vec::new(),
        });
    }

    let mut queue = AdmissionQueue::new(shards, admission);
    let mut next_arrival = 0usize;
    loop {
        let next_done = servers
            .iter()
            .enumerate()
            .filter_map(|(shard, server)| server.busy_until.map(|t| (t, shard)))
            .min();
        let arrival = schedule.get(next_arrival);
        let completion_first = match (next_done, arrival) {
            (None, None) => break,
            (Some((done, _)), Some(a)) => done <= a.at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if completion_first {
            let (done, shard) = next_done.expect("completion_first implies a busy server");
            servers[shard].busy_until = None;
            serve(config, shard, done, &mut servers[shard], &mut queue, rec)?;
        } else {
            let arrival = *arrival.expect("otherwise the loop broke");
            next_arrival += 1;
            rec.span(Layer::Core, "core.admission", || {
                for _ in 0..arrival.payments {
                    let _ = queue.offer(arrival.shard, arrival.at, config.amount_sats);
                }
            });
            if servers[arrival.shard].busy_until.is_none() {
                serve(
                    config,
                    arrival.shard,
                    arrival.at,
                    &mut servers[arrival.shard],
                    &mut queue,
                    rec,
                )?;
            }
        }
    }

    let mut counters = Counters::default();
    let mut outcomes = Vec::with_capacity(shards);
    let mut makespan = SimTime::ZERO;
    for (shard, server) in servers.iter().enumerate() {
        let session = &server.session;
        let record = rec
            .span(Layer::Payjudger, "payjudger.escrow_view", || {
                session
                    .judger
                    .escrow(&session.psc, session.customer.psc_account())
            })
            .map_err(|e| format!("open_loop replay escrow view: {e}"))?;
        makespan = makespan.max(session.clock - server.start);
        let psc_commitment = rec.span(Layer::Pscsim, "pscsim.final_commitment", || {
            session.psc.state_commitment()
        });
        outcomes.push(ShardLoadOutcome {
            shard,
            seed: derive_seed(seed, shard as u64),
            offered: offered[shard],
            executed: server.executed,
            accepted: server.accepted,
            rejected: server.rejected,
            admission: queue.stats()[shard],
            accept_latencies: server.latencies.clone(),
            psc_commitment,
            btc_tip: session.btc.tip_hash(),
            escrow_locked: record.locked,
            escrow_balance: record.balance,
            expected_locked: per_payment.saturating_mul(server.executed as u128),
        });
    }
    for server in &servers {
        counters.session(
            &server.session,
            None,
            server.btc_from,
            server.psc_from,
            server.session.trace().len(),
        );
        counters.accepted += server.accepted as u64;
    }
    counters.admission_offered = offered.iter().sum::<usize>() as u64;
    counters.admission_shed = queue.shed_log().len() as u64;
    counters.queue_depth_max = queue
        .stats()
        .iter()
        .map(|s| s.high_water as u64)
        .max()
        .unwrap_or(0);
    Ok((outcomes, queue.shed_log().to_vec(), makespan, counters))
}

/// `engine::serve_shard`: pop up to a batch of tickets, advance the
/// shard's clock across the idle gap, serve the batch, mine its block.
fn serve(
    config: &EngineConfig,
    shard: usize,
    now: SimTime,
    server: &mut Server,
    queue: &mut AdmissionQueue,
    rec: &mut Recorder,
) -> CheckResult<()> {
    let batch = config.batch_size.max(1);
    let tickets = rec.span(Layer::Core, "core.admission", || {
        let mut tickets = Vec::with_capacity(batch);
        while tickets.len() < batch {
            match queue.pop(shard) {
                Some(ticket) => tickets.push(ticket),
                None => break,
            }
        }
        tickets
    });
    if tickets.is_empty() {
        return Ok(());
    }
    let round = round_id(shard, server.rounds);
    server.rounds += 1;
    rec.set_id(round);

    let target = server.start + now;
    if target > server.session.clock {
        let delta = target - server.session.clock;
        idle_advance(&mut server.session, delta, rec);
    }
    rec.enter(Layer::Core, "core.round");
    rec.span(Layer::Obs, "obs.trace", || {
        server.session.trace_point(
            "engine.load_serve",
            vec![
                ("shard", shard.into()),
                ("batch", tickets.len().into()),
                ("queued", queue.shard_depth(shard).into()),
            ],
        )
    });
    let amounts: Vec<u64> = tickets.iter().map(|t| t.amount_sats).collect();
    let first = server.served;
    let ids: Vec<u64> = (first..first + tickets.len())
        .map(|seq| payment_id(shard, seq))
        .collect();
    server.served += tickets.len();
    let reports = replay_batch(
        &mut server.session,
        &amounts,
        &mut server.batch_seed,
        rec,
        &ids,
        round,
        commitment_probe(first, server.expected),
    )?;
    rec.set_id(round);
    rec.span(Layer::Btcsim, "btcsim.block", || {
        server.session.mine_public_block()
    })
    .map_err(|e| format!("open_loop replay: {e}"))?;
    rec.exit();

    for (ticket, report) in tickets.iter().zip(&reports) {
        server.executed += 1;
        if report.accepted {
            server.accepted += 1;
            let completion = report.accepted_at - server.start;
            server
                .latencies
                .push(completion.saturating_sub(ticket.arrival));
        } else {
            server.rejected += 1;
        }
    }
    server.busy_until = Some(server.session.clock - server.start);
    Ok(())
}

/// `FastPaySession::advance_clock`: the clock jumps the idle gap and the
/// PSC chain produces every block that falls inside it.
fn idle_advance(session: &mut FastPaySession, delta: SimTime, rec: &mut Recorder) {
    rec.enter(Layer::Core, "core.idle_advance");
    session.clock += delta;
    let t_secs = session.clock.as_secs();
    let interval = session.config.psc_params.block_interval_secs.max(0.001);
    while session.psc.tip_time() as f64 + interval <= t_secs as f64 {
        let next = (session.psc.tip_time() as f64 + interval).ceil() as u64;
        let time = next.max(session.psc.tip_time() + 1);
        rec.span(Layer::Pscsim, "pscsim.idle_block", || {
            session.psc.produce_block(time);
        });
    }
    rec.exit();
}

/// `chaos_dispute`: every operation runs untraced and then traced, each on
/// a fresh thread, so the traced twin inherits no cache the untraced one
/// warmed and both see the same stretch of host time; the traced run must
/// match its untraced twin exactly.
fn chaos(ops: &[(u64, btcfast_netsim::faults::FaultPlan)]) -> CheckResult<Traced> {
    let epoch = Instant::now();
    let mut untraced_ops = Vec::with_capacity(ops.len());
    let mut timings = Vec::with_capacity(ops.len());
    let mut threads = Vec::with_capacity(ops.len());
    let mut counters = Counters::default();
    let mut dispute_us = Vec::new();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    for (index, (seed, plan)) in ops.iter().enumerate() {
        let start = Instant::now();
        let (expected, timing) = on_fresh_thread(|| run_chaos_op(*seed, plan))?;
        untraced += start.elapsed();

        let start = Instant::now();
        let (op, spans, op_counters) =
            on_fresh_thread(|| traced_chaos_op(index, *seed, plan, epoch))?;
        traced += start.elapsed();
        if op != expected {
            return Err(format!(
                "chaos_dispute: operation {index} diverged in the traced replay"
            ));
        }
        if let Some(us) = op.dispute_us {
            dispute_us.push(us);
        }
        untraced_ops.push(op);
        timings.push(timing);
        threads.push(spans);
        counters.absorb(op_counters);
    }
    let summary = summarize_chaos(&untraced_ops);
    dispute_us.sort_unstable();
    Ok(Traced {
        threads,
        counters,
        untraced,
        traced,
        chaos: Some((timings, dispute_us)),
        attempted: summary.offered,
        failed: summary.failed,
    })
}

/// One traced `chaos_dispute` operation: spans around its two program
/// calls, then the checks and the layer counters read around them.
fn traced_chaos_op(
    index: usize,
    seed: u64,
    plan: &btcfast_netsim::faults::FaultPlan,
    epoch: Instant,
) -> CheckResult<(crate::workload::ChaosOp, Vec<Span>, Counters)> {
    let mut rec = Recorder::new(epoch);
    let mut counters = Counters::default();
    let pubkeys = pubkey_cache_now();
    let plan = plan.clone();
    rec.set_id(index as u64);
    rec.enter(Layer::Bench, "bench.op");
    let mut chaos = rec.span(Layer::Core, "core.session_new", || {
        chaos_session(seed, plan)
    });
    let (btc_from, psc_from) = (chaos.session.btc.height(), chaos.session.psc.height());
    let result = rec.span(Layer::Core, "core.dispute_op", || chaos_dispute(&mut chaos));
    rec.exit();

    let op = check_chaos_op(&chaos, &result)?;
    counters.session(
        &chaos.session,
        Some(chaos.recovery()),
        btc_from,
        psc_from,
        chaos.session.trace().len(),
    );
    counters.accepted += u64::from(op.accepted);
    counters.recoveries += chaos.recoveries();
    let net = chaos.transport_stats();
    counters.net_sent += net.sent;
    counters.net_retransmissions += net.retransmissions;
    counters.net_failed += net.failed;
    counters.net_delivered += net.delivered;
    counters.backoff_wait_us += net.backoff_wait_micros;
    if let (Ok(report), Some(_)) = (&result, op.dispute_us) {
        let gas_price = chaos.session.config.psc_params.gas_price;
        counters
            .dispute_gas
            .push(report.merchant_fee_units as f64 / gas_price as f64);
    }
    counters.pubkey_cache_since(pubkeys);
    Ok((op, rec.finish(), counters))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean of the first and of the last tenth of `samples`, ns (0 when
/// empty).
fn first_last_tenth(samples: &[u64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let tenth = samples.len().div_ceil(10);
    let mean_of = |s: &[u64]| mean(&s.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
    (
        mean_of(&samples[..tenth]),
        mean_of(&samples[samples.len() - tenth..]),
    )
}

/// A percentile of durations in ms, refusing a tail with too few samples;
/// 0 when the workload never made the call.
fn percentile_ms(samples: &[u64], q: f64, name: &str) -> CheckResult<f64> {
    if samples.is_empty() {
        return Ok(0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, q)
        .map(|ns| ns as f64 / 1e6)
        .ok_or_else(|| format!("{} samples are too few for {name}", samples.len()))
}

/// Folds a traced run into the per-layer metrics.
fn per_layer_metrics(traced: &Traced) -> CheckResult<RunResult> {
    let mut accounting = Accounting::default();
    for spans in &traced.threads {
        accounting.absorb(spans);
    }
    if accounting.attributed_ns() != accounting.traced_ns {
        return Err("layer self times do not sum to the traced time".into());
    }
    let all = || traced.threads.iter().flatten();
    let mean_of = |name: &str, per_unit: f64| {
        let ns = durations_ns(all(), name);
        mean(&ns.iter().map(|&d| d as f64 / per_unit).collect::<Vec<_>>())
    };
    let (us, ms) = (1e3, 1e6);
    // First vs last tenth per thread: a thread's calls are in session-age
    // order.
    let tenths = |name: &str| {
        let pairs: Vec<(f64, f64)> = traced
            .threads
            .iter()
            .map(|t| durations_ns(t, name))
            .filter(|s| !s.is_empty())
            .map(|s| first_last_tenth(&s))
            .collect();
        (
            mean(&pairs.iter().map(|p| p.0).collect::<Vec<_>>()),
            mean(&pairs.iter().map(|p| p.1).collect::<Vec<_>>()),
        )
    };
    let c = &traced.counters;
    let sessions = c.sessions.max(1) as f64;

    let mut v = Values::default();
    v.set("core.session_new_ms", mean_of("core.session_new", ms));
    let rounds = durations_ns(all(), "core.round");
    v.set(
        "core.round_ms_p50",
        percentile_ms(&rounds, 0.50, "core.round_ms_p50")?,
    );
    v.set(
        "core.round_ms_p99",
        percentile_ms(&rounds, 0.99, "core.round_ms_p99")?,
    );
    let (first, last) = tenths("core.round");
    v.set(
        "core.round_growth",
        if first > 0.0 { last / first } else { 0.0 },
    );
    v.set("core.evaluate_offer_us", mean_of("core.evaluate_offer", us));
    v.set("core.idle_advance_ms", mean_of("core.idle_advance", ms));
    v.set("core.admission_offered", c.admission_offered as f64);
    v.set("core.admission_shed", c.admission_shed as f64);
    v.set("core.queue_depth_max", c.queue_depth_max as f64);
    v.set("core.dispute_op_ms", mean_of("core.dispute_op", ms));
    let (op_ns, dispute_us): (Vec<u64>, &[u64]) = match &traced.chaos {
        Some((timings, dispute_us)) => (
            timings
                .iter()
                .map(|t| t.total().as_nanos() as u64)
                .collect(),
            dispute_us,
        ),
        None => (Vec::new(), &[]),
    };
    v.set(
        "core.dispute_ms_p50",
        percentile_ms(&op_ns, 0.50, "core.dispute_ms_p50")?,
    );
    v.set(
        "core.dispute_ms_p95",
        percentile_ms(&op_ns, 0.95, "core.dispute_ms_p95")?,
    );
    let op_total_s = op_ns.iter().sum::<u64>() as f64 / 1e9;
    v.set(
        "core.dispute_per_s",
        if op_total_s > 0.0 {
            op_ns.len() as f64 / op_total_s
        } else {
            0.0
        },
    );
    v.set(
        "core.dispute_sim_p50_s",
        percentile(dispute_us, 0.5).map_or(0.0, |us| us as f64 / 1e6),
    );
    v.set("btcsim.tx_build_us", mean_of("btcsim.tx_build", us));
    v.set(
        "btcsim.mempool_insert_us",
        mean_of("btcsim.mempool_insert", us),
    );
    v.set("btcsim.block_ms", mean_of("btcsim.block", ms));
    v.set("btcsim.blocks_mined", c.btc_blocks as f64);
    v.set("btcsim.utxo_entries", c.utxo_entries as f64 / sessions);
    v.set("pscsim.submit_us", mean_of("pscsim.submit", us));
    v.set("pscsim.block_ms", mean_of("pscsim.block", ms));
    v.set(
        "pscsim.commitment_ms_first",
        mean_of("pscsim.commitment_first", ms),
    );
    v.set(
        "pscsim.commitment_ms_last",
        mean_of("pscsim.commitment_last", ms),
    );
    v.set("pscsim.blocks", c.psc_blocks as f64);
    v.set("pscsim.empty_blocks", c.psc_empty_blocks as f64);
    v.set("pscsim.gas_per_payment", ratio(c.psc_gas, c.accepted));
    v.set(
        "payjudger.open_build_us",
        mean_of("payjudger.open_build", us),
    );
    v.set(
        "payjudger.batch_verify_us",
        mean_of("payjudger.batch_verify", us),
    );
    let batch_calls = durations_ns(all(), "payjudger.batch_verify").len() as u64;
    v.set(
        "payjudger.batch_items_mean",
        ratio(c.batch_items, batch_calls),
    );
    v.set("payjudger.batch_bisections", c.batch_bisections as f64);
    v.set("payjudger.headers_verified", c.headers_verified as f64);
    v.set(
        "payjudger.cache_hit_ratio",
        ratio(c.segment_hits, c.segment_lookups),
    );
    v.set("payjudger.dispute_gas", mean(&c.dispute_gas));
    v.set(
        "crypto.pubkey_cache_hit_ratio",
        ratio(c.pubkey_hits, c.pubkey_lookups),
    );
    v.set("store.journal_us", mean_of("store.journal", us));
    let (first, last) = tenths("store.recover");
    v.set("store.recover_ms_first", first / ms);
    v.set("store.recover_ms_last", last / ms);
    v.set("store.wal_bytes", c.wal_bytes as f64 / sessions);
    v.set("store.recoveries", c.recoveries as f64);
    v.set("netsim.sent", c.net_sent as f64);
    v.set("netsim.retransmissions", c.net_retransmissions as f64);
    v.set("netsim.failed", c.net_failed as f64);
    v.set("netsim.delivered_ratio", ratio(c.net_delivered, c.net_sent));
    v.set("netsim.backoff_wait_sim_s", c.backoff_wait_us as f64 / 1e6);
    v.set("obs.trace_events", c.trace_events as f64 / sessions);
    v.set("obs.trace_dropped", c.trace_dropped as f64);
    v.set("obs.render_ms", mean_of("obs.render", ms));
    for layer in Layer::TIMED {
        v.set(busy_name(layer), accounting.layer_ns(layer) as f64 / ms);
    }
    // Probe time is the benchmark's own extra work: take the longest
    // thread's share of it out of the traced wall time.
    let probe_ns = traced
        .threads
        .iter()
        .map(|t| {
            t.iter()
                .filter(|s| s.layer == Layer::Probe)
                .map(Span::duration_ns)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    v.set(
        "bench.trace_overhead",
        (traced.traced.as_nanos() as f64 - probe_ns as f64) / traced.untraced.as_nanos() as f64,
    );
    v.set(
        "bench.unattributed_ms",
        accounting.layer_ns(Layer::Bench) as f64 / ms,
    );
    v.set("bench.traced_ms", accounting.traced_ns as f64 / ms);
    v.check_complete(metrics::PER_LAYER)?;
    Ok(RunResult {
        attempted: traced.attempted,
        failed: traced.failed,
        values: v,
    })
}

/// The `<layer>.busy_ms` metric of a timed layer.
fn busy_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Core => "core.busy_ms",
        Layer::Btcsim => "btcsim.busy_ms",
        Layer::Pscsim => "pscsim.busy_ms",
        Layer::Payjudger => "payjudger.busy_ms",
        Layer::Netsim => "netsim.busy_ms",
        Layer::Store => "store.busy_ms",
        Layer::Obs => "obs.busy_ms",
        Layer::Bench | Layer::Probe => unreachable!("not a timed layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::open_schedule;

    #[test]
    fn shard_seeds_match_the_engine() {
        // The replay derives each shard's seed as `engine::shard_seed` does.
        let report = steady_engine(8).run(21, &WorkerPool::new(1)).unwrap();
        for outcome in &report.outcomes {
            assert_eq!(outcome.seed, derive_seed(21, outcome.shard as u64));
        }
    }

    #[test]
    fn a_steady_replay_ends_in_the_program_runs_state() {
        // Two rounds per shard and a crash drill every round would need
        // the full-size drill cadence; 16 payments exercise batching,
        // journaling and the trace.
        let traced = steady(3, 16, &WorkerPool::new(2)).unwrap();
        assert_eq!(traced.threads.len(), 2);
        let mut acc = Accounting::default();
        for spans in &traced.threads {
            acc.absorb(spans);
        }
        assert_eq!(acc.attributed_ns(), acc.traced_ns);
        // Every span of one payment shares its id.
        for spans in &traced.threads {
            let built: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == "btcsim.tx_build")
                .map(|s| s.id)
                .collect();
            let evaluated: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == "core.evaluate_offer")
                .map(|s| s.id)
                .collect();
            assert_eq!(built.len(), 16);
            assert_eq!(built, evaluated);
            assert!(spans
                .iter()
                .filter(|s| s.name == "btcsim.tx_build")
                .all(|s| spans[s.parent.unwrap()].name == "core.round"));
        }
    }

    #[test]
    fn an_open_loop_replay_ends_in_the_program_runs_state() {
        let schedule = open_schedule(5, 40);
        let traced = open_loop(5, &schedule).unwrap();
        assert_eq!(traced.threads.len(), 1);
        assert_eq!(traced.counters.admission_offered, 40);
    }

    #[test]
    fn tenths_and_ratios() {
        assert_eq!(first_last_tenth(&[]), (0.0, 0.0));
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(first_last_tenth(&samples), (1.5, 19.5));
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
