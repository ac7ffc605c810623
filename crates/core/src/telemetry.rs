//! Scrapes every subsystem's cheap stat structs into one obs [`Registry`].
//!
//! Each substrate keeps its own plain counter struct next to its hot path
//! (mempool admissions, chain connects, sig-cache hits, PSC journal
//! high-water, verifier cache behavior, transport retransmissions) — no
//! substrate depends on the metrics layer. This module is the one place
//! that knows all their shapes and publishes them under stable
//! `btcfast_*` names, so `harness trace` and E12 can dump a single
//! Prometheus-style snapshot for a whole session.
//!
//! Everything is published as a **gauge** (a scraped instantaneous
//! snapshot of a monotonic source), so re-scraping the same session is
//! idempotent rather than double-counting.

use crate::chaos::ChaosSession;
use crate::engine::LoadReport;
use crate::session::FastPaySession;
use btcfast_netsim::transport::TransportStats;
use btcfast_obs::Registry;

/// Publishes every observable counter of `session` into `registry`.
///
/// Covers the BTC side (chain connect/reorg stats, mempool admissions and
/// depth, this thread's signature-cache behavior), the PSC side (height,
/// total gas, journal high-water, state entries, commitment leaves
/// rehashed), and the merchant's accelerated evidence-verifier cache.
pub fn publish_session(registry: &Registry, session: &FastPaySession) {
    let chain = session.btc.stats();
    registry.set_gauge("btcfast_btc_blocks_connected", chain.blocks_connected);
    registry.set_gauge("btcfast_btc_txs_connected", chain.txs_connected);
    registry.set_gauge("btcfast_btc_reorgs", chain.reorgs);
    registry.set_gauge("btcfast_btc_side_chain_blocks", chain.side_chain_blocks);
    registry.set_gauge("btcfast_btc_height", session.btc.height());

    let mempool = session.mempool.stats();
    registry.set_gauge("btcfast_mempool_admitted", mempool.admitted);
    registry.set_gauge("btcfast_mempool_rejected", mempool.rejected);
    registry.set_gauge("btcfast_mempool_conflicts", mempool.conflicts);
    registry.set_gauge("btcfast_mempool_depth", session.mempool.len() as u64);

    // The signature cache is per-thread (shards never share one); this
    // scrape reports the calling thread's view.
    let sig = btcfast_btcsim::utxo::sig_cache_stats();
    registry.set_gauge("btcfast_sig_cache_hits", sig.hits);
    registry.set_gauge("btcfast_sig_cache_misses", sig.misses);
    registry.set_gauge("btcfast_sig_cache_resets", sig.resets);
    registry.set_gauge("btcfast_sig_cache_primed", sig.primed);

    // Batch-ECDSA verification work (accumulated in the shared verifier,
    // so it covers every thread that batched through this session).
    let batch = session.verifier().sig_batch_stats();
    registry.set_gauge("btcfast_batch_verify_items", batch.items);
    registry.set_gauge("btcfast_batch_verify_hinted", batch.hinted);
    registry.set_gauge("btcfast_batch_verify_oracle_checks", batch.oracle_checks);
    registry.set_gauge("btcfast_batch_verify_msm_evals", batch.msm_evals);
    registry.set_gauge("btcfast_batch_verify_bisections", batch.bisections);

    // So is the public-key precomputation-table cache inside ecdsa::verify.
    let tables = btcfast_crypto::ecdsa::pubkey_cache_stats();
    registry.set_gauge("btcfast_pubkey_table_hits", tables.hits);
    registry.set_gauge("btcfast_pubkey_table_misses", tables.misses);
    registry.set_gauge("btcfast_pubkey_table_insertions", tables.insertions);
    registry.set_gauge("btcfast_pubkey_table_evictions", tables.evictions);

    registry.set_gauge("btcfast_psc_height", session.psc.height());
    registry.set_gauge("btcfast_psc_gas_used", session.psc.total_gas_used());
    registry.set_gauge(
        "btcfast_psc_journal_high_water",
        session.psc.journal_high_water() as u64,
    );
    // State size and the commitment work it costs: leaves rehashed grows
    // with what blocks wrote, not with how large the state has become.
    let state = session.psc.state();
    registry.set_gauge("btcfast_psc_state_entries", state.entries() as u64);
    registry.set_gauge(
        "btcfast_psc_commitment_leaves_rehashed",
        state.leaves_rehashed(),
    );

    let cache = session.verifier().cache_stats();
    registry.set_gauge("btcfast_verify_full_hits", cache.full_hits);
    registry.set_gauge("btcfast_verify_prefix_hits", cache.prefix_hits);
    registry.set_gauge("btcfast_verify_misses", cache.misses);
    registry.set_gauge("btcfast_verify_insertions", cache.insertions);
    registry.set_gauge("btcfast_verify_evictions", cache.evictions);
    registry.set_gauge("btcfast_verify_headers_verified", cache.headers_verified);

    registry.set_gauge("btcfast_trace_dropped_events", session.trace_dropped());
}

/// Publishes reliable-transport counters into `registry`.
pub fn publish_transport(registry: &Registry, stats: &TransportStats) {
    registry.set_gauge("btcfast_transport_sent", stats.sent);
    registry.set_gauge("btcfast_transport_retransmissions", stats.retransmissions);
    registry.set_gauge("btcfast_transport_delivered", stats.delivered);
    registry.set_gauge("btcfast_transport_failed", stats.failed);
    registry.set_gauge("btcfast_transport_dedup_drops", stats.duplicates_dropped);
    registry.set_gauge(
        "btcfast_transport_backoff_wait_us",
        stats.backoff_wait_micros,
    );
    registry.set_gauge("btcfast_transport_dedup_high_water", stats.dedup_high_water);
    registry.set_gauge(
        "btcfast_transport_pending_high_water",
        stats.pending_high_water,
    );
    registry.set_gauge("btcfast_transport_dedup_evictions", stats.dedup_evictions);
    registry.set_gauge("btcfast_transport_resolved_retired", stats.resolved_retired);
}

/// Publishes the durable-store and recovery-journal counters of a
/// [`RecoveryManager`] into `registry`.
pub fn publish_recovery<S: btcfast_store::Storage>(
    registry: &Registry,
    recovery: &crate::recovery::RecoveryManager<S>,
) {
    let stats = recovery.stats();
    registry.set_gauge("btcfast_recovery_recoveries", stats.recoveries);
    registry.set_gauge("btcfast_recovery_replayed_records", stats.replayed_records);
    registry.set_gauge("btcfast_recovery_pending_resumed", stats.pending_resumed);
    registry.set_gauge("btcfast_recovery_journal_appends", stats.journal_appends);
    registry.set_gauge("btcfast_recovery_checkpoints", stats.checkpoints);
    registry.set_gauge(
        "btcfast_recovery_pending_intents",
        recovery.pending().count() as u64,
    );
    registry.set_gauge(
        "btcfast_recovery_payments_tracked",
        recovery.ledger().payments.len() as u64,
    );

    let wal = recovery.wal_stats();
    registry.set_gauge("btcfast_wal_appends", wal.appends);
    registry.set_gauge("btcfast_wal_bytes_appended", wal.bytes_appended);
    registry.set_gauge("btcfast_wal_recoveries", wal.recoveries);
    registry.set_gauge("btcfast_wal_records_recovered", wal.records_recovered);
    registry.set_gauge("btcfast_wal_truncated_bytes", wal.truncated_bytes);
    registry.set_gauge("btcfast_wal_duplicates_skipped", wal.duplicates_skipped);
}

/// Publishes an open-loop load run: aggregate offered/served/shed
/// counters plus every shard's admission depth, high-water, and shed
/// accounting under stable per-shard names.
pub fn publish_load(registry: &Registry, report: &LoadReport) {
    registry.set_gauge("btcfast_load_offered", report.offered as u64);
    registry.set_gauge("btcfast_load_executed", report.executed as u64);
    registry.set_gauge("btcfast_load_accepted", report.total_accepted() as u64);
    registry.set_gauge("btcfast_load_shed", report.shed_count() as u64);
    registry.set_gauge("btcfast_load_makespan_us", report.makespan.as_micros());
    // Residue is u128 only because escrow values are; a non-zero residue
    // is a conservation bug, so saturating the gauge is fine.
    registry.set_gauge(
        "btcfast_load_escrow_residue",
        u64::try_from(report.escrow_residue()).unwrap_or(u64::MAX),
    );
    for outcome in &report.outcomes {
        let shard = outcome.shard;
        let stats = &outcome.admission;
        registry.set_gauge(
            &format!("btcfast_admission_shard{shard}_admitted"),
            stats.admitted,
        );
        registry.set_gauge(
            &format!("btcfast_admission_shard{shard}_depth"),
            stats.depth as u64,
        );
        registry.set_gauge(
            &format!("btcfast_admission_shard{shard}_high_water"),
            stats.high_water as u64,
        );
        registry.set_gauge(
            &format!("btcfast_admission_shard{shard}_shed"),
            stats.shed(),
        );
    }
}

/// Publishes a chaos session: the wrapped protocol session plus its
/// transport fabric.
pub fn publish_chaos(registry: &Registry, chaos: &ChaosSession) {
    publish_session(registry, &chaos.session);
    publish_transport(registry, &chaos.transport_stats());
    publish_recovery(registry, chaos.recovery());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;

    #[test]
    fn scrape_publishes_every_subsystem_under_stable_names() {
        let mut session = FastPaySession::new(SessionConfig::default(), 31);
        let report = session.run_fast_payment(1_000_000).unwrap();
        assert!(report.accepted);

        let registry = Registry::new();
        publish_session(&registry, &session);
        let text = registry.render_prometheus();
        for name in [
            "btcfast_btc_blocks_connected",
            "btcfast_mempool_admitted",
            "btcfast_psc_gas_used",
            "btcfast_psc_journal_high_water",
            "btcfast_verify_headers_verified",
            "btcfast_sig_cache_hits",
            "btcfast_sig_cache_primed",
            "btcfast_batch_verify_items",
            "btcfast_batch_verify_msm_evals",
            "btcfast_pubkey_table_hits",
            "btcfast_pubkey_table_misses",
            "btcfast_pubkey_table_insertions",
            "btcfast_pubkey_table_evictions",
            "btcfast_trace_dropped_events",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // The accepted payment verified at least one signature through the
        // per-key table cache on this thread.
        let tables = btcfast_crypto::ecdsa::pubkey_cache_stats();
        assert!(tables.hits + tables.misses >= 1, "verify used the cache");
        // Provisioning mined blocks and the accepted payment is pooled.
        assert!(registry.gauge("btcfast_btc_blocks_connected").get() >= 3);
        assert_eq!(registry.gauge("btcfast_mempool_depth").get(), 1);
        assert_eq!(registry.gauge("btcfast_mempool_admitted").get(), 1);

        // Re-scraping is idempotent: gauges snapshot, they don't accumulate.
        publish_session(&registry, &session);
        assert_eq!(registry.gauge("btcfast_mempool_admitted").get(), 1);
    }

    #[test]
    fn psc_state_gauges_match_the_session() {
        let mut session = FastPaySession::new(SessionConfig::default(), 32);
        let registry = Registry::new();
        let scrape = |session: &FastPaySession| {
            publish_session(&registry, session);
            let entries = registry.gauge("btcfast_psc_state_entries").get();
            let rehashed = registry
                .gauge("btcfast_psc_commitment_leaves_rehashed")
                .get();
            assert_eq!(entries, session.psc.state().entries() as u64);
            assert_eq!(rehashed, session.psc.state().leaves_rehashed());
            // Every live entry was hashed into a sealed block at least once.
            assert!(rehashed >= entries && entries > 0, "{rehashed} < {entries}");
            (entries, rehashed)
        };
        assert!(session.run_fast_payment(1_000_000).unwrap().accepted);
        let (entries, rehashed) = scrape(&session);
        session.mine_public_block().unwrap();
        assert!(session.run_fast_payment(1_000_000).unwrap().accepted);
        let (entries_after, rehashed_after) = scrape(&session);
        // The second payment's escrow records grew the state, and sealing
        // them cost work.
        assert!(entries_after > entries);
        assert!(rehashed_after > rehashed);
        assert!(registry
            .render_prometheus()
            .contains("btcfast_psc_state_entries"));
    }

    #[test]
    fn load_scrape_publishes_aggregate_and_per_shard_admission_gauges() {
        use crate::admission::{AdmissionConfig, SheddingPolicy};
        use crate::engine::{EngineConfig, LoadArrival, PaymentEngine};
        use btcfast_netsim::time::SimTime;

        let engine = PaymentEngine::new(EngineConfig {
            session: SessionConfig::eos_flavored(),
            shards: 2,
            batch_size: 4,
            ..EngineConfig::default()
        });
        let schedule: Vec<LoadArrival> = (0..16)
            .map(|i| LoadArrival {
                at: SimTime::from_millis(i * 5),
                shard: (i % 2) as usize,
                payments: 1,
            })
            .collect();
        let report = engine
            .run_load(
                41,
                &schedule,
                AdmissionConfig::bounded(2, SheddingPolicy::RejectNew),
            )
            .unwrap();
        assert!(report.shed_count() > 0, "the burst must overload");

        let registry = Registry::new();
        publish_load(&registry, &report);
        assert_eq!(registry.gauge("btcfast_load_offered").get(), 16);
        assert_eq!(
            registry.gauge("btcfast_load_executed").get()
                + registry.gauge("btcfast_load_shed").get(),
            16
        );
        assert_eq!(registry.gauge("btcfast_load_escrow_residue").get(), 0);
        for shard in 0..2 {
            assert_eq!(
                registry
                    .gauge(&format!("btcfast_admission_shard{shard}_depth"))
                    .get(),
                0,
                "queues drain by the end of the run"
            );
            assert!(
                registry
                    .gauge(&format!("btcfast_admission_shard{shard}_high_water"))
                    .get()
                    >= 1
            );
        }
        let shed: u64 = (0..2)
            .map(|shard| {
                registry
                    .gauge(&format!("btcfast_admission_shard{shard}_shed"))
                    .get()
            })
            .sum();
        assert_eq!(shed, report.shed_count() as u64);
    }

    #[test]
    fn chaos_scrape_includes_transport_counters() {
        use crate::robustness::ChaosConfig;
        use btcfast_netsim::faults::FaultPlan;

        let mut chaos = ChaosSession::new(
            SessionConfig::default(),
            ChaosConfig::default(),
            FaultPlan::new(),
            32,
        );
        chaos.run_fast_payment_chaos(1_000_000).unwrap();
        let registry = Registry::new();
        publish_chaos(&registry, &chaos);
        assert!(registry.gauge("btcfast_transport_sent").get() >= 3);
        assert_eq!(registry.gauge("btcfast_transport_failed").get(), 0);
        // The journal saw escrow-open plus the payment's five steps, each
        // a Begin + Done append.
        assert!(registry.gauge("btcfast_recovery_journal_appends").get() >= 10);
        assert_eq!(registry.gauge("btcfast_recovery_pending_intents").get(), 0);
        assert_eq!(registry.gauge("btcfast_recovery_payments_tracked").get(), 1);
        assert!(registry.gauge("btcfast_wal_appends").get() >= 10);
        assert!(registry.gauge("btcfast_wal_bytes_appended").get() > 0);
    }

    #[test]
    fn crash_restart_surfaces_in_recovery_gauges() {
        use crate::chaos::MERCHANT_NODE;
        use crate::robustness::ChaosConfig;
        use btcfast_netsim::faults::FaultPlan;
        use btcfast_netsim::time::SimTime;

        let mut plan = FaultPlan::new();
        plan.crash_restart_at(MERCHANT_NODE, SimTime::from_millis(25));
        let mut chaos =
            ChaosSession::new(SessionConfig::default(), ChaosConfig::default(), plan, 33);
        chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(chaos.recoveries() >= 1);
        let registry = Registry::new();
        publish_chaos(&registry, &chaos);
        assert!(registry.gauge("btcfast_recovery_recoveries").get() >= 1);
        assert!(registry.gauge("btcfast_recovery_replayed_records").get() >= 1);
    }
}
