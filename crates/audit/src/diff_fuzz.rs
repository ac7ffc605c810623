//! Differential executors: the same fuzzed schedule runs through the
//! optimised incremental path **and** a naive from-scratch reference, and
//! every observable artifact must match byte-for-byte.
//!
//! * `chain-reorg` — a block/fork/timestamp schedule drives
//!   `Chain::submit_block` (reorgs, side branches, median-time-past
//!   edges); the reference is a fresh chain fed only the final active
//!   hashes. UTXO set, address index, tip work, and per-transaction
//!   confirmations must be identical.
//! * `psc-replay` — a transaction schedule (hostile faucets, saturating
//!   gas prices, reverting and overflowing contract calls) runs on two
//!   chains; receipts, state commitments, and submit verdicts must match,
//!   native value must be conserved after every block, and every sealed
//!   state commitment must equal the from-scratch recompute.
//! * `evidence-cache` — the parallel memoizing [`EvidenceVerifier`] must
//!   return the byte-identical verdict as the sequential verifier, cold
//!   and warm, and cache hits must not change gas accounting.

use crate::codec_fuzz::shared_btc;
use crate::invariants::check_chain;
use crate::source::ByteSource;
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::params::ChainParams;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::wallet::Wallet;
use btcfast_btcsim::{Amount, Chain, U256};
use btcfast_crypto::{Hash256, KeyPair};
use btcfast_payjudger::evidence::{verify_on_chain_with, EvidenceBundle};
use btcfast_payjudger::{EvidenceVerifier, VerifierConfig};
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::{Decode, Encode};
use btcfast_pscsim::contract::{Contract, ContractError, Env, HostStorage, Storage};
use btcfast_pscsim::gas::{GasMeter, GasSchedule};
use btcfast_pscsim::params::PscParams;
use btcfast_pscsim::state::WorldState;
use btcfast_pscsim::tx::{Action, PscTransaction};
use btcfast_pscsim::PscChain;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// chain-reorg
// ---------------------------------------------------------------------------

/// Fuzzes reorg schedules and compares against a from-scratch rebuild.
pub fn diff_chain_reorg(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let params = ChainParams::regtest();
    let wallet = Wallet::from_seed(b"audit reorg wallet");
    let mut chain = Chain::new(params.clone());
    let mut miner = Miner::new(params.clone(), wallet.address());

    let mut known = vec![Hash256::ZERO];
    let mut prev_work = U256::ZERO;
    let steps = 4 + src.choice(9);
    for step in 0..steps {
        let parent = known[src.choice(known.len())];
        let parent_time = if parent == Hash256::ZERO {
            0
        } else {
            chain
                .block(&parent)
                .ok_or("known parent vanished from the store")?
                .header
                .time
        };
        // Timestamps swing [-900, +1800] around the parent to exercise the
        // median-time-past boundary in both directions.
        let time = (parent_time + u64::from(src.u32() % 2701) + 600).saturating_sub(900);
        let txs = if parent == chain.tip_hash() && src.bool() {
            let sats = 1 + u64::from(src.u32()) % 100_000_000;
            wallet
                .create_payment(
                    &chain,
                    btcfast_crypto::keys::Address([0x24; 20]),
                    Amount::from_sats(sats).expect("bounded amount"),
                    Amount::from_sats(1_000).expect("bounded fee"),
                    // A unique memo per step keeps txids distinct even when
                    // competing tips yield identical coin selections.
                    Some(vec![step as u8]),
                )
                .ok()
                .into_iter()
                .collect()
        } else {
            Vec::new()
        };
        let block = miner.mine_block_on(&chain, parent, txs, time);
        let hash = block.hash();
        if chain.submit_block(block).is_ok() {
            known.push(hash);
        }

        // Invariants hold after every step, accepted or rejected.
        check_chain(&chain)?;
        let work = chain.tip_work();
        if work < prev_work {
            return Err("tip work decreased across a submission".into());
        }
        prev_work = work;
    }

    // Reference: a fresh chain fed only the surviving active hashes must
    // land on the identical state.
    let mut fresh = Chain::new(params);
    for hash in chain.active_hashes().to_vec() {
        let block = chain
            .block(&hash)
            .ok_or("active hash missing from the block store")?
            .clone();
        fresh
            .submit_block(block)
            .map_err(|e| format!("active block rejected on linear replay: {e}"))?;
    }
    if fresh.tip_hash() != chain.tip_hash() || fresh.height() != chain.height() {
        return Err(format!(
            "replay tip diverged: {:?}@{} vs {:?}@{}",
            fresh.tip_hash(),
            fresh.height(),
            chain.tip_hash(),
            chain.height()
        ));
    }
    if fresh.tip_work() != chain.tip_work() {
        return Err("replay accumulated different tip work".into());
    }
    if fresh.utxo() != chain.utxo() {
        return Err("incremental UTXO set diverged from the from-scratch rebuild".into());
    }
    if fresh.utxo().fingerprint() != chain.utxo().fingerprint() {
        return Err("UTXO fingerprints diverged despite equal sets".into());
    }
    for hash in chain.active_hashes() {
        let block = chain.block(hash).ok_or("active block missing")?;
        for tx in &block.transactions {
            let txid = tx.txid();
            if chain.confirmations(&txid) != fresh.confirmations(&txid) {
                return Err(format!("confirmations diverged for {txid:?}"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// psc-replay
// ---------------------------------------------------------------------------

/// A scratch contract with one happy path, one reverting path, and one
/// value-escape path — enough surface for the journal and fee machinery.
struct AuditBank;

impl Contract for AuditBank {
    fn code_id(&self) -> &'static str {
        "audit-bank"
    }

    fn call(
        &self,
        _env: &Env,
        method: &str,
        args: &[u8],
        storage: &mut dyn Storage,
    ) -> Result<Vec<u8>, ContractError> {
        match method {
            "init" => Ok(vec![]),
            "store" => {
                storage.set(&args[..1.min(args.len())], args)?;
                Ok(vec![])
            }
            "boom" => {
                storage.set(b"doomed", args)?;
                Err(ContractError::Revert("boom".into()))
            }
            "pay" => {
                let mut input = args;
                let to = AccountId::decode_from(&mut input)
                    .map_err(|e| ContractError::Revert(format!("bad args: {e}")))?;
                let value = u128::decode_from(&mut input)
                    .map_err(|e| ContractError::Revert(format!("bad args: {e}")))?;
                storage.transfer_out(to, value)?;
                Ok(vec![])
            }
            other => Err(ContractError::UnknownMethod(other.into())),
        }
    }
}

/// One schedule entry for the PSC replay differential.
#[derive(Clone, Debug)]
enum PscOp {
    Faucet {
        who: usize,
        amount: u128,
    },
    Transfer {
        from: usize,
        to: usize,
        value: u128,
        hostile_gas: bool,
    },
    Store {
        from: usize,
        payload: Vec<u8>,
    },
    Boom {
        from: usize,
    },
    Pay {
        from: usize,
        to: usize,
        deposit: u128,
        payout: u128,
    },
    Seal,
}

fn draw_schedule(src: &mut ByteSource<'_>) -> Vec<PscOp> {
    let steps = 4 + src.choice(9);
    let mut ops = Vec::with_capacity(steps + 1);
    for _ in 0..steps {
        let op = match src.u8() % 6 {
            0 => PscOp::Faucet {
                who: src.choice(3),
                amount: if src.bool() {
                    u128::MAX
                } else {
                    u128::from(src.u64())
                },
            },
            1 => PscOp::Transfer {
                from: src.choice(3),
                to: src.choice(4),
                value: u128::from(src.u32()),
                hostile_gas: src.u8() % 4 == 0,
            },
            2 => {
                let from = src.choice(3);
                let len = 1 + src.choice(24);
                PscOp::Store {
                    from,
                    payload: src.bytes(len),
                }
            }
            3 => PscOp::Boom {
                from: src.choice(3),
            },
            4 => PscOp::Pay {
                from: src.choice(3),
                to: src.choice(4),
                deposit: u128::from(src.u16()),
                payout: if src.bool() {
                    u128::MAX
                } else {
                    u128::from(src.u16())
                },
            },
            _ => PscOp::Seal,
        };
        ops.push(op);
    }
    ops.push(PscOp::Seal);
    ops
}

/// Runs a schedule on a fresh chain, returning a transcript of every
/// observable artifact plus the per-block conservation audit.
fn run_psc_schedule(
    ops: &[PscOp],
    keys: &[KeyPair],
    sink: AccountId,
) -> Result<Vec<String>, String> {
    let params = PscParams::ethereum_like();
    let gas_price = params.gas_price;
    let mut chain = PscChain::new(params);
    chain.register_code(Arc::new(AuditBank));

    let mut minted: u128 = 0;
    for key in keys {
        minted = minted.wrapping_add(chain.faucet(key.address().into(), 1_000_000_000));
    }
    let deploy = PscTransaction::new(
        *keys[0].public(),
        0,
        0,
        Action::Deploy {
            code_id: "audit-bank".into(),
            args: vec![],
        },
    )
    .with_gas(1_000_000, gas_price)
    .sign(&keys[0]);
    let deploy_hash = chain
        .submit_transaction(deploy)
        .map_err(|e| format!("deploy rejected: {e:?}"))?;
    let mut time = 15u64;
    chain.produce_block(time);
    let contract = chain
        .receipt(&deploy_hash)
        .and_then(|r| r.contract_address)
        .ok_or("deploy produced no contract address")?;

    let mut transcript = Vec::new();
    let mut pending = Vec::new();
    let submit = |chain: &mut PscChain,
                  transcript: &mut Vec<String>,
                  pending: &mut Vec<Hash256>,
                  tx: PscTransaction| {
        match chain.submit_transaction(tx) {
            Ok(hash) => pending.push(hash),
            Err(e) => transcript.push(format!("rejected: {e:?}")),
        }
    };

    for op in ops {
        match op {
            PscOp::Faucet { who, amount } => {
                // Accumulate modulo 2^128: hostile faucets push several
                // accounts toward u128::MAX, so the *sum* of credited value
                // can exceed the type even though each balance cannot.
                // Conservation is exact over the integers, hence also exact
                // modulo 2^128 — wrapping keeps the check sound.
                minted = minted.wrapping_add(chain.faucet(keys[*who].address().into(), *amount));
            }
            PscOp::Transfer {
                from,
                to,
                value,
                hostile_gas,
            } => {
                let key = &keys[*from];
                let recipient: AccountId = if *to < keys.len() {
                    keys[*to].address().into()
                } else {
                    sink
                };
                let price = if *hostile_gas { u128::MAX } else { gas_price };
                let tx = PscTransaction::new(
                    *key.public(),
                    chain.nonce_of(&key.address().into()),
                    *value,
                    Action::Transfer { to: recipient },
                )
                .with_gas(100_000, price)
                .sign(key);
                submit(&mut chain, &mut transcript, &mut pending, tx);
            }
            PscOp::Store { from, payload } => {
                let key = &keys[*from];
                let tx = PscTransaction::new(
                    *key.public(),
                    chain.nonce_of(&key.address().into()),
                    0,
                    Action::Call {
                        contract,
                        method: "store".into(),
                        args: payload.clone(),
                    },
                )
                .with_gas(1_000_000, gas_price)
                .sign(key);
                submit(&mut chain, &mut transcript, &mut pending, tx);
            }
            PscOp::Boom { from } => {
                let key = &keys[*from];
                let tx = PscTransaction::new(
                    *key.public(),
                    chain.nonce_of(&key.address().into()),
                    0,
                    Action::Call {
                        contract,
                        method: "boom".into(),
                        args: vec![],
                    },
                )
                .with_gas(1_000_000, gas_price)
                .sign(key);
                submit(&mut chain, &mut transcript, &mut pending, tx);
            }
            PscOp::Pay {
                from,
                to,
                deposit,
                payout,
            } => {
                let key = &keys[*from];
                let recipient: AccountId = if *to < keys.len() {
                    keys[*to].address().into()
                } else {
                    sink
                };
                let mut args = Vec::new();
                recipient.encode_to(&mut args);
                payout.encode_to(&mut args);
                let tx = PscTransaction::new(
                    *key.public(),
                    chain.nonce_of(&key.address().into()),
                    *deposit,
                    Action::Call {
                        contract,
                        method: "pay".into(),
                        args,
                    },
                )
                .with_gas(1_000_000, gas_price)
                .sign(key);
                submit(&mut chain, &mut transcript, &mut pending, tx);
            }
            PscOp::Seal => {
                time += 15;
                let sealed = chain.produce_block(time).state_commitment;
                // The incrementally maintained commitment must equal a
                // recompute over every leaf, both as sealed into the block
                // and as read back from the tip.
                let recomputed = chain.state().commitment_from_scratch();
                let tip = chain.state_commitment();
                if sealed != recomputed || tip != recomputed {
                    return Err(format!(
                        "state commitment cache diverged: sealed {sealed:?}, \
                         tip {tip:?}, recomputed {recomputed:?}"
                    ));
                }
                for hash in pending.drain(..) {
                    let receipt = chain
                        .receipt(&hash)
                        .ok_or("sealed transaction has no receipt")?;
                    transcript.push(format!(
                        "receipt: {:?} gas={} fee={}",
                        receipt.status, receipt.gas_used, receipt.fee_paid
                    ));
                }
                transcript.push(format!("commitment: {:?}", chain.state_commitment()));

                // Conservation: every unit in the system came from a faucet.
                let mut total: u128 = 0;
                for key in keys {
                    total = total.wrapping_add(chain.balance_of(&key.address().into()));
                }
                total = total.wrapping_add(chain.balance_of(&sink));
                total = total.wrapping_add(chain.balance_of(&contract));
                total = total.wrapping_add(chain.balance_of(&chain.validator()));
                if total != minted {
                    return Err(format!(
                        "value not conserved: {total} on the books vs {minted} minted"
                    ));
                }
            }
        }
    }
    Ok(transcript)
}

/// Fuzzes PSC transaction schedules and replays them on a second chain.
pub fn diff_psc_replay(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let ops = draw_schedule(&mut src);
    let keys = [
        KeyPair::from_seed(b"audit psc key 0"),
        KeyPair::from_seed(b"audit psc key 1"),
        KeyPair::from_seed(b"audit psc key 2"),
    ];
    let sink = AccountId([0xD0; 20]);
    let first = run_psc_schedule(&ops, &keys, sink)?;
    let second = run_psc_schedule(&ops, &keys, sink)?;
    if first != second {
        let divergence = first
            .iter()
            .zip(second.iter())
            .position(|(a, b)| a != b)
            .map(|i| format!("entry {i}: {:?} vs {:?}", first[i], second[i]))
            .unwrap_or_else(|| "transcripts differ in length".into());
        return Err(format!("replay transcript diverged: {divergence}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// evidence-cache
// ---------------------------------------------------------------------------

/// Runs the metered on-chain verification path, returning the verdict
/// transcript and the gas consumed.
fn metered_verdict(
    bundle: &EvidenceBundle,
    expected_txid: &Hash256,
    accel: Option<&EvidenceVerifier>,
) -> (String, u64) {
    let mut world = WorldState::new();
    let mut meter = GasMeter::new(50_000_000);
    let schedule = GasSchedule::evm_shaped();
    let mut storage = HostStorage {
        world: &mut world,
        meter: &mut meter,
        schedule: &schedule,
        contract: AccountId([0xEE; 20]),
        events: Vec::new(),
        transfers: Vec::new(),
    };
    let bits = ChainParams::regtest().pow_limit_bits;
    let verdict = verify_on_chain_with(
        bundle,
        &bundle.0.segment.anchor,
        bits,
        expected_txid,
        &mut storage,
        accel,
    );
    (format!("{verdict:?}"), storage.gas_used())
}

/// Fuzzes the accelerated verifier against the sequential reference.
pub fn diff_evidence_cache(bytes: &[u8]) -> Result<(), String> {
    let shared = shared_btc();
    let mut src = ByteSource::new(bytes);
    let from = 1 + src.choice(10) as u64;
    let to = from + src.choice((10 - from as usize).max(1)) as u64;
    let expected_txid = shared.txids[src.choice(shared.txids.len())];
    let with_inclusion = src.bool();
    let evidence = SpvEvidence::from_chain(
        &shared.chain,
        from,
        to,
        with_inclusion.then_some(&expected_txid),
    );
    let mut buf = EvidenceBundle(evidence).encode();
    if src.bool() {
        let flips = 1 + src.choice(4);
        for _ in 0..flips {
            let pos = src.choice(buf.len());
            buf[pos] ^= 1 + src.u8() % 255;
        }
    }
    let Ok(bundle) = EvidenceBundle::decode(&buf) else {
        return Ok(()); // typed rejection is a pass for this engine
    };

    let min_target = ChainParams::regtest()
        .pow_limit_bits
        .to_target()
        .expect("regtest limit decodes");
    let naive = bundle.0.verify(&min_target);
    let verifier = EvidenceVerifier::new(VerifierConfig {
        threads: 1,
        cache_capacity: 8,
    });
    let cold = verifier.verify_evidence(&bundle.0, &min_target);
    let warm = verifier.verify_evidence(&bundle.0, &min_target);
    if naive != cold {
        return Err(format!(
            "accelerated verifier diverged cold: {naive:?} vs {cold:?}"
        ));
    }
    if cold != warm {
        return Err(format!(
            "warm cache changed the verdict: {cold:?} vs {warm:?}"
        ));
    }

    // The accelerator must not perturb on-chain verdicts *or* gas.
    let (plain, plain_gas) = metered_verdict(&bundle, &expected_txid, None);
    let (accel, accel_gas) = metered_verdict(&bundle, &expected_txid, Some(&verifier));
    if plain != accel {
        return Err(format!(
            "on-chain verdict diverged with accelerator: {plain} vs {accel}"
        ));
    }
    if plain_gas != accel_gas {
        return Err(format!(
            "cache warmth leaked into gas accounting: {plain_gas} vs {accel_gas}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_accept_arbitrary_seeds() {
        for seed in 0u8..4 {
            let bytes: Vec<u8> = (0..160)
                .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
                .collect();
            diff_chain_reorg(&bytes).unwrap();
            diff_psc_replay(&bytes).unwrap();
            diff_evidence_cache(&bytes).unwrap();
        }
    }

    #[test]
    fn empty_input_is_a_boring_schedule() {
        diff_chain_reorg(&[]).unwrap();
        diff_psc_replay(&[]).unwrap();
        diff_evidence_cache(&[]).unwrap();
    }
}
