//! Property: the incrementally maintained state commitment always equals
//! the commitment recomputed from scratch, and sealing a block costs one
//! leaf hash per distinct key the block wrote — never O(state).
//!
//! * differential — random op sequences over a small key space (so keys
//!   collide, get removed and come back) with nested checkpoints, inner
//!   and outer rollbacks, seals taken inside open transactions, commitments
//!   read mid-transaction, and clone-then-diverge forks: after every op the
//!   cached commitment equals [`WorldState::commitment_from_scratch`];
//! * cost — a chain driven through a few hundred payments' worth of
//!   blocks rehashes exactly the distinct keys each block wrote, whatever
//!   the state's size, and an empty block rehashes nothing.

use btcfast_crypto::KeyPair;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::contract::{Contract, ContractError, Env, Storage};
use btcfast_pscsim::params::PscParams;
use btcfast_pscsim::state::{Checkpoint, WorldState};
use btcfast_pscsim::tx::{Action, PscTransaction};
use btcfast_pscsim::PscChain;
use proptest::prelude::*;
use std::sync::Arc;

/// One step of the differential schedule.
#[derive(Clone, Debug)]
enum Op {
    Credit(u8, u64),
    Debit(u8, u64),
    BumpNonce(u8),
    /// `account_mut` on a possibly absent account: creates a default
    /// record without changing any field.
    Touch(u8),
    SetCode(u8, u8),
    StorageSet(u8, u8, Vec<u8>),
    StorageRemove(u8, u8),
    /// Remove a slot, then write the same slot again.
    Reinsert(u8, u8, Vec<u8>),
    Begin,
    Commit,
    Rollback,
    Seal,
    /// Clone the state, then write to the clone only.
    Fork(u8, u64),
}

fn account(id: u8) -> AccountId {
    AccountId([id; 20])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, 0u64..1_000).prop_map(|(id, amount)| Op::Credit(id, amount)),
        (0u8..5, 0u64..1_000).prop_map(|(id, amount)| Op::Debit(id, amount)),
        (0u8..5).prop_map(Op::BumpNonce),
        (0u8..8).prop_map(Op::Touch),
        (0u8..5, 0u8..3).prop_map(|(id, code)| Op::SetCode(id, code)),
        (
            0u8..3,
            0u8..6,
            proptest::collection::vec(any::<u8>(), 0..40)
        )
            .prop_map(|(contract, key, value)| Op::StorageSet(contract, key, value)),
        (0u8..3, 0u8..6).prop_map(|(contract, key)| Op::StorageRemove(contract, key)),
        (
            0u8..3,
            0u8..6,
            proptest::collection::vec(any::<u8>(), 0..40)
        )
            .prop_map(|(contract, key, value)| Op::Reinsert(contract, key, value)),
        Just(Op::Begin),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
        Just(Op::Rollback),
        Just(Op::Seal),
        Just(Op::Seal),
        (0u8..8, 1u64..1_000).prop_map(|(id, amount)| Op::Fork(id, amount)),
    ]
}

/// Checks both read paths against the from-scratch oracle.
fn assert_consistent(state: &WorldState) {
    assert_eq!(state.commitment(), state.commitment_from_scratch());
}

fn apply(state: &mut WorldState, checkpoints: &mut Vec<Checkpoint>, op: &Op) {
    match op {
        Op::Credit(id, amount) => {
            state
                .credit(account(*id), u128::from(*amount))
                .expect("bounded credits cannot overflow");
        }
        Op::Debit(id, amount) => {
            let _ = state.debit(account(*id), u128::from(*amount));
        }
        Op::BumpNonce(id) => state.account_mut(account(*id)).nonce += 1,
        Op::Touch(id) => {
            state.account_mut(account(*id));
        }
        Op::SetCode(id, code) => {
            state.account_mut(account(*id)).code_id = Some(format!("code-{code}"));
        }
        Op::StorageSet(contract, key, value) => {
            state.storage_set(account(*contract), vec![*key], value.clone());
        }
        Op::StorageRemove(contract, key) => {
            state.storage_remove(&account(*contract), &[*key]);
        }
        Op::Reinsert(contract, key, value) => {
            state.storage_remove(&account(*contract), &[*key]);
            assert_consistent(state);
            state.storage_set(account(*contract), vec![*key], value.clone());
        }
        Op::Begin => checkpoints.push(state.begin_transaction()),
        Op::Commit => {
            if let Some(checkpoint) = checkpoints.pop() {
                state.commit(checkpoint);
            }
        }
        Op::Rollback => {
            if let Some(checkpoint) = checkpoints.pop() {
                state.rollback(checkpoint);
            }
        }
        Op::Seal => {
            let sealed = state.seal_commitment();
            assert_eq!(sealed, state.commitment_from_scratch());
        }
        Op::Fork(id, amount) => {
            let before = state.commitment();
            let mut twin = state.clone();
            twin.credit(account(*id), u128::from(*amount))
                .expect("bounded credits cannot overflow");
            twin.storage_set(
                account(*id),
                b"fork".to_vec(),
                amount.to_le_bytes().to_vec(),
            );
            assert_consistent(&twin);
            assert_eq!(twin.seal_commitment(), twin.commitment_from_scratch());
            assert_ne!(twin.commitment(), before);
            // The original neither saw the twin's writes nor its seal.
            assert_eq!(state.commitment(), before);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every op — inside or outside transactions, before the first
    /// seal or after many — the cached commitment equals the recompute.
    #[test]
    fn incremental_commitment_matches_from_scratch(
        ops in proptest::collection::vec(op_strategy(), 1..48),
    ) {
        let mut state = WorldState::new();
        let mut checkpoints = Vec::new();
        for op in &ops {
            apply(&mut state, &mut checkpoints, op);
            assert_consistent(&state);
        }
        // Unwind whatever is still open, outermost last.
        while let Some(checkpoint) = checkpoints.pop() {
            state.rollback(checkpoint);
            assert_consistent(&state);
        }
        prop_assert_eq!(state.seal_commitment(), state.commitment_from_scratch());
    }
}

#[test]
fn fresh_state_without_cached_leaves_matches_from_scratch() {
    let empty = WorldState::new();
    assert_eq!(empty.commitment(), empty.commitment_from_scratch());

    let mut state = WorldState::new();
    for i in 0..200u8 {
        state.credit(account(i), u128::from(i) + 1).unwrap();
        state.storage_set(account(i % 7), vec![i, i], vec![i; usize::from(i % 50)]);
    }
    assert_eq!(state.leaves_rehashed(), 0, "nothing sealed yet");
    let peeked = state.commitment();
    assert_eq!(peeked, state.commitment_from_scratch());
    assert_ne!(peeked, empty.commitment());
    assert_eq!(state.seal_commitment(), peeked);
    assert_eq!(state.leaves_rehashed(), state.entries() as u64);
}

#[test]
fn seal_rehashes_each_distinct_live_key_once() {
    let mut state = WorldState::new();
    state.credit(account(1), 10).unwrap();
    state.storage_set(account(1), b"gone".to_vec(), b"v".to_vec());
    state.seal_commitment();
    let base = state.leaves_rehashed();
    assert_eq!(base, 2);

    // Nothing written: the previous root comes back, no hashing.
    let root = state.commitment();
    assert_eq!(state.seal_commitment(), root);
    assert_eq!(state.leaves_rehashed(), base);

    // Account 1 written three times, account 2 created, one slot written
    // twice, one slot removed: three live distinct keys, one dropped.
    state.credit(account(1), 1).unwrap();
    state.debit(account(1), 2).unwrap();
    state.account_mut(account(1)).nonce += 1;
    state.credit(account(2), 5).unwrap();
    state.storage_set(account(1), b"k".to_vec(), b"a".to_vec());
    state.storage_set(account(1), b"k".to_vec(), b"b".to_vec());
    state.storage_remove(&account(1), b"gone");
    assert_eq!(state.seal_commitment(), state.commitment_from_scratch());
    assert_eq!(state.leaves_rehashed(), base + 3);
}

/// Escrow-shaped contract: `pay` records one new slot per payment, so
/// the state grows by one entry with every payment.
struct Ledger;

impl Contract for Ledger {
    fn code_id(&self) -> &'static str {
        "ledger"
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
            "pay" => {
                storage.set(args, b"open")?;
                Ok(vec![])
            }
            other => Err(ContractError::UnknownMethod(other.into())),
        }
    }
}

#[test]
fn sealing_cost_tracks_touched_keys_not_state_size() {
    const PAYMENTS: u32 = 300;
    let payer = KeyPair::from_seed(b"incremental commitment payer");
    let mut chain = PscChain::new(PscParams::ethereum_like());
    let gas_price = chain.params().gas_price;
    chain.register_code(Arc::new(Ledger));
    chain.faucet(payer.address().into(), 1 << 80);
    let deploy = PscTransaction::new(
        *payer.public(),
        0,
        0,
        Action::Deploy {
            code_id: "ledger".into(),
            args: vec![],
        },
    )
    .with_gas(1_000_000, gas_price)
    .sign(&payer);
    let deploy_hash = chain.submit_transaction(deploy).expect("signed");
    chain.produce_block(1);
    let ledger = chain
        .receipt(&deploy_hash)
        .and_then(|r| r.contract_address)
        .expect("deployed");
    let entries_at_start = chain.state().entries();

    let mut nonce = 1;
    let mut paid = 0u32;
    let mut batch = 0usize;
    while paid < PAYMENTS {
        // Batches of 1..=4 payments, each followed by two empty blocks
        // (the finality wait).
        batch = batch % 4 + 1;
        for _ in 0..batch {
            let tx = PscTransaction::new(
                *payer.public(),
                nonce,
                7,
                Action::Call {
                    contract: ledger,
                    method: "pay".into(),
                    args: paid.to_le_bytes().to_vec(),
                },
            )
            .with_gas(1_000_000, gas_price)
            .sign(&payer);
            chain.submit_transaction(tx).expect("signed");
            nonce += 1;
            paid += 1;
        }
        let before = chain.state().leaves_rehashed();
        let root = chain.produce_block(chain.tip_time() + 15).state_commitment;
        // Payer (nonce, value, fee), ledger (value), validator (fee), and
        // one new slot per payment.
        assert_eq!(
            chain.state().leaves_rehashed() - before,
            3 + batch as u64,
            "payment block at {paid} payments"
        );
        assert_eq!(root, chain.state().commitment_from_scratch());

        for _ in 0..2 {
            let before = chain.state().leaves_rehashed();
            let empty = chain.produce_block(chain.tip_time() + 15).state_commitment;
            assert_eq!(chain.state().leaves_rehashed(), before, "empty block");
            assert_eq!(empty, root, "an empty block reuses the root");
        }
    }
    assert_eq!(
        chain.state().entries(),
        entries_at_start + PAYMENTS as usize,
        "one new slot per payment"
    );
}
