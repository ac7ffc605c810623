//! The PSC chain node: code registry, transaction pool, execution engine,
//! and block production.

use crate::account::AccountId;
use crate::block::PscBlock;
use crate::contract::{Contract, ContractError, Env, HostStorage, ViewStorage};
use crate::gas::{GasMeter, GasSchedule};
use crate::params::PscParams;
use crate::state::WorldState;
use crate::tx::{Action, PscTransaction, PscTxError, Receipt, TxStatus};
use btcfast_crypto::Hash256;
use std::collections::HashMap;
use std::sync::Arc;

/// A PSC chain with proof-of-authority block production.
///
/// Registered contract *code* is shared ([`Arc`]) and stateless; deployed
/// contract *instances* are accounts whose state lives in [`WorldState`]
/// storage.
#[derive(Clone)]
pub struct PscChain {
    params: PscParams,
    registry: HashMap<&'static str, Arc<dyn Contract>>,
    state: WorldState,
    blocks: Vec<PscBlock>,
    pending: Vec<PscTransaction>,
    receipts: HashMap<Hash256, Receipt>,
    /// Account credited with fees (the validator).
    validator: AccountId,
    /// Cumulative gas used (diagnostics / fee tables).
    total_gas_used: u64,
}

impl std::fmt::Debug for PscChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PscChain")
            .field("params", &self.params.name)
            .field("height", &self.height())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl PscChain {
    /// Creates a chain with the given parameters.
    pub fn new(params: PscParams) -> PscChain {
        PscChain {
            params,
            registry: HashMap::new(),
            state: WorldState::new(),
            blocks: Vec::new(),
            pending: Vec::new(),
            receipts: HashMap::new(),
            validator: AccountId([0xA1; 20]),
            total_gas_used: 0,
        }
    }

    /// The chain parameters.
    pub fn params(&self) -> &PscParams {
        &self.params
    }

    /// Registers deployable contract code.
    pub fn register_code(&mut self, code: Arc<dyn Contract>) {
        self.registry.insert(code.code_id(), code);
    }

    /// Mints native balance out of thin air (test/simulation faucet),
    /// clamped to the account's remaining `u128` headroom so repeated
    /// fuzzed mints cannot overflow. Returns the amount actually minted.
    pub fn faucet(&mut self, account: AccountId, amount: u128) -> u128 {
        let headroom = u128::MAX - self.state.balance(&account);
        let minted = amount.min(headroom);
        self.state
            .credit(account, minted)
            .expect("mint is clamped to the account's headroom");
        minted
    }

    /// Current block number (0 before any block).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Timestamp of the latest block (0 at genesis).
    pub fn tip_time(&self) -> u64 {
        self.blocks.last().map(|b| b.time).unwrap_or(0)
    }

    /// Balance of an account.
    pub fn balance_of(&self, account: &AccountId) -> u128 {
        self.state.balance(account)
    }

    /// The account fees accrue to. Exposed so value-conservation audits
    /// can close their books without guessing at chain internals.
    pub fn validator(&self) -> AccountId {
        self.validator
    }

    /// Nonce of an account.
    pub fn nonce_of(&self, account: &AccountId) -> u64 {
        self.state.nonce(account)
    }

    /// The receipt of a processed transaction.
    pub fn receipt(&self, tx_hash: &Hash256) -> Option<&Receipt> {
        self.receipts.get(tx_hash)
    }

    /// A produced block by number (1-based).
    pub fn block(&self, number: u64) -> Option<&PscBlock> {
        if number == 0 || number > self.height() {
            return None;
        }
        self.blocks.get((number - 1) as usize)
    }

    /// Number of pending transactions.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative gas used across all blocks.
    pub fn total_gas_used(&self) -> u64 {
        self.total_gas_used
    }

    /// Deepest the state's pre-image journal has ever grown — the
    /// checkpoint-depth observability metric.
    pub fn journal_high_water(&self) -> usize {
        self.state.journal_high_water()
    }

    /// Confirmations of the block containing `tx_hash` (1 = in tip block),
    /// or `None` if unprocessed.
    pub fn confirmations(&self, tx_hash: &Hash256) -> Option<u64> {
        let receipt = self.receipts.get(tx_hash)?;
        if receipt.block_number == 0 {
            return None;
        }
        Some(self.height() - receipt.block_number + 1)
    }

    /// True once the containing block is `finality_depth` deep.
    pub fn is_final(&self, tx_hash: &Hash256) -> bool {
        self.confirmations(tx_hash)
            .map(|c| c >= self.params.finality_depth)
            .unwrap_or(false)
    }

    /// Queues a transaction for the next block after stateless checks.
    ///
    /// # Errors
    ///
    /// Returns [`PscTxError`] for bad signatures or an over-cap gas limit.
    /// Nonce and balance are checked at execution time (they depend on
    /// in-block ordering).
    pub fn submit_transaction(&mut self, tx: PscTransaction) -> Result<Hash256, PscTxError> {
        tx.verify_signature()?;
        if tx.gas_limit > self.params.tx_gas_limit {
            return Err(PscTxError::GasLimitTooHigh {
                requested: tx.gas_limit,
                cap: self.params.tx_gas_limit,
            });
        }
        let hash = tx.hash();
        self.pending.push(tx);
        Ok(hash)
    }

    /// Produces the next block at `time`, executing all pending
    /// transactions in submission order.
    pub fn produce_block(&mut self, time: u64) -> &PscBlock {
        let number = self.height() + 1;
        let pending = std::mem::take(&mut self.pending);
        // One schedule clone per block, shared by every transaction; the
        // borrow cannot come from `self.params` because execution takes
        // `&mut self`.
        let schedule = self.params.schedule.clone();
        let mut tx_hashes = Vec::with_capacity(pending.len());
        for tx in pending {
            let hash = tx.hash();
            let receipt = self.execute(tx, number, time, &schedule);
            self.total_gas_used += receipt.gas_used;
            self.receipts.insert(hash, receipt);
            tx_hashes.push(hash);
        }
        let block = PscBlock {
            number,
            time,
            parent_hash: self
                .blocks
                .last()
                .map(|b| b.hash())
                .unwrap_or(Hash256::ZERO),
            tx_hashes,
            state_commitment: self.state.seal_commitment(),
        };
        self.blocks.push(block);
        self.blocks.last().expect("just pushed")
    }

    /// Executes one transaction against the state.
    fn execute(
        &mut self,
        tx: PscTransaction,
        block_number: u64,
        block_time: u64,
        schedule: &GasSchedule,
    ) -> Receipt {
        let tx_hash = tx.hash();
        let sender = tx.sender();
        let invalid = |msg: String| Receipt {
            tx_hash,
            status: TxStatus::Invalid(msg),
            gas_used: 0,
            fee_paid: 0,
            events: vec![],
            return_data: vec![],
            contract_address: None,
            block_number,
        };

        // Pre-execution checks.
        let expected_nonce = self.state.nonce(&sender);
        if tx.nonce != expected_nonce {
            return invalid(format!(
                "bad nonce: expected {expected_nonce}, got {}",
                tx.nonce
            ));
        }
        let max_cost = tx.value.saturating_add(tx.max_fee());
        if self.state.balance(&sender) < max_cost {
            return invalid("insufficient balance for value plus max fee".into());
        }

        // Intrinsic gas.
        let mut meter = GasMeter::new(tx.gas_limit);
        let intrinsic = schedule.tx_intrinsic
            + schedule.calldata_byte * tx.action.calldata_len() as u64
            + schedule.ecdsa_verify;
        if meter.charge(intrinsic).is_err() {
            // Intrinsic alone exceeds the limit: whole limit burned.
            let fee = self.collect_fee(sender, tx.max_fee());
            self.state.account_mut(sender).nonce += 1;
            return Receipt {
                tx_hash,
                status: TxStatus::OutOfGas,
                gas_used: tx.gas_limit,
                fee_paid: fee,
                events: vec![],
                return_data: vec![],
                contract_address: None,
                block_number,
            };
        }

        // Open a journal transaction for revert: a failed call rolls back
        // only the entries it touched instead of restoring a full clone.
        let checkpoint = self.state.begin_transaction();
        self.state.account_mut(sender).nonce += 1;

        type CallOutcome =
            Result<(Vec<u8>, Vec<crate::contract::Event>, Option<AccountId>), ContractError>;
        let result: CallOutcome = match &tx.action {
            Action::Transfer { to } => match self.state.transfer(sender, *to, tx.value) {
                Ok(()) => Ok((vec![], vec![], None)),
                Err(e) => Err(ContractError::Revert(e.to_string())),
            },
            Action::Deploy { code_id, args } => {
                match self.registry.get(code_id.as_str()).cloned() {
                    None => Err(ContractError::Revert(format!(
                        "unknown code id {code_id:?}"
                    ))),
                    Some(code) => match meter.charge(schedule.deploy) {
                        Err(e) => Err(ContractError::OutOfGas(e)),
                        Ok(()) => {
                            let contract_id = AccountId::contract(&sender, tx.nonce, code_id);
                            self.state.account_mut(contract_id).code_id = Some(code_id.clone());
                            match self.state.transfer(sender, contract_id, tx.value) {
                                Err(e) => Err(ContractError::Revert(e.to_string())),
                                Ok(()) => {
                                    let env = Env {
                                        caller: sender,
                                        contract: contract_id,
                                        value: tx.value,
                                        block_number,
                                        block_time,
                                    };
                                    self.run_contract(
                                        &code, &env, "init", args, &mut meter, schedule,
                                    )
                                    .map(|(ret, events)| (ret, events, Some(contract_id)))
                                }
                            }
                        }
                    },
                }
            }
            Action::Call {
                contract,
                method,
                args,
            } => {
                let code_id = self.state.account(contract).and_then(|a| a.code_id.clone());
                match code_id.and_then(|id| self.registry.get(id.as_str()).cloned()) {
                    None => Err(ContractError::Revert(format!(
                        "account {contract} holds no code"
                    ))),
                    Some(code) => match self.state.transfer(sender, *contract, tx.value) {
                        Err(e) => Err(ContractError::Revert(e.to_string())),
                        Ok(()) => {
                            let env = Env {
                                caller: sender,
                                contract: *contract,
                                value: tx.value,
                                block_number,
                                block_time,
                            };
                            self.run_contract(&code, &env, method, args, &mut meter, schedule)
                                .map(|(ret, events)| (ret, events, None))
                        }
                    },
                }
            }
        };

        let gas_used = meter.used();
        let fee = (gas_used as u128).saturating_mul(tx.gas_price);

        match result {
            Ok((return_data, events, contract_address)) => {
                self.state.commit(checkpoint);
                let fee = self.collect_fee(sender, fee);
                Receipt {
                    tx_hash,
                    status: TxStatus::Succeeded,
                    gas_used,
                    fee_paid: fee,
                    events,
                    return_data,
                    contract_address,
                    block_number,
                }
            }
            Err(error) => {
                // Revert all state changes, then charge the fee.
                self.state.rollback(checkpoint);
                self.state.account_mut(sender).nonce += 1;
                let (status, billed_gas) = match error {
                    ContractError::OutOfGas(_) => (TxStatus::OutOfGas, tx.gas_limit),
                    other => (TxStatus::Reverted(other.to_string()), gas_used),
                };
                let fee = (billed_gas as u128).saturating_mul(tx.gas_price);
                let fee = self.collect_fee(sender, fee);
                Receipt {
                    tx_hash,
                    status,
                    gas_used: billed_gas,
                    fee_paid: fee,
                    events: vec![],
                    return_data: vec![],
                    contract_address: None,
                    block_number,
                }
            }
        }
    }

    /// Moves a fee from `sender` to the validator, capping at whatever the
    /// sender can actually pay and refunding if the validator's balance
    /// cannot absorb it (fuzzed states hold near-`u128::MAX` balances).
    /// Returns the fee actually collected — never panics on hostile input.
    fn collect_fee(&mut self, sender: AccountId, fee: u128) -> u128 {
        let paid = fee.min(self.state.balance(&sender));
        if self.state.debit(sender, paid).is_err() {
            return 0;
        }
        if self.state.credit(self.validator, paid).is_err() {
            self.state
                .credit(sender, paid)
                .expect("restoring a just-debited balance cannot overflow");
            return 0;
        }
        paid
    }

    fn run_contract(
        &mut self,
        code: &Arc<dyn Contract>,
        env: &Env,
        method: &str,
        args: &[u8],
        meter: &mut GasMeter,
        schedule: &GasSchedule,
    ) -> Result<(Vec<u8>, Vec<crate::contract::Event>), ContractError> {
        let mut host = HostStorage {
            world: &mut self.state,
            meter,
            schedule,
            contract: env.contract,
            events: Vec::new(),
            transfers: Vec::new(),
        };
        let ret = code.call(env, method, args, &mut host)?;
        let events = host.events;
        Ok((ret, events))
    }

    /// Executes a read-only call against current state without a
    /// transaction: free, unmetered (large scratch budget), uncommitted.
    ///
    /// Zero-copy: the call reads the live state through a borrow and any
    /// writes the method makes land in a discarded overlay
    /// ([`ViewStorage`]) — the state is never cloned.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`] from the contract.
    pub fn call_view(
        &self,
        caller: AccountId,
        contract: AccountId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let code_id = self
            .state
            .account(&contract)
            .and_then(|a| a.code_id.clone())
            .ok_or_else(|| ContractError::Revert(format!("account {contract} holds no code")))?;
        let code = self
            .registry
            .get(code_id.as_str())
            .cloned()
            .ok_or_else(|| ContractError::Revert(format!("unregistered code {code_id:?}")))?;
        let mut meter = GasMeter::new(u64::MAX / 2);
        let env = Env {
            caller,
            contract,
            value: 0,
            block_number: self.height(),
            block_time: self.tip_time(),
        };
        let mut host = ViewStorage::new(&self.state, &mut meter, &self.params.schedule, contract);
        code.call(&env, method, args, &mut host)
    }

    /// Commitment over the current world state (the tip "state root").
    pub fn state_commitment(&self) -> Hash256 {
        self.state.commitment()
    }

    /// Read-only view of the world state (sizes, commitment diagnostics).
    pub fn state(&self) -> &WorldState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use crate::contract::Storage;
    use btcfast_crypto::keys::KeyPair;

    /// A tiny counter contract used to exercise the runtime.
    struct Counter;

    impl Contract for Counter {
        fn code_id(&self) -> &'static str {
            "counter"
        }

        fn call(
            &self,
            env: &Env,
            method: &str,
            args: &[u8],
            storage: &mut dyn Storage,
        ) -> Result<Vec<u8>, ContractError> {
            match method {
                "init" => {
                    let start = if args.is_empty() {
                        0u64
                    } else {
                        u64::decode(args)?
                    };
                    storage.set(b"count", &start.encode())?;
                    storage.set(b"owner", &env.caller.encode())?;
                    Ok(vec![])
                }
                "increment" => {
                    let count = storage
                        .get(b"count")?
                        .map(|v| u64::decode(&v))
                        .transpose()?
                        .unwrap_or(0);
                    let next = count + 1;
                    storage.set(b"count", &next.encode())?;
                    storage.emit("Incremented", next.encode())?;
                    Ok(next.encode())
                }
                "get" => Ok(storage.get(b"count")?.unwrap_or_default()),
                "fail" => Err(ContractError::Revert("intentional failure".into())),
                "burn" => loop {
                    storage.charge(10_000)?;
                },
                "payout" => {
                    let owner = storage
                        .get(b"owner")?
                        .map(|v| AccountId::decode(&v))
                        .transpose()?
                        .ok_or_else(|| ContractError::Revert("uninitialized".into()))?;
                    let balance = storage.contract_balance();
                    storage.transfer_out(owner, balance)?;
                    Ok(vec![])
                }
                other => Err(ContractError::UnknownMethod(other.to_string())),
            }
        }
    }

    struct Fixture {
        chain: PscChain,
        alice: KeyPair,
        contract: AccountId,
    }

    fn deploy_counter() -> Fixture {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        chain.register_code(Arc::new(Counter));
        let alice = KeyPair::from_seed(b"alice");
        chain.faucet(alice.address().into(), 10_000_000_000);

        let deploy = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Deploy {
                code_id: "counter".into(),
                args: 5u64.encode(),
            },
        )
        .with_gas(1_000_000, 20)
        .sign(&alice);
        let hash = chain.submit_transaction(deploy).unwrap();
        chain.produce_block(15);
        let receipt = chain.receipt(&hash).unwrap().clone();
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        Fixture {
            contract: receipt.contract_address.unwrap(),
            chain,
            alice,
        }
    }

    fn call(fx: &mut Fixture, method: &str, args: Vec<u8>, value: u128, gas_limit: u64) -> Receipt {
        let nonce = fx.chain.nonce_of(&fx.alice.address().into());
        let tx = PscTransaction::new(
            *fx.alice.public(),
            nonce,
            value,
            Action::Call {
                contract: fx.contract,
                method: method.into(),
                args,
            },
        )
        .with_gas(gas_limit, 20)
        .sign(&fx.alice);
        let hash = fx.chain.submit_transaction(tx).unwrap();
        let time = fx.chain.tip_time() + 15;
        fx.chain.produce_block(time);
        fx.chain.receipt(&hash).unwrap().clone()
    }

    #[test]
    fn deploy_and_init() {
        let fx = deploy_counter();
        let count = fx
            .chain
            .call_view(fx.alice.address().into(), fx.contract, "get", &[])
            .unwrap();
        assert_eq!(u64::decode(&count).unwrap(), 5);
    }

    #[test]
    fn call_mutates_state_and_emits() {
        let mut fx = deploy_counter();
        let receipt = call(&mut fx, "increment", vec![], 0, 1_000_000);
        assert!(receipt.status.is_success());
        assert_eq!(u64::decode(&receipt.return_data).unwrap(), 6);
        assert_eq!(receipt.events.len(), 1);
        assert_eq!(receipt.events[0].topic, "Incremented");
        assert!(receipt.gas_used > 0);
        assert_eq!(receipt.fee_paid, receipt.gas_used as u128 * 20);
    }

    #[test]
    fn revert_rolls_back_but_charges() {
        let mut fx = deploy_counter();
        call(&mut fx, "increment", vec![], 0, 1_000_000);
        let balance_before = fx.chain.balance_of(&fx.alice.address().into());
        let receipt = call(&mut fx, "fail", vec![], 0, 1_000_000);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        // Fee was charged.
        let balance_after = fx.chain.balance_of(&fx.alice.address().into());
        assert!(balance_after < balance_before);
        // State unchanged.
        let count = fx
            .chain
            .call_view(fx.alice.address().into(), fx.contract, "get", &[])
            .unwrap();
        assert_eq!(u64::decode(&count).unwrap(), 6);
    }

    #[test]
    fn out_of_gas_burns_full_limit() {
        let mut fx = deploy_counter();
        let receipt = call(&mut fx, "burn", vec![], 0, 200_000);
        assert_eq!(receipt.status, TxStatus::OutOfGas);
        assert_eq!(receipt.gas_used, 200_000);
        assert_eq!(receipt.fee_paid, 200_000 * 20);
    }

    #[test]
    fn value_transfer_to_contract_and_payout() {
        let mut fx = deploy_counter();
        let receipt = call(&mut fx, "increment", vec![], 500, 1_000_000);
        assert!(receipt.status.is_success());
        assert_eq!(fx.chain.balance_of(&fx.contract), 500);
        let receipt = call(&mut fx, "payout", vec![], 0, 1_000_000);
        assert!(receipt.status.is_success());
        assert_eq!(fx.chain.balance_of(&fx.contract), 0);
    }

    #[test]
    fn plain_transfer() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        let bob = KeyPair::from_seed(b"b");
        chain.faucet(alice.address().into(), 1_000_000_000);
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            250,
            Action::Transfer {
                to: bob.address().into(),
            },
        )
        .with_gas(100_000, 1)
        .sign(&alice);
        chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert_eq!(chain.balance_of(&bob.address().into()), 250);
    }

    #[test]
    fn bad_nonce_invalid() {
        let mut fx = deploy_counter();
        let tx = PscTransaction::new(
            *fx.alice.public(),
            99,
            0,
            Action::Call {
                contract: fx.contract,
                method: "increment".into(),
                args: vec![],
            },
        )
        .with_gas(1_000_000, 20)
        .sign(&fx.alice);
        let hash = fx.chain.submit_transaction(tx).unwrap();
        fx.chain.produce_block(30);
        assert!(matches!(
            fx.chain.receipt(&hash).unwrap().status,
            TxStatus::Invalid(_)
        ));
    }

    #[test]
    fn insufficient_balance_invalid() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let pauper = KeyPair::from_seed(b"pauper");
        let tx = PscTransaction::new(
            *pauper.public(),
            0,
            1_000,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, 1)
        .sign(&pauper);
        let hash = chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&hash).unwrap().status,
            TxStatus::Invalid(_)
        ));
    }

    #[test]
    fn unsigned_rejected_at_submission() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        );
        assert_eq!(chain.submit_transaction(tx), Err(PscTxError::BadSignature));
    }

    #[test]
    fn gas_cap_enforced() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000_000, 1)
        .sign(&alice);
        assert!(matches!(
            chain.submit_transaction(tx),
            Err(PscTxError::GasLimitTooHigh { .. })
        ));
    }

    #[test]
    fn unknown_code_reverts() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        chain.faucet(alice.address().into(), 1_000_000_000);
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Deploy {
                code_id: "ghost".into(),
                args: vec![],
            },
        )
        .with_gas(1_000_000, 1)
        .sign(&alice);
        let hash = chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&hash).unwrap().status,
            TxStatus::Reverted(_)
        ));
    }

    #[test]
    fn finality_tracking() {
        let mut fx = deploy_counter();
        let receipt = call(&mut fx, "increment", vec![], 0, 1_000_000);
        assert!(!fx.chain.is_final(&receipt.tx_hash));
        for _ in 0..fx.chain.params().finality_depth {
            let t = fx.chain.tip_time() + 15;
            fx.chain.produce_block(t);
        }
        assert!(fx.chain.is_final(&receipt.tx_hash));
    }

    #[test]
    fn block_chain_links() {
        let mut fx = deploy_counter();
        call(&mut fx, "increment", vec![], 0, 1_000_000);
        let b1 = fx.chain.block(1).unwrap().clone();
        let b2 = fx.chain.block(2).unwrap().clone();
        assert_eq!(b2.parent_hash, b1.hash());
        assert!(fx.chain.block(0).is_none());
        assert!(fx.chain.block(99).is_none());
    }

    #[test]
    fn sequential_nonces_in_one_block() {
        // Two transfers from the same sender with nonces n and n+1 must
        // both execute when included in the same block, in order.
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"seq");
        let bob = AccountId([9; 20]);
        chain.faucet(alice.address().into(), 1_000_000_000);
        for nonce in 0..2 {
            let tx = PscTransaction::new(*alice.public(), nonce, 100, Action::Transfer { to: bob })
                .with_gas(100_000, 1)
                .sign(&alice);
            chain.submit_transaction(tx).unwrap();
        }
        chain.produce_block(15);
        assert_eq!(chain.balance_of(&bob), 200);
        assert_eq!(chain.nonce_of(&alice.address().into()), 2);
    }

    #[test]
    fn out_of_order_nonce_in_block_is_invalid() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"ooo");
        chain.faucet(alice.address().into(), 1_000_000_000);
        // Submit nonce 1 before nonce 0: the first (nonce 1) fails, the
        // second (nonce 0) succeeds.
        let tx1 = PscTransaction::new(
            *alice.public(),
            1,
            5,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, 1)
        .sign(&alice);
        let tx0 = PscTransaction::new(
            *alice.public(),
            0,
            5,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, 1)
        .sign(&alice);
        let h1 = chain.submit_transaction(tx1).unwrap();
        let h0 = chain.submit_transaction(tx0).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&h1).unwrap().status,
            TxStatus::Invalid(_)
        ));
        assert!(chain.receipt(&h0).unwrap().status.is_success());
    }

    #[test]
    fn hostile_gas_price_cannot_abort_execution() {
        // Found by the audit fuzzer: gas_limit × a u128::MAX gas_price
        // overflowed max_fee() (a debug-build panic) before the balance
        // pre-check could reject the transaction. The saturated cost now
        // fails the pre-check and the receipt degrades to Invalid.
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"hostile");
        chain.faucet(alice.address().into(), 1_000_000_000);
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            1,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, u128::MAX)
        .sign(&alice);
        let hash = chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&hash).unwrap().status,
            TxStatus::Invalid(_)
        ));
        // Nothing moved.
        assert_eq!(chain.balance_of(&AccountId([9; 20])), 0);
        assert_eq!(chain.balance_of(&alice.address().into()), 1_000_000_000);
    }

    #[test]
    fn faucet_clamps_to_headroom() {
        // Repeated fuzzed mints used to overflow the credit; the faucet
        // now reports how much it actually minted.
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let rich = AccountId([7; 20]);
        assert_eq!(chain.faucet(rich, u128::MAX), u128::MAX);
        assert_eq!(chain.faucet(rich, 500), 0);
        assert_eq!(chain.balance_of(&rich), u128::MAX);
    }

    #[test]
    fn total_gas_accumulates() {
        let mut fx = deploy_counter();
        let before = fx.chain.total_gas_used();
        call(&mut fx, "increment", vec![], 0, 1_000_000);
        assert!(fx.chain.total_gas_used() > before);
    }
}
