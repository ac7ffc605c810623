//! The world state: accounts and contract storage.

use crate::account::{Account, AccountId};
use crate::commitment::{self, CommitmentTree, LeafKey, SlotKey};
use btcfast_crypto::Hash256;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Balance movement failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// Debit larger than the account balance.
    InsufficientBalance {
        /// The account debited.
        account: AccountId,
        /// Balance available.
        available: u128,
        /// Amount requested.
        requested: u128,
    },
    /// Credit that would push the account balance past `u128::MAX`.
    BalanceOverflow {
        /// The account credited.
        account: AccountId,
        /// Balance before the credit.
        balance: u128,
        /// Amount that did not fit.
        amount: u128,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InsufficientBalance {
                account,
                available,
                requested,
            } => write!(
                f,
                "insufficient balance on {account}: have {available}, need {requested}"
            ),
            StateError::BalanceOverflow {
                account,
                balance,
                amount,
            } => write!(
                f,
                "balance overflow on {account}: {balance} + {amount} exceeds u128"
            ),
        }
    }
}

impl Error for StateError {}

/// The pre-image of one touched entry, recorded while a transaction is
/// open so [`WorldState::rollback`] can restore it.
#[derive(Clone, Debug)]
enum JournalEntry {
    Account {
        id: AccountId,
        prev: Option<Account>,
    },
    Storage {
        contract: AccountId,
        key: Vec<u8>,
        prev: Option<Vec<u8>>,
    },
}

/// A position in the write journal returned by
/// [`WorldState::begin_transaction`]. Consume it with
/// [`WorldState::commit`] or [`WorldState::rollback`].
#[derive(Debug)]
#[must_use = "a checkpoint must be committed or rolled back"]
pub struct Checkpoint(usize);

/// Accounts plus per-contract key/value storage.
///
/// `BTreeMap`s keep iteration deterministic, which makes the state
/// commitment reproducible across runs.
///
/// Every write path also marks the key it touched dirty in the state
/// commitment tree, so sealing a block rehashes only what the block
/// touched ([`seal_commitment`](WorldState::seal_commitment)).
///
/// Between [`begin_transaction`](WorldState::begin_transaction) and
/// [`commit`](WorldState::commit)/[`rollback`](WorldState::rollback) every
/// mutation records the pre-image of the entry it touches, so reverting a
/// transaction costs O(touched keys) rather than O(state size) — no
/// whole-state snapshot clone is ever taken.
#[derive(Clone, Debug, Default)]
pub struct WorldState {
    accounts: BTreeMap<AccountId, Account>,
    storage: BTreeMap<SlotKey, Vec<u8>>,
    /// Pre-images of entries touched since the outermost open checkpoint.
    journal: Vec<JournalEntry>,
    /// True while a transaction is open; mutations outside one skip the
    /// journal entirely, so steady-state writes stay allocation-free.
    recording: bool,
    /// Deepest the journal has ever grown (observability: the checkpoint
    /// depth metric). Like the journal itself, excluded from equality.
    journal_high_water: usize,
    /// Cached leaf hashes and root plus the keys written since the last
    /// seal. Derived from the content above, so excluded from equality.
    tree: CommitmentTree,
}

impl PartialEq for WorldState {
    fn eq(&self, other: &WorldState) -> bool {
        // The journal is transient bookkeeping, not state: two states with
        // identical content are equal regardless of open transactions.
        self.accounts == other.accounts && self.storage == other.storage
    }
}

impl Eq for WorldState {}

impl WorldState {
    /// Creates an empty state.
    pub fn new() -> WorldState {
        WorldState::default()
    }

    /// Read-only account lookup.
    pub fn account(&self, id: &AccountId) -> Option<&Account> {
        self.accounts.get(id)
    }

    /// Journals a pre-image, tracking the high-water depth.
    fn record(&mut self, entry: JournalEntry) {
        self.journal.push(entry);
        self.journal_high_water = self.journal_high_water.max(self.journal.len());
    }

    /// Mutable account access, creating a default record on first touch.
    pub fn account_mut(&mut self, id: AccountId) -> &mut Account {
        self.tree.mark(LeafKey::Account(id));
        if self.recording {
            let prev = self.accounts.get(&id).cloned();
            self.record(JournalEntry::Account { id, prev });
        }
        self.accounts.entry(id).or_default()
    }

    /// Balance of an account (0 when absent).
    pub fn balance(&self, id: &AccountId) -> u128 {
        self.accounts.get(id).map(|a| a.balance).unwrap_or(0)
    }

    /// Nonce of an account (0 when absent).
    pub fn nonce(&self, id: &AccountId) -> u64 {
        self.accounts.get(id).map(|a| a.nonce).unwrap_or(0)
    }

    /// Credits an account.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BalanceOverflow`] if the balance would
    /// exceed `u128::MAX`; the state is unchanged in that case. Fuzzed
    /// faucet/transfer schedules reach this path, so it must be a typed
    /// error rather than a panic.
    pub fn credit(&mut self, id: AccountId, amount: u128) -> Result<(), StateError> {
        let balance = self.balance(&id);
        let new_balance = balance
            .checked_add(amount)
            .ok_or(StateError::BalanceOverflow {
                account: id,
                balance,
                amount,
            })?;
        self.account_mut(id).balance = new_balance;
        Ok(())
    }

    /// Debits an account.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InsufficientBalance`] if the balance is short.
    pub fn debit(&mut self, id: AccountId, amount: u128) -> Result<(), StateError> {
        let balance = self.balance(&id);
        if balance < amount {
            return Err(StateError::InsufficientBalance {
                account: id,
                available: balance,
                requested: amount,
            });
        }
        self.account_mut(id).balance = balance - amount;
        Ok(())
    }

    /// Moves value between accounts atomically.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InsufficientBalance`] if `from` is short and
    /// [`StateError::BalanceOverflow`] if `to` cannot absorb the amount;
    /// no state changes in either case.
    pub fn transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: u128,
    ) -> Result<(), StateError> {
        self.debit(from, amount)?;
        if let Err(e) = self.credit(to, amount) {
            self.credit(from, amount)
                .expect("restoring a just-debited balance cannot overflow");
            return Err(e);
        }
        Ok(())
    }

    /// Reads a contract storage slot.
    pub fn storage_get(&self, contract: &AccountId, key: &[u8]) -> Option<&Vec<u8>> {
        self.storage.get(&(*contract, key.to_vec()))
    }

    /// Writes a contract storage slot, returning the previous value.
    pub fn storage_set(
        &mut self,
        contract: AccountId,
        key: Vec<u8>,
        value: Vec<u8>,
    ) -> Option<Vec<u8>> {
        self.tree.mark(LeafKey::Storage((contract, key.clone())));
        if self.recording {
            let prev = self.storage.insert((contract, key.clone()), value);
            self.record(JournalEntry::Storage {
                contract,
                key,
                prev: prev.clone(),
            });
            prev
        } else {
            self.storage.insert((contract, key), value)
        }
    }

    /// Deletes a contract storage slot, returning the previous value.
    pub fn storage_remove(&mut self, contract: &AccountId, key: &[u8]) -> Option<Vec<u8>> {
        let slot = (*contract, key.to_vec());
        let prev = self.storage.remove(&slot);
        if self.recording {
            self.record(JournalEntry::Storage {
                contract: *contract,
                key: key.to_vec(),
                prev: prev.clone(),
            });
        }
        self.tree.mark(LeafKey::Storage(slot));
        prev
    }

    /// Number of live storage slots (diagnostics).
    pub fn storage_len(&self) -> usize {
        self.storage.len()
    }

    /// Opens a transaction: mutations from here on record pre-images so
    /// they can be undone. Checkpoints nest — an inner rollback undoes
    /// only the entries made after it.
    pub fn begin_transaction(&mut self) -> Checkpoint {
        self.recording = true;
        Checkpoint(self.journal.len())
    }

    /// Commits the changes made since `checkpoint`.
    ///
    /// Committing a *nested* checkpoint keeps its journal entries: they
    /// still belong to the enclosing transaction's undo set. Committing
    /// the outermost checkpoint clears the journal and stops recording.
    pub fn commit(&mut self, checkpoint: Checkpoint) {
        if checkpoint.0 == 0 {
            self.journal.clear();
            self.recording = false;
        }
    }

    /// Undoes every mutation made since `checkpoint` by replaying the
    /// recorded pre-images newest-first.
    pub fn rollback(&mut self, checkpoint: Checkpoint) {
        while self.journal.len() > checkpoint.0 {
            match self.journal.pop().expect("length checked above") {
                JournalEntry::Account { id, prev } => {
                    match prev {
                        Some(account) => {
                            self.accounts.insert(id, account);
                        }
                        None => {
                            self.accounts.remove(&id);
                        }
                    }
                    self.tree.mark(LeafKey::Account(id));
                }
                JournalEntry::Storage {
                    contract,
                    key,
                    prev,
                } => {
                    let slot = (contract, key);
                    match prev {
                        Some(value) => {
                            self.storage.insert(slot.clone(), value);
                        }
                        None => {
                            self.storage.remove(&slot);
                        }
                    }
                    self.tree.mark(LeafKey::Storage(slot));
                }
            }
        }
        if checkpoint.0 == 0 {
            self.recording = false;
        }
    }

    /// Number of journal entries currently recorded (diagnostics).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The deepest the pre-image journal has ever grown — a proxy for the
    /// largest transaction (touched-entry count) this state has executed.
    pub fn journal_high_water(&self) -> usize {
        self.journal_high_water
    }

    /// Number of accounts plus storage slots: the commitment tree's leaf
    /// count once sealed.
    pub fn entries(&self) -> usize {
        self.accounts.len() + self.storage.len()
    }

    /// Leaf hashes computed by every [`seal_commitment`] so far: one per
    /// distinct key a sealed block wrote that still existed at the seal.
    ///
    /// [`seal_commitment`]: WorldState::seal_commitment
    pub fn leaves_rehashed(&self) -> u64 {
        self.tree.leaves_rehashed()
    }

    /// The current leaf hash of `key`, or `None` if the entry is absent.
    fn leaf(
        accounts: &BTreeMap<AccountId, Account>,
        storage: &BTreeMap<SlotKey, Vec<u8>>,
        key: &LeafKey,
    ) -> Option<[u8; 32]> {
        match key {
            LeafKey::Account(id) => accounts
                .get(id)
                .map(|account| commitment::account_leaf(id, account)),
            LeafKey::Storage(slot) => storage
                .get(slot)
                .map(|value| commitment::storage_leaf(&slot.0, &slot.1, value)),
        }
    }

    /// Folds every key written since the last seal into the commitment
    /// tree and returns the commitment — the state root a block seals.
    /// Costs one leaf hash per distinct written key plus the buckets they
    /// fall in; with nothing written it returns the previous root.
    pub fn seal_commitment(&mut self) -> Hash256 {
        let (accounts, storage) = (&self.accounts, &self.storage);
        self.tree.seal(|key| Self::leaf(accounts, storage, key))
    }

    /// A deterministic commitment over the full state — a two-level hash
    /// tree of per-entry leaves that stands in for a Merkle-Patricia root.
    /// Reads the cache without updating it: keys written since the last
    /// [`seal_commitment`](WorldState::seal_commitment) are rehashed into
    /// a scratch copy of their buckets.
    pub fn commitment(&self) -> Hash256 {
        self.tree
            .root(|key| Self::leaf(&self.accounts, &self.storage, key))
    }

    /// The same commitment recomputed from every entry with no cache
    /// involved — the oracle tests and audits check the incremental tree
    /// against. O(state); no production path calls it.
    pub fn commitment_from_scratch(&self) -> Hash256 {
        commitment::root_from_scratch(
            commitment::account_leaves(&self.accounts)
                .chain(commitment::storage_leaves(&self.storage)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(tag: u8) -> AccountId {
        AccountId([tag; 20])
    }

    #[test]
    fn credit_debit() {
        let mut state = WorldState::new();
        state.credit(id(1), 100).unwrap();
        assert_eq!(state.balance(&id(1)), 100);
        state.debit(id(1), 40).unwrap();
        assert_eq!(state.balance(&id(1)), 60);
    }

    #[test]
    fn overdraft_rejected() {
        let mut state = WorldState::new();
        state.credit(id(1), 10).unwrap();
        let err = state.debit(id(1), 11).unwrap_err();
        assert!(matches!(err, StateError::InsufficientBalance { .. }));
        assert_eq!(state.balance(&id(1)), 10);
    }

    #[test]
    fn credit_overflow_is_typed_not_a_panic() {
        // Found by the audit fuzzer: two faucet mints summing past
        // u128::MAX used to abort on checked_add().expect().
        let mut state = WorldState::new();
        state.credit(id(1), u128::MAX).unwrap();
        let err = state.credit(id(1), 1).unwrap_err();
        assert!(matches!(err, StateError::BalanceOverflow { .. }));
        // The failed credit left the balance untouched.
        assert_eq!(state.balance(&id(1)), u128::MAX);
    }

    #[test]
    fn transfer_overflow_unwinds_the_debit() {
        let mut state = WorldState::new();
        state.credit(id(1), 100).unwrap();
        state.credit(id(2), u128::MAX).unwrap();
        let err = state.transfer(id(1), id(2), 50).unwrap_err();
        assert!(matches!(err, StateError::BalanceOverflow { .. }));
        // Atomic: the debit from the sender was rolled back.
        assert_eq!(state.balance(&id(1)), 100);
        assert_eq!(state.balance(&id(2)), u128::MAX);
    }

    #[test]
    fn transfer_atomicity() {
        let mut state = WorldState::new();
        state.credit(id(1), 50).unwrap();
        state.transfer(id(1), id(2), 20).unwrap();
        assert_eq!(state.balance(&id(1)), 30);
        assert_eq!(state.balance(&id(2)), 20);
        assert!(state.transfer(id(1), id(2), 100).is_err());
        assert_eq!(state.balance(&id(1)), 30);
        assert_eq!(state.balance(&id(2)), 20);
    }

    #[test]
    fn storage_round_trip() {
        let mut state = WorldState::new();
        assert!(state.storage_get(&id(3), b"k").is_none());
        assert!(state
            .storage_set(id(3), b"k".to_vec(), b"v1".to_vec())
            .is_none());
        assert_eq!(state.storage_get(&id(3), b"k").unwrap(), b"v1");
        assert_eq!(
            state.storage_set(id(3), b"k".to_vec(), b"v2".to_vec()),
            Some(b"v1".to_vec())
        );
        assert_eq!(state.storage_remove(&id(3), b"k"), Some(b"v2".to_vec()));
        assert!(state.storage_get(&id(3), b"k").is_none());
    }

    #[test]
    fn storage_isolated_per_contract() {
        let mut state = WorldState::new();
        state.storage_set(id(1), b"k".to_vec(), b"a".to_vec());
        state.storage_set(id(2), b"k".to_vec(), b"b".to_vec());
        assert_eq!(state.storage_get(&id(1), b"k").unwrap(), b"a");
        assert_eq!(state.storage_get(&id(2), b"k").unwrap(), b"b");
    }

    #[test]
    fn commitment_changes_with_state() {
        let mut state = WorldState::new();
        let c0 = state.commitment();
        state.credit(id(1), 1).unwrap();
        let c1 = state.commitment();
        assert_ne!(c0, c1);
        state.storage_set(id(1), b"k".to_vec(), b"v".to_vec());
        let c2 = state.commitment();
        assert_ne!(c1, c2);
    }

    #[test]
    fn rollback_restores_accounts_and_storage() {
        let mut state = WorldState::new();
        state.credit(id(1), 100).unwrap();
        state.storage_set(id(1), b"keep".to_vec(), b"old".to_vec());
        let before = state.clone();

        let cp = state.begin_transaction();
        state.credit(id(1), 50).unwrap();
        state.credit(id(2), 7).unwrap(); // fresh account
        state.account_mut(id(1)).nonce += 1;
        state.storage_set(id(1), b"keep".to_vec(), b"new".to_vec());
        state.storage_set(id(1), b"fresh".to_vec(), b"x".to_vec());
        state.storage_remove(&id(1), b"keep");
        state.rollback(cp);

        assert_eq!(state, before);
        assert_eq!(state.commitment(), before.commitment());
        assert_eq!(state.journal_len(), 0);
    }

    #[test]
    fn commit_keeps_changes_and_clears_journal() {
        let mut state = WorldState::new();
        let cp = state.begin_transaction();
        state.credit(id(1), 42).unwrap();
        state.storage_set(id(1), b"k".to_vec(), b"v".to_vec());
        state.commit(cp);
        assert_eq!(state.balance(&id(1)), 42);
        assert_eq!(state.storage_get(&id(1), b"k").unwrap(), b"v");
        assert_eq!(state.journal_len(), 0);
        // The high-water mark survives the commit (observability), and
        // never affects equality.
        assert_eq!(state.journal_high_water(), 2);
        assert_eq!(state, state.clone());
        // Post-commit mutations no longer journal.
        state.credit(id(1), 1).unwrap();
        assert_eq!(state.journal_len(), 0);
        assert_eq!(state.journal_high_water(), 2);
    }

    #[test]
    fn nested_checkpoints_roll_back_independently() {
        let mut state = WorldState::new();
        state.credit(id(1), 10).unwrap();
        let outer = state.begin_transaction();
        state.credit(id(1), 5).unwrap();
        let inner = state.begin_transaction();
        state.credit(id(1), 100).unwrap();
        state.rollback(inner);
        assert_eq!(state.balance(&id(1)), 15);
        // An inner commit leaves its entries in the outer undo set.
        let inner = state.begin_transaction();
        state.credit(id(2), 9).unwrap();
        state.commit(inner);
        state.rollback(outer);
        assert_eq!(state.balance(&id(1)), 10);
        assert_eq!(state.balance(&id(2)), 0);
    }

    #[test]
    fn equality_ignores_open_journal() {
        let mut a = WorldState::new();
        a.credit(id(1), 10).unwrap();
        let mut b = a.clone();
        let cp = b.begin_transaction();
        b.credit(id(1), 1).unwrap();
        b.rollback(cp);
        let _ = b.begin_transaction(); // leave a transaction open
        assert_eq!(a, b);
        a.credit(id(1), 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn commitment_deterministic() {
        let mut a = WorldState::new();
        let mut b = WorldState::new();
        // Different insertion orders, same content.
        a.credit(id(1), 5).unwrap();
        a.credit(id(2), 7).unwrap();
        b.credit(id(2), 7).unwrap();
        b.credit(id(1), 5).unwrap();
        assert_eq!(a.commitment(), b.commitment());
    }
}
