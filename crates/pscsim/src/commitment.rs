//! The world-state commitment: a fixed-shape two-level hash tree over every
//! account and storage slot, maintained in O(touched keys) per block.
//!
//! * **Leaves.** One SHA-256 per entry over a domain-separated,
//!   length-prefixed encoding of its key and value ([`account_leaf`],
//!   [`storage_leaf`]).
//! * **Buckets.** Leaves fall into one of [`BUCKETS`] buckets by a hash of
//!   their *key* (never their value), so an entry never moves between
//!   buckets. A bucket digest hashes its leaf count and its leaf hashes in
//!   key order.
//! * **Root.** One SHA-256 over all bucket digests in bucket order.
//!
//! The tree's shape depends only on which keys exist, so the root is a
//! function of state content alone: insertion order, open transactions,
//! rollbacks and the sealing schedule never show in it. The world state
//! marks every key it writes dirty; [`CommitmentTree::seal`] rehashes only
//! those leaves and the buckets they fall in, then the root.

use crate::account::{Account, AccountId};
use btcfast_crypto::sha256::Sha256;
use btcfast_crypto::Hash256;
use std::collections::{BTreeMap, BTreeSet};

/// log2 of the bucket count.
const BUCKET_BITS: u32 = 8;

/// Fanout of the tree's root: the number of leaf buckets.
const BUCKETS: usize = 1 << BUCKET_BITS;

/// Domain tags: no leaf encoding can collide with another kind of leaf or
/// with an interior node's input.
const ACCOUNT_LEAF_TAG: u8 = 0x01;
const STORAGE_LEAF_TAG: u8 = 0x02;
const BUCKET_TAG: u8 = 0x03;
const ROOT_TAG: u8 = 0x04;

/// A contract storage slot's key: the owning contract and the slot bytes.
pub(crate) type SlotKey = (AccountId, Vec<u8>);

/// The key of one leaf. The derived order (every account before every
/// slot, then by id or by `(contract, slot)`) is the order leaves take
/// inside a bucket, and matches the world state's own map order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LeafKey {
    Account(AccountId),
    Storage(SlotKey),
}

impl LeafKey {
    fn bucket(&self) -> usize {
        match self {
            LeafKey::Account(id) => account_bucket(id),
            LeafKey::Storage((contract, slot)) => storage_bucket(contract, slot),
        }
    }
}

/// FNV-1a over the key bytes, then a Fibonacci multiply so the top bits
/// used as the bucket index are well mixed. Placement only affects cost,
/// never the root's meaning, so a non-cryptographic hash suffices.
fn bucket_of(parts: &[&[u8]]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in parts.iter().flat_map(|part| part.iter()) {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - BUCKET_BITS)) as usize
}

fn account_bucket(id: &AccountId) -> usize {
    bucket_of(&[&[ACCOUNT_LEAF_TAG], &id.0])
}

fn storage_bucket(contract: &AccountId, slot: &[u8]) -> usize {
    bucket_of(&[&[STORAGE_LEAF_TAG], &contract.0, slot])
}

/// Leaf hash of an account: `0x01 ‖ id ‖ balance ‖ nonce ‖ code`, where
/// `code` is `0x00` without code and `0x01 ‖ len ‖ code id` with it.
pub(crate) fn account_leaf(id: &AccountId, account: &Account) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(&[ACCOUNT_LEAF_TAG]);
    hasher.update(&id.0);
    hasher.update(&account.balance.to_le_bytes());
    hasher.update(&account.nonce.to_le_bytes());
    match &account.code_id {
        None => hasher.update(&[0x00]),
        Some(code_id) => {
            hasher.update(&[0x01]);
            hasher.update(&(code_id.len() as u64).to_le_bytes());
            hasher.update(code_id.as_bytes());
        }
    }
    hasher.finalize()
}

/// Leaf hash of a storage slot: `0x02 ‖ contract ‖ len ‖ key ‖ len ‖ value`.
pub(crate) fn storage_leaf(contract: &AccountId, slot: &[u8], value: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(&[STORAGE_LEAF_TAG]);
    hasher.update(&contract.0);
    hasher.update(&(slot.len() as u64).to_le_bytes());
    hasher.update(slot);
    hasher.update(&(value.len() as u64).to_le_bytes());
    hasher.update(value);
    hasher.finalize()
}

/// `0x03 ‖ leaf count ‖ leaf hashes in key order`.
fn bucket_digest<'a>(leaves: impl ExactSizeIterator<Item = &'a [u8; 32]>) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(&[BUCKET_TAG]);
    hasher.update(&(leaves.len() as u64).to_le_bytes());
    for leaf in leaves {
        hasher.update(leaf);
    }
    hasher.finalize()
}

/// `0x04 ‖ bucket digests in bucket order`.
fn root_of(digests: &[[u8; 32]]) -> Hash256 {
    let mut hasher = Sha256::new();
    hasher.update(&[ROOT_TAG]);
    for digest in digests {
        hasher.update(digest);
    }
    Hash256(hasher.finalize())
}

/// The root computed from nothing but the leaves, with no cache involved:
/// the oracle the incremental tree is checked against. `leaves` must
/// arrive in [`LeafKey`] order, which iterating the world state's account
/// map and then its storage map provides.
pub(crate) fn root_from_scratch(leaves: impl Iterator<Item = (usize, [u8; 32])>) -> Hash256 {
    let mut buckets = vec![Vec::new(); BUCKETS];
    for (bucket, leaf) in leaves {
        buckets[bucket].push(leaf);
    }
    let digests: Vec<[u8; 32]> = buckets
        .iter()
        .map(|leaves| bucket_digest(leaves.iter()))
        .collect();
    root_of(&digests)
}

/// Bucket index and leaf hash of every account, in key order.
pub(crate) fn account_leaves(
    accounts: &BTreeMap<AccountId, Account>,
) -> impl Iterator<Item = (usize, [u8; 32])> + '_ {
    accounts
        .iter()
        .map(|(id, account)| (account_bucket(id), account_leaf(id, account)))
}

/// Bucket index and leaf hash of every storage slot, in key order.
pub(crate) fn storage_leaves(
    storage: &BTreeMap<SlotKey, Vec<u8>>,
) -> impl Iterator<Item = (usize, [u8; 32])> + '_ {
    storage.iter().map(|((contract, slot), value)| {
        (
            storage_bucket(contract, slot),
            storage_leaf(contract, slot, value),
        )
    })
}

/// Cached leaf hashes, bucket digests and root, plus the keys written
/// since the last [`seal`](CommitmentTree::seal).
///
/// Invariant: `leaves`, `digests` and `root` describe the state as it was
/// at the last seal, and every key whose entry changed since then is in
/// `dirty`.
#[derive(Clone, Debug)]
pub(crate) struct CommitmentTree {
    leaves: Vec<BTreeMap<LeafKey, [u8; 32]>>,
    digests: Vec<[u8; 32]>,
    root: Hash256,
    dirty: BTreeSet<LeafKey>,
    leaves_rehashed: u64,
}

impl Default for CommitmentTree {
    fn default() -> CommitmentTree {
        let digests = vec![bucket_digest(std::iter::empty()); BUCKETS];
        CommitmentTree {
            leaves: vec![BTreeMap::new(); BUCKETS],
            root: root_of(&digests),
            digests,
            dirty: BTreeSet::new(),
            leaves_rehashed: 0,
        }
    }
}

impl CommitmentTree {
    /// Records that the entry under `key` may have changed.
    pub(crate) fn mark(&mut self, key: LeafKey) {
        self.dirty.insert(key);
    }

    /// Leaf hashes computed by [`seal`](CommitmentTree::seal) so far.
    pub(crate) fn leaves_rehashed(&self) -> u64 {
        self.leaves_rehashed
    }

    /// Folds the dirty keys into the cache and returns the new root.
    /// `leaf` yields a key's current leaf hash, or `None` once the entry
    /// is gone. Each dirty key that still exists costs one leaf hash; with
    /// nothing dirty the previous root is returned as is.
    pub(crate) fn seal(&mut self, leaf: impl Fn(&LeafKey) -> Option<[u8; 32]>) -> Hash256 {
        if self.dirty.is_empty() {
            return self.root;
        }
        let mut touched = BTreeSet::new();
        for key in std::mem::take(&mut self.dirty) {
            let bucket = key.bucket();
            touched.insert(bucket);
            match leaf(&key) {
                Some(hash) => {
                    self.leaves_rehashed += 1;
                    self.leaves[bucket].insert(key, hash);
                }
                None => {
                    self.leaves[bucket].remove(&key);
                }
            }
        }
        for bucket in touched {
            self.digests[bucket] = bucket_digest(self.leaves[bucket].values());
        }
        self.root = root_of(&self.digests);
        self.root
    }

    /// The root [`seal`](CommitmentTree::seal) would return now, computed
    /// without touching the cache: the dirty buckets are rebuilt in a
    /// scratch copy.
    pub(crate) fn root(&self, leaf: impl Fn(&LeafKey) -> Option<[u8; 32]>) -> Hash256 {
        if self.dirty.is_empty() {
            return self.root;
        }
        let mut rebuilt: BTreeMap<usize, BTreeMap<&LeafKey, [u8; 32]>> = BTreeMap::new();
        for key in &self.dirty {
            let bucket = key.bucket();
            let leaves = rebuilt
                .entry(bucket)
                .or_insert_with(|| self.leaves[bucket].iter().map(|(k, h)| (k, *h)).collect());
            match leaf(key) {
                Some(hash) => {
                    leaves.insert(key, hash);
                }
                None => {
                    leaves.remove(key);
                }
            }
        }
        let mut digests = self.digests.clone();
        for (bucket, leaves) in rebuilt {
            digests[bucket] = bucket_digest(leaves.values());
        }
        root_of(&digests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_spread_sequential_keys() {
        let mut used = BTreeSet::new();
        for i in 0..=255u8 {
            used.insert(account_bucket(&AccountId([i; 20])));
            used.insert(storage_bucket(&AccountId([7; 20]), &[i]));
        }
        // 512 keys over 256 buckets: a degenerate placement would pile
        // them into a handful.
        assert!(used.len() > 200, "only {} buckets used", used.len());
    }

    #[test]
    fn leaf_encodings_are_domain_separated_and_length_prefixed() {
        let contract = AccountId([1; 20]);
        // Moving a byte between key and value changes the leaf.
        assert_ne!(
            storage_leaf(&contract, b"ab", b"c"),
            storage_leaf(&contract, b"a", b"bc")
        );
        // No code and an empty code id are different accounts.
        let plain = Account::default();
        let empty_code = Account {
            code_id: Some(String::new()),
            ..Account::default()
        };
        assert_ne!(
            account_leaf(&contract, &plain),
            account_leaf(&contract, &empty_code)
        );
    }

    #[test]
    fn empty_tree_root_matches_scratch() {
        let tree = CommitmentTree::default();
        assert_eq!(tree.root(|_| None), root_from_scratch(std::iter::empty()));
    }
}
