//! The lock-free hash index.
//!
//! A flat array of 2^k buckets, each an `AtomicU64` holding the logical
//! address of the most recent record hashed to it (offset by one so zero
//! means empty). Different keys that share a bucket simply share the chain —
//! lookups compare full keys while walking `prev` pointers, which is also
//! how rollback reads "travel back" past invalidated versions (§5.5: "one
//! can access all versions that are not garbage-collected by traversing the
//! hash chain").

use crate::record::NONE_ADDRESS;
use dpr_core::Key;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hint the CPU to pull the cache line at `p` into L1. Never faults, so
/// `p` may be stale or dangling; a no-op off x86-64.
#[inline(always)]
pub(crate) fn prefetch_line<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetch` is a hint that performs no access that can fault;
    // SSE is part of the x86-64 baseline.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The hash index.
pub struct HashIndex {
    buckets: Box<[AtomicU64]>,
    mask: u64,
}

impl HashIndex {
    /// Create an index with at least `min_buckets` buckets (rounded up to a
    /// power of two).
    #[must_use]
    pub fn new(min_buckets: usize) -> Self {
        let n = min_buckets.next_power_of_two().max(64);
        let buckets = (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        HashIndex {
            buckets: buckets.into_boxed_slice(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of buckets.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_for(&self, key: &Key) -> &AtomicU64 {
        self.bucket_at(key.hash64())
    }

    fn bucket_at(&self, hash: u64) -> &AtomicU64 {
        &self.buckets[(hash & self.mask) as usize]
    }

    /// Prefetch the bucket of the key whose [`Key::hash64`] is `hash`.
    pub fn prefetch(&self, hash: u64) {
        prefetch_line(self.bucket_at(hash));
    }

    /// Head address of the chain for `key`, or [`NONE_ADDRESS`].
    #[must_use]
    pub fn head(&self, key: &Key) -> u64 {
        self.head_hashed(key.hash64())
    }

    /// [`HashIndex::head`] for a key already hashed with [`Key::hash64`].
    #[must_use]
    pub fn head_hashed(&self, hash: u64) -> u64 {
        match self.bucket_at(hash).load(Ordering::Acquire) {
            0 => NONE_ADDRESS,
            a => a - 1,
        }
    }

    /// Publish `new_addr` as the chain head for `key` iff the head is still
    /// `expected` (or empty when `expected == NONE_ADDRESS`). Returns the
    /// observed head on failure so the caller can re-link and retry.
    pub fn try_publish(&self, key: &Key, expected: u64, new_addr: u64) -> Result<(), u64> {
        self.try_publish_hashed(key.hash64(), expected, new_addr)
    }

    /// [`HashIndex::try_publish`] for a key already hashed with
    /// [`Key::hash64`].
    pub fn try_publish_hashed(&self, hash: u64, expected: u64, new_addr: u64) -> Result<(), u64> {
        let bucket = self.bucket_at(hash);
        let expected_raw = if expected == NONE_ADDRESS {
            0
        } else {
            expected + 1
        };
        match bucket.compare_exchange(
            expected_raw,
            new_addr + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(observed) => Err(if observed == 0 {
                NONE_ADDRESS
            } else {
                observed - 1
            }),
        }
    }

    /// Publish `addr` as the chain head unless the bucket already holds a
    /// higher address. Used by the parallel recovery rebuild: threads
    /// scanning disjoint address ranges race their records into the
    /// buckets, and `fetch_max` over the offset-by-one encoding gives
    /// last-writer-wins by address order — the same head the sequential
    /// scan-and-publish would produce.
    pub fn publish_max(&self, key: &Key, addr: u64) {
        debug_assert_ne!(addr, NONE_ADDRESS);
        self.bucket_for(key).fetch_max(addr + 1, Ordering::AcqRel);
    }

    /// Record one chain walk's hop count into the bucket-pressure
    /// histogram (`dpr_faster_index_chain_len`).
    pub fn observe_chain_len(&self, hops: u64) {
        crate::metrics::index_chain_len().record(hops);
    }

    /// Unconditionally set the chain head (recovery rebuild only).
    pub fn set_head(&self, key: &Key, addr: u64) {
        self.bucket_for(key).store(
            if addr == NONE_ADDRESS { 0 } else { addr + 1 },
            Ordering::Release,
        );
    }

    /// Clear the index.
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_has_no_heads() {
        let idx = HashIndex::new(128);
        assert_eq!(idx.head(&Key::from_u64(5)), NONE_ADDRESS);
    }

    #[test]
    fn publish_and_lookup() {
        let idx = HashIndex::new(128);
        let k = Key::from_u64(1);
        idx.try_publish(&k, NONE_ADDRESS, 10).unwrap();
        assert_eq!(idx.head(&k), 10);
        idx.try_publish(&k, 10, 20).unwrap();
        assert_eq!(idx.head(&k), 20);
    }

    #[test]
    fn stale_publish_fails_with_observed_head() {
        let idx = HashIndex::new(128);
        let k = Key::from_u64(1);
        idx.try_publish(&k, NONE_ADDRESS, 10).unwrap();
        match idx.try_publish(&k, NONE_ADDRESS, 20) {
            Err(observed) => assert_eq!(observed, 10),
            Ok(()) => panic!("stale CAS must fail"),
        }
    }

    #[test]
    fn publish_max_is_last_writer_by_address() {
        let idx = HashIndex::new(64);
        let k = Key::from_u64(3);
        idx.publish_max(&k, 10);
        assert_eq!(idx.head(&k), 10);
        // A lower address never displaces a higher one, in any order.
        idx.publish_max(&k, 5);
        assert_eq!(idx.head(&k), 10);
        idx.publish_max(&k, 42);
        assert_eq!(idx.head(&k), 42);
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        assert_eq!(HashIndex::new(100).buckets(), 128);
        assert_eq!(HashIndex::new(1).buckets(), 64);
    }

    #[test]
    fn concurrent_publishes_linearize() {
        let idx = std::sync::Arc::new(HashIndex::new(64));
        let k = Key::from_u64(99);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let idx = idx.clone();
                let k = k.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        let mine = t * 1000 + i;
                        let mut expected = idx.head(&k);
                        while let Err(seen) = idx.try_publish(&k, expected, mine) {
                            expected = seen;
                        }
                    }
                });
            }
        });
        // Some thread's last publish won; head must be one of the published
        // addresses (t * 1000 + i with t < 8, i < 100).
        let head = idx.head(&k);
        assert!(head < 8000, "head {head} out of range");
        assert!(head % 1000 < 100, "head {head} not a published address");
    }
}
