//! The one hasher behind every hash table of this crate.
//!
//! Every key is built from manager-assigned `u32` node ids, variable
//! indices and an operation tag, never from raw input bytes, so the
//! flooding resistance of std's seeded SipHash buys nothing here while
//! its per-lookup cost dominates insertion, γ-enlargement and snapshot
//! capture.  This is an Fx-style multiply–rotate hash: fixed and
//! unseeded.  A multiply carries entropy only upwards, so
//! [`Hasher::finish`] rotates the mixed middle bits down into the low
//! bits the table picks its bucket from, while the top bits it takes its
//! 7-bit tag from stay mixed too.  Node ids depend only on the order in
//! which a manager creates nodes, never on the hash, so diagrams and
//! snapshots are the same under any hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant with well-spread bits (the one `rustc-hash`
/// multiplies by).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style word hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `std::collections::HashMap` keyed through [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub(crate) type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Node, NodeId, Op};
    use std::hash::{BuildHasher, Hash};

    /// Keys per family: the size of a large unique table.
    const N: u32 = 1 << 17;

    fn hashes<T: Hash>(keys: impl Iterator<Item = T>) -> Vec<u64> {
        let build = BuildHasherDefault::<FxHasher>::default();
        keys.map(|k| build.hash_one(&k)).collect()
    }

    /// Bounds, fixed before the first run.  For `N = 2^17` keys a random
    /// 64-bit hash has an expected 2^-31 full collisions, fills
    /// `1 - 1/e ≈ 63%` of `2^17` low-bit buckets with a largest load of
    /// about 8, and puts `1024 ± 32` keys on each of the 128 top-7-bit
    /// tags.  A hasher that leaves either end of the word unmixed misses
    /// these bounds by orders of magnitude.
    fn assert_spread(family: &str, hs: &[u64]) {
        let n = hs.len();
        let mut sorted = hs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let duplicates = n - sorted.len();
        assert!(
            duplicates <= n / 10_000,
            "{family}: {duplicates} of {n} full hashes collide"
        );

        let mut buckets = vec![0u32; n];
        for &h in hs {
            buckets[(h as usize) & (n - 1)] += 1;
        }
        let occupied = buckets.iter().filter(|&&c| c > 0).count();
        let max_load = buckets.iter().copied().max().unwrap_or(0);
        assert!(
            occupied * 100 >= n * 55,
            "{family}: low 17 bits fill only {occupied} of {n} buckets"
        );
        assert!(
            max_load <= 16,
            "{family}: a low-bit bucket holds {max_load}"
        );

        let mut tags = [0usize; 128];
        for &h in hs {
            tags[(h >> 57) as usize] += 1;
        }
        let fair = n / 128;
        for (tag, &count) in tags.iter().enumerate() {
            assert!(
                count * 4 >= fair * 3 && count * 4 <= fair * 5,
                "{family}: top-7-bit tag {tag} holds {count}, fair share {fair}"
            );
        }
    }

    #[test]
    fn sequential_ids_spread_over_bucket_and_tag_bits() {
        // Unique-table keys: 64 levels of 2048 consecutive nodes each.
        let nodes = hashes((0..N).map(|i| Node {
            level: i >> 11,
            low: NodeId(i + 2),
            high: NodeId(i + 3),
        }));
        assert_spread("Node", &nodes);

        // Apply-cache keys: every operation over consecutive operand pairs.
        let ops = [Op::And, Op::Or, Op::Xor, Op::Diff];
        let apply = hashes((0..N).map(|i| {
            let f = NodeId((i >> 2) + 2);
            (ops[(i & 3) as usize], f, NodeId(f.0 + 1))
        }));
        assert_spread("(Op, NodeId, NodeId)", &apply);

        // Dilation / quantification memo keys: (node, radius or level).
        let memo = hashes((0..N).map(|i| (NodeId((i >> 2) + 2), i & 3)));
        assert_spread("(NodeId, u32)", &memo);
    }
}
