//! A fixed hasher for map keys the simulator makes itself.
//!
//! std's `HashMap` hashes with SipHash-1-3 under a random per-process
//! seed, which guards a map against keys crafted to collide. The shard
//! tables, the fate book, the MACs' sequence maps and the address map
//! are keyed by node indices, counters and addresses derived from them:
//! a submitted scenario picks the node count (at most 4,096), rates and
//! seeds, never a key. For them [`FastMap`] swaps in [`FoldHasher`], one
//! folded multiply per word instead of SipHash's rounds, and fixed, so a
//! map's layout — and the allocations it makes — repeat from run to
//! run. Keys that come from outside the program (cell names, experiment
//! ids) stay on std's default.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2^64 / φ, the Fibonacci-hashing constant.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A `HashMap` hashed by [`FoldHasher`]. Only for keys the program makes.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Folded-multiply hasher: for each 64-bit word, the 128-bit product of
/// `state ^ word` and an odd constant, with its high half xored into its
/// low half as the new state.
///
/// hashbrown picks the bucket from a hash's low bits. A plain multiply
/// leaves those bits blind to the input's high bits, so node-scoped ids
/// (`node << 40 | seq`) with one sequence number would share a bucket;
/// the fold carries every input bit into the low half.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.state ^ n) * u128::from(MUL);
        self.state = (p >> 64) as u64 ^ p as u64;
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FoldHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_are_pinned() {
        // A changed constant or word rule moves every map's layout, and
        // with it the allocation counts a benchmark compares.
        let want: [(u64, u64); 4] = [
            (hash(0u64), 0),
            (hash(1u64), 0x9e37_79b9_7f4a_7c15),
            (hash((7u32, 1u64 << 40 | 3)), 0x300d_0f08_9c02_94ae),
            (hash([0xffu8; 11].as_slice()), 0xc3e1_ebe5_3952_eaad),
        ];
        for (got, pinned) in want {
            assert_eq!(got, pinned, "{got:#x} != {pinned:#x}");
        }
    }

    #[test]
    fn node_scoped_ids_spread_over_the_low_bits() {
        // Every node of the largest world, 16 ids each, in the layout
        // bcp-simnet's tags and transmissions use: node << 40 | seq.
        let mut buckets = vec![0u16; 1 << 16];
        for node in 0..4096u64 {
            for seq in 0..16u64 {
                buckets[(hash(node << 40 | seq) & 0xffff) as usize] += 1;
            }
        }
        let fullest = buckets.iter().copied().max().unwrap_or(0);
        assert!(fullest <= 16, "{fullest} keys share one bucket");
    }
}
