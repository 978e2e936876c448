//! Hash maps keyed by encoded byte strings (group keys, join keys).
//!
//! Hash aggregation and hash joins (on any key but one integer column)
//! look an encoded key up once per input row, so the hash function is on
//! the per-row path. [`KeyHasher`] mixes
//! eight bytes per multiply (the FxHash construction) instead of running
//! SipHash over them. The keys are encodings of the query's own
//! intermediate values inside one operator of one query: nothing about
//! them persists, so this gives up only the standard hasher's protection
//! against colliding keys crafted into the data.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map from encoded keys to `V`. `get`/`get_mut` take the key as a
/// slice, so a lookup allocates nothing; only a new key is copied in.
pub type KeyMap<V> = HashMap<Vec<u8>, V, BuildHasherDefault<KeyHasher>>;

#[derive(Clone, Copy, Default)]
pub struct KeyHasher(u64);

const MIX: u64 = 0x517c_c1b7_2722_0a95;

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(w));
        }
    }

    // `[u8]` hashes its length first; one mix, not eight byte writes.
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; the table indexes by
        // them, so fold the high half down.
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn lookup_by_slice_and_distinct_hashes() {
        let mut m: KeyMap<u32> = KeyMap::default();
        m.insert(vec![1, 2, 3], 7);
        assert_eq!(m.get([1u8, 2, 3].as_slice()), Some(&7));
        assert_eq!(m.get([1u8, 2].as_slice()), None);
        // Keys that differ only in length, in a trailing zero or in one
        // low byte must not collide trivially.
        let h = |k: &[u8]| BuildHasherDefault::<KeyHasher>::default().hash_one(k);
        let keys: [&[u8]; 6] = [
            &[],
            &[0],
            &[0, 0],
            &[1],
            &[0, 1],
            &[1, 0, 0, 0, 0, 0, 0, 0, 0],
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(h(a), h(b), "{a:?} vs {b:?}");
            }
        }
        // Sequential integer keys spread over the low bits a table uses.
        let low: std::collections::HashSet<u64> =
            (0u64..256).map(|i| h(&i.to_le_bytes()) & 0xff).collect();
        assert!(low.len() > 128, "only {} of 256 low bytes", low.len());
    }
}
