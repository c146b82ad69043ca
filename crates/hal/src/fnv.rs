//! A small shared FNV-1a fingerprint.
//!
//! Several harness layers need a cheap, dependency-free 64-bit fingerprint —
//! the machine's replay-determinism digest folds DRAM images through it, and
//! the explorer's op outcomes fingerprint byte strings with it. It is **not**
//! a cryptographic hash; measurement and attestation use SHA-3 from
//! `sanctorum-crypto`.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `seed` through an FNV-1a-style pass over `bytes`, eight bytes per
/// round so fingerprinting megabyte-sized inputs stays cheap.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ OFFSET_BASIS;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// `fnv1a(seed, &[0; len])` without touching any bytes. A zero word (or
/// byte) leaves the xor step unchanged, so every round is one multiply by
/// the prime, and `len` zero bytes take `len / 8 + len % 8` rounds: the
/// digest is the seeded basis times one power of the prime.
pub fn fnv1a_zeros(seed: u64, len: usize) -> u64 {
    let rounds = u32::try_from(len / 8 + len % 8).expect("under 2^32 rounds");
    (seed ^ OFFSET_BASIS).wrapping_mul(PRIME.wrapping_pow(rounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(fnv1a(0, b"abc"), fnv1a(0, b"abc"));
        assert_ne!(fnv1a(0, b"abc"), fnv1a(0, b"abd"));
        assert_ne!(fnv1a(0, b"abc"), fnv1a(1, b"abc"));
        // Chunked and trailing bytes both contribute.
        assert_ne!(fnv1a(0, &[7u8; 16]), fnv1a(0, &[7u8; 17]));
    }

    #[test]
    fn zeros_match_hashing_zero_bytes() {
        for len in [0, 1, 7, 8, 9, 4096, 4099] {
            for seed in [0, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
                assert_eq!(
                    fnv1a_zeros(seed, len),
                    fnv1a(seed, &vec![0u8; len]),
                    "len {len}"
                );
            }
        }
    }
}
