//! ChaCha8 keystream generator — the deterministic core behind [`crate::rng::SimRng`].
//!
//! Implements the ChaCha block function (Bernstein 2008; RFC 8439 layout)
//! with 8 rounds, keyed from a 32-byte seed and a 64-bit block counter with
//! a zero nonce. The 64-bit seeding path mirrors `rand`'s `seed_from_u64`
//! (SplitMix64 expansion of the word into the key) so seeds stay
//! well-distributed. Output words are consumed little-endian in block
//! order; [`ChaCha8::next_u64`] concatenates two consecutive u32s, matching
//! `rand_core`'s `fill_bytes`-based u64 extraction.

/// ChaCha8 stream with a retained seed (for child-stream derivation).
#[derive(Debug, Clone)]
pub struct ChaCha8 {
    seed: [u8; 32],
    counter: u64,
    block: [u32; 16],
    /// Next unread word index in `block`; 16 means "refill needed".
    word_idx: usize,
}

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8 {
    /// Stream keyed by the full 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaCha8 {
            seed,
            counter: 0,
            block: [0; 16],
            word_idx: 16,
        }
    }

    /// Stream keyed from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_exact_mut(8) {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Self::from_seed(bytes)
    }

    /// The seed this stream was keyed with.
    pub fn get_seed(&self) -> [u8; 32] {
        self.seed
    }

    fn refill(&mut self) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&CONSTANTS);
        for (i, chunk) in self.seed.chunks_exact(4).enumerate() {
            input[4 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        // input[14], input[15]: zero nonce.
        let mut working = input;
        for _ in 0..4 {
            // One double round: a column round then a diagonal round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (w, inp) in working.iter_mut().zip(input.iter()) {
            *w = w.wrapping_add(*inp);
        }
        self.block = working;
        self.counter = self.counter.wrapping_add(1);
        self.word_idx = 0;
    }

    /// Next 32 keystream bits.
    pub fn next_u32(&mut self) -> u32 {
        if self.word_idx >= 16 {
            self.refill();
        }
        let w = self.block[self.word_idx];
        self.word_idx += 1;
        w
    }

    /// Next 64 keystream bits (low word first, `rand_core` convention).
    /// When both words are already buffered they are taken in one step;
    /// only a pair that straddles a block boundary goes word by word.
    pub fn next_u64(&mut self) -> u64 {
        let (lo, hi) = if self.word_idx < 15 {
            let pair = (self.block[self.word_idx], self.block[self.word_idx + 1]);
            self.word_idx += 2;
            pair
        } else {
            (self.next_u32(), self.next_u32())
        };
        (u64::from(hi) << 32) | u64::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ECRYPT ChaCha8 known-answer test: 256-bit all-zero key, zero IV.
    /// The keystream begins `3e 00 ef 2f 89 5f 40 d6 7f 5b b8 e8 1f 09 a5
    /// a1 ...`; words are that byte stream read little-endian.
    #[test]
    fn zero_key_first_words_match_reference() {
        let mut c = ChaCha8::from_seed([0u8; 32]);
        let first: Vec<u32> = (0..4).map(|_| c.next_u32()).collect();
        let expected: Vec<u32> = [
            [0x3eu8, 0x00, 0xef, 0x2f],
            [0x89, 0x5f, 0x40, 0xd6],
            [0x7f, 0x5b, 0xb8, 0xe8],
            [0x1f, 0x09, 0xa5, 0xa1],
        ]
        .iter()
        .map(|b| u32::from_le_bytes(*b))
        .collect();
        assert_eq!(first, expected);
    }

    #[test]
    fn blocks_advance_and_are_deterministic() {
        let mut a = ChaCha8::seed_from_u64(42);
        let mut b = ChaCha8::seed_from_u64(42);
        let xs: Vec<u64> = (0..40).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..40).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // More than one block (16 words = 8 u64s) without repetition.
        let unique: std::collections::BTreeSet<_> = xs.iter().collect();
        assert_eq!(unique.len(), xs.len());
    }

    /// `next_u64` equals two `next_u32`s, low word first, at every
    /// alignment against the block, across many block boundaries.
    #[test]
    fn next_u64_equals_two_words_at_any_alignment() {
        for lead in 0..3 {
            let mut fast = ChaCha8::seed_from_u64(9);
            let mut words = fast.clone();
            for _ in 0..lead {
                assert_eq!(fast.next_u32(), words.next_u32());
            }
            for i in 0..200 {
                if i % 7 == 3 {
                    assert_eq!(fast.next_u32(), words.next_u32());
                    continue;
                }
                let lo = u64::from(words.next_u32());
                let hi = u64::from(words.next_u32());
                assert_eq!(fast.next_u64(), (hi << 32) | lo, "lead {lead}, draw {i}");
            }
        }
    }

    #[test]
    fn seed_from_u64_differs_per_seed() {
        let mut a = ChaCha8::seed_from_u64(1);
        let mut b = ChaCha8::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
