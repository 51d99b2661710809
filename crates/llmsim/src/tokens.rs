//! Token estimation, usage metering and the prefix prompt cache.
//!
//! Reproduces the §5.7 accounting: input/output token volumes per agent and
//! the prompt-cache economics ("between 85 and 90 percent of the total input
//! tokens are resolved via cache over the course of a tuning run", because
//! agent turns share a growing common prefix).

use serde::{Deserialize, Serialize};
use simcore::rng::stable_hash;
use std::collections::HashSet;

/// Rough GPT-style token estimate (~4 characters per token).
pub fn estimate_tokens(text: &str) -> u64 {
    (text.len() as u64).div_ceil(4)
}

/// Cache block size in tokens (providers cache at coarse prefix granularity).
pub const CACHE_BLOCK_TOKENS: u64 = 128;

/// Block-prefix prompt cache: a prompt's cached token count is the longest
/// chain of leading blocks that has been seen before.
#[derive(Debug, Default, Clone)]
pub struct PrefixCache {
    // determinism audit (D002): membership tests and inserts only — the
    // cached-token count depends on which hashes are present, never on
    // the set's internal order
    seen: HashSet<u64>,
}

impl PrefixCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `prompt` and return the number of input tokens served from
    /// cache (multiple of [`CACHE_BLOCK_TOKENS`], capped by prompt length).
    pub fn observe(&mut self, prompt: &str) -> u64 {
        let total = estimate_tokens(prompt);
        let block_bytes = (CACHE_BLOCK_TOKENS * 4) as usize;
        let bytes = prompt.as_bytes();
        let mut cached_tokens = 0u64;
        let mut chain: u64 = 0xfeed_beef_cafe_f00d;
        let mut offset = 0usize;
        let mut still_prefix = true;
        while offset < bytes.len() {
            let end = (offset + block_bytes).min(bytes.len());
            // Chain hash: block content + everything before it.
            let block_hash = hash_bytes(&bytes[offset..end]);
            chain = chain.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ block_hash;
            let known = self.seen.contains(&chain);
            if still_prefix {
                if known {
                    // Byte length, not the block as text: a block boundary
                    // may split a multi-byte character.
                    cached_tokens += ((end - offset) as u64).div_ceil(4);
                } else {
                    still_prefix = false;
                }
            }
            self.seen.insert(chain);
            offset = end;
        }
        cached_tokens.min(total)
    }
}

fn hash_bytes(b: &[u8]) -> u64 {
    // FNV over raw bytes; stable_hash is str-based, so inline the same walk.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in b {
        h ^= x as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let _ = stable_hash; // keep the shared algorithm referenced for readers
    h
}

/// Per-agent usage accounting.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageMeter {
    /// Total input tokens across calls.
    pub input_tokens: u64,
    /// Input tokens resolved via the prefix cache.
    pub cached_input_tokens: u64,
    /// Total output tokens across calls.
    pub output_tokens: u64,
    /// Number of inference calls.
    pub calls: u64,
}

impl UsageMeter {
    /// Record one call.
    pub fn record(&mut self, input: u64, cached: u64, output: u64) {
        self.input_tokens += input;
        self.cached_input_tokens += cached.min(input);
        self.output_tokens += output;
        self.calls += 1;
    }

    /// Fraction of input tokens served from cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.input_tokens == 0 {
            0.0
        } else {
            self.cached_input_tokens as f64 / self.input_tokens as f64
        }
    }

    /// Merge another meter (e.g. across agents).
    pub fn merge(&mut self, other: &UsageMeter) {
        self.input_tokens += other.input_tokens;
        self.cached_input_tokens += other.cached_input_tokens;
        self.output_tokens += other.output_tokens;
        self.calls += other.calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_estimate_quarter_chars() {
        assert_eq!(estimate_tokens(""), 0);
        assert_eq!(estimate_tokens("abcd"), 1);
        assert_eq!(estimate_tokens("abcde"), 2);
        assert_eq!(estimate_tokens(&"x".repeat(400)), 100);
    }

    #[test]
    fn first_observation_is_uncached() {
        let mut c = PrefixCache::new();
        let prompt = "a".repeat(4096);
        assert_eq!(c.observe(&prompt), 0);
    }

    #[test]
    fn identical_prompt_fully_cached() {
        let mut c = PrefixCache::new();
        let prompt = "b".repeat(4096);
        c.observe(&prompt);
        let cached = c.observe(&prompt);
        assert_eq!(cached, estimate_tokens(&prompt));
    }

    #[test]
    fn growing_prompt_caches_shared_prefix() {
        let mut c = PrefixCache::new();
        let base = "system prompt and history ".repeat(100); // ~2.6k chars
        c.observe(&base);
        let longer = format!("{base}{}", "new turn content ".repeat(50));
        let cached = c.observe(&longer);
        let base_tokens = estimate_tokens(&base);
        // The shared prefix (all full blocks of base) must be cached.
        assert!(
            cached > base_tokens * 8 / 10,
            "cached {cached} of {base_tokens}"
        );
        assert!(cached <= estimate_tokens(&longer));
    }

    #[test]
    fn divergent_prefix_not_cached() {
        let mut c = PrefixCache::new();
        c.observe(&"prompt one ".repeat(200));
        let cached = c.observe(&"different lead ".repeat(200));
        assert_eq!(cached, 0);
    }

    #[test]
    fn block_splitting_a_multibyte_char_still_counts() {
        // The 3-byte `—` straddles the first 512-byte block boundary, so
        // neither of the first two blocks is valid UTF-8 on its own.
        let block = (CACHE_BLOCK_TOKENS * 4) as usize;
        let prompt = format!("{}—{}", "a".repeat(block - 1), "b".repeat(block + 100));
        assert!(!prompt.is_char_boundary(block));
        let mut c = PrefixCache::new();
        c.observe(&prompt);
        assert_eq!(c.observe(&prompt), estimate_tokens(&prompt));
    }

    #[test]
    fn meter_accounting() {
        let mut m = UsageMeter::default();
        m.record(1000, 900, 50);
        m.record(1000, 800, 50);
        assert_eq!(m.input_tokens, 2000);
        assert_eq!(m.cached_input_tokens, 1700);
        assert_eq!(m.output_tokens, 100);
        assert_eq!(m.calls, 2);
        assert!((m.cache_hit_ratio() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn meter_merge() {
        let mut a = UsageMeter::default();
        a.record(10, 5, 1);
        let mut b = UsageMeter::default();
        b.record(20, 10, 2);
        a.merge(&b);
        assert_eq!(a.input_tokens, 30);
        assert_eq!(a.calls, 2);
    }

    #[test]
    fn cached_never_exceeds_input() {
        let mut m = UsageMeter::default();
        m.record(10, 50, 1);
        assert_eq!(m.cached_input_tokens, 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The cache never reports more cached tokens than the prompt holds,
        /// and re-observing any prompt caches it fully.
        #[test]
        fn cache_bounds(prompts in proptest::collection::vec("[a-z ]{10,2000}", 1..12)) {
            let mut c = PrefixCache::new();
            for p in &prompts {
                let cached = c.observe(p);
                prop_assert!(cached <= estimate_tokens(p));
            }
            for p in &prompts {
                let cached = c.observe(p);
                prop_assert_eq!(cached, estimate_tokens(p), "repeat must fully cache");
            }
        }

        /// Extending a prompt never reduces its cached prefix length.
        #[test]
        fn extension_monotone(base in "[a-z ]{600,1500}", tail in "[a-z ]{1,400}") {
            let mut c = PrefixCache::new();
            c.observe(&base);
            let extended = format!("{base}{tail}");
            let cached = c.observe(&extended);
            // Cached tokens must cover at least all the full blocks of base.
            let base_tokens = estimate_tokens(&base);
            let full_blocks = base_tokens / CACHE_BLOCK_TOKENS * CACHE_BLOCK_TOKENS;
            prop_assert!(cached + CACHE_BLOCK_TOKENS >= full_blocks,
                         "cached {cached} < full blocks {full_blocks}");
        }

        /// Usage meters never overflow their own invariants under merge.
        #[test]
        fn meter_invariants(ops in proptest::collection::vec((0u64..10_000, 0u64..20_000, 0u64..5_000), 1..50)) {
            let mut m = UsageMeter::default();
            for (input, cached, output) in ops {
                m.record(input, cached, output);
                prop_assert!(m.cached_input_tokens <= m.input_tokens);
                prop_assert!((0.0..=1.0).contains(&m.cache_hit_ratio()));
            }
        }
    }
}
