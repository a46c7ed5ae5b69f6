//! Message authentication tags.
//!
//! **Not cryptography.** The real MEE uses a Carter–Wegman style MAC keyed
//! by fused secrets; nothing about the covert channel depends on the MAC
//! being unforgeable — only on *when* tags are fetched and checked. This
//! module therefore uses a fast keyed mixing function (splitmix64 over the
//! tag inputs) that is collision-resistant enough for the functional
//! tamper-detection tests, and documents itself as a stand-in.

/// A 64-bit authentication tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacTag(pub u64);

impl MacTag {
    /// Computes the tag of `payload` bound to `tweak` (an address or node
    /// index) and `freshness` (the parent counter), under `key`.
    pub fn compute(key: u64, tweak: u64, payload: u64, freshness: u64) -> Self {
        let mut h = key ^ 0x9e37_79b9_7f4a_7c15;
        for word in [tweak, payload, freshness] {
            h ^= mix(word.wrapping_add(h));
            h = h.rotate_left(23).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        MacTag(mix(h))
    }
}

/// splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_rng::prop::{check, PropConfig};

    #[test]
    fn deterministic() {
        assert_eq!(MacTag::compute(1, 2, 3, 4), MacTag::compute(1, 2, 3, 4));
    }

    #[test]
    fn sensitive_to_every_input() {
        let base = MacTag::compute(1, 2, 3, 4);
        assert_ne!(base, MacTag::compute(9, 2, 3, 4), "key ignored");
        assert_ne!(base, MacTag::compute(1, 9, 3, 4), "tweak ignored");
        assert_ne!(base, MacTag::compute(1, 2, 9, 4), "payload ignored");
        assert_ne!(base, MacTag::compute(1, 2, 3, 9), "freshness ignored");
    }

    /// Flipping one bit of the payload changes the tag (no trivial
    /// collisions under single-bit tamper).
    #[test]
    fn single_bit_tamper_detected() {
        check(
            "single_bit_tamper_detected",
            &PropConfig::from_env(256),
            |rng| {
                let payload: u64 = rng.random();
                let bit = rng.random_range(0usize..64);
                let a = MacTag::compute(7, 11, payload, 13);
                let b = MacTag::compute(7, 11, payload ^ (1 << bit), 13);
                assert_ne!(a, b);
            },
        );
    }

    /// Replay with a stale counter changes the tag.
    #[test]
    fn stale_counter_detected() {
        check(
            "stale_counter_detected",
            &PropConfig::from_env(256),
            |rng| {
                let counter = rng.random_range(0u64..u64::MAX);
                let fresh = MacTag::compute(7, 11, 99, counter.wrapping_add(1));
                let stale = MacTag::compute(7, 11, 99, counter);
                assert_ne!(fresh, stale);
            },
        );
    }
}
