//! Seed derivation: every MCTS, task and init seed a workload hands to the
//! program is a pure function of `--seed` and a path of small integers
//! (workload, unit, session, purpose), so the same `--seed` always yields
//! the same inputs and no two sessions share a stream by accident.

/// One SplitMix64 step — a bijective 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from `master` along `path`.
pub fn derive(master: u64, path: &[u64]) -> u64 {
    path.iter().fold(mix(master), |acc, &step| {
        mix(acc ^ mix(step.wrapping_add(1)))
    })
}

/// FNV-1a over `words` — the candidate-set digest.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pinned() {
        // Pinned values: changing the derivation silently changes every
        // workload's inputs and invalidates the committed digests.
        assert_eq!(derive(7, &[]), 0x63CB_E1E4_5932_0DD7);
        assert_eq!(derive(7, &[0, 0, 0]), 0x60C1_F785_B2D0_BC2B);
        assert_ne!(derive(7, &[0, 0, 1]), derive(7, &[0, 1, 0]));
        assert_ne!(derive(7, &[1]), derive(8, &[1]));
        assert_ne!(derive(7, &[0]), derive(7, &[0, 0]));
    }

    #[test]
    fn fnv_depends_on_order_and_content() {
        assert_eq!(fnv64([]), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv64([1, 2]), fnv64([2, 1]));
        assert_eq!(fnv64([1, 2]), fnv64(vec![1, 2]));
    }
}
