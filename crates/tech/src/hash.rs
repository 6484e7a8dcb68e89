//! The workspace's one content hash.

/// 64-bit FNV-1a over `bytes`: the hash behind every content identity
/// in the workspace — canonical flow keys, stage-artifact chains,
/// netlist digests, trace fingerprints, the name interner. Everything
/// keyed by it stores the full key beside the hash, so a collision
/// costs a miss, never a wrong answer.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // The empty string hashes to the offset basis; "a" is the
        // classic published vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
