//! Consistent-hash shard placement.

use asicgap::content_hash;

/// How many points each member contributes to the ring. More points
/// smooth the load split between members at the cost of a larger sorted
/// table; 64 keeps the imbalance of a two-shard ring under a few
/// percent while the table stays trivially small.
const VNODES: usize = 64;

/// FNV-1a diffuses the last few input bytes poorly — similar short
/// strings (`member/a#0`, `member/a#1`, …) land in narrow bands, which
/// would let one member own nearly the whole ring. This 64-bit
/// avalanche finalizer (Murmur3's) spreads every input bit across the
/// word; both vnode points and key placements pass through it.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring: deterministic key → member placement.
///
/// Each member is expanded into `VNODES` virtual points hashed from
/// `"member/{name}#{replica}"`; a key routes to the first point at or
/// after its own hash (wrapping). Determinism is total: the placement
/// depends only on the member names, not their order of insertion, so
/// independently configured routers and shards always agree.
///
/// ```
/// use asicgap_cluster::Ring;
///
/// let ring = Ring::new(["alpha", "beta"]).unwrap();
/// let shard = &ring.members()[ring.place_index("some canonical key text")];
/// assert!(shard == "alpha" || shard == "beta");
/// // Same members, different construction order: same placement.
/// let again = Ring::new(["beta", "alpha"]).unwrap();
/// assert_eq!(&again.members()[again.place_index("some canonical key text")], shard);
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, member index)`, sorted by point.
    points: Vec<(u64, usize)>,
    members: Vec<String>,
}

impl Ring {
    /// Builds a ring over `members`. Returns `None` when `members` is
    /// empty or contains a duplicate name (a duplicate would silently
    /// double that member's share).
    pub fn new<I, S>(members: I) -> Option<Ring>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut members: Vec<String> = members.into_iter().map(Into::into).collect();
        members.sort();
        if members.is_empty() || members.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for (idx, name) in members.iter().enumerate() {
            for replica in 0..VNODES {
                points.push((mix(content_hash(&format!("member/{name}#{replica}"))), idx));
            }
        }
        points.sort_unstable();
        Some(Ring { points, members })
    }

    /// The members, sorted by name.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The index (into [`Ring::members`]) of the member that owns `key`.
    pub fn place_index(&self, key: &str) -> usize {
        let hash = mix(content_hash(key));
        let i = self.points.partition_point(|&(p, _)| p < hash);
        self.points[i % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name of the member that owns `key`.
    fn owner<'r>(ring: &'r Ring, key: &str) -> &'r str {
        &ring.members()[ring.place_index(key)]
    }

    #[test]
    fn rejects_empty_and_duplicate_member_lists() {
        assert!(Ring::new(Vec::<String>::new()).is_none());
        assert!(Ring::new(["a", "b", "a"]).is_none());
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let a = Ring::new(["shard0", "shard1", "shard2"]).unwrap();
        let b = Ring::new(["shard2", "shard0", "shard1"]).unwrap();
        assert_eq!(a.members(), b.members());
        for i in 0..500 {
            let key = format!("key-{i}");
            assert_eq!(a.place_index(&key), b.place_index(&key));
        }
    }

    #[test]
    fn two_shard_split_is_roughly_even() {
        let ring = Ring::new(["a", "b"]).unwrap();
        let hits = (0..2000)
            .filter(|i| owner(&ring, &format!("key-{i}")) == "a")
            .count();
        assert!(
            (400..=1600).contains(&hits),
            "two-shard split badly skewed: {hits}/2000"
        );
    }

    #[test]
    fn removing_a_member_only_moves_its_own_keys() {
        let three = Ring::new(["a", "b", "c"]).unwrap();
        let two = Ring::new(["a", "b"]).unwrap();
        let mut moved = 0;
        for i in 0..2000 {
            let key = format!("key-{i}");
            let before = owner(&three, &key);
            if before == "c" {
                continue;
            }
            if owner(&two, &key) != before {
                moved += 1;
            }
        }
        assert_eq!(moved, 0, "keys not owned by the removed member moved");
    }
}
