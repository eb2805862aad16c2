//! The workspace's two non-cryptographic mixers, each defined once.
//!
//! Every derived seed (chunk RNGs, session seeds, fault draws, retry jitter)
//! goes through [`splitmix64`], and every deterministic digest (result
//! fingerprints, cache and catalog shard selection) through [`Fnv1a`]. They
//! live here because this is the one crate all their users already depend
//! on; a second copy that drifted by one constant would silently move a
//! seed or a shard.

/// SplitMix64 finalizer: a cheap bijective scrambler that decorrelates
/// seeds derived from nearby values (indices, salted bases).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental FNV-1a (64-bit) over byte chunks.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Fold `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    /// Published reference values: if one moves, every seed, jitter key,
    /// shard index and digest in the workspace moved with it.
    #[test]
    fn known_outputs_are_pinned() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0xDEAD_BEEF), 0x4ADF_B90F_68C9_EB9B);
        assert_eq!(fnv(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fnv_is_chunking_invariant() {
        let mut b = Fnv1a::new();
        b.write(b"hello ");
        b.write(b"world");
        assert_eq!(fnv(b"hello world"), b.finish());
        assert_ne!(fnv(b"hello world"), fnv(b"hello worle"));
    }
}
