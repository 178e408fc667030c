//! The workspace's one 64-bit FNV-1a: behind state-file and model
//! checksums, sandbox change digests, service and selection digests, shard
//! assignment and the fault/chaos probability draws.

/// The 64-bit FNV-1a offset basis: the hash of no input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One 64-bit FNV-1a step: folds the value `v` into the running hash `h`.
#[inline]
pub fn fnv1a_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds `bytes` into the running FNV-1a hash `h` (start from
/// [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a_step(h, u64::from(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
