//! Standard FNV-1a-64, the workspace's one non-cryptographic hash: journal
//! checksums, dataset hashes and label fingerprints. Journals and
//! `BENCH_labels.txt` store its values, so they must never change.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a-64: feed bytes with [`write`](Fnv1a::write) in any
/// number of pieces; the result equals [`fnv1a`] of their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// FNV-1a-64 over the little-endian bit patterns of `values`: the dataset
/// hash of a flat coordinate array.
pub fn fnv1a_f64s(values: &[f64]) -> u64 {
    let mut h = Fnv1a::default();
    for v in values {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_and_f64_forms_agree_with_one_shot() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));

        let values = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE];
        let bytes: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(fnv1a_f64s(&values), fnv1a(&bytes));
    }
}
