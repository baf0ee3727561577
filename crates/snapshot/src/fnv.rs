//! FNV-1a 64-bit checksums.
//!
//! The container needs a checksum that is (a) implementable in a dozen
//! lines with no dependencies, (b) fast enough to verify every payload at
//! load time without dominating I/O, and (c) good at catching the failure
//! modes snapshots actually see — truncation, single flipped bytes, zeroed
//! pages. FNV-1a fits: every input byte is folded through a multiply, so
//! any single-byte change flips roughly half the state bits. It is *not*
//! cryptographic and does not defend against an adversary crafting a
//! colliding file — snapshots are trusted local artifacts, the checksum
//! guards against storage and copy errors.
//!
//! Two granularities are used. The byte-wise [`fnv1a64`] is the textbook
//! algorithm (matches the published test vectors) and checksums the small
//! section table. Payloads are megabytes, and a byte-per-multiply loop
//! would dominate cold-start, so they use [`fnv1a64_words`]: the same
//! xor-then-multiply fold applied to whole little-endian 64-bit words
//! (8 input bytes per multiply), with a zero-padded tail word and the
//! total length folded last so truncation and trailing-zero edits still
//! change the hash. Any flipped bit lands in some word's xor and diffuses
//! through the remaining multiplies exactly as in the byte-wise variant.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher in the initial state.
    pub fn new() -> Self {
        Fnv64 {
            state: OFFSET_BASIS,
        }
    }

    /// Folds `bytes` into the state.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        self.state = h;
    }

    /// Folds a whole 64-bit word into the state in a single multiply.
    ///
    /// This is the word-wise fold described in the module docs: one
    /// xor-then-multiply per 64 input bits instead of per 8.
    pub(crate) fn write_word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(PRIME);
    }

    /// Folds a `u32` into the state (one word-wise fold).
    pub fn write_u32(&mut self, v: u32) {
        self.write_word(v as u64);
    }

    /// Folds a `u64` into the state (one word-wise fold).
    pub fn write_u64(&mut self, v: u64) {
        self.write_word(v);
    }

    /// Folds an `f64` (bit pattern) into the state.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a length-prefixed string into the state.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One-shot word-wise FNV-1a 64 over `bytes`.
///
/// Folds `bytes` as little-endian 64-bit words (8 input bytes per
/// multiply) across four independent lanes — the xor-multiply chain is
/// latency-bound, so striping words over four states lets the CPU overlap
/// the multiplies — then folds the lane states, a zero-padded tail word
/// for any remainder, and the total length into one final chain. Used for
/// payload checksums, where a single dependent chain would dominate
/// snapshot load time. NOT interchangeable with [`fnv1a64`]; both sides
/// of the format must agree on which variant a field uses.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut lanes = [OFFSET_BASIS; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ le_word(w)).wrapping_mul(PRIME);
        }
    }
    let mut h = Fnv64::new();
    for lane in lanes {
        h.write_word(lane);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h.write_word(le_word(w));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h.write_word(u64::from_le_bytes(tail));
    }
    h.write_word(bytes.len() as u64);
    h.finish()
}

/// `w` as a little-endian `u64`; callers pass exact 8-byte chunks.
fn le_word(w: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(w);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_byte_flip_changes_hash() {
        let base = vec![0u8; 4096];
        let h0 = fnv1a64(&base);
        for i in [0usize, 1, 100, 4095] {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv1a64(&flipped), h0, "flip at {i} undetected");
        }
    }

    #[test]
    fn word_variant_detects_flips_tails_and_truncation() {
        let base = vec![7u8; 4099]; // non-multiple of 8: exercises the tail word
        let h0 = fnv1a64_words(&base);
        for i in [0usize, 1, 4095, 4096, 4098] {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv1a64_words(&flipped), h0, "flip at {i} undetected");
        }
        // Truncation and zero-extension both change the hash (length fold).
        assert_ne!(fnv1a64_words(&base[..4098]), h0);
        let mut extended = base.clone();
        extended.push(0);
        assert_ne!(fnv1a64_words(&extended), h0);
        assert_ne!(fnv1a64_words(b""), fnv1a64_words(&[0u8]));
        // Distinct from the byte-wise variant by construction.
        assert_ne!(fnv1a64_words(b"foobar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello snapshot world";
        let mut h = Fnv64::new();
        h.write(&data[..5]);
        h.write(&data[5..]);
        assert_eq!(h.finish(), fnv1a64(data));
    }
}
