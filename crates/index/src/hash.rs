//! The snapshot checksum: a seeded streaming hash of eight independent
//! lanes over 64-byte stripes (xxHash-flavoured multiply/rotate rounds
//! with a murmur-style finalizer).
//!
//! Lane *k* consumes word *k* of every stripe with `round`; `finish`
//! folds the eight lane states through `round` in order, then the tail
//! words (the < 64 bytes after the last whole stripe, the last one
//! zero-padded), then the total length, then the finalizer.
//!
//! Requirements — in order of importance:
//!
//! 1. **Deterministic across platforms and processes**: words are read
//!    little-endian, no pointer- or layout-dependence.  The snapshot
//!    *stamp* is derived from this hash, so it must be reproducible.
//! 2. **Memory speed, so that `open_snapshot` costs one read of the
//!    file**: a single `xor → mul → rotl` chain — the format-v1 hash —
//!    retires 8 bytes every ≈ 6 cycles whatever the memory does
//!    (2.7 GB/s).  Eight chains overlap their multiplies: 26 GB/s on
//!    cache-resident data (four chains: 20), and on a mapped file
//!    whatever the memory delivers — 2.6 ms of `index/open_hash_ns` per
//!    open of the 23.5 MB snapshot of a 4·10⁵-element XMark document,
//!    first touch of the mapping included (`crates/bench/tests/open_split.rs`;
//!    2.0 GHz Xeon, 2 vCPUs).  See DESIGN.md "Opening at memory speed".
//! 3. **Catches every single-bit flip** (and any realistic corruption):
//!    `round` is a bijection of the state for a fixed word and of the
//!    word for a fixed state, so changing one word changes its lane,
//!    and the fold, the tail rounds, the length mix and the finalizer
//!    are each a bijection of the running state — the difference
//!    survives to the output.  It is an integrity check, not a
//!    cryptographic MAC; snapshots are trusted local files.

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const PRIME: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Independent multiply chains; one 8-byte word of a stripe each.
const LANES: usize = 8;
const STRIPE: usize = LANES * 8;

/// Streaming hasher; identical output regardless of how the input is
/// split across [`FastHash::write`] calls.
#[derive(Debug, Clone)]
pub(crate) struct FastHash {
    lanes: [u64; LANES],
    /// Carry for a partial stripe between writes.
    buf: [u8; STRIPE],
    buf_len: usize,
    total: u64,
}

#[inline]
fn round(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(PRIME).rotate_left(31)
}

#[inline]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

#[inline]
fn stripe(lanes: &mut [u64; LANES], s: &[u8]) {
    for (lane, w) in lanes.iter_mut().zip(s.chunks_exact(8)) {
        *lane = round(*lane, word(w));
    }
}

impl FastHash {
    pub(crate) fn new() -> FastHash {
        let mut lanes = [SEED; LANES];
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane ^= (k as u64).wrapping_mul(PRIME);
        }
        FastHash {
            lanes,
            buf: [0; STRIPE],
            buf_len: 0,
            total: 0,
        }
    }

    pub(crate) fn write(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        // Top up a pending partial stripe first.
        if self.buf_len > 0 {
            let take = (STRIPE - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < STRIPE {
                // `data` is used up; the carry stays pending.
                return;
            }
            stripe(&mut self.lanes, &self.buf);
        }
        // Lanes in locals for the hot loop, so they stay in registers.
        let mut lanes = self.lanes;
        let mut stripes = data.chunks_exact(STRIPE);
        for s in &mut stripes {
            stripe(&mut lanes, s);
        }
        self.lanes = lanes;
        let rem = stripes.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    pub(crate) fn finish(self) -> u64 {
        let mut state = self.lanes.into_iter().fold(SEED, round);
        let mut words = self.buf[..self.buf_len].chunks_exact(8);
        for w in &mut words {
            state = round(state, word(w));
        }
        let rem = words.remainder();
        if !rem.is_empty() {
            // Zero-pad the tail; the mixed-in total length disambiguates
            // padding from genuine zero bytes.
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            state = round(state, u64::from_le_bytes(last));
        }
        let mut h = state ^ self.total;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        h
    }
}

/// One-shot convenience over [`FastHash`].
pub(crate) fn hash_bytes(data: &[u8]) -> u64 {
    let mut h = FastHash::new();
    h.write(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_invariant() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let whole = hash_bytes(&data);
        // 63/64/65 straddle the stripe carry: a write that ends one byte
        // short of, exactly on, and one byte past a stripe boundary.
        for split in [1, 3, 7, 8, 9, 63, 64, 65, 999] {
            let mut h = FastHash::new();
            for c in data.chunks(split) {
                h.write(c);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn sensitive_to_every_bit_and_to_length() {
        // 200 bytes: three whole stripes (every lane), a whole tail word
        // and a zero-padded one.
        for len in [64, 200] {
            let data = vec![0u8; len];
            let base = hash_bytes(&data);
            for byte in 0..len {
                for bit in 0..8 {
                    let mut d = data.clone();
                    d[byte] ^= 1 << bit;
                    assert_ne!(hash_bytes(&d), base, "flip {byte}.{bit} undetected");
                }
            }
        }
        // Zero padding must not collide with explicit zeros.
        assert_ne!(hash_bytes(&[0; 3]), hash_bytes(&[0; 8]));
        assert_ne!(hash_bytes(b""), hash_bytes(&[0]));
        assert_ne!(hash_bytes(&[0; 64]), hash_bytes(&[0; 128]));
        // Words of one stripe are not interchangeable across lanes.
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        a[0] = 1;
        b[8] = 1;
        assert_ne!(hash_bytes(&a), hash_bytes(&b));
    }

    #[test]
    fn known_stability() {
        // Snapshot checksums and stamps depend on this hash staying put
        // (format versions 2 and 3): pinned literal vectors, so any edit to
        // SEED, PRIME, the lane count, the round, the fold or the
        // finalizer — which would orphan every existing snapshot file —
        // fails loudly here (such a change requires a format version
        // bump).  The vectors were re-pinned when the version moved
        // 1 → 2: v1 hashed through one serial chain, v2 hashes through
        // eight lanes — a different function of the same bytes.
        assert_eq!(hash_bytes(b""), 0x519f_2f9e_8c12_2331);
        assert_eq!(hash_bytes(b"minctx"), 0x1729_fac2_43cd_57eb);
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(hash_bytes(&ramp), 0x0413_b743_d0fc_3454);
    }
}
