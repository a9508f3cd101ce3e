//! CRC-32 (reflected IEEE 802.3) — the checkpoint checksum, shared.
//!
//! This is the checksum the checkpoint v1 format introduced
//! (`mmsb_core::checkpoint` re-exports it from here); the graph file
//! format uses the same code for its header and per-block checksums so a
//! bit flip anywhere in either format family is caught by one verified
//! implementation.
//!
//! The loop is slicing-by-8: eight tables fold eight input bytes per
//! step, and a bytewise tail finishes the remainder. The result is
//! bit-identical to the one-table bytewise loop (`CRC_TABLES[0]`).

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial.
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[s][i]` is
/// the CRC state after byte `i` is followed by `s` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 8 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// Bitwise CRC-32 straight from the polynomial — no tables, so it
    /// shares nothing with the code under test.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn slicing_matches_bytewise_reference_at_every_length_and_offset() {
        const MAX_LEN: usize = 4100;
        const OFFSETS: usize = 8;
        // splitmix64 bytes: deterministic, no repeating pattern.
        let mut x = 0x5EED_u64;
        let buf: Vec<u8> = (0..MAX_LEN + OFFSETS)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for len in 0..=MAX_LEN {
            // Every start offset for short inputs; beyond, one offset
            // that rotates with `len / 8`, so each start alignment still
            // meets each tail length (`len % 8`).
            let offsets = if len <= 64 {
                0..OFFSETS
            } else {
                let off = (len / 8) % OFFSETS;
                off..off + 1
            };
            for off in offsets {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), reference_crc32(s), "len {len}, offset {off}");
            }
        }
    }
}
