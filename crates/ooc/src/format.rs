//! The on-disk graph file format (version 1).
//!
//! Layout, in file order (all integers little-endian; see DESIGN.md §15
//! for the diagram):
//!
//! ```text
//! header   (60 bytes, CRC-32 over its first 56)
//! index    num_blocks × 16-byte entries { first_vertex, crc32, offset }
//! meta     varint degrees[N] ++ varint list_byte_len[N]
//! data     data_len bytes: concatenated gap-coded neighbor lists,
//!          addressed in fixed `block_size` blocks (last one short)
//! ```
//!
//! The header follows the checkpoint-v1 conventions: an 8-byte magic, an
//! explicit version word rejected when unknown, and a CRC-32 (the same
//! [`crate::crc32`] the checkpoint format uses) so truncation or bit
//! flips fail loudly at open rather than as silent bad graphs. Blocks
//! carry their own CRC-32 in the index, verified on every cache-miss
//! load, so a flipped byte anywhere in the data region is detected the
//! first time the block is touched.

use crate::checksum::crc32;
use crate::OocError;

/// File magic, versioned like the checkpoint's `MMSBCKP1`.
pub const MAGIC: [u8; 8] = *b"MMSBOOC1";

/// Current format version.
pub const VERSION: u32 = 1;

/// Default block size: 64 KiB.
pub const DEFAULT_BLOCK_SIZE: u32 = 64 * 1024;

/// Encoded header size in bytes.
pub const HEADER_LEN: usize = 60;

/// Encoded size of one block-index entry.
pub const INDEX_ENTRY_LEN: usize = 16;

/// The fixed-size file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Data-region block size in bytes (power of two, ≥ 4 KiB).
    pub block_size: u32,
    /// Number of vertices `N`.
    pub num_vertices: u32,
    /// Maximum degree over all vertices.
    pub max_degree: u32,
    /// Number of undirected edges.
    pub num_edges: u64,
    /// Number of blocks in the data region.
    pub num_blocks: u32,
    /// Byte length of the meta section (degrees ++ list lengths).
    pub meta_len: u64,
    /// Byte length of the data region.
    pub data_len: u64,
}

/// One entry of the per-block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// The vertex owning the first byte of the block (a list straddling
    /// blocks owns the follow-on blocks' first bytes too). Diagnostic:
    /// lookups go through the resident offsets, not this field.
    pub first_vertex: u32,
    /// CRC-32 of the block's bytes.
    pub crc: u32,
    /// Byte offset of the block within the data region
    /// (`block_index * block_size`; stored explicitly so an index entry
    /// is self-describing).
    pub offset: u64,
}

impl Header {
    /// Serialize to the fixed [`HEADER_LEN`] bytes, CRC included.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.block_size.to_le_bytes());
        out[16..20].copy_from_slice(&self.num_vertices.to_le_bytes());
        out[20..24].copy_from_slice(&self.max_degree.to_le_bytes());
        out[24..32].copy_from_slice(&self.num_edges.to_le_bytes());
        out[32..36].copy_from_slice(&self.num_blocks.to_le_bytes());
        // out[36..40] reserved, zero.
        out[40..48].copy_from_slice(&self.meta_len.to_le_bytes());
        out[48..56].copy_from_slice(&self.data_len.to_le_bytes());
        let crc = crc32(&out[..56]);
        out[56..60].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and validate [`HEADER_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, OocError> {
        if bytes.len() < HEADER_LEN {
            return Err(OocError::Truncated);
        }
        if bytes[0..8] != MAGIC {
            return Err(OocError::BadMagic);
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(OocError::UnsupportedVersion(version));
        }
        if u32_at(56) != crc32(&bytes[..56]) {
            return Err(OocError::ChecksumMismatch {
                what: "header",
                block: 0,
            });
        }
        let h = Header {
            block_size: u32_at(12),
            num_vertices: u32_at(16),
            max_degree: u32_at(20),
            num_edges: u64_at(24),
            num_blocks: u32_at(32),
            meta_len: u64_at(40),
            data_len: u64_at(48),
        };
        h.validate()?;
        Ok(h)
    }

    fn validate(&self) -> Result<(), OocError> {
        if !self.block_size.is_power_of_two() || self.block_size < 4096 {
            return Err(OocError::Corrupt {
                reason: format!("bad block size {}", self.block_size),
            });
        }
        let expect_blocks = self.data_len.div_ceil(self.block_size as u64);
        if expect_blocks != self.num_blocks as u64 {
            return Err(OocError::Corrupt {
                reason: format!(
                    "data length {} implies {} blocks, header says {}",
                    self.data_len, expect_blocks, self.num_blocks
                ),
            });
        }
        Ok(())
    }

    /// Byte length of block `b` (the last block may be short).
    pub fn block_len(&self, b: u32) -> usize {
        let start = b as u64 * self.block_size as u64;
        (self.data_len - start).min(self.block_size as u64) as usize
    }

    /// File offset of the block index.
    pub fn index_off(&self) -> u64 {
        HEADER_LEN as u64
    }

    /// File offset of the meta section.
    pub fn meta_off(&self) -> u64 {
        self.index_off() + self.num_blocks as u64 * INDEX_ENTRY_LEN as u64
    }

    /// File offset of the data region.
    pub fn data_off(&self) -> u64 {
        self.meta_off() + self.meta_len
    }

    /// Total file size implied by the header.
    pub fn file_len(&self) -> u64 {
        self.data_off() + self.data_len
    }
}

impl BlockEntry {
    /// Serialize to [`INDEX_ENTRY_LEN`] bytes.
    pub fn encode(&self) -> [u8; INDEX_ENTRY_LEN] {
        let mut out = [0u8; INDEX_ENTRY_LEN];
        out[0..4].copy_from_slice(&self.first_vertex.to_le_bytes());
        out[4..8].copy_from_slice(&self.crc.to_le_bytes());
        out[8..16].copy_from_slice(&self.offset.to_le_bytes());
        out
    }

    /// Parse [`INDEX_ENTRY_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, OocError> {
        if bytes.len() < INDEX_ENTRY_LEN {
            return Err(OocError::Truncated);
        }
        Ok(BlockEntry {
            first_vertex: u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            crc: u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            offset: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            block_size: DEFAULT_BLOCK_SIZE,
            num_vertices: 10,
            max_degree: 4,
            num_edges: 12,
            num_blocks: 1,
            meta_len: 20,
            data_len: 31,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(Header::decode(&bytes).unwrap(), h);
        assert_eq!(h.file_len(), 60 + 16 + 20 + 31);
        assert_eq!(h.block_len(0), 31);
    }

    /// Recorded with the byte-at-a-time `crc32`: the format must not move.
    #[test]
    fn header_crc_is_golden() {
        assert_eq!(header().encode()[56..60], 0xC18D_843Fu32.to_le_bytes());
    }

    #[test]
    fn header_rejects_bad_magic_version_crc_truncation() {
        let h = header();
        let good = h.encode();

        let mut bad = good;
        bad[0] ^= 1;
        assert!(matches!(Header::decode(&bad), Err(OocError::BadMagic)));

        let mut bad = good;
        bad[8] = 99;
        // Version is covered by the CRC, so either error is a rejection;
        // the version check runs first for a clear message.
        assert!(matches!(
            Header::decode(&bad),
            Err(OocError::UnsupportedVersion(99))
        ));

        assert!(matches!(
            Header::decode(&good[..HEADER_LEN - 1]),
            Err(OocError::Truncated)
        ));

        // Every single flipped bit in the covered region must be caught.
        for byte in 12..56 {
            let mut bad = good;
            bad[byte] ^= 0x10;
            assert!(
                Header::decode(&bad).is_err(),
                "flip at byte {byte} was accepted"
            );
        }
    }

    #[test]
    fn header_rejects_inconsistent_block_count() {
        let mut h = header();
        h.num_blocks = 3;
        let bytes = h.encode();
        assert!(matches!(
            Header::decode(&bytes),
            Err(OocError::Corrupt { .. })
        ));
    }

    #[test]
    fn index_entry_roundtrip() {
        let e = BlockEntry {
            first_vertex: 7,
            crc: 0xDEAD_BEEF,
            offset: 65536,
        };
        assert_eq!(BlockEntry::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn multi_block_lengths() {
        let h = Header {
            block_size: 4096,
            num_vertices: 1,
            max_degree: 1,
            num_edges: 1,
            num_blocks: 3,
            meta_len: 2,
            data_len: 2 * 4096 + 100,
        };
        assert_eq!(h.block_len(0), 4096);
        assert_eq!(h.block_len(1), 4096);
        assert_eq!(h.block_len(2), 100);
    }
}
