//! An opened on-disk graph: resident metadata + verified block reads.

use std::fs::File;
use std::path::Path;

use crate::checksum::crc32;
use crate::format::{BlockEntry, Header, HEADER_LEN, INDEX_ENTRY_LEN};
use crate::varint::read_varint;
use crate::OocError;

/// A graph opened from the [`crate::format`] file layout.
///
/// Resident state is `O(N + blocks)`: per-vertex degrees, per-vertex byte
/// offsets (prefix sums of the on-disk length section), and the block
/// index. Neighbor bytes stay on disk and are read positionally — the
/// handle is shareable (`&self` reads), so every worker thread can read
/// through its own [`crate::BlockCache`] concurrently.
#[derive(Debug)]
pub struct OocGraph {
    file: File,
    header: Header,
    index: Vec<BlockEntry>,
    /// Per-vertex degree (`N` entries).
    degrees: Vec<u32>,
    /// Per-vertex byte offset into the data region (`N + 1` entries,
    /// prefix sums; `offsets[N] == data_len`).
    offsets: Vec<u64>,
    /// File offset of the data region.
    data_off: u64,
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut off: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_read(buf, off)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf = &mut buf[n..];
        off += n as u64;
    }
    Ok(())
}

impl OocGraph {
    /// Open and validate a graph file: header CRC, index, meta section,
    /// and file-length consistency. Block CRCs are verified lazily, on
    /// each block load.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, OocError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN as u64 {
            return Err(OocError::Truncated);
        }
        let mut head = [0u8; HEADER_LEN];
        read_exact_at(&file, &mut head, 0)?;
        let header = Header::decode(&head)?;
        if header.file_len() != file_len {
            return Err(OocError::Truncated);
        }

        let mut index_bytes = vec![0u8; header.num_blocks as usize * INDEX_ENTRY_LEN];
        read_exact_at(&file, &mut index_bytes, header.index_off())?;
        let index: Vec<BlockEntry> = index_bytes
            .chunks_exact(INDEX_ENTRY_LEN)
            .map(BlockEntry::decode)
            .collect::<Result<_, _>>()?;
        for (b, e) in index.iter().enumerate() {
            if e.offset != b as u64 * header.block_size as u64 {
                return Err(OocError::Corrupt {
                    reason: format!("block {b} offset {} out of place", e.offset),
                });
            }
        }

        let mut meta = vec![0u8; header.meta_len as usize];
        read_exact_at(&file, &mut meta, header.meta_off())?;
        let n = header.num_vertices as usize;
        let mut degrees = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut pos = 0usize;
        let next = |what: &str, pos: &mut usize| -> Result<u64, OocError> {
            let (v, p) = read_varint(&meta, *pos).ok_or_else(|| OocError::Corrupt {
                reason: format!("truncated {what} section"),
            })?;
            *pos = p;
            Ok(v)
        };
        let mut directed = 0u64;
        let mut max_degree = 0u32;
        for _ in 0..n {
            let d = next("degree", &mut pos)?;
            if d > u32::MAX as u64 {
                return Err(OocError::Corrupt {
                    reason: format!("degree {d} overflows u32"),
                });
            }
            directed += d;
            max_degree = max_degree.max(d as u32);
            degrees.push(d as u32);
        }
        let mut off = 0u64;
        offsets.push(0);
        for (v, &d) in degrees.iter().enumerate() {
            let len = next("length", &mut pos)?;
            if len == 0 && d != 0 {
                return Err(OocError::Corrupt {
                    reason: format!("vertex {v} has degree {d} but no bytes"),
                });
            }
            off = off.checked_add(len).ok_or_else(|| OocError::Corrupt {
                reason: "offset overflow".into(),
            })?;
            offsets.push(off);
        }
        if pos != meta.len() {
            return Err(OocError::Corrupt {
                reason: "trailing bytes in meta section".into(),
            });
        }
        if off != header.data_len {
            return Err(OocError::Corrupt {
                reason: format!(
                    "length section sums to {off}, data region is {}",
                    header.data_len
                ),
            });
        }
        if directed != 2 * header.num_edges {
            return Err(OocError::Corrupt {
                reason: format!(
                    "degrees sum to {directed}, header promises {} edges",
                    header.num_edges
                ),
            });
        }
        if max_degree != header.max_degree {
            return Err(OocError::Corrupt {
                reason: format!(
                    "max degree {max_degree} != header {}",
                    header.max_degree
                ),
            });
        }

        let data_off = header.data_off();
        Ok(Self {
            file,
            header,
            index,
            degrees,
            offsets,
            data_off,
        })
    }

    /// Number of vertices `N`.
    pub fn num_vertices(&self) -> u32 {
        self.header.num_vertices
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.header.num_edges
    }

    /// Maximum degree over all vertices (from the verified header).
    pub fn max_degree(&self) -> u32 {
        self.header.max_degree
    }

    /// Degree of `v` — resident, no disk access.
    pub fn degree(&self, v: u32) -> u32 {
        self.degrees[v as usize]
    }

    /// The file's header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The block index (diagnostics; lookups use [`OocGraph::list_range`]).
    pub fn index(&self) -> &[BlockEntry] {
        &self.index
    }

    /// Byte range `[start, end)` of `v`'s encoded list in the data region.
    pub fn list_range(&self, v: u32) -> (u64, u64) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }

    /// Read block `b` into `out` (which must hold at least
    /// [`Header::block_len`] bytes) and verify its CRC-32 against the
    /// index. Returns the block's byte length.
    pub fn read_block_into(&self, b: u32, out: &mut [u8]) -> Result<usize, OocError> {
        let len = self.header.block_len(b);
        let buf = &mut out[..len];
        read_exact_at(
            &self.file,
            buf,
            self.data_off + b as u64 * self.header.block_size as u64,
        )?;
        if crc32(buf) != self.index[b as usize].crc {
            return Err(OocError::ChecksumMismatch {
                what: "block",
                block: b,
            });
        }
        Ok(len)
    }

    /// Verify every data block's CRC-32 in one sequential pass. `open`
    /// already validates the header, index, and meta; blocks are
    /// normally checked lazily as the cache loads them — which turns
    /// data-region corruption into a mid-training panic (the sampler's
    /// neighbor access is infallible by design). Front-loading the scan
    /// makes corruption a clean startup error instead, at the cost of
    /// one full read of the file (which also warms the page cache).
    pub fn verify_blocks(&self) -> Result<(), OocError> {
        let mut buf = vec![0u8; self.header.block_size as usize];
        for b in 0..self.header.num_blocks {
            self.read_block_into(b, &mut buf)?;
        }
        Ok(())
    }
}
