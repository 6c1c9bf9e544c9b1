//! Out-of-core graph engine for 100M+ edge graphs.
//!
//! The resident [`mmsb_graph::Graph`] CSR is bounded by RAM: 12 bytes per
//! (directed) edge entry plus 8 per vertex. This crate stores the same
//! adjacency structure on disk — delta-encoded varint neighbor lists packed
//! into fixed-size 64 KiB blocks of 1 KiB checksummed frames — and keeps
//! only `O(N)` metadata resident (per-vertex degrees and byte offsets).
//! Mini-batch samplers then read neighbor lists through a fixed-capacity
//! [`BlockCache`] of frames, so training reads only the frames a
//! mini-batch's lists span (the multi-anchor stratified strategy already
//! localizes access; see DESIGN.md §15).
//!
//! Components:
//!
//! * [`format`] — the versioned, checksummed file layout (header in the
//!   style of checkpoint v1, per-block index, one CRC-32 per frame),
//! * [`varint`] — LEB128 varints and gap coding for sorted neighbor lists,
//! * [`OocGraph`] — an opened graph file: resident metadata + positioned
//!   frame and block reads with per-frame CRC verification,
//! * [`BlockCache`] — caller-owned scratch: a set-associative, seeded-LRU
//!   frame cache with zero steady-state allocation,
//! * [`OocReader`] — an [`mmsb_graph::access::GraphAccess`] view over
//!   `(&OocGraph, &mut BlockCache)`, for one-off probes,
//! * [`RegionCaches`] — the sampler's caches: one [`BlockCache`] per
//!   region of the file, each frame cached only by its block's region,
//!   and [`RoutedReader`], the master's view through them,
//! * [`GraphBackend`] — `Resident | OutOfCore` dispatch for the drivers,
//! * [`build`] — the streaming builder, inside a fixed memory budget
//!   (double-buffered external sort into runs + loser-tree merge), and
//!   the SNAP edge-list converter.
//!
//! Determinism: decoded neighbor lists are byte-identical to the resident
//! CSR's (same sorted, deduplicated adjacency), and cache hits/misses only
//! affect *when* a frame is read, never the decoded values — so sampling
//! chains are bitwise identical across backends and cache sizes.

#![forbid(unsafe_code)]

pub mod build;
pub mod format;
pub mod varint;

mod backend;
mod cache;
mod file;
mod reader;
mod region;

pub use backend::{BackendReader, GraphBackend, DEFAULT_CACHE_BLOCKS};
pub use build::{convert_edge_list, write_graph, BuildOptions, BuildStats, StreamingBuilder};
pub use cache::BlockCache;
pub use file::OocGraph;
/// CRC-32 (IEEE) — `mmsb-simd`'s kernel, behind every header, frame and
/// checkpoint check of both on-disk formats.
pub use mmsb_simd::crc32;
pub use reader::OocReader;
pub use region::{RegionCaches, RoutedReader};

/// Errors produced while building, opening or reading an on-disk graph.
#[derive(Debug)]
pub enum OocError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `MMSBOOC1` magic.
    BadMagic,
    /// The file's format version is not the one this build reads
    /// ([`format::VERSION`]); `mmsb convert` writes the file anew.
    UnsupportedVersion(u32),
    /// A stored CRC-32 does not match the bytes read back.
    ChecksumMismatch {
        /// Which region failed: `"header"` or `"block"`.
        what: &'static str,
        /// The block the failed frame lies in (0 for the header).
        block: u32,
        /// The failed frame, numbered over the whole data region (0 for
        /// the header).
        frame: u32,
    },
    /// The file ended before a fixed-size region was complete.
    Truncated,
    /// A structural invariant does not hold (bad varint, offset
    /// mismatch, out-of-range vertex id, ...).
    Corrupt {
        /// Explanation of the failed invariant.
        reason: String,
    },
}

impl std::fmt::Display for OocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OocError::Io(e) => write!(f, "i/o error: {e}"),
            OocError::BadMagic => write!(f, "not an mmsb ooc graph file (bad magic)"),
            OocError::UnsupportedVersion(v) => write!(
                f,
                "unsupported ooc format version {v} (this build reads version {}; \
                 rewrite the file with `mmsb convert`)",
                format::VERSION
            ),
            OocError::ChecksumMismatch { what: "header", .. } => {
                write!(f, "checksum mismatch in header")
            }
            OocError::ChecksumMismatch { what, block, frame } => {
                write!(f, "checksum mismatch in {what} {block}, frame {frame}")
            }
            OocError::Truncated => write!(f, "file truncated"),
            OocError::Corrupt { reason } => write!(f, "corrupt graph file: {reason}"),
        }
    }
}

impl std::error::Error for OocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OocError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OocError {
    fn from(e: std::io::Error) -> Self {
        OocError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_mentions_details() {
        assert!(OocError::BadMagic.to_string().contains("magic"));
        let e = OocError::UnsupportedVersion(9).to_string();
        assert!(e.contains('9') && e.contains("mmsb convert"), "{e}");
        let e = OocError::ChecksumMismatch {
            what: "block",
            block: 7,
            frame: 113,
        };
        assert!(e.to_string().contains("block 7, frame 113"));
        let e = OocError::Corrupt {
            reason: "bad varint".into(),
        };
        assert!(e.to_string().contains("bad varint"));
    }
}
