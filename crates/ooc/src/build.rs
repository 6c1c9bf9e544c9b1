//! Bounded-memory graph construction: external sort + k-way merge.
//!
//! The builder never holds the edge set in RAM. Incoming edges are
//! emitted as *both* directed entries packed into `u64`s
//! (`src << 32 | dst`), accumulated in a fixed-capacity buffer, sorted,
//! and spilled to a temp run file whenever the buffer fills. `finish`
//! k-way-merges the sorted runs (a binary heap over one buffered cursor
//! per run), deduplicates adjacent equal entries, and streams each
//! vertex's gap-coded list straight into fixed-size data blocks — so peak
//! memory is `O(run buffer + N)` regardless of edge count, and peak disk
//! is roughly `16 bytes × E` of temp runs plus the final file.
//!
//! Determinism: entries are totally ordered `u64`s and ties (duplicate
//! edges across runs) are broken by run index in the heap key, so the
//! merge — and therefore the output file — is byte-identical for a given
//! edge multiset regardless of run boundaries.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mmsb_graph::io::EdgeListLines;
use mmsb_graph::{FxHashMap, Graph};

use crate::format::{BlockEntry, Header, DEFAULT_BLOCK_SIZE};
use crate::varint::{encode_list, write_varint};
use crate::{crc32, OocError};

/// Options for [`StreamingBuilder`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Data-region block size in bytes (power of two, ≥ 4 KiB).
    pub block_size: u32,
    /// In-RAM sort buffer capacity in directed entries (8 bytes each).
    /// The default (16 Mi entries = 128 MiB) keeps run counts small for
    /// 100M-edge graphs.
    pub run_entries: usize,
    /// Declared vertex count. `None` infers `max id + 1`; declare it to
    /// keep trailing isolated vertices.
    pub num_vertices: Option<u32>,
    /// Where temp runs live. `None` uses the system temp dir.
    pub temp_dir: Option<PathBuf>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            run_entries: 16 << 20,
            num_vertices: None,
            temp_dir: None,
        }
    }
}

/// What a build produced — the numbers `BENCH_graph.json` reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildStats {
    /// Vertices in the output graph.
    pub num_vertices: u32,
    /// Distinct undirected edges written.
    pub num_edges: u64,
    /// Self-loops dropped at intake.
    pub self_loops_dropped: u64,
    /// Duplicate undirected edges dropped at merge.
    pub duplicates_dropped: u64,
    /// Bytes in the data region (the compressed adjacency itself).
    pub data_bytes: u64,
    /// Total output file size (header + index + meta + data).
    pub file_bytes: u64,
}

impl BuildStats {
    /// Output file bytes per undirected edge — compared against the raw
    /// 8-byte `(u32, u32)` pair baseline (acceptance: ≤ 60% of it).
    pub fn bytes_per_edge(&self) -> f64 {
        self.file_bytes as f64 / (self.num_edges.max(1)) as f64
    }
}

/// Process-global counter making temp dir names unique within a process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Streams edges into sorted temp runs, then assembles the on-disk graph.
#[derive(Debug)]
pub struct StreamingBuilder {
    opts: BuildOptions,
    temp_root: PathBuf,
    runs: Vec<PathBuf>,
    buf: Vec<u64>,
    max_id: u32,
    any_edge: bool,
    self_loops: u64,
    entries_in: u64,
}

impl StreamingBuilder {
    /// Create a builder; its temp directory is created immediately.
    pub fn new(opts: BuildOptions) -> Result<Self, OocError> {
        if !opts.block_size.is_power_of_two() || opts.block_size < 4096 {
            return Err(OocError::Corrupt {
                reason: format!("bad block size {}", opts.block_size),
            });
        }
        let base = opts
            .temp_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let temp_root = base.join(format!(
            "mmsb-ooc-build-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&temp_root)?;
        let run_entries = opts.run_entries.max(1024);
        Ok(Self {
            opts,
            temp_root,
            runs: Vec::new(),
            buf: Vec::with_capacity(run_entries),
            max_id: 0,
            any_edge: false,
            self_loops: 0,
            entries_in: 0,
        })
    }

    /// Add one undirected edge (both directed entries are recorded).
    /// Self-loops are counted and skipped; duplicates are fine — the
    /// merge deduplicates.
    pub fn add_edge(&mut self, a: u32, b: u32) -> Result<(), OocError> {
        if a == b {
            self.self_loops += 1;
            return Ok(());
        }
        for v in [a, b] {
            if v == u32::MAX {
                return Err(OocError::Corrupt {
                    reason: "vertex id u32::MAX is reserved".into(),
                });
            }
            if let Some(n) = self.opts.num_vertices {
                if v >= n {
                    return Err(OocError::Corrupt {
                        reason: format!("vertex {v} out of declared range (N = {n})"),
                    });
                }
            }
        }
        if self.buf.len() + 2 > self.buf.capacity() {
            self.flush_run()?;
        }
        self.buf.push((a as u64) << 32 | b as u64);
        self.buf.push((b as u64) << 32 | a as u64);
        self.max_id = self.max_id.max(a).max(b);
        self.any_edge = true;
        self.entries_in += 2;
        Ok(())
    }

    fn flush_run(&mut self) -> Result<(), OocError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        let path = self.temp_root.join(format!("run-{}.bin", self.runs.len()));
        let mut w = BufWriter::with_capacity(1 << 20, File::create(&path)?);
        for &e in &self.buf {
            w.write_all(&e.to_le_bytes())?;
        }
        w.flush()?;
        self.buf.clear();
        self.runs.push(path);
        Ok(())
    }

    /// Merge the runs, encode, and write the final file to `out_path`.
    pub fn finish<P: AsRef<Path>>(mut self, out_path: P) -> Result<BuildStats, OocError> {
        self.flush_run()?;
        let num_vertices = match self.opts.num_vertices {
            Some(n) => n,
            None if self.any_edge => self.max_id + 1,
            None => 0,
        };
        let block_size = self.opts.block_size as usize;

        // ---- merge + encode into the data temp file -----------------
        let mut readers: Vec<RunCursor> = self
            .runs
            .iter()
            .map(|p| RunCursor::open(p))
            .collect::<Result<_, _>>()?;
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some(e) = r.next()? {
                heap.push(std::cmp::Reverse((e, i)));
            }
        }

        let data_path = self.temp_root.join("data.bin");
        let mut pages = PageWriter::new(File::create(&data_path)?, block_size);
        let mut degrees: Vec<u32> = Vec::new();
        let mut lens: Vec<u64> = Vec::new();
        let mut enc = Vec::with_capacity(4096);
        let mut list: Vec<u32> = Vec::new();
        let mut cur_src: u32 = 0;
        let mut last: Option<u64> = None;
        let mut deduped: u64 = 0;
        let mut max_degree: u32 = 0;

        let emit = |src: u32,
                        list: &mut Vec<u32>,
                        enc: &mut Vec<u8>,
                        degrees: &mut Vec<u32>,
                        lens: &mut Vec<u64>,
                        pages: &mut PageWriter,
                        max_degree: &mut u32|
         -> Result<(), OocError> {
            while degrees.len() < src as usize {
                degrees.push(0);
                lens.push(0);
            }
            enc.clear();
            encode_list(enc, list);
            degrees.push(list.len() as u32);
            lens.push(enc.len() as u64);
            *max_degree = (*max_degree).max(list.len() as u32);
            pages.append(src, enc)?;
            list.clear();
            Ok(())
        };

        while let Some(std::cmp::Reverse((entry, run))) = heap.pop() {
            if let Some(e) = readers[run].next()? {
                heap.push(std::cmp::Reverse((e, run)));
            }
            if last == Some(entry) {
                deduped += 1;
                continue;
            }
            last = Some(entry);
            let src = (entry >> 32) as u32;
            let dst = entry as u32;
            if src != cur_src && !list.is_empty() {
                emit(
                    cur_src,
                    &mut list,
                    &mut enc,
                    &mut degrees,
                    &mut lens,
                    &mut pages,
                    &mut max_degree,
                )?;
            }
            cur_src = src;
            list.push(dst);
        }
        if !list.is_empty() {
            emit(
                cur_src,
                &mut list,
                &mut enc,
                &mut degrees,
                &mut lens,
                &mut pages,
                &mut max_degree,
            )?;
        }
        while degrees.len() < num_vertices as usize {
            degrees.push(0);
            lens.push(0);
        }
        let (index, data_len) = pages.finish()?;
        drop(readers);

        let directed: u64 = degrees.iter().map(|&d| d as u64).sum();
        debug_assert_eq!(directed % 2, 0, "adjacency must be symmetric");
        let num_edges = directed / 2;

        // ---- meta section -------------------------------------------
        let mut meta = Vec::with_capacity(degrees.len() * 2 + 16);
        for &d in &degrees {
            write_varint(&mut meta, d as u64);
        }
        for &l in &lens {
            write_varint(&mut meta, l);
        }

        let header = Header {
            block_size: self.opts.block_size,
            num_vertices,
            max_degree,
            num_edges,
            num_blocks: index.len() as u32,
            meta_len: meta.len() as u64,
            data_len,
        };

        // ---- assemble the final file --------------------------------
        let mut out = BufWriter::with_capacity(1 << 20, File::create(out_path.as_ref())?);
        out.write_all(&header.encode())?;
        for e in &index {
            out.write_all(&e.encode())?;
        }
        out.write_all(&meta)?;
        let mut data = File::open(&data_path)?;
        let copied = std::io::copy(&mut data, &mut out)?;
        if copied != data_len {
            return Err(OocError::Truncated);
        }
        out.flush()?;

        let stats = BuildStats {
            num_vertices,
            num_edges,
            self_loops_dropped: self.self_loops,
            // `deduped` counts directed entries; halve to undirected.
            duplicates_dropped: deduped / 2,
            data_bytes: data_len,
            file_bytes: header.file_len(),
        };
        self.cleanup();
        Ok(stats)
    }

    fn cleanup(&self) {
        // Best-effort: temp files under a unique process-owned dir.
        let _ = std::fs::remove_dir_all(&self.temp_root);
    }
}

impl Drop for StreamingBuilder {
    fn drop(&mut self) {
        self.cleanup();
    }
}

/// Buffered cursor over one sorted run file.
#[derive(Debug)]
struct RunCursor {
    reader: BufReader<File>,
    chunk: Vec<u64>,
    pos: usize,
}

impl RunCursor {
    fn open(path: &Path) -> Result<Self, OocError> {
        Ok(Self {
            reader: BufReader::with_capacity(1 << 20, File::open(path)?),
            chunk: Vec::with_capacity(8192),
            pos: 0,
        })
    }

    fn next(&mut self) -> Result<Option<u64>, OocError> {
        if self.pos == self.chunk.len() {
            self.chunk.clear();
            self.pos = 0;
            let mut raw = [0u8; 8 * 8192];
            let mut filled = 0usize;
            loop {
                let n = self.reader.read(&mut raw[filled..])?;
                if n == 0 {
                    break;
                }
                filled += n;
                if filled == raw.len() {
                    break;
                }
            }
            if !filled.is_multiple_of(8) {
                return Err(OocError::Truncated);
            }
            for c in raw[..filled].chunks_exact(8) {
                self.chunk.push(u64::from_le_bytes(c.try_into().unwrap()));
            }
            if self.chunk.is_empty() {
                return Ok(None);
            }
        }
        let v = self.chunk[self.pos];
        self.pos += 1;
        Ok(Some(v))
    }
}

/// Accumulates encoded list bytes into fixed-size blocks, writing each
/// completed block (and its CRC/index entry) to the data temp file.
#[derive(Debug)]
struct PageWriter {
    out: BufWriter<File>,
    block_size: usize,
    page: Vec<u8>,
    /// Vertex owning the first byte of the current page.
    page_first: u32,
    index: Vec<BlockEntry>,
    written: u64,
}

impl PageWriter {
    fn new(file: File, block_size: usize) -> Self {
        Self {
            out: BufWriter::with_capacity(1 << 20, file),
            block_size,
            page: Vec::with_capacity(block_size),
            page_first: 0,
            index: Vec::new(),
            written: 0,
        }
    }

    fn append(&mut self, vertex: u32, mut bytes: &[u8]) -> Result<(), OocError> {
        while !bytes.is_empty() {
            if self.page.is_empty() {
                self.page_first = vertex;
            }
            let room = self.block_size - self.page.len();
            let take = room.min(bytes.len());
            self.page.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.page.len() == self.block_size {
                self.flush_page()?;
            }
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), OocError> {
        if self.page.is_empty() {
            return Ok(());
        }
        self.index.push(BlockEntry {
            first_vertex: self.page_first,
            crc: crc32(&self.page),
            offset: self.index.len() as u64 * self.block_size as u64,
        });
        self.out.write_all(&self.page)?;
        self.written += self.page.len() as u64;
        self.page.clear();
        Ok(())
    }

    fn finish(mut self) -> Result<(Vec<BlockEntry>, u64), OocError> {
        self.flush_page()?;
        self.out.flush()?;
        Ok((self.index, self.written))
    }
}

/// Write a resident [`Graph`] in the on-disk format (tests and the
/// determinism suite convert small graphs this way; `mmsb convert` uses
/// [`convert_edge_list`] to avoid materializing the graph at all).
pub fn write_graph<P: AsRef<Path>>(
    graph: &Graph,
    out_path: P,
    opts: BuildOptions,
) -> Result<BuildStats, OocError> {
    let opts = BuildOptions {
        num_vertices: Some(opts.num_vertices.unwrap_or(graph.num_vertices())),
        ..opts
    };
    let mut b = StreamingBuilder::new(opts)?;
    for e in graph.edges() {
        b.add_edge(e.lo().0, e.hi().0)?;
    }
    b.finish(out_path)
}

/// Convert a SNAP edge-list text file into the on-disk graph format,
/// streaming: the text is parsed line by line, ids are densified to
/// `[0, N)` through an interning table (the only `O(N)` RAM besides the
/// builder's own metadata), and edges flow straight into the external
/// sort. Returns the build stats and the dense→original id mapping.
pub fn convert_edge_list<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    opts: BuildOptions,
) -> Result<(BuildStats, Vec<u64>), OocError> {
    let file = File::open(input.as_ref())?;
    let mut lines = EdgeListLines::new(file);
    let mut builder = StreamingBuilder::new(opts)?;
    let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
    let mut original_ids: Vec<u64> = Vec::new();
    loop {
        let next = lines.next_edge().map_err(|e| match e {
            mmsb_graph::GraphError::Io(io) => OocError::Io(io),
            other => OocError::Corrupt {
                reason: other.to_string(),
            },
        })?;
        let Some((a, b)) = next else { break };
        let mut intern = |raw: u64| -> u32 {
            *ids.entry(raw).or_insert_with(|| {
                let dense = original_ids.len() as u32;
                original_ids.push(raw);
                dense
            })
        };
        let da = intern(a);
        let db = intern(b);
        builder.add_edge(da, db)?;
    }
    let stats = builder.finish(output)?;
    Ok((stats, original_ids))
}
