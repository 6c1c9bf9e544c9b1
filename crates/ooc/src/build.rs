//! Bounded-memory graph construction: external sort + k-way merge.
//!
//! The builder never holds the edge set in RAM, and what it holds for the
//! sort fits one fixed budget: [`BuildOptions::run_entries`] directed
//! entries of 8 bytes. Incoming edges are emitted as *both* directed
//! entries packed into `u64`s (`src << 32 | dst`). Intake is
//! double-buffered: the budget is two halves, and while `add_edge` fills
//! one, a background spill thread sorts the other and writes it to a temp
//! run file; the next spill waits for it and refills its half. `finish`
//! sorts the half still filling, keeps it in RAM as the last run, and
//! frees the other half for the merge: every run cursor reads its file in
//! chunks that share that half. A loser tree merges at most
//! [`MERGE_FAN_IN`] run files at once; if more were spilled, intermediate
//! passes first merge the oldest into longer runs, so memory and open
//! files stay bounded at any edge count. The final pass deduplicates
//! adjacent equal entries and gap-codes each vertex's list straight into
//! fixed-size data blocks.
//!
//! Peak memory is the budget (`8 × run_entries` bytes) plus 12 bytes per
//! vertex (degrees and list lengths), one data block, and the index and
//! frame CRCs (4 bytes per KiB of data); peak disk is
//! roughly `16 bytes × E` of temp runs plus the final file, and a build
//! whose entries fit in one half writes no run file at all.
//!
//! Determinism: entries are totally ordered `u64`s, so the merged
//! sequence — and the output file — is a function of the edge multiset
//! alone, byte-identical for any run size, fan-in or number of passes.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use mmsb_graph::io::{EdgeListLines, IdInterner};
use mmsb_graph::Graph;

use crate::format::{check_block_size, BlockEntry, Header, DEFAULT_BLOCK_SIZE, FRAME_SIZE};
use crate::varint::{gap_code, varint_len, write_varint, MAX_VARINT_BYTES};
use crate::{crc32, OocError};

/// Options for [`StreamingBuilder`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Data-region block size in bytes (power of two, ≥ 4 KiB).
    pub block_size: u32,
    /// The whole in-RAM sort budget, in directed entries (8 bytes each;
    /// values below 1024 are raised to it). Intake fills and spills it as
    /// two halves; the merge reads runs through chunks that share it. The
    /// default, 1 Mi entries (8 MiB), spills 512 Ki-entry runs.
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
            run_entries: 1 << 20,
            num_vertices: None,
            temp_dir: None,
        }
    }
}

/// The most run files a build holds open at once. A pass that writes a
/// run merges at most `MERGE_FAN_IN - 1` (its output is the last one);
/// the final pass merges up to `MERGE_FAN_IN` beside the in-RAM run.
pub const MERGE_FAN_IN: usize = 64;

/// Bytes moved per `read`/`write` between run files and entries.
const IO_BYTES: usize = 8 << 10;

/// A cursor's head once its run is drained. No entry equals it: both
/// halves of an entry are ids below the reserved `u32::MAX`.
const EXHAUSTED: u64 = u64::MAX;

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
    /// Entries per intake half; the budget is two of them.
    half: usize,
    /// The half `add_edge` fills.
    buf: Vec<u64>,
    /// The other half, being sorted and spilled in the background; the
    /// join hands it back empty.
    spill: Option<JoinHandle<io::Result<Vec<u64>>>>,
    /// Run files `first_run..next_run` are still to be merged.
    first_run: u32,
    next_run: u32,
    max_id: u32,
    any_edge: bool,
    self_loops: u64,
}

impl StreamingBuilder {
    /// Create a builder; its temp directory is created immediately.
    pub fn new(opts: BuildOptions) -> Result<Self, OocError> {
        check_block_size(opts.block_size).map_err(|reason| OocError::Corrupt { reason })?;
        let base = opts.temp_dir.clone().unwrap_or_else(std::env::temp_dir);
        let temp_root = base.join(format!(
            "mmsb-ooc-build-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&temp_root)?;
        // Even, so an edge's two entries always fit a half together.
        let half = (opts.run_entries.max(1024) / 2) & !1;
        Ok(Self {
            opts,
            temp_root,
            half,
            buf: Vec::with_capacity(half),
            spill: None,
            first_run: 0,
            next_run: 0,
            max_id: 0,
            any_edge: false,
            self_loops: 0,
        })
    }

    /// Add one undirected edge (both directed entries are recorded).
    /// Self-loops are counted and skipped; duplicates are fine — the
    /// merge deduplicates. A failed background spill surfaces here (or
    /// from [`Self::finish`]) as [`OocError::Io`].
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
        if self.buf.len() + 2 > self.half {
            self.flush_run()?;
        }
        self.buf.push((a as u64) << 32 | b as u64);
        self.buf.push((b as u64) << 32 | a as u64);
        self.max_id = self.max_id.max(a).max(b);
        self.any_edge = true;
        Ok(())
    }

    fn run_path(&self, run: u32) -> PathBuf {
        self.temp_root.join(format!("run-{run}.bin"))
    }

    /// Hand the full half to a spill thread and keep filling the other,
    /// once the previous spill has given it back.
    fn flush_run(&mut self) -> Result<(), OocError> {
        let spare = match self.join_spill()? {
            Some(spare) => spare,
            None => Vec::with_capacity(self.half),
        };
        let full = std::mem::replace(&mut self.buf, spare);
        let path = self.run_path(self.next_run);
        self.next_run += 1;
        let spill = std::thread::Builder::new()
            .name("mmsb-ooc-spill".into())
            .spawn(move || spill_run(full, &path))?;
        self.spill = Some(spill);
        Ok(())
    }

    /// Wait for the spill in flight, if any: its buffer back, or its error.
    fn join_spill(&mut self) -> Result<Option<Vec<u64>>, OocError> {
        let Some(spill) = self.spill.take() else {
            return Ok(None);
        };
        match spill.join() {
            Ok(done) => Ok(Some(done?)),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Merge the oldest runs into one new run: as many as bring the count
    /// down to [`MERGE_FAN_IN`], at most `MERGE_FAN_IN - 1`. The inputs
    /// and the output's buffer share the half of the budget the in-RAM run
    /// leaves free.
    fn merge_pass(&mut self) -> Result<(), OocError> {
        let runs = (self.next_run - self.first_run) as usize;
        let take = (runs + 1 - MERGE_FAN_IN).min(MERGE_FAN_IN - 1);
        let share = self.half / (take + 1);
        let inputs = self.first_run..self.first_run + take as u32;
        let cursors = inputs
            .clone()
            .map(|run| RunCursor::open(&self.run_path(run), share))
            .collect::<Result<_, _>>()?;
        let mut merge = Merge::new(cursors)?;
        let mut out = File::create(self.run_path(self.next_run))?;
        let mut pending: Vec<u64> = Vec::with_capacity(share);
        while let Some(entry) = merge.next()? {
            pending.push(entry);
            if pending.len() == share {
                write_entries(&mut out, &pending)?;
                pending.clear();
            }
        }
        write_entries(&mut out, &pending)?;
        drop(merge);
        for run in inputs {
            std::fs::remove_file(self.run_path(run))?;
        }
        self.first_run += take as u32;
        self.next_run += 1;
        Ok(())
    }

    /// Merge the runs, encode, and write the final file to `out_path`.
    pub fn finish<P: AsRef<Path>>(mut self, out_path: P) -> Result<BuildStats, OocError> {
        let num_vertices = match self.opts.num_vertices {
            Some(n) => n,
            None if self.any_edge => self.max_id + 1,
            None => 0,
        };
        let block_size = self.opts.block_size as usize;

        // ---- merge + encode into the data temp file -----------------
        // The half still filling becomes the last run, sorted in RAM while
        // the final spill finishes; the spilled half's memory goes to the
        // file cursors.
        let mut tail = std::mem::take(&mut self.buf);
        tail.sort_unstable();
        drop(self.join_spill()?);
        while (self.next_run - self.first_run) as usize > MERGE_FAN_IN {
            self.merge_pass()?;
        }
        let files = (self.next_run - self.first_run) as usize;
        let share = self.half / files.max(1);
        let mut cursors = (self.first_run..self.next_run)
            .map(|run| RunCursor::open(&self.run_path(run), share))
            .collect::<Result<Vec<_>, _>>()?;
        cursors.push(RunCursor::in_memory(tail));
        let mut merge = Merge::new(cursors)?;

        let data_path = self.temp_root.join("data.bin");
        let mut pages = PageWriter::new(File::create(&data_path)?, block_size);
        let mut degrees: Vec<u32> = Vec::with_capacity(num_vertices as usize);
        let mut lens: Vec<u64> = Vec::with_capacity(num_vertices as usize);
        let mut last = EXHAUSTED;
        let mut degree: u32 = 0;
        let mut list_start: u64 = 0;
        let mut deduped: u64 = 0;
        while let Some(entry) = merge.next()? {
            if entry == last {
                deduped += 1;
                continue;
            }
            let (src, dst) = ((entry >> 32) as u32, entry as u32);
            // `EXHAUSTED`'s source half is the reserved id, so the first
            // entry opens a list too.
            let prev = (last >> 32 == src as u64).then_some(last as u32);
            if prev.is_none() {
                if last != EXHAUSTED {
                    degrees.push(degree);
                    lens.push(pages.len() - list_start);
                }
                degrees.resize(src as usize, 0);
                lens.resize(src as usize, 0);
                degree = 0;
                list_start = pages.len();
            }
            pages.push_varint(src, gap_code(prev, dst))?;
            degree += 1;
            last = entry;
        }
        if last != EXHAUSTED {
            degrees.push(degree);
            lens.push(pages.len() - list_start);
        }
        degrees.resize(num_vertices as usize, 0);
        lens.resize(num_vertices as usize, 0);
        drop(merge);
        let (index, frame_crcs, data_len) = pages.finish()?;

        let directed: u64 = degrees.iter().map(|&d| d as u64).sum();
        debug_assert_eq!(directed % 2, 0, "adjacency must be symmetric");
        let num_edges = directed / 2;
        let max_degree = degrees.iter().copied().max().unwrap_or(0);

        // ---- assemble the final file --------------------------------
        // The meta section (every degree's varint, then every length's)
        // is written as it is encoded; only its length goes in first.
        let meta_len = degrees.iter().map(|&d| varint_len(d as u64)).sum::<u64>()
            + lens.iter().map(|&l| varint_len(l)).sum::<u64>();
        let header = Header {
            block_size: self.opts.block_size,
            num_vertices,
            max_degree,
            num_edges,
            num_blocks: index.len() as u32,
            meta_len,
            data_len,
        };
        let mut out = BufWriter::with_capacity(IO_BYTES, File::create(out_path.as_ref())?);
        out.write_all(&header.encode())?;
        for e in &index {
            out.write_all(&e.encode())?;
        }
        for crc in &frame_crcs {
            out.write_all(&crc.to_le_bytes())?;
        }
        let mut varint = Vec::with_capacity(MAX_VARINT_BYTES);
        let values = degrees
            .iter()
            .map(|&d| d as u64)
            .chain(lens.iter().copied());
        for v in values {
            varint.clear();
            write_varint(&mut varint, v);
            out.write_all(&varint)?;
        }
        let mut data = File::open(&data_path)?;
        let copied = io::copy(&mut data, &mut out)?;
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
        // The spill thread writes under `temp_root`: wait for it before
        // removing the directory. Its error has nobody to go to now.
        if let Some(spill) = self.spill.take() {
            let _ = spill.join();
        }
        self.cleanup();
    }
}

/// The spill thread's job: sort one half and write it as a run file,
/// handing the emptied buffer back for the next half.
fn spill_run(mut entries: Vec<u64>, path: &Path) -> io::Result<Vec<u64>> {
    entries.sort_unstable();
    write_entries(&mut File::create(path)?, &entries)?;
    entries.clear();
    Ok(entries)
}

/// Append `entries` to a run file, little-endian, [`IO_BYTES`] at a time.
fn write_entries(out: &mut File, entries: &[u64]) -> io::Result<()> {
    let mut raw = [0u8; IO_BYTES];
    for chunk in entries.chunks(IO_BYTES / 8) {
        for (dst, e) in raw.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&e.to_le_bytes());
        }
        out.write_all(&raw[..chunk.len() * 8])?;
    }
    Ok(())
}

/// Cursor over one sorted run: a run file read in chunks of at most its
/// share of the budget, or the last run still in RAM (one chunk, no
/// file). `next` is the merge loop's per-entry call, so it only indexes
/// the chunk; the refill is out of line.
#[derive(Debug)]
struct RunCursor {
    /// `None` once the run file is drained (closing it), and for the
    /// in-RAM run.
    file: Option<File>,
    chunk: Vec<u64>,
    pos: usize,
}

impl RunCursor {
    /// Open a run file with a chunk of `share` entries, or fewer if the
    /// whole run is shorter.
    fn open(path: &Path, share: usize) -> Result<Self, OocError> {
        let file = File::open(path)?;
        let entries = usize::try_from(file.metadata()?.len() / 8).unwrap_or(usize::MAX);
        Ok(Self {
            file: Some(file),
            chunk: Vec::with_capacity(share.min(entries).max(1)),
            pos: 0,
        })
    }

    fn in_memory(sorted: Vec<u64>) -> Self {
        Self {
            file: None,
            chunk: sorted,
            pos: 0,
        }
    }

    /// The next entry, [`EXHAUSTED`] once the run is done. `raw` is the
    /// merge's read buffer, lent to the refill.
    #[inline]
    fn next(&mut self, raw: &mut [u8]) -> Result<u64, OocError> {
        if self.pos == self.chunk.len() && !self.refill(raw)? {
            return Ok(EXHAUSTED);
        }
        let v = self.chunk[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Load the next chunk of the run file; `false` once the run is done.
    #[inline(never)]
    fn refill(&mut self, raw: &mut [u8]) -> Result<bool, OocError> {
        self.chunk.clear();
        self.pos = 0;
        let Some(file) = self.file.as_mut() else {
            return Ok(false);
        };
        while self.chunk.len() < self.chunk.capacity() {
            let want = ((self.chunk.capacity() - self.chunk.len()) * 8).min(raw.len());
            let got = read_full(file, &mut raw[..want])?;
            if !got.is_multiple_of(8) {
                return Err(OocError::Truncated);
            }
            self.chunk.extend(
                raw[..got]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
            );
            if got < want {
                self.file = None;
                break;
            }
        }
        Ok(!self.chunk.is_empty())
    }
}

/// Read until `buf` is full or the file ends; the bytes read.
fn read_full(file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// K-way merge of sorted runs through a loser tree. Cursor `i` is leaf
/// `k + i`; node `j` (children `2j`, `2j + 1`) holds the head and cursor
/// of the loser of its match in `heads[j]`/`ids[j]`, and node 0 the
/// overall winner's, the smallest head. Taking an entry replays one
/// leaf-to-root path, one comparison of stored heads a level. Equal heads
/// may leave in either order: they are the same entry.
#[derive(Debug)]
struct Merge {
    cursors: Vec<RunCursor>,
    heads: Vec<u64>,
    ids: Vec<u32>,
    /// The read buffer every cursor's refill borrows.
    raw: Vec<u8>,
}

impl Merge {
    fn new(mut cursors: Vec<RunCursor>) -> Result<Self, OocError> {
        let k = cursors.len();
        debug_assert!(k > 0, "a merge needs a run");
        let mut raw = vec![0u8; IO_BYTES];
        // Play the first tournament bottom-up, keeping each match's winner.
        let mut winners = vec![(EXHAUSTED, 0); 2 * k];
        for (i, c) in cursors.iter_mut().enumerate() {
            winners[k + i] = (c.next(&mut raw)?, i as u32);
        }
        let mut losers = vec![(EXHAUSTED, 0); k];
        for j in (1..k).rev() {
            let (a, b) = (winners[2 * j], winners[2 * j + 1]);
            (winners[j], losers[j]) = if b.0 < a.0 { (b, a) } else { (a, b) };
        }
        losers[0] = if k > 1 { winners[1] } else { winners[k] };
        Ok(Self {
            cursors,
            heads: losers.iter().map(|l| l.0).collect(),
            ids: losers.iter().map(|l| l.1).collect(),
            raw,
        })
    }

    /// The smallest entry left across all runs.
    #[inline]
    fn next(&mut self) -> Result<Option<u64>, OocError> {
        let head = self.heads[0];
        if head == EXHAUSTED {
            return Ok(None);
        }
        let mut id = self.ids[0];
        let mut key = self.cursors[id as usize].next(&mut self.raw)?;
        let mut node = (id as usize + self.cursors.len()) / 2;
        while node > 0 {
            // Selects, not a branch: which side wins is data a predictor
            // cannot learn, and the parallel arrays keep each a register
            // move.
            let (rival_key, rival_id) = (self.heads[node], self.ids[node]);
            let swap = rival_key < key;
            self.heads[node] = if swap { key } else { rival_key };
            self.ids[node] = if swap { id } else { rival_id };
            key = if swap { rival_key } else { key };
            id = if swap { rival_id } else { id };
            node /= 2;
        }
        self.heads[0] = key;
        self.ids[0] = id;
        Ok(Some(head))
    }
}

/// Accumulates gap-coded list bytes into fixed-size blocks, writing each
/// completed block (and keeping its index entry and its frames' CRCs) to
/// the data temp file.
#[derive(Debug)]
struct PageWriter {
    out: File,
    block_size: usize,
    page: Vec<u8>,
    /// Vertex owning the first byte of the current page.
    page_first: u32,
    index: Vec<BlockEntry>,
    /// CRC-32 of every frame written so far.
    frame_crcs: Vec<u32>,
    written: u64,
}

impl PageWriter {
    fn new(out: File, block_size: usize) -> Self {
        Self {
            out,
            block_size,
            page: Vec::with_capacity(block_size + MAX_VARINT_BYTES),
            page_first: 0,
            index: Vec::new(),
            frame_crcs: Vec::new(),
            written: 0,
        }
    }

    /// Bytes appended so far.
    fn len(&self) -> u64 {
        self.written + self.page.len() as u64
    }

    /// Append the varint of `v` to `vertex`'s list. A varint may straddle
    /// two blocks: the page may overrun by its tail, which opens the next.
    #[inline]
    fn push_varint(&mut self, vertex: u32, v: u64) -> Result<(), OocError> {
        if self.page.is_empty() {
            self.page_first = vertex;
        }
        write_varint(&mut self.page, v);
        if self.page.len() >= self.block_size {
            self.write_block(self.block_size)?;
            self.page.drain(..self.block_size);
            self.page_first = vertex;
        }
        Ok(())
    }

    /// Write the page's first `len` bytes as the next block. A block is
    /// a whole number of frames (the last block's last frame may be
    /// short), so its frames are the file's next ones.
    fn write_block(&mut self, len: usize) -> Result<(), OocError> {
        let block = &self.page[..len];
        self.index.push(BlockEntry {
            first_vertex: self.page_first,
            offset: self.written,
        });
        self.frame_crcs
            .extend(block.chunks(FRAME_SIZE as usize).map(crc32));
        self.out.write_all(block)?;
        self.written += len as u64;
        Ok(())
    }

    fn finish(mut self) -> Result<(Vec<BlockEntry>, Vec<u32>, u64), OocError> {
        if !self.page.is_empty() {
            self.write_block(self.page.len())?;
        }
        Ok((self.index, self.frame_crcs, self.written))
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
/// streaming: the text is parsed by [`EdgeListLines`], ids are densified to
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
    let mut ids = IdInterner::default();
    loop {
        let next = lines.next_edge().map_err(|e| match e {
            mmsb_graph::GraphError::Io(io) => OocError::Io(io),
            other => OocError::Corrupt {
                reason: other.to_string(),
            },
        })?;
        let Some((a, b)) = next else { break };
        builder.add_edge(ids.intern(a), ids.intern(b))?;
    }
    let stats = builder.finish(output)?;
    Ok((stats, ids.into_original_ids()))
}
