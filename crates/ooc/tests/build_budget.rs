//! Pins the streaming builder's memory budget and its failure paths.
//!
//! `BuildOptions::run_entries` is the whole in-RAM sort budget: a
//! conversion may raise the live heap by at most `8 × run_entries` bytes
//! plus [`PER_VERTEX`] bytes a vertex and the fixed [`FIXED`] term, at
//! any run size; it writes the bytes a one-run build writes; it holds at
//! most `MERGE_FAN_IN` run files open; and a spill that fails on disk is
//! an `OocError::Io` to the caller, never a panic.
//!
//! The heap high-water mark is process-global, so the tests take
//! [`SERIAL`] and never run concurrently.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use mmsb_graph::generate::stream::{for_each_edge, StreamConfig};
use mmsb_ooc::build::MERGE_FAN_IN;
use mmsb_ooc::{convert_edge_list, crc32, BuildOptions, OocError, StreamingBuilder};

/// Wraps [`System`], tracking the bytes currently allocated and their
/// high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments verbatim to `System`, so
// the `GlobalAlloc` contract holds exactly as `System` upholds it; the
// added accounting is relaxed atomic arithmetic with no effect on the
// returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: (applies to all four methods) the caller's obligations are passed
    // through unchanged to `System`, which imposes identical ones.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Heap a conversion may hold per vertex beyond the sort budget. The id
/// interner's `FxHashMap<u64, u32>` has 17 bytes a bucket (a 16-byte slot
/// and a control byte); it grows when 7/8 full, from `B` buckets to `2B`
/// with both tables live: `17 × 3B` bytes for `7B/8` ids, ≤ 59 a vertex.
/// Its `Vec<u64>` of original ids holds ≤ 24 bytes a vertex while it
/// doubles, and the builder's degrees (`u32`) and list lengths (`u64`)
/// take 12.
const PER_VERTEX: usize = 59 + 24 + 12;

/// Fixed heap beside the budget: the parser's 8 KiB read buffer and line,
/// the merge's 8 KiB read buffer, one data block (4 KiB here) being
/// filled, the output's 8 KiB write buffer, the block index (12 bytes a
/// block) and frame CRCs (4 bytes a KiB of data; < 8 KiB together here,
/// with the vectors' doubling), paths and the spill thread's bookkeeping.
const FIXED: usize = 64 << 10;

/// The test graph: ~300k distinct edges over 20k vertices, written as a
/// SNAP edge list. At `run_entries = 1024` it spills ~1,170 runs (two
/// levels of intermediate passes at a fan-in of 64); at the default it
/// spills one.
const GRAPH: StreamConfig = StreamConfig {
    num_vertices: 20_000,
    num_communities: 200,
    target_edges: 300_000,
    intra_fraction: 0.9,
    seed: 0x0B0D,
};

/// CRC-32 of the version-2 `.ooc` file for [`GRAPH`] at 4 KiB blocks:
/// the pre-budget builder's data and meta (one in-RAM run, a binary-heap
/// merge; its version-1 file was `0x5850_CB54`) under the per-frame CRC
/// table.
const GOLDEN_CRC: u32 = 0x7CEC_D0A5;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmsb-ooc-budget-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_edge_list(path: &Path) {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    for_each_edge(&GRAPH, |a, b| writeln!(out, "{a}\t{b}").unwrap());
    out.flush().unwrap();
}

fn options(run_entries: usize, temp_dir: &Path) -> BuildOptions {
    BuildOptions {
        block_size: 4096,
        run_entries,
        temp_dir: Some(temp_dir.to_path_buf()),
        ..BuildOptions::default()
    }
}

/// Convert `input` at `run_entries`; the file's bytes, its vertex count
/// and the rise of the live heap's high-water mark over the start.
fn convert_measured(input: &Path, dir: &Path, run_entries: usize) -> (Vec<u8>, usize, usize) {
    let output = dir.join(format!("out-{run_entries}.ooc"));
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let (stats, ids) = convert_edge_list(input, &output, options(run_entries, dir)).unwrap();
    let rise = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(stats.num_vertices as usize, ids.len());
    drop(ids);
    let bytes = std::fs::read(&output).unwrap();
    std::fs::remove_file(&output).unwrap();
    (bytes, stats.num_vertices as usize, rise)
}

#[test]
fn conversion_stays_inside_its_budget_and_writes_the_one_run_bytes() {
    let _serial = serial();
    let dir = scratch_dir("heap");
    let input = dir.join("edges.txt");
    write_edge_list(&input);
    // Every directed entry in one half of the budget: no run file.
    let one_run = convert_measured(&input, &dir, 8 * 2 * GRAPH.target_edges as usize).0;
    assert_eq!(crc32(&one_run), GOLDEN_CRC, "the file format moved");

    for run_entries in [1024, BuildOptions::default().run_entries] {
        let (bytes, n, rise) = convert_measured(&input, &dir, run_entries);
        let bound = 8 * run_entries + PER_VERTEX * n + FIXED;
        eprintln!("run_entries {run_entries}: heap rose {rise} bytes (bound {bound}, n {n})");
        assert!(
            rise <= bound,
            "run_entries {run_entries}: live heap rose {rise} bytes > \
             8 x {run_entries} + {PER_VERTEX} x {n} + {FIXED} = {bound}"
        );
        assert!(
            bytes == one_run,
            "run_entries {run_entries} changed the file"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run files under `dir` this process holds open right now.
fn open_run_files(dir: &Path) -> usize {
    let Ok(fds) = std::fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    fds.filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| {
            target.starts_with(dir)
                && target
                    .file_name()
                    .is_some_and(|name| name.to_string_lossy().starts_with("run-"))
        })
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn open_run_files_never_exceed_the_fan_in() {
    let _serial = serial();
    let dir = scratch_dir("fds");
    let input = dir.join("edges.txt");
    write_edge_list(&input);
    let done = AtomicBool::new(false);
    let most = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut most = 0;
            while !done.load(Ordering::Relaxed) {
                most = most.max(open_run_files(&dir));
            }
            most
        });
        convert_edge_list(&input, dir.join("g.ooc"), options(1024, &dir)).unwrap();
        done.store(true, Ordering::Relaxed);
        watcher.join().unwrap()
    });
    eprintln!("most run files open at once: {most} (fan-in {MERGE_FAN_IN})");
    assert!(most <= MERGE_FAN_IN, "{most} run files open at once");
    // The watcher saw the merge passes, not only the one-file spills.
    assert!(most > 1, "the watcher never saw a merge");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The builder's temp root: the one directory it made under `dir`.
fn temp_root(dir: &Path) -> PathBuf {
    let mut roots: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    assert_eq!(roots.len(), 1, "one builder, one temp root");
    roots.pop().unwrap()
}

/// Deleting the temp dir mid-build makes the next spills fail on the
/// spill thread: the failure reaches the caller as `OocError::Io`, from
/// `add_edge` while edges keep coming and from `finish` at the end.
#[test]
fn a_failed_spill_is_an_io_error_from_add_edge_or_finish() {
    let _serial = serial();
    let dir = scratch_dir("spill");
    let edges = |from: u32| (from..).map(|i| (i % 5_000, (i * 7 + 1) % 5_000 + 5_000));

    let mut builder = StreamingBuilder::new(options(1024, &dir)).unwrap();
    let mut stream = edges(0);
    for (a, b) in stream.by_ref().take(1_000) {
        builder.add_edge(a, b).unwrap();
    }
    std::fs::remove_dir_all(temp_root(&dir)).unwrap();
    let failed = stream
        .take(10_000)
        .find_map(|(a, b)| builder.add_edge(a, b).err())
        .expect("a spill into a deleted directory must fail");
    assert!(matches!(failed, OocError::Io(_)), "{failed:?}");
    drop(builder);

    let mut builder = StreamingBuilder::new(options(1024, &dir)).unwrap();
    let mut stream = edges(0);
    for (a, b) in stream.by_ref().take(100) {
        builder.add_edge(a, b).unwrap();
    }
    std::fs::remove_dir_all(temp_root(&dir)).unwrap();
    // One flush: its spill fails in the background, unseen until joined.
    for (a, b) in stream.take(200) {
        builder.add_edge(a, b).unwrap();
    }
    let failed = builder.finish(dir.join("g.ooc")).unwrap_err();
    assert!(matches!(failed, OocError::Io(_)), "{failed:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Dropping a builder mid-spill waits for the spill thread: once `drop`
/// returns, the half it was sorting is freed and the temp dir is gone.
#[test]
fn drop_joins_the_spill_thread() {
    let _serial = serial();
    let dir = scratch_dir("drop");
    let before = LIVE.load(Ordering::SeqCst);
    let mut builder =
        StreamingBuilder::new(options(BuildOptions::default().run_entries, &dir)).unwrap();
    // One more edge than a half holds: the first half goes to the spill
    // thread, whose sort of 512 Ki entries takes milliseconds.
    let half_edges = BuildOptions::default().run_entries / 4;
    for i in 0..=half_edges as u32 {
        builder
            .add_edge(i % 40_000, (i * 13 + 1) % 40_000 + 40_000)
            .unwrap();
    }
    let root = temp_root(&dir);
    drop(builder);
    let held = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    assert!(held < 64 << 10, "{held} bytes still live after drop");
    assert!(!root.exists(), "temp root left behind");
    std::fs::remove_dir_all(&dir).unwrap();
}
