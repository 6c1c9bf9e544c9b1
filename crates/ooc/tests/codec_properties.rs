//! Property suites for the on-disk codec (DESIGN.md §15 acceptance):
//!
//! * 300 seeded adversarial neighbor lists — isolated vertices, dense
//!   runs pinned at the `u32` boundary, full-id-space gaps, max-degree
//!   hubs — round-tripped through the contiguous codec, the resumable
//!   block-straddling decoder, and the prefix-truncation rejection path,
//! * builder round-trips over random multigraph inputs (duplicates,
//!   self-loops, trailing isolated vertices, hub vertices, run spills
//!   small enough to force real k-way merges), read back through a
//!   minimum-size cache so evictions happen constantly,
//! * converter symmetry: every list of a converted SNAP file contains
//!   the reverse of each of its entries — what lets training test
//!   `{a, b}` against `a`'s list alone,
//! * every-flipped-byte corruption: for each byte of a multi-block file
//!   and two flip patterns, opening + fully scanning the flipped file
//!   must error — except in the index's documented-diagnostic
//!   `first_vertex` field, where the decoded adjacency must still be
//!   exactly right.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use mmsb_graph::VertexId;
use mmsb_ooc::varint::{decode_list, encode_list, encoded_len, VarintState};
use mmsb_ooc::{
    convert_edge_list, BlockCache, BuildOptions, OocError, OocGraph, OocReader, StreamingBuilder,
};
use mmsb_rand::{Rng, Xoshiro256PlusPlus};

/// A strictly increasing adversarial list, shaped by the seed.
fn adversarial_list(seed: u64) -> Vec<u32> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    match seed % 6 {
        // Isolated vertex: the empty list.
        0 => Vec::new(),
        // Singleton, anywhere in the id space (u32::MAX included).
        1 => vec![(rng.below(1 << 32)) as u32],
        // Dense run ending exactly at the u32 boundary.
        2 => {
            let len = 1 + rng.below(512) as u32;
            (u32::MAX - len + 1..=u32::MAX).collect()
        }
        // Huge gaps across the full id space, 0 and u32::MAX pinned.
        3 => {
            let mut set = BTreeSet::from([0, u32::MAX]);
            for _ in 0..rng.below(64) {
                set.insert(rng.below(1 << 32) as u32);
            }
            set.into_iter().collect()
        }
        // Max-degree hub: a long list with mixed gap sizes.
        4 => {
            let mut set = BTreeSet::new();
            for _ in 0..2000 {
                set.insert(rng.below(1 << 20) as u32);
            }
            set.into_iter().collect()
        }
        // Alternating dense runs and large jumps.
        _ => {
            let mut v = vec![rng.below(1 << 16) as u32];
            while v.len() < 200 {
                let step = if rng.next_f64() < 0.7 {
                    1
                } else {
                    1 + rng.below(1 << 24) as u32
                };
                match v.last().unwrap().checked_add(step) {
                    Some(n) => v.push(n),
                    None => break,
                }
            }
            v
        }
    }
}

/// Decode with the resumable [`VarintState`], feeding the bytes in
/// `chunk`-sized pieces — the block-straddle path, without a file.
fn decode_chunked(bytes: &[u8], degree: usize, chunk: usize) -> Vec<u32> {
    let mut st = VarintState::default();
    let mut out = Vec::new();
    let mut prev = 0u64;
    for piece in bytes.chunks(chunk.max(1)) {
        for &b in piece {
            if let Some(raw) = st.feed(b).expect("valid encoding") {
                let id = if out.is_empty() { raw } else { prev + raw + 1 };
                out.push(u32::try_from(id).expect("id fits u32"));
                prev = id;
            }
        }
    }
    assert!(!st.mid_varint(), "decoder left mid-varint");
    assert_eq!(out.len(), degree);
    out
}

#[test]
fn codec_roundtrip_300_adversarial_seeds() {
    for seed in 0..300u64 {
        let list = adversarial_list(seed);
        let mut buf = Vec::new();
        encode_list(&mut buf, &list);
        assert_eq!(
            buf.len() as u64,
            encoded_len(&list),
            "seed {seed}: encoded_len disagrees with encode_list"
        );

        // Contiguous decode.
        let mut out = Vec::new();
        let used = decode_list(&buf, list.len() as u32, &mut out)
            .unwrap_or_else(|| panic!("seed {seed}: decode failed"));
        assert_eq!(used, buf.len(), "seed {seed}: trailing bytes");
        assert_eq!(out, list, "seed {seed}: contiguous roundtrip");

        // Resumable decode across every interesting chunking, including
        // the worst case of one byte per "block".
        if !buf.is_empty() {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5EED);
            for chunk in [1, 2, 7, 1 + rng.below(buf.len() as u64) as usize] {
                assert_eq!(
                    decode_chunked(&buf, list.len(), chunk),
                    list,
                    "seed {seed}: chunked roundtrip at chunk {chunk}"
                );
            }
        }

        // Every strict prefix of the encoding must be rejected (bounded
        // to short encodings to keep the suite fast; longer lists hit
        // the same resumable decoder).
        if buf.len() <= 96 && !list.is_empty() {
            for cut in 0..buf.len() {
                let mut out = Vec::new();
                assert_eq!(
                    decode_list(&buf[..cut], list.len() as u32, &mut out),
                    None,
                    "seed {seed}: truncated prefix of {cut} bytes decoded"
                );
            }
        }
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-codec-prop-{}-{tag}.ooc", std::process::id()))
}

/// Reference adjacency for a fed edge multiset: sorted, deduplicated,
/// self-loops dropped — the builder's promised output.
fn reference(edges: &[(u32, u32)], n: u32) -> Vec<Vec<u32>> {
    let mut adj: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(a, b) in edges {
        if a != b {
            adj.entry(a).or_default().insert(b);
            adj.entry(b).or_default().insert(a);
        }
    }
    (0..n)
        .map(|v| adj.get(&v).map(|s| s.iter().copied().collect()).unwrap_or_default())
        .collect()
}

#[test]
fn builder_roundtrip_adversarial_graphs() {
    for seed in 0..40u64 {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let n = 2 + rng.below(178) as u32;
        // Declare trailing isolated vertices beyond the max used id.
        let declared = n + rng.below(8) as u32;

        let mut edges: Vec<(u32, u32)> = Vec::new();
        if seed % 3 == 0 {
            // Hub: vertex 0 adjacent to everything — the max-degree row.
            edges.extend((1..n).map(|v| (0, v)));
        }
        for _ in 0..rng.below(500) {
            // Uniform pairs, self-loops included on purpose.
            edges.push((rng.below(n as u64) as u32, rng.below(n as u64) as u32));
        }
        // Exact duplicates, both orientations.
        for k in 0..rng.below(20) as usize {
            if let Some(&(a, b)) = edges.get(k) {
                edges.push((b, a));
            }
        }

        let path = temp_path(&format!("build-{seed}"));
        let mut builder = StreamingBuilder::new(BuildOptions {
            block_size: 4096,
            // Tiny run buffer: most seeds spill several sorted runs, so
            // the k-way merge path is exercised, not just the single-run
            // fast case.
            run_entries: 128,
            num_vertices: Some(declared),
            ..BuildOptions::default()
        })
        .unwrap();
        for &(a, b) in &edges {
            builder.add_edge(a, b).unwrap();
        }
        let stats = builder.finish(&path).unwrap();

        let want = reference(&edges, declared);
        let want_edges: u64 = want.iter().map(|l| l.len() as u64).sum::<u64>() / 2;
        assert_eq!(stats.num_vertices, declared, "seed {seed}");
        assert_eq!(stats.num_edges, want_edges, "seed {seed}");

        let graph = OocGraph::open(&path).unwrap();
        assert_eq!(graph.num_vertices(), declared, "seed {seed}");
        assert_eq!(graph.num_edges(), want_edges, "seed {seed}");
        // Minimum-size cache: constant evictions, same decoded bytes.
        let mut cache = BlockCache::for_graph(&graph, 1, seed);
        let mut reader = OocReader::new(&graph, &mut cache);
        for v in 0..declared {
            assert_eq!(
                reader.try_neighbors(VertexId(v)).unwrap(),
                want[v as usize].as_slice(),
                "seed {seed}: vertex {v}"
            );
        }
        // Membership probes agree with the reference, hit and miss.
        for probe in 0..16u64 {
            let a = rng.below(declared as u64) as u32;
            let b = rng.below(declared as u64) as u32;
            assert_eq!(
                reader.try_has_edge(VertexId(a), VertexId(b)).unwrap(),
                want[a as usize].binary_search(&b).is_ok(),
                "seed {seed}: probe {probe} ({a}, {b})"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn builder_rejects_reserved_and_out_of_range_ids() {
    let mut b = StreamingBuilder::new(BuildOptions::default()).unwrap();
    assert!(matches!(
        b.add_edge(0, u32::MAX),
        Err(OocError::Corrupt { .. })
    ));
    let mut b = StreamingBuilder::new(BuildOptions {
        num_vertices: Some(10),
        ..BuildOptions::default()
    })
    .unwrap();
    assert!(matches!(b.add_edge(3, 10), Err(OocError::Corrupt { .. })));
}

/// `verify_blocks` is the CLI's startup gate: clean on an intact file,
/// and any data-region corruption that the lazy per-load CRC would
/// catch mid-training must already fail the upfront scan.
#[test]
fn verify_blocks_fronts_the_lazy_crc() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
    let edges: Vec<(u32, u32)> = (0..800)
        .map(|_| (rng.below(120) as u32, rng.below(120) as u32))
        .collect();
    let path = temp_path("verify");
    let mut builder = StreamingBuilder::new(BuildOptions {
        block_size: 4096,
        num_vertices: Some(120),
        ..BuildOptions::default()
    })
    .unwrap();
    for &(a, b) in &edges {
        builder.add_edge(a, b).unwrap();
    }
    builder.finish(&path).unwrap();

    OocGraph::open(&path).unwrap().verify_blocks().unwrap();

    // Flip one byte in the middle of the data region: open still
    // succeeds (header/index/meta are intact) but the scan must fail.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() - 16;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let graph = OocGraph::open(&path).unwrap();
    assert!(matches!(
        graph.verify_blocks(),
        Err(OocError::ChecksumMismatch { what: "block", .. })
    ));
    let _ = std::fs::remove_file(&path);
}

/// Open and decode every neighbor list — the "use the whole file" probe
/// the corruption sweep drives.
fn full_scan(path: &Path) -> Result<Vec<Vec<u32>>, OocError> {
    let graph = OocGraph::open(path)?;
    let mut cache = BlockCache::for_graph(&graph, 8, 1);
    let mut reader = OocReader::new(&graph, &mut cache);
    let mut out = Vec::with_capacity(graph.num_vertices() as usize);
    for v in 0..graph.num_vertices() {
        out.push(reader.try_neighbors(VertexId(v))?.to_vec());
    }
    Ok(out)
}

/// The training path tests an edge `{a, b}` against `a`'s list only
/// (`mark_links`), which is right only if adjacency is symmetric in the
/// file: for every `u` in `list(v)`, `v` is in `list(u)` — here on files
/// the SNAP converter wrote from one-directional, duplicated, looped
/// input with a hub, through forced merge spills.
#[test]
fn converted_file_adjacency_is_symmetric() {
    for seed in 0..12u64 {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5E11 + seed);
        let n = 20 + rng.below(300);
        let mut text = String::from("# a\tb, each edge in one arbitrary direction\n");
        let mut lines = 0u64;
        let mut emit = |a: u64, b: u64| {
            // Sparse original ids: the converter densifies them.
            text.push_str(&format!("{}\t{}\n", a * 7 + 3, b * 7 + 3));
            lines += 1;
        };
        for v in 1..n {
            if seed % 2 == 0 || v % 5 == 0 {
                emit(v, 0); // hub, always named second
            }
        }
        for _ in 0..rng.below(1500) {
            let (a, b) = (rng.below(n), rng.below(n));
            emit(a, b);
            if rng.below(8) == 0 {
                emit(b, a);
            }
        }
        let input = temp_path(&format!("sym-{seed}")).with_extension("txt");
        let output = temp_path(&format!("sym-{seed}"));
        std::fs::write(&input, text).unwrap();
        let opts = BuildOptions {
            block_size: 4096,
            run_entries: 256,
            ..BuildOptions::default()
        };
        let (stats, _ids) = convert_edge_list(&input, &output, opts).unwrap();
        assert!(stats.num_edges <= lines, "seed {seed}");

        let lists = full_scan(&output).unwrap();
        let mut directed = 0u64;
        for (v, list) in lists.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "seed {seed}: list {v} unsorted");
            for &u in list {
                assert_ne!(u as usize, v, "seed {seed}: self-loop at {v}");
                assert!(
                    lists[u as usize].binary_search(&(v as u32)).is_ok(),
                    "seed {seed}: {u} in list({v}) but {v} not in list({u})"
                );
            }
            directed += list.len() as u64;
        }
        assert_eq!(directed, 2 * stats.num_edges, "seed {seed}");
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&output);
    }
}

#[test]
fn every_flipped_byte_is_detected_or_provably_harmless() {
    // A multi-block file: ring + k-nearest chords over 256 vertices.
    let n: u32 = 256;
    let mut edges = Vec::new();
    for v in 0..n {
        for k in 1..=10 {
            edges.push((v, (v + k) % n));
        }
    }
    let path = temp_path("flip");
    let mut builder = StreamingBuilder::new(BuildOptions {
        block_size: 4096,
        num_vertices: Some(n),
        ..BuildOptions::default()
    })
    .unwrap();
    for &(a, b) in &edges {
        builder.add_edge(a, b).unwrap();
    }
    let stats = builder.finish(&path).unwrap();
    assert!(
        stats.data_bytes > 4096,
        "fixture must span multiple blocks, got {} data bytes",
        stats.data_bytes
    );

    let pristine = std::fs::read(&path).unwrap();
    let want = full_scan(&path).unwrap();
    let num_blocks = OocGraph::open(&path).unwrap().header().num_blocks;

    // The index's `first_vertex` field is documented as diagnostic-only
    // (lookups go through the resident offsets) — the one region where
    // a flip must instead leave the decoded adjacency bit-exact.
    let header_len = mmsb_ooc::format::HEADER_LEN;
    let diagnostic = |i: usize| {
        i >= header_len && i < header_len + num_blocks as usize * 16 && (i - header_len) % 16 < 4
    };

    // A single-bit flip is the hardest corruption to notice — anything
    // CRC-32 catches at one bit it also catches at wider patterns.
    let flipped = temp_path("flip-mut");
    for i in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0x01;
        std::fs::write(&flipped, &bytes).unwrap();
        match full_scan(&flipped) {
            Err(_) => assert!(
                !diagnostic(i),
                "diagnostic byte {i} must not fail the scan"
            ),
            Ok(got) => {
                assert!(diagnostic(i), "flipped byte {i} was silently accepted");
                assert_eq!(
                    got, want,
                    "diagnostic flip at byte {i} changed the decoded adjacency"
                );
            }
        }
    }

    // Truncations anywhere fail loudly too.
    for cut in [0, 1, 59, 60, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&flipped, &pristine[..cut]).unwrap();
        assert!(full_scan(&flipped).is_err(), "truncation at {cut} accepted");
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&flipped);
}
