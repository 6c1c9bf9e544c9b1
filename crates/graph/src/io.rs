//! SNAP edge-list text I/O.
//!
//! The Stanford SNAP collection distributes graphs as whitespace-separated
//! `src dst` pairs, one per line, with `#`-prefixed comment lines. Vertex
//! ids in the files are arbitrary (non-contiguous) integers; the loader
//! densifies them to `[0, N)` and returns the mapping.

use crate::{FxHashMap, Graph, GraphBuilder, GraphError, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Result of loading an edge list: the graph plus the original ids, indexed
/// by dense [`VertexId`].
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The densified graph.
    pub graph: Graph,
    /// `original_ids[v.index()]` is the id the input file used for `v`.
    pub original_ids: Vec<u64>,
}

impl LoadedGraph {
    /// Map a dense vertex back to the id used in the input file.
    pub fn original_id(&self, v: VertexId) -> u64 {
        self.original_ids[v.index()]
    }
}

/// A streaming SNAP edge-list parser: one `(src, dst)` pair per call,
/// reading line by line with a single reused line buffer (no eager
/// buffering of the input, the lines, or the parsed edges — consumers
/// like the out-of-core converter stream arbitrarily large files in
/// constant memory).
///
/// * Lines starting with `#` (after optional leading whitespace) and blank
///   lines are skipped.
/// * Each data line must contain exactly two integer tokens; malformed
///   rows surface as [`GraphError::Parse`] with the 1-based line number.
/// * Self-loops are *skipped* here (SNAP social graphs contain a few; the
///   a-MMSB model cannot represent them); deduplication is the consumer's
///   job.
#[derive(Debug)]
pub struct EdgeListLines<R> {
    reader: BufReader<R>,
    line: String,
    line_no: usize,
}

impl<R: Read> EdgeListLines<R> {
    /// Start streaming from `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader: BufReader::new(reader),
            line: String::new(),
            line_no: 0,
        }
    }

    /// Parse the next edge; `Ok(None)` at end of input.
    #[allow(clippy::should_implement_trait)] // lending-style: reuses the line buffer
    pub fn next_edge(&mut self) -> Result<Option<(u64, u64)>, GraphError> {
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let line_no = self.line_no;
            let mut tokens = trimmed.split_whitespace();
            let parse = |tok: Option<&str>| -> Result<u64, GraphError> {
                let tok = tok.ok_or_else(|| GraphError::Parse {
                    line: line_no,
                    message: "expected two vertex ids".into(),
                })?;
                tok.parse::<u64>().map_err(|e| GraphError::Parse {
                    line: line_no,
                    message: format!("bad vertex id {tok:?}: {e}"),
                })
            };
            let a = parse(tokens.next())?;
            let b = parse(tokens.next())?;
            if tokens.next().is_some() {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: "trailing tokens after edge".into(),
                });
            }
            if a == b {
                continue; // drop self-loops
            }
            return Ok(Some((a, b)));
        }
    }
}

/// Parse a SNAP-format edge list from any reader (see [`EdgeListLines`]
/// for the accepted syntax). Edges stream directly into the deduplicating
/// [`GraphBuilder`] — nothing is buffered besides the id-interning table.
pub fn read_edge_list<R: Read>(reader: R) -> Result<LoadedGraph, GraphError> {
    let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut edges = EdgeListLines::new(reader);
    let mut builder = GraphBuilder::new(0);
    while let Some((a, b)) = edges.next_edge()? {
        let mut intern = |raw: u64| -> u32 {
            *ids.entry(raw).or_insert_with(|| {
                let dense = original_ids.len() as u32;
                original_ids.push(raw);
                dense
            })
        };
        let da = intern(a);
        let db = intern(b);
        builder.grow_to(original_ids.len() as u32);
        builder.add_edge(VertexId(da), VertexId(db))?;
    }
    Ok(LoadedGraph {
        graph: builder.build(),
        original_ids,
    })
}

/// Load a SNAP-format edge list from a file.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Write a graph in SNAP edge-list format (dense ids, one `lo hi` pair per
/// line, with a comment header).
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# Undirected graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    writeln!(writer, "# FromNodeId\tToNodeId")?;
    let mut w = std::io::BufWriter::new(writer);
    for e in graph.edges() {
        writeln!(w, "{}\t{}", e.lo().0, e.hi().0)?;
    }
    w.flush()
}

/// Save a graph to a SNAP-format file.
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> std::io::Result<()> {
    write_edge_list(graph, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_edges() {
        let input = "# header\n\n10 20\n20 30\n  # indented comment\n10\t30\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.original_id(VertexId(0)), 10);
        assert_eq!(loaded.original_id(VertexId(1)), 20);
        assert_eq!(loaded.original_id(VertexId(2)), 30);
    }

    #[test]
    fn skips_self_loops_and_dedups() {
        let input = "1 1\n1 2\n2 1\n1 2\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
        assert_eq!(loaded.graph.num_vertices(), 2);
    }

    #[test]
    fn error_on_missing_token() {
        let err = read_edge_list("1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn error_on_bad_token() {
        let err = read_edge_list("1 x\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains('x'), "{msg}");
    }

    #[test]
    fn error_on_trailing_tokens() {
        let err = read_edge_list("1 2 3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn error_line_numbers_count_comments() {
        let err = read_edge_list("# c\n1 2\nbroken\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn write_read_roundtrip() {
        let input = "0 1\n1 2\n2 3\n0 3\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_edge_list(&loaded.graph, &mut out).unwrap();
        let reloaded = read_edge_list(out.as_slice()).unwrap();
        assert_eq!(reloaded.graph.num_vertices(), loaded.graph.num_vertices());
        assert_eq!(reloaded.graph.num_edges(), loaded.graph.num_edges());
        // Reloading re-densifies ids in file order, which differs from the
        // original interning order; map through the original ids.
        let remap: std::collections::HashMap<u64, VertexId> = (0..reloaded.graph.num_vertices())
            .map(|v| (reloaded.original_id(VertexId(v)), VertexId(v)))
            .collect();
        for e in loaded.graph.edges() {
            let a = remap[&(e.lo().0 as u64)];
            let b = remap[&(e.hi().0 as u64)];
            assert!(reloaded.graph.has_edge(a, b));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mmsb_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let loaded = read_edge_list("5 6\n6 7\n".as_bytes()).unwrap();
        save_edge_list(&loaded.graph, &path).unwrap();
        let re = load_edge_list(&path).unwrap();
        assert_eq!(re.graph.num_edges(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_edge_list("/definitely/not/here.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
