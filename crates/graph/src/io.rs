//! SNAP edge-list text I/O.
//!
//! The Stanford SNAP collection distributes graphs as whitespace-separated
//! `src dst` pairs, one per line, with `#`-prefixed comment lines. Vertex
//! ids in the files are arbitrary (non-contiguous) integers; the loader
//! densifies them to `[0, N)` and returns the mapping.
//!
//! One parser, [`EdgeListLines`], reads the text for both the resident
//! loader ([`read_edge_list`]) and the out-of-core converter: a byte-level
//! scan of each line, with no UTF-8 check or string split.

use crate::{Edge, FxHashMap, Graph, GraphError, VertexId};
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
/// scanning the raw bytes of each line in one reused buffer (no eager
/// buffering of the input, the lines, or the parsed edges — consumers like
/// the out-of-core converter stream arbitrarily large files in constant
/// memory).
///
/// * Tokens are separated by ASCII whitespace (space, `\t`, `\x0b`,
///   `\x0c`, `\r`), so CRLF files parse as LF files do.
/// * Lines whose first token starts with `#` and blank lines are skipped,
///   whatever bytes they hold.
/// * Each data line must contain exactly two decimal `u64` tokens (an
///   optional leading `+` is accepted, as `str::parse` accepts it).
///   Malformed rows — a missing, extra or non-integer token, an id that
///   overflows `u64`, or any non-ASCII byte — surface as
///   [`GraphError::Parse`] with the 1-based line number and the bad token
///   quoted.
/// * Self-loops are *skipped* here (SNAP social graphs contain a few; the
///   a-MMSB model cannot represent them); deduplication is the consumer's
///   job.
#[derive(Debug)]
pub struct EdgeListLines<R> {
    reader: BufReader<R>,
    /// The current line's bytes, its `\n` included.
    line: Vec<u8>,
    line_no: usize,
}

impl<R: Read> EdgeListLines<R> {
    /// Start streaming from `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader: BufReader::new(reader),
            line: Vec::new(),
            line_no: 0,
        }
    }

    /// Parse the next edge; `Ok(None)` at end of input.
    #[allow(clippy::should_implement_trait)] // lending-style: reuses the line buffer
    pub fn next_edge(&mut self) -> Result<Option<(u64, u64)>, GraphError> {
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if let Some((a, b)) = parse_line(&self.line, self.line_no)? {
                if a != b {
                    return Ok(Some((a, b)));
                }
            }
        }
    }
}

/// Whitespace as `str::split_whitespace` sees it in ASCII: space and
/// `\t` `\n` `\x0b` `\x0c` `\r`.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Index of the first non-whitespace byte of `line` at or after `i`.
fn skip_space(line: &[u8], mut i: usize) -> usize {
    while line.get(i).is_some_and(|&b| is_space(b)) {
        i += 1;
    }
    i
}

/// The edge on one line, or `None` for a blank or comment line.
fn parse_line(line: &[u8], line_no: usize) -> Result<Option<(u64, u64)>, GraphError> {
    let start = skip_space(line, 0);
    if start == line.len() || line[start] == b'#' {
        return Ok(None);
    }
    let (a, end) = parse_id(line, start, line_no)?;
    let start = skip_space(line, end);
    if start == line.len() {
        return Err(GraphError::Parse {
            line: line_no,
            message: "expected two vertex ids".into(),
        });
    }
    let (b, end) = parse_id(line, start, line_no)?;
    if skip_space(line, end) != line.len() {
        return Err(GraphError::Parse {
            line: line_no,
            message: "trailing tokens after edge".into(),
        });
    }
    Ok(Some((a, b)))
}

/// The token starting at `line[start]` as a decimal `u64` with an optional
/// leading `+` — what `str::parse` accepts — accumulated with overflow
/// checks in the same pass that finds the token's end; returns the id and
/// the index just past the token.
fn parse_id(line: &[u8], start: usize, line_no: usize) -> Result<(u64, usize), GraphError> {
    let first_digit = start + usize::from(line[start] == b'+');
    let mut i = first_digit;
    let mut id = 0u64;
    while let Some(d) = line
        .get(i)
        .map(|c| c.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        id = match id.checked_mul(10).and_then(|x| x.checked_add(u64::from(d))) {
            Some(x) => x,
            None => return Err(bad_id(line, start, line_no)),
        };
        i += 1;
    }
    if i == first_digit || line.get(i).is_some_and(|&b| !is_space(b)) {
        return Err(bad_id(line, start, line_no));
    }
    Ok((id, i))
}

/// The error for the token at `line[start]`, which is not a `u64`, worded
/// by `str::parse`.
#[cold]
fn bad_id(line: &[u8], start: usize, line_no: usize) -> GraphError {
    let len = line[start..].iter().position(|&b| is_space(b));
    let token = String::from_utf8_lossy(&line[start..start + len.unwrap_or(line.len() - start)]);
    let why = token
        .parse::<u64>()
        .err()
        .map_or_else(String::new, |e| e.to_string());
    GraphError::Parse {
        line: line_no,
        message: format!("bad vertex id {token:?}: {why}"),
    }
}

/// Densifies raw vertex ids to `[0, N)` in order of first appearance — the
/// one mapping [`read_edge_list`] and the out-of-core converter apply.
#[derive(Debug, Default)]
pub struct IdInterner {
    ids: FxHashMap<u64, u32>,
    original_ids: Vec<u64>,
}

impl IdInterner {
    /// The dense id of `raw`, assigning the next one on first sight.
    #[inline]
    pub fn intern(&mut self, raw: u64) -> u32 {
        *self.ids.entry(raw).or_insert_with(|| {
            self.original_ids.push(raw);
            self.original_ids.len() as u32 - 1
        })
    }

    /// `original_ids[dense]` is the raw id that was given `dense`.
    pub fn into_original_ids(self) -> Vec<u64> {
        self.original_ids
    }
}

/// Parse a SNAP-format edge list from any reader (see [`EdgeListLines`]
/// for the accepted syntax). Ids are densified in order of first
/// appearance; the canonical edges are collected as packed `u64`s, sorted,
/// deduplicated and laid out as the CSR in one pass.
pub fn read_edge_list<R: Read>(reader: R) -> Result<LoadedGraph, GraphError> {
    let mut ids = IdInterner::default();
    let mut lines = EdgeListLines::new(reader);
    let mut edges: Vec<u64> = Vec::new();
    while let Some((a, b)) = lines.next_edge()? {
        let (da, db) = (ids.intern(a), ids.intern(b));
        edges.push(Edge::new(VertexId(da), VertexId(db)).pack());
    }
    edges.sort_unstable();
    edges.dedup();
    let original_ids = ids.into_original_ids();
    Ok(LoadedGraph {
        graph: Graph::from_sorted_edges(original_ids.len() as u32, &edges),
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
    use mmsb_rand::{Rng, RngCore, Xoshiro256PlusPlus};
    use std::io::ErrorKind;

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

    #[test]
    fn non_ascii_is_a_parse_error_at_its_line() {
        // Valid UTF-8 (a no-break space is Unicode whitespace, not ASCII)
        // and invalid UTF-8 alike: the bad token is quoted.
        for input in [&b"1 2\n3\xc2\xa04\n"[..], &b"1 2\n3 \xff\n"[..]] {
            match read_edge_list(input) {
                Err(GraphError::Parse { line: 2, message }) => {
                    assert!(message.contains("bad vertex id"), "{message}")
                }
                other => panic!("{input:?}: {other:?}"),
            }
        }
        // A comment may hold any bytes.
        let loaded = read_edge_list(&b"# caf\xc3\xa9 \xff\n1 2\n"[..]).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
    }

    /// The parser this crate used before [`EdgeListLines`] scanned bytes:
    /// `read_line` + `trim` + `split_whitespace` + `str::parse`, kept as the
    /// oracle for the differential test below.
    struct OracleLines<R> {
        reader: BufReader<R>,
        line: String,
        line_no: usize,
    }

    impl<R: Read> OracleLines<R> {
        fn new(reader: R) -> Self {
            Self {
                reader: BufReader::new(reader),
                line: String::new(),
                line_no: 0,
            }
        }

        fn next_edge(&mut self) -> Result<Option<(u64, u64)>, GraphError> {
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
                    continue;
                }
                return Ok(Some((a, b)));
            }
        }
    }

    /// Every edge up to the end of input, and the parse error that ended
    /// it early, as `(line, message)`.
    type Parsed = (Vec<(u64, u64)>, Option<(usize, String)>);

    fn drain(mut next: impl FnMut() -> Result<Option<(u64, u64)>, GraphError>) -> Parsed {
        let mut edges = Vec::new();
        loop {
            match next() {
                Ok(Some(e)) => edges.push(e),
                Ok(None) => return (edges, None),
                Err(GraphError::Parse { line, message }) => return (edges, Some((line, message))),
                Err(e) => panic!("unexpected error on ASCII input: {e}"),
            }
        }
    }

    /// A reader that hands out 1–7 bytes per call and is sometimes
    /// interrupted, so that lines straddle refills everywhere.
    struct Trickle<'a> {
        data: &'a [u8],
        rng: Xoshiro256PlusPlus,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.rng.below(5) == 0 {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = (1 + self.rng.below(7) as usize)
                .min(buf.len())
                .min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// ASCII edge-list text shaped by `seed`: comments (indented or not),
    /// blank and whitespace-only lines, `\t` / `\x0b` / `\x0c` / `\r`
    /// separators, CRLF endings, leading `+`, leading zeros, self-loops and
    /// ids up to `u64::MAX`; a third of the seeds also carry one bad line
    /// (one or three tokens, a `u64` overflow, a stray sign or `#`, random
    /// ASCII bytes), and some lose their final newline.
    fn generated_input(seed: u64) -> Vec<u8> {
        const SEPARATORS: [&str; 8] = [" ", "\t", "\x0b", "\x0c", "\r", "  ", " \t ", "\t\x0c"];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let sep = |rng: &mut Xoshiro256PlusPlus| SEPARATORS[rng.below(8) as usize];
        let id = |rng: &mut Xoshiro256PlusPlus| match rng.below(10) {
            0 => u64::MAX.to_string(),
            1 => format!("+{}", rng.below(50)),
            2 => format!("00{}", rng.below(50)),
            3 => rng.next_u64().to_string(),
            _ => rng.below(50).to_string(),
        };
        let num_lines = rng.below(60) as usize;
        let bad_line = (rng.below(3) == 0).then(|| rng.below(num_lines as u64 + 1) as usize);
        let mut out = String::new();
        for i in 0..=num_lines {
            let line = if bad_line == Some(i) {
                match rng.below(9) {
                    0 => id(&mut rng),
                    1 => format!(
                        "{}{}{}{}{}",
                        id(&mut rng),
                        sep(&mut rng),
                        id(&mut rng),
                        sep(&mut rng),
                        id(&mut rng)
                    ),
                    2 => format!("{} 18446744073709551616", id(&mut rng)),
                    3 => format!("99999999999999999999999{}{}", sep(&mut rng), id(&mut rng)),
                    4 => format!("{} -{}", id(&mut rng), rng.below(9)),
                    5 => format!("+{}{}", sep(&mut rng), id(&mut rng)),
                    6 => format!("{} 2 #c", id(&mut rng)),
                    7 => format!("{} #2", id(&mut rng)),
                    _ => (0..1 + rng.below(12))
                        .map(|_| char::from(1 + rng.below(126) as u8))
                        .filter(|&c| c != '\n')
                        .collect(),
                }
            } else if i == num_lines {
                continue;
            } else {
                match rng.below(10) {
                    0 => format!("# comment {}", id(&mut rng)),
                    1 => format!("{}#{} {}", sep(&mut rng), id(&mut rng), id(&mut rng)),
                    2 => String::new(),
                    3 => sep(&mut rng).to_string(),
                    4 => {
                        let v = id(&mut rng);
                        format!("{v}{}{v}", sep(&mut rng))
                    }
                    _ => format!(
                        "{}{}{}{}{}",
                        if rng.below(4) == 0 { sep(&mut rng) } else { "" },
                        id(&mut rng),
                        sep(&mut rng),
                        id(&mut rng),
                        if rng.below(4) == 0 { sep(&mut rng) } else { "" },
                    ),
                }
            };
            out.push_str(&line);
            out.push_str(if rng.below(3) == 0 { "\r\n" } else { "\n" });
        }
        if rng.below(3) == 0 {
            out.pop();
        }
        out.into_bytes()
    }

    /// The byte-level reader returns exactly the oracle's edges, or the
    /// same error at the same line with the same message, on 300 generated
    /// inputs — read whole and read through 1–7-byte reads.
    #[test]
    fn byte_reader_matches_line_parser_on_300_seeds() {
        let mut errors = 0;
        for seed in 0..300u64 {
            let input = generated_input(seed);
            let mut oracle = OracleLines::new(input.as_slice());
            let want = drain(|| oracle.next_edge());
            errors += usize::from(want.1.is_some());

            let mut whole = EdgeListLines::new(input.as_slice());
            assert_eq!(
                drain(|| whole.next_edge()),
                want,
                "seed {seed}: {:?}",
                String::from_utf8_lossy(&input)
            );
            let trickle = Trickle {
                data: &input,
                rng: Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x7A1C),
            };
            let mut trickled = EdgeListLines::new(trickle);
            assert_eq!(
                drain(|| trickled.next_edge()),
                want,
                "seed {seed} (trickled)"
            );
        }
        // The generator reaches both outcomes often.
        assert!(
            (60..=140).contains(&errors),
            "{errors} of 300 inputs failed to parse"
        );
    }
}
