//! Reading and writing graphs in simple interchange formats.
//!
//! Two formats are supported, enough to exchange instances with other
//! dominating-set / sparsity tools and to snapshot generated experiment
//! instances:
//!
//! * **edge list** — one `u v` pair per line, `#` comments, vertex count
//!   inferred (or given by an optional single-number `n` header line; a
//!   first line of two numbers is an edge);
//! * **DIMACS** — `c` comment lines, exactly one `p edge <n> <m>` problem
//!   line, `e <u> <v>` edge lines with 1-based vertex ids.

use crate::graph::{Graph, GraphBuilder, Vertex};
use std::fmt::Write as _;
use std::path::Path;

/// Errors produced by the parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// An edge referenced a vertex outside the declared range or, when the
    /// count is inferred, an id of `u32::MAX` or more (the count would be
    /// `id + 1`, more vertices than a [`Vertex`] can number).
    VertexOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending vertex id as written in the file.
        vertex: u64,
    },
    /// The DIMACS problem line is missing.
    MissingHeader,
    /// An underlying I/O error (file reading).
    Io(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            ParseError::VertexOutOfRange { line, vertex } => {
                write!(f, "line {line}: vertex {vertex} out of range")
            }
            ParseError::MissingHeader => write!(f, "missing DIMACS 'p edge n m' line"),
            ParseError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Reads a declared vertex count. [`Vertex`] numbers the vertices, so a
/// count above `u32::MAX` is malformed; it is refused here, before anything
/// is allocated for it.
fn declared_count(count: u64, line: usize) -> Result<usize, ParseError> {
    match Vertex::try_from(count) {
        Ok(n) => Ok(n as usize),
        Err(_) => Err(ParseError::Malformed {
            line,
            message: format!("vertex count {count} exceeds {}", Vertex::MAX),
        }),
    }
}

/// Converts a file-format id into the vertex id space: `Some` iff it fits in
/// [`Vertex`] *and* is below the declared count `n`. Replaces the former
/// `as Vertex` narrowings, which would wrap ids above `u32::MAX` into valid
/// vertices instead of rejecting the document.
fn checked_vertex(id: u64, n: usize) -> Option<Vertex> {
    let v = Vertex::try_from(id).ok()?;
    if (v as usize) < n {
        Some(v)
    } else {
        None
    }
}

/// Parses an edge-list document. Lines are `u v` (whitespace separated,
/// 0-based ids); empty lines and lines starting with `#` are ignored. An
/// optional first non-comment line holding the single number `n` fixes the
/// vertex count; otherwise it is `max id + 1`. A first line of two numbers
/// is read as an edge, not as an `n m` header. Counts, declared or
/// inferred, stop at `u32::MAX`.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut declared_n: Option<usize> = None;
    let mut edges: Vec<(u64, u64, usize)> = Vec::new();
    let mut max_id = 0u64;
    let mut saw_header_candidate = false;

    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let numbers: Result<Vec<u64>, _> = fields.iter().map(|f| f.parse::<u64>()).collect();
        let numbers = numbers.map_err(|_| ParseError::Malformed {
            line: line_no,
            message: format!("expected integers, got {line:?}"),
        })?;
        match (saw_header_candidate, numbers.len()) {
            (false, 1) => {
                declared_n = Some(declared_count(numbers[0], line_no)?);
                saw_header_candidate = true;
            }
            (false, 2) | (true, 2) => {
                saw_header_candidate = true;
                edges.push((numbers[0], numbers[1], line_no));
                max_id = max_id.max(numbers[0]).max(numbers[1]);
            }
            (false, 3) => {
                // "n m <ignored>"-style headers are rejected as ambiguous.
                return Err(ParseError::Malformed {
                    line: line_no,
                    message: "expected 'u v' or a single 'n' header".into(),
                });
            }
            _ => {
                return Err(ParseError::Malformed {
                    line: line_no,
                    message: format!("expected 'u v', got {} fields", numbers.len()),
                })
            }
        }
    }
    let n = match declared_n {
        Some(n) => n,
        // The inferred count is max id + 1, so the first edge with an id of
        // `u32::MAX` or more is out of range; below that the sum cannot wrap.
        None => match edges
            .iter()
            .find(|&&(u, v, _)| u.max(v) >= u64::from(Vertex::MAX))
        {
            Some(&(u, v, line)) => {
                return Err(ParseError::VertexOutOfRange {
                    line,
                    vertex: u.max(v),
                })
            }
            None if edges.is_empty() => 0,
            None => crate::cast::usize_from_u64(max_id) + 1,
        },
    };
    let mut builder = GraphBuilder::new(n);
    for (u, v, line) in edges {
        let (u, v) = match (checked_vertex(u, n), checked_vertex(v, n)) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(ParseError::VertexOutOfRange {
                    line,
                    vertex: u.max(v),
                })
            }
        };
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

/// Serialises a graph as an edge list with an `n` header line.
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# bedom edge list: n = {}, m = {}",
        graph.num_vertices(),
        graph.num_edges()
    );
    let _ = writeln!(out, "{}", graph.num_vertices());
    for (u, v) in graph.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Parses a DIMACS `.col`/`.edge` style document (`p edge n m`, `e u v` with
/// 1-based ids). A second problem line is malformed: it would discard every
/// edge read before it.
pub fn parse_dimacs(text: &str) -> Result<Graph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut n = 0usize;
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            if builder.is_some() {
                return Err(ParseError::Malformed {
                    line: line_no,
                    message: "second problem line".into(),
                });
            }
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() < 2 {
                return Err(ParseError::Malformed {
                    line: line_no,
                    message: "problem line needs 'p edge n m'".into(),
                });
            }
            let count = fields[1].parse().map_err(|_| ParseError::Malformed {
                line: line_no,
                message: "could not parse vertex count".into(),
            })?;
            n = declared_count(count, line_no)?;
            builder = Some(GraphBuilder::new(n));
            continue;
        }
        if let Some(rest) = line.strip_prefix("e ") {
            let builder = builder.as_mut().ok_or(ParseError::MissingHeader)?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 2 {
                return Err(ParseError::Malformed {
                    line: line_no,
                    message: "edge line needs 'e u v'".into(),
                });
            }
            let u: u64 = fields[0].parse().map_err(|_| ParseError::Malformed {
                line: line_no,
                message: "bad endpoint".into(),
            })?;
            let v: u64 = fields[1].parse().map_err(|_| ParseError::Malformed {
                line: line_no,
                message: "bad endpoint".into(),
            })?;
            // DIMACS ids are 1-based; shift before the checked conversion.
            let shifted = match (u.checked_sub(1), v.checked_sub(1)) {
                (Some(u0), Some(v0)) => match (checked_vertex(u0, n), checked_vertex(v0, n)) {
                    (Some(u0), Some(v0)) => Some((u0, v0)),
                    _ => None,
                },
                _ => None,
            };
            let (u0, v0) = shifted.ok_or(ParseError::VertexOutOfRange {
                line: line_no,
                vertex: u.max(v),
            })?;
            builder.add_edge(u0, v0);
            continue;
        }
        return Err(ParseError::Malformed {
            line: line_no,
            message: format!("unrecognised line {line:?}"),
        });
    }
    builder
        .map(GraphBuilder::build)
        .ok_or(ParseError::MissingHeader)
}

/// Serialises a graph in DIMACS format (1-based ids).
pub fn to_dimacs(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "c bedom instance");
    let _ = writeln!(out, "p edge {} {}", graph.num_vertices(), graph.num_edges());
    for (u, v) in graph.edges() {
        let _ = writeln!(out, "e {} {}", u + 1, v + 1);
    }
    out
}

/// Reads a graph from a file, dispatching on content (`p edge` ⇒ DIMACS,
/// otherwise edge list).
pub fn read_graph_file(path: &Path) -> Result<Graph, ParseError> {
    let text = std::fs::read_to_string(path).map_err(|e| ParseError::Io(e.to_string()))?;
    if text.lines().any(|l| l.trim_start().starts_with("p ")) {
        parse_dimacs(&text)
    } else {
        parse_edge_list(&text)
    }
}

/// Writes a graph to a file; `.col`/`.dimacs` extensions select DIMACS,
/// anything else gets the edge-list format.
pub fn write_graph_file(graph: &Graph, path: &Path) -> Result<(), ParseError> {
    let text = match path.extension().and_then(|e| e.to_str()) {
        Some("col") | Some("dimacs") => to_dimacs(graph),
        _ => to_edge_list(graph),
    };
    std::fs::write(path, text).map_err(|e| ParseError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid, stacked_triangulation};

    #[test]
    fn edge_list_roundtrip() {
        let g = stacked_triangulation(50, 3);
        let text = to_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = grid(6, 7);
        let text = to_dimacs(&g);
        let back = parse_dimacs(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_without_header_infers_n() {
        let g = parse_edge_list("0 1\n1 2\n# comment\n2 3\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        // A first line of two numbers is an edge, not an `n m` header.
        let g = parse_edge_list("5 3\n0 1\n").unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1), (3, 5)]);
    }

    #[test]
    fn edge_list_with_isolated_vertices_needs_header() {
        let g = parse_edge_list("6\n0 1\n").unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            parse_edge_list("0 x\n"),
            Err(ParseError::Malformed { .. })
        ));
        assert!(matches!(
            parse_edge_list("3\n0 5\n"),
            Err(ParseError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            parse_dimacs("e 1 2\n"),
            Err(ParseError::MissingHeader)
        ));
        assert!(matches!(
            parse_dimacs("p edge 3 1\ne 1 9\n"),
            Err(ParseError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            parse_dimacs("p edge 3 1\nq 1 2\n"),
            Err(ParseError::Malformed { .. })
        ));
        assert!(matches!(
            parse_dimacs("p edge 3 1\ne 1 2\np edge 5 0\n"),
            Err(ParseError::Malformed { line: 3, .. })
        ));
    }

    #[test]
    fn ids_beyond_the_vertex_space_are_rejected_not_wrapped() {
        // 2^32 + 1 used to wrap to vertex 1 through `as Vertex`; it must be
        // rejected as out of range in both formats.
        let big = (1u64 << 32) + 1;
        assert!(matches!(
            parse_edge_list(&format!("{big} 1\n")),
            Err(ParseError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            parse_dimacs(&format!("p edge 3 1\ne {big} 1\n")),
            Err(ParseError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn an_inferred_count_past_u64_is_out_of_range() {
        // The inferred count `max id + 1` must not overflow.
        assert_eq!(
            parse_edge_list("0 18446744073709551615\n"),
            Err(ParseError::VertexOutOfRange {
                line: 1,
                vertex: u64::MAX
            })
        );
    }

    #[test]
    fn an_id_that_implies_2_pow_32_vertices_is_out_of_range() {
        assert_eq!(
            parse_edge_list("0 4294967295\n"),
            Err(ParseError::VertexOutOfRange {
                line: 1,
                vertex: 4_294_967_295
            })
        );
    }

    #[test]
    fn an_edge_list_count_of_2_pow_32_is_malformed() {
        assert!(matches!(
            parse_edge_list("4294967296\n"),
            Err(ParseError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn a_dimacs_count_of_2_pow_32_is_malformed() {
        assert!(matches!(
            parse_dimacs("p edge 4294967296 0\n"),
            Err(ParseError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn empty_documents() {
        assert_eq!(parse_edge_list("# nothing\n").unwrap().num_vertices(), 0);
        assert!(matches!(
            parse_dimacs("c nothing\n"),
            Err(ParseError::MissingHeader)
        ));
    }

    #[test]
    fn file_roundtrip_dispatches_on_extension() {
        let g = grid(4, 4);
        let dir = std::env::temp_dir();
        let edge_path = dir.join("bedom_io_test.edges");
        let dimacs_path = dir.join("bedom_io_test.col");
        write_graph_file(&g, &edge_path).unwrap();
        write_graph_file(&g, &dimacs_path).unwrap();
        assert_eq!(read_graph_file(&edge_path).unwrap(), g);
        assert_eq!(read_graph_file(&dimacs_path).unwrap(), g);
        let _ = std::fs::remove_file(edge_path);
        let _ = std::fs::remove_file(dimacs_path);
    }

    #[test]
    fn error_display_is_informative() {
        let err = parse_edge_list("0 x\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
