//! Graph ingestion: one sniffing [`load`] entry point over the text
//! formats and the binary `.bccsr` format.
//!
//! [`load`] reads the first bytes of the file: a `.bccsr` magic opens
//! the file as a checksum-verified mmap-backed [`Graph`] (see
//! [`crate::bccsr`]); anything else is parsed as text. Two text formats
//! are accepted:
//!
//! **DIMACS-flavored** (what [`write_text`] emits):
//!
//! ```text
//! # comments allowed (also % and c lines)
//! p <n> <m>
//! e <u> <v>
//! ...
//! ```
//!
//! **Bare edge lists** (SNAP / Matrix Market dumps): lines of two
//! whitespace-separated 0-based vertex ids, no problem line. The vertex
//! count is inferred as `max id + 1`, and the list is read leniently
//! (duplicate edges, both orientations, and self loops are dropped) —
//! real-world dumps contain all three.
//!
//! Both formats tolerate blank lines, `#`/`%`/`c` comment lines, and
//! CRLF line endings. When a `p` line is present the reader is strict:
//! it must precede every edge, endpoints must be in range, self loops
//! are rejected, and the edge count must match the declaration.

use crate::bccsr::MappedCsr;
use crate::builder::GraphBuilder;
use crate::edge::{Edge, Graph};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Writes `g` in the text format.
pub fn write_text<W: Write>(g: &Graph, w: &mut W) -> io::Result<()> {
    writeln!(w, "p {} {}", g.n(), g.m())?;
    for e in g.edges() {
        writeln!(w, "e {} {}", e.u, e.v)?;
    }
    Ok(())
}

/// Loads a graph from `path`, sniffing the format: files starting with
/// the `.bccsr` magic open as a checksum-verified mmap-backed graph
/// (zero-copy edges and adjacency); everything else parses as text
/// ([`load_text`]). This is the single ingestion entry point for the
/// CLIs — any supported public graph file works directly.
pub fn load(path: impl AsRef<Path>) -> io::Result<Graph> {
    let path = path.as_ref();
    let mut file = File::open(path)?;
    let mut head = [0u8; 8];
    let got = read_head(&mut file, &mut head)?;
    if got == 8 && head == crate::bccsr::MAGIC {
        drop(file);
        return Ok(MappedCsr::open_graph(path)?);
    }
    // Text: re-chain the sniffed bytes in front of the rest.
    load_text(io::Cursor::new(head[..got].to_vec()).chain(file))
}

fn read_head(file: &mut File, head: &mut [u8; 8]) -> io::Result<usize> {
    let mut got = 0;
    while got < 8 {
        match file.read(&mut head[got..])? {
            0 => break,
            k => got += k,
        }
    }
    Ok(got)
}

/// Reads a graph in either text format (see the module docs); validates
/// counts and ranges when a `p` problem line is present.
pub fn load_text<R: Read>(r: R) -> io::Result<Graph> {
    let reader = BufReader::new(r);
    let mut header: Option<(u32, usize)> = None;
    let mut edges: Vec<Edge> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim(); // also strips the \r of CRLF endings
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let tag = it.next().unwrap();
        let bad = |msg: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {msg}", lineno + 1),
            )
        };
        let endpoint = |it: &mut std::str::SplitWhitespace| -> io::Result<u32> {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad endpoint"))
        };
        let (u, v) = match tag {
            "c" => continue, // DIMACS comment line
            "p" => {
                if header.is_some() {
                    return Err(bad("duplicate problem line"));
                }
                if !edges.is_empty() {
                    return Err(bad("problem line after edges"));
                }
                let nv: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad vertex count"))?;
                let m = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad edge count"))?;
                header = Some((nv, m));
                edges.reserve(m);
                continue;
            }
            "e" => {
                if header.is_none() {
                    return Err(bad("edge before problem line"));
                }
                (endpoint(&mut it)?, endpoint(&mut it)?)
            }
            // SNAP-style bare "u v" line.
            _ => {
                let u: u32 = tag.parse().map_err(|_| bad("unknown line tag"))?;
                (u, endpoint(&mut it)?)
            }
        };
        if let Some((nv, _)) = header {
            if u >= nv || v >= nv {
                return Err(bad("endpoint out of range"));
            }
            if u == v {
                return Err(bad("self loop"));
            }
        }
        edges.push(Edge::new(u, v));
    }
    match header {
        Some((n, declared_m)) => {
            if edges.len() != declared_m {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("declared {declared_m} edges, found {}", edges.len()),
                ));
            }
            // Endpoints and loops were validated per line above.
            GraphBuilder::new(n)
                .edges(edges)
                .build()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        }
        None => GraphBuilder::infer_n()
            .lenient()
            .edges(edges)
            .build()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip() {
        let g = gen::random_connected(50, 120, 4);
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let h = load_text(&buf[..]).unwrap();
        assert_eq!(g.n(), h.n());
        assert_eq!(g.edges(), h.edges());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\np 3 2\ne 0 1\n# mid\ne 1 2\n";
        let g = load_text(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn percent_and_c_comments_ignored() {
        let text = "% MatrixMarket-ish header\nc dimacs comment\np 3 2\ne 0 1\ne 1 2\n";
        let g = load_text(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn crlf_line_endings_accepted() {
        let text = "# win\r\np 3 2\r\ne 0 1\r\ne 1 2\r\n";
        let g = load_text(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.edges(), &[Edge::new(0, 1), Edge::new(1, 2)]);
    }

    #[test]
    fn bare_snap_edge_list() {
        // No problem line, % comments, duplicates + both orientations +
        // a self loop — the shape of a real SNAP dump.
        let text = "% snap dump\n0 1\n1 0\n1 2\n2 2\n\n4 2\n";
        let g = load_text(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 5); // max id 4
        assert_eq!(g.m(), 3); // (0,1), (1,2), (2,4)
    }

    #[test]
    fn bare_lines_validated_when_header_present() {
        // Bare "u v" lines mix with e-lines under a header and count
        // toward the declared total, with full validation.
        let g = load_text("p 3 2\n0 1\ne 1 2\n".as_bytes()).unwrap();
        assert_eq!(g.m(), 2);
        assert!(load_text("p 3 1\n0 5\n".as_bytes()).is_err()); // range
        assert!(load_text("p 3 1\n1 1\n".as_bytes()).is_err()); // loop
    }

    #[test]
    fn errors_are_reported() {
        assert!(load_text("e 0 1\n".as_bytes()).is_err()); // e before p
        assert!(load_text("p 3 1\ne 0 5\n".as_bytes()).is_err()); // range
        assert!(load_text("p 3 1\ne 1 1\n".as_bytes()).is_err()); // loop
        assert!(load_text("p 3 2\ne 0 1\n".as_bytes()).is_err()); // count
        assert!(load_text("x 1\n".as_bytes()).is_err()); // tag
        assert!(load_text("0 1\np 3 1\n".as_bytes()).is_err()); // p after edges
        assert!(load_text("0\n".as_bytes()).is_err()); // missing endpoint
        let empty = load_text("".as_bytes()).unwrap(); // headerless empty
        assert_eq!(empty.n(), 0);
    }

    #[test]
    fn load_sniffs_text_and_binary() {
        let g = gen::random_connected(40, 90, 7);
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        let text_path = dir.join(format!("bcc-io-test-{pid}.txt"));
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        std::fs::write(&text_path, &buf).unwrap();
        let ht = load(&text_path).unwrap();
        assert!(!ht.is_mapped());
        assert_eq!(ht.edges(), g.edges());

        let bin_path = dir.join(format!("bcc-io-test-{pid}.bccsr"));
        g.save_bccsr(&bin_path).unwrap();
        let hb = load(&bin_path).unwrap();
        assert!(hb.is_mapped());
        assert_eq!(hb.edges(), g.edges());

        std::fs::remove_file(&text_path).unwrap();
        std::fs::remove_file(&bin_path).unwrap();
    }

    #[test]
    fn load_of_tiny_text_file_works() {
        // Shorter than the 8-byte sniff window.
        let path = std::env::temp_dir().join(format!("bcc-io-tiny-{}.txt", std::process::id()));
        std::fs::write(&path, "0 1\n").unwrap();
        let g = load(&path).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load("/nonexistent/bcc-io-test.txt").is_err());
    }
}
