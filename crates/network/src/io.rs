//! Line-oriented TSV round-trip format for road networks.
//!
//! The format is intentionally simple (header + three sections) so that
//! datasets exported from real sources (e.g. OpenStreetMap extracts) can be
//! produced by a few lines of scripting:
//!
//! ```text
//! # soi-network v1
//! nodes <N>
//! <x>\t<y>                       // N lines; node id = line order
//! streets <M>
//! <name>                         // M lines; street id = line order
//! segments <K>
//! <street>\t<from>\t<to>         // K lines; segment id = line order
//! ```
//!
//! ### Failure semantics
//!
//! Crowdsourced exports are noisy, so every reader takes a
//! [`LoadOptions`]:
//!
//! - **Strict** (default): the first invalid record aborts with a typed
//!   [`SoiError`] carrying the record number, field, and (for the `load_*`
//!   functions) file path.
//! - **Lenient**: invalid records are skipped and counted per
//!   [`ValidationKind`] in a [`LoadReport`]. Node ids are positional, so a
//!   rejected node keeps a placeholder position and every segment touching
//!   it is rejected as a dangling reference; a segment that would break its
//!   street's connected chain (because a predecessor was rejected) is also
//!   rejected.
//!
//! Structural damage — a bad header, a missing section, a truncated file,
//! non-UTF-8 bytes — always aborts, in both modes: there is no sound way to
//! resynchronise a positional format.

use crate::network::{NetworkBuilder, RoadNetwork};
use soi_common::{
    LoadOptions, LoadReport, NodeId, Result, ResultExt, SoiError, StreetId, ValidationKind,
};
use soi_geo::Point;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

const HEADER: &str = "# soi-network v1";

/// Hard ceiling on section counts, so a corrupt count line cannot trigger
/// an unbounded allocation.
const MAX_SECTION_COUNT: usize = 1 << 28;

/// Writes `network` in the TSV format.
pub fn write_network<W: Write>(network: &RoadNetwork, mut w: W) -> Result<()> {
    writeln!(w, "{HEADER}")?;
    writeln!(w, "nodes {}", network.num_nodes())?;
    for node in network.nodes() {
        writeln!(w, "{}\t{}", node.pos.x, node.pos.y)?;
    }
    writeln!(w, "streets {}", network.num_streets())?;
    for street in network.streets() {
        writeln!(w, "{}", street.name)?;
    }
    writeln!(w, "segments {}", network.num_segments())?;
    for seg in network.segments() {
        writeln!(
            w,
            "{}\t{}\t{}",
            seg.street.raw(),
            seg.from.raw(),
            seg.to.raw()
        )?;
    }
    Ok(())
}

/// Reads a network in the TSV format with strict semantics.
pub fn read_network<R: BufRead>(r: R) -> Result<RoadNetwork> {
    read_network_with(r, &LoadOptions::strict()).map(|(net, _)| net)
}

/// Reads a network in the TSV format under the given [`LoadOptions`],
/// returning the network together with a [`LoadReport`].
pub fn read_network_with<R: BufRead>(
    r: R,
    opts: &LoadOptions,
) -> Result<(RoadNetwork, LoadReport)> {
    let mut report = LoadReport::new();
    let mut lines = r.lines().enumerate();

    let mut next_line = |expect: &str| -> Result<(usize, String)> {
        match lines.next() {
            Some((i, Ok(line))) => Ok((i + 1, line)),
            Some((i, Err(e))) => Err(SoiError::parse(i + 1, e.to_string())),
            None => Err(SoiError::parse(
                0,
                format!("unexpected EOF, expected {expect}"),
            )),
        }
    };

    let (line_no, header) = next_line("header")?;
    if header.trim() != HEADER {
        return Err(SoiError::parse(line_no, format!("bad header {header:?}")));
    }

    fn section_count(line_no: usize, line: &str, name: &str) -> Result<usize> {
        let rest = line
            .strip_prefix(name)
            .ok_or_else(|| SoiError::parse(line_no, format!("expected `{name} <count>`")))?;
        let count = rest
            .trim()
            .parse::<usize>()
            .map_err(|e| SoiError::parse(line_no, format!("bad count: {e}")))?;
        if count > MAX_SECTION_COUNT {
            return Err(SoiError::parse(
                line_no,
                format!("section count {count} exceeds the {MAX_SECTION_COUNT} limit"),
            ));
        }
        Ok(count)
    }

    let mut b = NetworkBuilder::default();

    // --- nodes. Ids are positional: a rejected node keeps a placeholder
    // entry so later records keep their meaning, and is remembered so that
    // segments touching it are rejected as dangling.
    let (ln, line) = next_line("nodes section")?;
    let n_nodes = section_count(ln, &line, "nodes")?;
    let mut node_pos: Vec<Option<Point>> = Vec::with_capacity(n_nodes.min(1 << 16));
    for _ in 0..n_nodes {
        let (ln, line) = next_line("node record")?;
        match parse_node(ln, &line) {
            Ok(p) => {
                b.add_node(p);
                node_pos.push(Some(p));
                report.accept();
            }
            Err(e) if opts.is_lenient() => {
                report.skip(
                    e.validation_kind()
                        .unwrap_or(ValidationKind::MalformedRecord),
                );
                b.add_node(Point::new(0.0, 0.0));
                node_pos.push(None);
            }
            Err(e) => return Err(e),
        }
    }

    let (ln, line) = next_line("streets section")?;
    let n_streets = section_count(ln, &line, "streets")?;
    for _ in 0..n_streets {
        let (_, name) = next_line("street record")?;
        b.add_street(name);
        report.accept();
    }

    let (ln, line) = next_line("segments section")?;
    let n_segments = section_count(ln, &line, "segments")?;
    // Last kept segment endpoints per street, for the connected-chain rule.
    let mut chain_tail: Vec<Option<(NodeId, NodeId)>> = vec![None; n_streets];
    for _ in 0..n_segments {
        let (ln, line) = next_line("segment record")?;
        match parse_segment(ln, &line, n_streets, &node_pos, &mut chain_tail) {
            Ok((street, from, to)) => {
                b.add_segment(street, from, to);
                report.accept();
            }
            Err(e) if opts.is_lenient() => {
                report.skip(
                    e.validation_kind()
                        .unwrap_or(ValidationKind::MalformedRecord),
                );
            }
            Err(e) => return Err(e),
        }
    }

    let network = b.build()?;
    Ok((network, report))
}

fn parse_node(ln: usize, line: &str) -> Result<Point> {
    let mut parts = line.split('\t');
    let mut coord = |name: &'static str| -> Result<f64> {
        parts
            .next()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| {
                SoiError::validation(ValidationKind::MalformedRecord, format!("bad node {name}"))
                    .at_record(ln)
                    .in_field(name)
            })
    };
    let x = coord("x")?;
    let y = coord("y")?;
    let p = Point::new(x, y);
    if !p.is_finite() {
        return Err(SoiError::validation(
            ValidationKind::NonFiniteCoordinate,
            format!("node coordinates ({x}, {y}) are not finite"),
        )
        .at_record(ln));
    }
    Ok(p)
}

fn parse_segment(
    ln: usize,
    line: &str,
    n_streets: usize,
    node_pos: &[Option<Point>],
    chain_tail: &mut [Option<(NodeId, NodeId)>],
) -> Result<(StreetId, NodeId, NodeId)> {
    let mut parts = line.split('\t');
    let mut field = |name: &'static str| -> Result<u32> {
        parts
            .next()
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| {
                SoiError::validation(
                    ValidationKind::MalformedRecord,
                    format!("bad segment {name}"),
                )
                .at_record(ln)
                .in_field(name)
            })
    };
    let street = field("street")?;
    let from = field("from")?;
    let to = field("to")?;
    let dangling = |what: String| {
        Err(SoiError::validation(ValidationKind::DanglingReference, what).at_record(ln))
    };
    if street as usize >= n_streets {
        return dangling(format!(
            "street id {street} out of range ({n_streets} streets)"
        ));
    }
    let n_nodes = node_pos.len();
    for (name, id) in [("from", from), ("to", to)] {
        if id as usize >= n_nodes {
            return dangling(format!("{name} node {id} out of range ({n_nodes} nodes)"));
        }
        if node_pos[id as usize].is_none() {
            return dangling(format!(
                "{name} node {id} was rejected earlier in this load"
            ));
        }
    }
    if from == to || node_pos[from as usize] == node_pos[to as usize] {
        return Err(SoiError::validation(
            ValidationKind::ZeroLengthSegment,
            format!("segment endpoints coincide (nodes {from}, {to})"),
        )
        .at_record(ln));
    }
    let (street_id, from_id, to_id) = (StreetId(street), NodeId(from), NodeId(to));
    // Connected-chain rule (Section 3.1): a street's consecutive kept
    // segments must share a node. Without this check a lenient skip earlier
    // in the street would poison RoadNetwork::build for the whole file.
    if let Some((pf, pt)) = chain_tail[street as usize] {
        if from_id != pf && from_id != pt && to_id != pf && to_id != pt {
            return dangling(format!(
                "segment does not connect to street {street}'s previous segment"
            ));
        }
    }
    chain_tail[street as usize] = Some((from_id, to_id));
    Ok((street_id, from_id, to_id))
}

/// Saves `network` to a file.
pub fn save_network(network: &RoadNetwork, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path).at_path(path)?;
    write_network(network, BufWriter::new(file)).at_path(path)
}

/// Loads a network from a file under the given [`LoadOptions`]. Errors carry
/// the file path.
pub fn load_network_with(
    path: impl AsRef<Path>,
    opts: &LoadOptions,
) -> Result<(RoadNetwork, LoadReport)> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).at_path(path)?;
    read_network_with(BufReader::new(file), opts).at_path(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_common::ErrorCategory;

    fn sample() -> RoadNetwork {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.5, -1.25));
        let n1 = b.add_node(Point::new(2.0, 0.0));
        let n2 = b.add_node(Point::new(2.0, 3.0));
        let s0 = b.add_street("High Street");
        b.add_segment(s0, n0, n1);
        b.add_segment(s0, n1, n2);
        let _empty = b.add_street("Unbuilt Road");
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let net = sample();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let read = read_network(buf.as_slice()).unwrap();
        assert_eq!(read.num_nodes(), net.num_nodes());
        assert_eq!(read.num_segments(), net.num_segments());
        assert_eq!(read.num_streets(), net.num_streets());
        for (a, b) in net.nodes().iter().zip(read.nodes()) {
            assert_eq!(a.pos, b.pos);
        }
        for (a, b) in net.segments().iter().zip(read.segments()) {
            assert_eq!((a.street, a.from, a.to), (b.street, b.from, b.to));
        }
        assert_eq!(read.street(StreetId(0)).name, "High Street");
        assert_eq!(read.street(StreetId(1)).name, "Unbuilt Road");
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_network("wrong\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let net = sample();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(read_network(truncated.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_segment() {
        let text = "# soi-network v1\nnodes 1\n0\t0\nstreets 1\ns\nsegments 1\n0\t0\t5\n";
        let err = read_network(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(
            err.validation_kind(),
            Some(ValidationKind::DanglingReference)
        );
        assert_eq!(err.category(), ErrorCategory::Data);
    }

    #[test]
    fn rejects_oversized_section_count() {
        let text = format!("# soi-network v1\nnodes {}\n", usize::MAX);
        let err = read_network(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn rejects_non_finite_node() {
        let text = "# soi-network v1\nnodes 1\nNaN\t0\nstreets 0\nsegments 0\n";
        let err = read_network(text.as_bytes()).unwrap_err();
        assert_eq!(
            err.validation_kind(),
            Some(ValidationKind::NonFiniteCoordinate)
        );
    }

    #[test]
    fn rejects_zero_length_segment() {
        let text = "# soi-network v1\nnodes 2\n0\t0\n1\t0\nstreets 1\ns\nsegments 1\n0\t1\t1\n";
        let err = read_network(text.as_bytes()).unwrap_err();
        assert_eq!(
            err.validation_kind(),
            Some(ValidationKind::ZeroLengthSegment)
        );
    }

    #[test]
    fn lenient_skips_and_counts() {
        // Node 1 is NaN; segment 1 references it; segment 2 is fine.
        let text = "# soi-network v1\nnodes 3\n0\t0\nNaN\t0\n2\t0\nstreets 2\na\nb\nsegments 2\n0\t0\t1\n1\t0\t2\n";
        let (net, report) = read_network_with(text.as_bytes(), &LoadOptions::lenient()).unwrap();
        assert_eq!(net.num_segments(), 1);
        assert_eq!(report.skipped(ValidationKind::NonFiniteCoordinate), 1);
        assert_eq!(report.skipped(ValidationKind::DanglingReference), 1);
        assert_eq!(report.total_skipped(), 2);
    }

    #[test]
    fn lenient_preserves_chain_invariant() {
        // Street 0 chain 0-1-2-3, with the middle segment zero-length so it
        // is dropped; the follow-up segment no longer connects and must be
        // dropped too, keeping RoadNetwork::build happy.
        let text = "# soi-network v1\nnodes 4\n0\t0\n1\t0\n2\t0\n3\t0\nstreets 1\ns\nsegments 3\n0\t0\t1\n0\t2\t2\n0\t2\t3\n";
        let (net, report) = read_network_with(text.as_bytes(), &LoadOptions::lenient()).unwrap();
        assert_eq!(net.num_segments(), 1);
        assert_eq!(report.skipped(ValidationKind::ZeroLengthSegment), 1);
        assert_eq!(report.skipped(ValidationKind::DanglingReference), 1);
    }

    #[test]
    fn load_errors_carry_path() {
        let err =
            load_network_with("/definitely/not/here.tsv", &LoadOptions::strict()).unwrap_err();
        assert!(err.to_string().contains("here.tsv"), "{err}");
        assert_eq!(err.category(), ErrorCategory::NotFound);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("soi_network_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.tsv");
        let net = sample();
        save_network(&net, &path).unwrap();
        let (read, _) = load_network_with(&path, &LoadOptions::strict()).unwrap();
        assert_eq!(read.num_segments(), net.num_segments());
        std::fs::remove_file(path).ok();
    }
}
