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
//! Records are parsed with the record helpers every dataset file shares
//! (`soi_common::record`): the first invalid record aborts with a typed
//! [`SoiError`] carrying its [`ValidationKind`], record number and field,
//! and the dataset loader adds the file path. A record with more or fewer
//! fields than its section's is malformed; a node coordinate must be
//! finite; a segment must name an existing street and two existing, distinct
//! nodes, and connect to its street's previous segment (the chain rule of
//! Section 3.1). Structural damage — a bad header, a missing or oversized
//! section count, a truncated file, non-UTF-8 bytes, a non-blank line after
//! the last segment record — is a parse error at its line (line 0 for an
//! early end of file).

use crate::network::{NetworkBuilder, RoadNetwork};
use soi_common::record::{for_each_line, parse_coord, split_fields};
use soi_common::{NodeId, Result, ResultExt, SoiError, StreetId, ValidationKind};
use soi_geo::Point;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

const HEADER: &str = "# soi-network v1";

/// The sections in file order: the keyword of the count line and the name
/// of one record.
const SECTIONS: [(&str, &str); 3] = [
    ("nodes", "node"),
    ("streets", "street"),
    ("segments", "segment"),
];

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

/// Reads a network in the TSV format.
pub fn read_network<R: BufRead>(r: R) -> Result<RoadNetwork> {
    let mut b = NetworkBuilder::default();
    // Node positions, for the coincident-endpoint check.
    let mut nodes: Vec<Point> = Vec::new();
    // Per street: the endpoints of its last segment, for the chain rule.
    let mut chain_tail: Vec<Option<(NodeId, NodeId)>> = Vec::new();
    let mut header = false;
    // The section being read (index into SECTIONS) and, once its count
    // line is read, how many of its records are left.
    let (mut section, mut left) = (0, None);
    for_each_line(r, |line| {
        if !header {
            if line.trim() != HEADER {
                return Err(SoiError::parse(0, format!("bad header {line:?}")));
            }
            header = true;
            return Ok(());
        }
        let Some(&(name, _)) = SECTIONS.get(section) else {
            if line.trim().is_empty() {
                return Ok(());
            }
            return Err(SoiError::parse(
                0,
                "unexpected line after the last segment record",
            ));
        };
        let n = match left {
            None => section_count(line, name)?,
            Some(n) => {
                match section {
                    0 => {
                        let p = parse_node(line)?;
                        b.add_node(p);
                        nodes.push(p);
                    }
                    1 => {
                        b.add_street(line);
                        chain_tail.push(None);
                    }
                    _ => {
                        let (street, from, to) = parse_segment(line, &nodes, &mut chain_tail)?;
                        b.add_segment(street, from, to);
                    }
                }
                n - 1
            }
        };
        // A section ends after its last record.
        left = (n > 0).then_some(n);
        section += usize::from(n == 0);
        Ok(())
    })?;
    let expect = match (header, SECTIONS.get(section), left) {
        (false, ..) => "header".to_string(),
        (true, Some((name, _)), None) => format!("{name} section"),
        (true, Some((_, record)), Some(_)) => format!("{record} record"),
        (true, None, _) => return b.build(),
    };
    Err(SoiError::parse(
        0,
        format!("unexpected EOF, expected {expect}"),
    ))
}

/// The count of a `name <count>` line.
fn section_count(line: &str, name: &str) -> Result<usize> {
    let rest = line
        .strip_prefix(name)
        .ok_or_else(|| SoiError::parse(0, format!("expected `{name} <count>`")))?;
    let count = rest
        .trim()
        .parse::<usize>()
        .map_err(|e| SoiError::parse(0, format!("bad count: {e}")))?;
    if count > MAX_SECTION_COUNT {
        return Err(SoiError::parse(
            0,
            format!("section count {count} exceeds the {MAX_SECTION_COUNT} limit"),
        ));
    }
    Ok(count)
}

fn parse_node(line: &str) -> Result<Point> {
    let [x, y] = split_fields(line, "node")?;
    match (parse_coord(x, "x"), parse_coord(y, "y")) {
        (Ok(x), Ok(y)) => Ok(Point::new(x, y)),
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
        // Both fields parse before either is checked for finiteness, so a
        // y that does not parse outranks an x that is not finite.
        (Err(ex), Err(ey)) => Err(
            if ex.validation_kind() == Some(ValidationKind::MalformedRecord) {
                ex
            } else {
                ey
            },
        ),
    }
}

fn parse_id(field: &str, name: &'static str) -> Result<u32> {
    field.parse().map_err(|e| {
        SoiError::validation(ValidationKind::MalformedRecord, format!("bad {name}: {e}"))
            .in_field(name)
    })
}

fn parse_segment(
    line: &str,
    nodes: &[Point],
    chain_tail: &mut [Option<(NodeId, NodeId)>],
) -> Result<(StreetId, NodeId, NodeId)> {
    let [street, from, to] = split_fields(line, "segment")?;
    let street = parse_id(street, "street")?;
    let from = parse_id(from, "from")?;
    let to = parse_id(to, "to")?;
    let dangling = |what: String| {
        Err(SoiError::validation(
            ValidationKind::DanglingReference,
            what,
        ))
    };
    let n_streets = chain_tail.len();
    if street as usize >= n_streets {
        return dangling(format!(
            "street id {street} out of range ({n_streets} streets)"
        ));
    }
    for (name, id) in [("from", from), ("to", to)] {
        if id as usize >= nodes.len() {
            return dangling(format!(
                "{name} node {id} out of range ({} nodes)",
                nodes.len()
            ));
        }
    }
    if from == to || nodes[from as usize] == nodes[to as usize] {
        return Err(SoiError::validation(
            ValidationKind::ZeroLengthSegment,
            format!("segment endpoints coincide (nodes {from}, {to})"),
        ));
    }
    let (street_id, from_id, to_id) = (StreetId(street), NodeId(from), NodeId(to));
    // Connected-chain rule (Section 3.1): a street's consecutive segments
    // must share a node. Checked here so the error names the record.
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
    fn rejects_a_break_in_a_streets_chain() {
        // Street 0's second segment shares no node with its first.
        let text = "# soi-network v1\nnodes 4\n0\t0\n1\t0\n2\t0\n3\t0\nstreets 1\ns\nsegments 2\n0\t0\t1\n0\t2\t3\n";
        let err = read_network(text.as_bytes()).unwrap_err();
        assert_eq!(
            err.validation_kind(),
            Some(ValidationKind::DanglingReference)
        );
        assert!(err.to_string().contains("record 11"), "{err}");
    }

    #[test]
    fn rejects_extra_fields_and_trailing_records() {
        let net = "# soi-network v1\nnodes 2\n0\t0\n1\t0\nstreets 1\ns\nsegments 1\n0\t0\t1\n";
        assert!(read_network(format!("{net}\n  \n").as_bytes()).is_ok());
        let err = read_network(net.replace("1\t0\n", "1\t0\t9\n").as_bytes()).unwrap_err();
        assert_eq!(err.validation_kind(), Some(ValidationKind::MalformedRecord));
        assert!(err.to_string().contains("record 4"), "{err}");
        let err = read_network(format!("{net}0\t1\t0\n").as_bytes()).unwrap_err();
        assert_eq!(err.validation_kind(), None);
        assert_eq!(err.category(), ErrorCategory::Data);
        assert!(err.to_string().contains("record 9"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("soi_network_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.tsv");
        let net = sample();
        save_network(&net, &path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let read = read_network(std::io::BufReader::new(file)).unwrap();
        assert_eq!(read.num_segments(), net.num_segments());
        std::fs::remove_file(path).ok();
    }
}
