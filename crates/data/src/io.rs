//! Dataset persistence: a directory of TSV files.
//!
//! Layout of a saved dataset directory:
//!
//! ```text
//! <dir>/network.tsv   — road network (see soi_network::io)
//! <dir>/vocab.tsv     — one keyword per line; KeywordId = line order
//! <dir>/pois.tsv      — x \t y \t weight \t k1,k2,...   (PoiId = line order)
//! <dir>/photos.tsv    — x \t y \t k1,k2,...             (PhotoId = line order)
//! <dir>/name.txt      — dataset name (optional; defaults to "unnamed")
//! ```
//!
//! ### Failure semantics
//!
//! [`load_dataset`] parses every record with the record helpers
//! `network.tsv` shares (`soi_common::record`), and the first invalid one
//! aborts the load with a typed error naming the file, the record number
//! and the field. Validation rules checked per record:
//!
//! - coordinates must be finite ([`ValidationKind::NonFiniteCoordinate`]);
//! - POI weights must be finite and non-negative
//!   ([`ValidationKind::InvalidWeight`]);
//! - keyword ids must fall inside the vocabulary
//!   ([`ValidationKind::KeywordOutOfRange`]);
//! - records must have the right field count and parsable numbers
//!   ([`ValidationKind::MalformedRecord`]);
//! - vocabulary terms must be distinct: keyword ids are positional, so a
//!   duplicate could not be dropped without shifting every later id
//!   ([`ValidationKind::MalformedRecord`]).
//!
//! Empty lines of `pois.tsv` and `photos.tsv` are skipped. `name.txt` is
//! optional: a missing file loads as `"unnamed"`, while any other I/O
//! failure (permissions, encoding) propagates — silently renaming a
//! dataset because its directory is unreadable would mask real damage.

use crate::dataset::Dataset;
use crate::photo::PhotoCollection;
use crate::poi::PoiCollection;
use soi_common::record::{for_each_line, parse_coord, split_fields};
use soi_common::{KeywordId, Result, ResultExt, SoiError, ValidationKind};
use soi_geo::Point;
use soi_text::{KeywordSet, Vocabulary};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

fn format_keywords(set: &KeywordSet) -> String {
    let mut s = String::new();
    for (i, k) in set.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&k.raw().to_string());
    }
    s
}

/// Parses a `k1,k2,...` field; `ids` is scratch (one per load, so a record
/// of a few keywords — they live inline in the set — allocates nothing).
fn parse_keywords(field: &str, vocab_len: usize, ids: &mut Vec<KeywordId>) -> Result<KeywordSet> {
    if field.is_empty() {
        return Ok(KeywordSet::empty());
    }
    ids.clear();
    for part in field.split(',') {
        let raw: u32 = part.parse().map_err(|e| {
            SoiError::validation(
                ValidationKind::MalformedRecord,
                format!("bad keyword id {part:?}: {e}"),
            )
        })?;
        if raw as usize >= vocab_len {
            return Err(SoiError::validation(
                ValidationKind::KeywordOutOfRange,
                format!(
                    "keyword id {raw} out of vocabulary range (vocabulary has {vocab_len} terms)"
                ),
            ));
        }
        ids.push(KeywordId(raw));
    }
    ids.sort_unstable();
    ids.dedup();
    // Ascending after the two calls above, so this is the branch that
    // builds the set without a detour through a `Vec` of its own.
    Ok(KeywordSet::from_ascending_iter(ids.iter().copied())
        .unwrap_or_else(|| KeywordSet::from_ids(ids.iter().copied())))
}

/// [`for_each_line`] over the file at `path`; errors name the file.
fn for_each_file_line(path: &Path, record: impl FnMut(&str) -> Result<()>) -> Result<()> {
    let file = std::fs::File::open(path).at_path(path)?;
    for_each_line(BufReader::new(file), record).at_path(path)
}

fn parse_weight(field: &str) -> Result<f64> {
    let w: f64 = field.parse().map_err(|e| {
        SoiError::validation(ValidationKind::MalformedRecord, format!("bad weight: {e}"))
            .in_field("weight")
    })?;
    if !w.is_finite() || w < 0.0 {
        return Err(SoiError::validation(
            ValidationKind::InvalidWeight,
            format!("weight {w} must be finite and non-negative"),
        )
        .in_field("weight"));
    }
    Ok(w)
}

/// Saves `dataset` into directory `dir` (created if missing).
pub fn save_dataset(dataset: &Dataset, dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).at_path(dir)?;

    soi_network::io::save_network(&dataset.network, dir.join("network.tsv"))?;
    let name_path = dir.join("name.txt");
    std::fs::write(&name_path, &dataset.name).at_path(&name_path)?;

    let vocab_path = dir.join("vocab.tsv");
    let mut w = BufWriter::new(std::fs::File::create(&vocab_path).at_path(&vocab_path)?);
    for (_, term) in dataset.vocab.iter() {
        writeln!(w, "{term}").at_path(&vocab_path)?;
    }
    drop(w);

    let pois_path = dir.join("pois.tsv");
    let mut w = BufWriter::new(std::fs::File::create(&pois_path).at_path(&pois_path)?);
    for poi in dataset.pois.iter() {
        writeln!(
            w,
            "{}\t{}\t{}\t{}",
            poi.pos.x,
            poi.pos.y,
            poi.weight,
            format_keywords(&poi.keywords)
        )
        .at_path(&pois_path)?;
    }
    drop(w);

    let photos_path = dir.join("photos.tsv");
    let mut w = BufWriter::new(std::fs::File::create(&photos_path).at_path(&photos_path)?);
    for photo in dataset.photos.iter() {
        writeln!(
            w,
            "{}\t{}\t{}",
            photo.pos.x,
            photo.pos.y,
            format_keywords(&photo.tags)
        )
        .at_path(&photos_path)?;
    }
    Ok(())
}

/// Loads a dataset from directory `dir`.
pub fn load_dataset(dir: impl AsRef<Path>) -> Result<Dataset> {
    let dir = dir.as_ref();
    let network_path = dir.join("network.tsv");
    let file = std::fs::File::open(&network_path).at_path(&network_path)?;
    let network = soi_network::io::read_network(BufReader::new(file)).at_path(&network_path)?;

    // name.txt is optional: absent -> "unnamed". Any other failure
    // (permissions, non-UTF-8 content) is real damage and propagates.
    let name_path = dir.join("name.txt");
    let name = match std::fs::read_to_string(&name_path) {
        Ok(s) => s.trim().to_string(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => "unnamed".to_string(),
        Err(e) => return Err(SoiError::io(e, &name_path)),
    };

    let mut vocab = Vocabulary::new();
    for_each_file_line(&dir.join("vocab.tsv"), |line| {
        let before = vocab.len();
        vocab.intern(line);
        if vocab.len() == before {
            return Err(SoiError::validation(
                ValidationKind::MalformedRecord,
                format!("duplicate vocabulary term {line:?}"),
            ));
        }
        Ok(())
    })?;

    let mut ids = Vec::new();
    let mut pois = PoiCollection::new();
    for_each_file_line(&dir.join("pois.tsv"), |line| {
        if !line.is_empty() {
            let (pos, keywords, weight) = parse_poi(line, vocab.len(), &mut ids)?;
            pois.add_weighted(pos, keywords, weight);
        }
        Ok(())
    })?;

    let mut photos = PhotoCollection::new();
    for_each_file_line(&dir.join("photos.tsv"), |line| {
        if !line.is_empty() {
            let (pos, tags) = parse_photo(line, vocab.len(), &mut ids)?;
            photos.add(pos, tags);
        }
        Ok(())
    })?;

    Ok(Dataset::new(name, network, vocab, pois, photos))
}

fn parse_poi(
    line: &str,
    vocab_len: usize,
    ids: &mut Vec<KeywordId>,
) -> Result<(Point, KeywordSet, f64)> {
    let [x, y, weight, keywords] = split_fields(line, "POI")?;
    let x = parse_coord(x, "x")?;
    let y = parse_coord(y, "y")?;
    let weight = parse_weight(weight)?;
    let keywords = parse_keywords(keywords, vocab_len, ids).map_err(|e| e.in_field("keywords"))?;
    Ok((Point::new(x, y), keywords, weight))
}

fn parse_photo(
    line: &str,
    vocab_len: usize,
    ids: &mut Vec<KeywordId>,
) -> Result<(Point, KeywordSet)> {
    let [x, y, tags] = split_fields(line, "photo")?;
    let x = parse_coord(x, "x")?;
    let y = parse_coord(y, "y")?;
    let tags = parse_keywords(tags, vocab_len, ids).map_err(|e| e.in_field("tags"))?;
    Ok((Point::new(x, y), tags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_common::ErrorCategory;
    use soi_network::RoadNetwork;

    fn sample() -> Dataset {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Road", &[Point::new(0.0, 0.0), Point::new(2.0, 0.0)]);
        let network = b.build().unwrap();
        let mut vocab = Vocabulary::new();
        let shop = vocab.intern("shop");
        let food = vocab.intern("food");
        let mut pois = PoiCollection::new();
        pois.add(Point::new(0.5, 0.1), KeywordSet::from_ids([shop]));
        pois.add_weighted(
            Point::new(1.0, -0.1),
            KeywordSet::from_ids([shop, food]),
            2.0,
        );
        pois.add(Point::new(1.5, 0.0), KeywordSet::empty());
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(0.25, 0.0), KeywordSet::from_ids([food]));
        Dataset::new("sample", network, vocab, pois, photos)
    }

    fn tmp_dataset(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("soi_dataset_io_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        save_dataset(&sample(), &dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip() {
        let dir = tmp_dataset("roundtrip");
        let d = sample();
        let loaded = load_dataset(&dir).unwrap();

        assert_eq!(loaded.name, "sample");
        assert_eq!(loaded.network.num_segments(), d.network.num_segments());
        assert_eq!(loaded.vocab.len(), d.vocab.len());
        assert_eq!(loaded.pois.len(), d.pois.len());
        assert_eq!(loaded.photos.len(), d.photos.len());
        for (a, b) in d.pois.iter().zip(loaded.pois.iter()) {
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.keywords, b.keywords);
            assert_eq!(a.weight, b.weight);
        }
        for (a, b) in d.photos.iter().zip(loaded.photos.iter()) {
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.tags, b.tags);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_out_of_vocab_keyword() {
        let dir = tmp_dataset("bad_keyword");
        std::fs::write(dir.join("pois.tsv"), "0\t0\t1\t99\n").unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(
            err.validation_kind(),
            Some(ValidationKind::KeywordOutOfRange)
        );
        let text = err.to_string();
        assert!(text.contains("pois.tsv"), "{text}");
        assert!(text.contains("record 1"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_non_finite_poi_coordinate() {
        let dir = tmp_dataset("nan_poi");
        std::fs::write(dir.join("pois.tsv"), "NaN\t0\t1\t\n").unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(
            err.validation_kind(),
            Some(ValidationKind::NonFiniteCoordinate)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_negative_weight() {
        let dir = tmp_dataset("neg_weight");
        std::fs::write(dir.join("pois.tsv"), "0\t0\t-3\t\n").unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(err.validation_kind(), Some(ValidationKind::InvalidWeight));
        assert!(err.to_string().contains("field `weight`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_field_count() {
        let dir = tmp_dataset("field_count");
        std::fs::write(dir.join("photos.tsv"), "0\t0\n").unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(err.validation_kind(), Some(ValidationKind::MalformedRecord));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn line_ends_and_record_numbers_are_those_of_bufread_lines() {
        // CRLF and LF line ends mixed, an empty line (skipped, but
        // numbered), a last line without its newline, and keywords out of
        // order and repeated.
        let dir = tmp_dataset("line_ends");
        let pois = "0\t0\t1\t1,0,1\r\n\r\n0.5\t0.25\t2\t\n1\t1\t1\t0";
        std::fs::write(dir.join("pois.tsv"), pois).unwrap();
        let d = load_dataset(&dir).unwrap();
        let got: Vec<(Point, usize, f64)> =
            (d.pois.iter().map(|p| (p.pos, p.keywords.len(), p.weight))).collect();
        let want = [
            (Point::new(0.0, 0.0), 2, 1.0),
            (Point::new(0.5, 0.25), 0, 2.0),
            (Point::new(1.0, 1.0), 1, 1.0),
        ];
        assert_eq!(got, want);
        // A stray `\r` inside a line is content, not a line end: the bad
        // record is the fourth line.
        std::fs::write(dir.join("pois.tsv"), format!("{pois}\r\t9\n")).unwrap();
        let text = load_dataset(&dir).unwrap_err().to_string();
        assert!(
            text.contains("record 4") && text.contains("pois.tsv"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_name_defaults_to_unnamed() {
        let dir = tmp_dataset("no_name");
        std::fs::remove_file(dir.join("name.txt")).unwrap();
        assert_eq!(load_dataset(&dir).unwrap().name, "unnamed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn unreadable_name_propagates() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tmp_dataset("locked_name");
        let name_path = dir.join("name.txt");
        let mut perms = std::fs::metadata(&name_path).unwrap().permissions();
        perms.set_mode(0o000);
        std::fs::set_permissions(&name_path, perms).unwrap();
        // Root bypasses permission checks, so skip the assertion when the
        // open unexpectedly succeeds.
        if std::fs::read_to_string(&name_path).is_err() {
            let err = load_dataset(&dir).unwrap_err();
            assert_eq!(err.category(), ErrorCategory::Io);
            assert!(err.to_string().contains("name.txt"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_vocab_term_is_rejected() {
        let dir = tmp_dataset("dup_vocab");
        std::fs::write(dir.join("vocab.tsv"), "shop\nfood\nshop\n").unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(err.validation_kind(), Some(ValidationKind::MalformedRecord));
        let text = err.to_string();
        assert!(
            text.contains("duplicate") && text.contains("record 3"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dataset_dir_is_not_found() {
        let err = load_dataset("/definitely/not/a/dataset").unwrap_err();
        assert_eq!(err.category(), ErrorCategory::NotFound);
        assert!(err.to_string().contains("network.tsv"), "{err}");
    }

    #[test]
    fn keyword_field_roundtrip() {
        let set = KeywordSet::from_ids([KeywordId(3), KeywordId(0), KeywordId(7)]);
        let s = format_keywords(&set);
        assert_eq!(s, "0,3,7");
        let ids = &mut Vec::new();
        let back = parse_keywords(&s, 10, ids).unwrap();
        assert_eq!(back, set);
        // Out of order, repeated, and more than a set holds inline.
        let many = parse_keywords("9,1,8,2,7,3,6,4,5,9,1", 10, ids).unwrap();
        assert_eq!(many, KeywordSet::from_ids((1..10).map(KeywordId)));
        assert!(parse_keywords("", 10, ids).unwrap().is_empty());
        assert!(parse_keywords("x", 10, ids).is_err());
    }
}
