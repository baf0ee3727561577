//! Fault injection: loading deliberately corrupted datasets must always
//! produce a typed [`SoiError`] naming the file and record — never a
//! panic, never an unbounded allocation.
//!
//! Each test saves a pristine generated dataset, applies one corruption
//! mode, and loads the result. The property tests at the bottom fuzz
//! random byte-level damage over every file of the dataset.

use proptest::prelude::*;
use soi_common::{ErrorCategory, SoiError, ValidationKind};
use soi_data::Dataset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The pristine dataset, saved once per test-binary run.
fn pristine() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("soi_fault_pristine_{}", std::process::id()));
        let (dataset, _) = soi_datagen::generate(&soi_datagen::vienna(0.01));
        soi_data::io::save_dataset(&dataset, &dir).expect("save pristine dataset");
        dir
    })
}

/// A fresh copy of the pristine dataset to corrupt.
fn copy_of_pristine() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "soi_fault_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(pristine()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

fn load(dir: &Path) -> Result<Dataset, SoiError> {
    soi_data::io::load_dataset(dir)
}

/// The file and record (line) number a load error names.
fn position(err: &SoiError) -> (Option<&Path>, usize) {
    match err {
        SoiError::Validation { file, record, .. } => (file.as_deref(), *record),
        SoiError::Parse { file, line, .. } => (file.as_deref(), *line),
        SoiError::Io { path, .. } => (path.as_deref(), 0),
        SoiError::Context { source, .. } => position(source),
        _ => (None, 0),
    }
}

/// Asserts that loading fails with the given category.
fn assert_load_fails(dir: &Path, category: ErrorCategory, what: &str) {
    let err = load(dir)
        .err()
        .unwrap_or_else(|| panic!("{what}: load succeeded"));
    assert_eq!(err.category(), category, "{what}: {err}");
    std::fs::remove_dir_all(dir).ok();
}

/// Asserts that loading rejects record `record` of `file` with `kind`.
fn assert_record_level(dir: &Path, kind: ValidationKind, file: &str, record: usize, what: &str) {
    let err = load(dir)
        .err()
        .unwrap_or_else(|| panic!("{what}: load succeeded"));
    assert_eq!(err.validation_kind(), Some(kind), "{what}: {err}");
    assert_eq!(err.category(), ErrorCategory::Data, "{what}: {err}");
    let path = dir.join(file);
    assert_eq!(
        position(&err),
        (Some(path.as_path()), record),
        "{what}: {err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Lines in `file` of the pristine dataset.
fn pristine_lines(file: &str) -> usize {
    std::fs::read_to_string(pristine().join(file))
        .unwrap()
        .lines()
        .count()
}

/// Rewrites one file through a line-level editing function.
fn edit_lines(dir: &Path, file: &str, f: impl Fn(usize, &str) -> Option<String>) {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).unwrap();
    let out: String = text
        .lines()
        .enumerate()
        .filter_map(|(i, line)| f(i, line).map(|l| format!("{l}\n")))
        .collect();
    std::fs::write(&path, out).unwrap();
}

// --- file-level structural damage ---------------------------------------

#[test]
fn missing_network_file_is_not_found() {
    let dir = copy_of_pristine();
    std::fs::remove_file(dir.join("network.tsv")).unwrap();
    assert_load_fails(&dir, ErrorCategory::NotFound, "missing network.tsv");
}

#[test]
fn missing_vocab_file_is_not_found() {
    let dir = copy_of_pristine();
    std::fs::remove_file(dir.join("vocab.tsv")).unwrap();
    assert_load_fails(&dir, ErrorCategory::NotFound, "missing vocab.tsv");
}

#[test]
fn missing_name_file_recovers_with_warning() {
    // Documented recovery: name.txt is optional metadata; absence loads as
    // "unnamed", any other I/O failure on it is still an error.
    let dir = copy_of_pristine();
    std::fs::remove_file(dir.join("name.txt")).unwrap();
    let dataset = load(&dir).expect("absent name.txt is not fatal");
    assert_eq!(dataset.name, "unnamed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_network_file_is_a_parse_error() {
    let dir = copy_of_pristine();
    std::fs::write(dir.join("network.tsv"), "").unwrap();
    assert_load_fails(&dir, ErrorCategory::Data, "empty network.tsv");
}

#[test]
fn empty_poi_and_photo_files_load_as_empty_collections() {
    let dir = copy_of_pristine();
    std::fs::write(dir.join("pois.tsv"), "").unwrap();
    std::fs::write(dir.join("photos.tsv"), "").unwrap();
    let dataset = load(&dir).expect("empty collections are valid");
    assert_eq!(dataset.pois.len(), 0);
    assert_eq!(dataset.photos.len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_garbage_network_is_an_error() {
    let dir = copy_of_pristine();
    std::fs::write(
        dir.join("network.tsv"),
        [0u8, 159, 146, 150, 255, 0, 13, 10, 7],
    )
    .unwrap();
    assert_load_fails(&dir, ErrorCategory::Data, "binary garbage network.tsv");
}

#[test]
fn bad_utf8_in_pois_is_an_error() {
    let dir = copy_of_pristine();
    let mut bytes = std::fs::read(dir.join("pois.tsv")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = 0xFF;
    bytes[mid + 1] = 0xFE;
    std::fs::write(dir.join("pois.tsv"), bytes).unwrap();
    assert_load_fails(&dir, ErrorCategory::Data, "non-UTF-8 pois.tsv");
}

#[test]
fn truncated_network_is_a_parse_error() {
    let dir = copy_of_pristine();
    let text = std::fs::read_to_string(dir.join("network.tsv")).unwrap();
    let cut: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("network.tsv"), cut).unwrap();
    assert_load_fails(&dir, ErrorCategory::Data, "truncated network.tsv");
}

#[test]
fn bad_network_header_is_a_parse_error() {
    let dir = copy_of_pristine();
    edit_lines(&dir, "network.tsv", |i, line| {
        Some(if i == 0 {
            "# wrong-magic v9".into()
        } else {
            line.into()
        })
    });
    assert_load_fails(&dir, ErrorCategory::Data, "bad header");
}

#[test]
fn oversized_section_count_is_rejected_without_allocating() {
    // A corrupt count must not drive `Vec::with_capacity` — the reader
    // caps section counts long before reserving memory.
    let dir = copy_of_pristine();
    edit_lines(&dir, "network.tsv", |i, line| {
        Some(if i == 1 {
            "nodes 99999999999999".into()
        } else {
            line.into()
        })
    });
    assert_load_fails(&dir, ErrorCategory::Data, "oversized node count");
}

#[test]
fn a_line_after_the_last_segment_is_a_parse_error() {
    // A second segment record and a garbage line beyond the declared count.
    let n_lines = pristine_lines("network.tsv");
    let dir = copy_of_pristine();
    let text = std::fs::read_to_string(dir.join("network.tsv")).unwrap();
    let last = text.lines().last().unwrap();
    std::fs::write(
        dir.join("network.tsv"),
        format!("{text}{last}\nnot a record\n"),
    )
    .unwrap();
    let err = load(&dir)
        .err()
        .unwrap_or_else(|| panic!("trailing records accepted"));
    assert_eq!(err.category(), ErrorCategory::Data, "{err}");
    assert_eq!(err.validation_kind(), None, "{err}");
    let path = dir.join("network.tsv");
    assert_eq!(position(&err), (Some(path.as_path()), n_lines + 1), "{err}");

    // Blank lines after the last segment stay accepted.
    std::fs::write(dir.join("network.tsv"), format!("{text}\n \n")).unwrap();
    let loaded = load(&dir).expect("trailing blank lines are not records");
    let pristine = load(pristine()).unwrap();
    assert_eq!(
        loaded.network.num_segments(),
        pristine.network.num_segments()
    );
    std::fs::remove_dir_all(&dir).ok();
}

// --- record-level damage: the load aborts at the first invalid record ----

#[test]
fn shuffled_poi_fields_are_malformed_records() {
    // Keywords where the x coordinate belongs: field order violated.
    let dir = copy_of_pristine();
    edit_lines(&dir, "pois.tsv", |i, line| {
        Some(if i == 2 {
            let fields: Vec<&str> = line.split('\t').collect();
            format!("{}\t{}\t{}\t{}", fields[3], fields[1], fields[2], fields[0])
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::MalformedRecord,
        "pois.tsv",
        3,
        "shuffled poi fields",
    );
}

#[test]
fn a_short_poi_record_is_rejected_at_its_line() {
    // One bad record among many clean ones.
    let dir = copy_of_pristine();
    edit_lines(&dir, "pois.tsv", |i, line| {
        Some(if i == 3 {
            "what is a coordinate\teven".into()
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::MalformedRecord,
        "pois.tsv",
        4,
        "two-field poi record",
    );
}

#[test]
fn extra_fields_in_network_records_are_malformed() {
    // A third field on the first node record, as `pois.tsv` rejects a fifth.
    let dir = copy_of_pristine();
    edit_lines(&dir, "network.tsv", |i, line| {
        Some(if i == 2 {
            format!("{line}\t99")
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::MalformedRecord,
        "network.tsv",
        3,
        "node record with 3 fields",
    );

    // A fourth field on the last segment record.
    let n_lines = pristine_lines("network.tsv");
    let dir = copy_of_pristine();
    edit_lines(&dir, "network.tsv", |i, line| {
        Some(if i == n_lines - 1 {
            format!("{line}\textra")
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::MalformedRecord,
        "network.tsv",
        n_lines,
        "segment record with 4 fields",
    );
}

#[test]
fn non_finite_photo_coordinates_are_rejected() {
    let dir = copy_of_pristine();
    edit_lines(&dir, "photos.tsv", |i, line| {
        Some(match i {
            0 => {
                let rest = line.split_once('\t').unwrap().1;
                format!("NaN\t{rest}")
            }
            1 => {
                let rest = line.split_once('\t').unwrap().1;
                format!("inf\t{rest}")
            }
            _ => line.into(),
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::NonFiniteCoordinate,
        "photos.tsv",
        1,
        "NaN/inf photo coordinates",
    );
}

#[test]
fn negative_poi_weight_is_rejected() {
    let dir = copy_of_pristine();
    edit_lines(&dir, "pois.tsv", |i, line| {
        Some(if i == 0 {
            let fields: Vec<&str> = line.split('\t').collect();
            format!("{}\t{}\t-7.5\t{}", fields[0], fields[1], fields[3])
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::InvalidWeight,
        "pois.tsv",
        1,
        "negative poi weight",
    );
}

#[test]
fn oversized_keyword_ids_are_rejected() {
    let dir = copy_of_pristine();
    edit_lines(&dir, "pois.tsv", |i, line| {
        Some(if i == 1 {
            let fields: Vec<&str> = line.split('\t').collect();
            format!("{}\t{}\t{}\t4294967295", fields[0], fields[1], fields[2])
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::KeywordOutOfRange,
        "pois.tsv",
        2,
        "keyword id beyond vocab",
    );
}

#[test]
fn dangling_segment_reference_is_rejected() {
    // The last segment line references a node that does not exist.
    let n_lines = pristine_lines("network.tsv");
    let dir = copy_of_pristine();
    edit_lines(&dir, "network.tsv", |i, line| {
        Some(if i == n_lines - 1 {
            let street = line.split('\t').next().unwrap().to_string();
            format!("{street}\t999999\t999998")
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::DanglingReference,
        "network.tsv",
        n_lines,
        "dangling segment",
    );
}

#[test]
fn zero_length_segment_is_rejected() {
    let n_lines = pristine_lines("network.tsv");
    let dir = copy_of_pristine();
    edit_lines(&dir, "network.tsv", |i, line| {
        Some(if i == n_lines - 1 {
            let mut fields = line.split('\t');
            let street = fields.next().unwrap();
            let from = fields.next().unwrap();
            format!("{street}\t{from}\t{from}")
        } else {
            line.into()
        })
    });
    assert_record_level(
        &dir,
        ValidationKind::ZeroLengthSegment,
        "network.tsv",
        n_lines,
        "zero-length segment",
    );
}

#[test]
fn duplicate_vocab_terms_are_rejected() {
    // Keyword ids are positional: a duplicate term cannot be dropped
    // without shifting every later id, so it aborts the load.
    let n_lines = pristine_lines("vocab.tsv");
    let dir = copy_of_pristine();
    let vocab = std::fs::read_to_string(dir.join("vocab.tsv")).unwrap();
    let first = vocab.lines().next().unwrap().to_string();
    std::fs::write(dir.join("vocab.tsv"), format!("{vocab}{first}\n")).unwrap();
    assert_record_level(
        &dir,
        ValidationKind::MalformedRecord,
        "vocab.tsv",
        n_lines + 1,
        "duplicate vocab term",
    );
}

// --- randomized damage: whatever the corruption, loading never panics ----

const DATASET_FILES: &[&str] = &[
    "network.tsv",
    "name.txt",
    "vocab.tsv",
    "pois.tsv",
    "photos.tsv",
];

/// Loads, discarding the result: reaching the end of this function (rather
/// than unwinding) is the property under test.
fn load_must_not_panic(dir: &Path) {
    let _ = load(dir);
}

proptest! {
    #[test]
    fn random_byte_flips_never_panic(
        file in 0usize..5,
        pos in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        let dir = copy_of_pristine();
        let path = dir.join(DATASET_FILES[file]);
        let mut bytes = std::fs::read(&path).unwrap();
        if !bytes.is_empty() {
            let i = ((bytes.len() - 1) as f64 * pos) as usize;
            bytes[i] = byte;
            std::fs::write(&path, bytes).unwrap();
        }
        load_must_not_panic(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn random_truncations_never_panic(file in 0usize..5, keep in 0.0f64..1.0) {
        let dir = copy_of_pristine();
        let path = dir.join(DATASET_FILES[file]);
        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * keep) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();
        load_must_not_panic(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn random_line_swaps_never_panic(file in 0usize..5, a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let dir = copy_of_pristine();
        let path = dir.join(DATASET_FILES[file]);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.len() >= 2 {
            let i = ((lines.len() - 1) as f64 * a) as usize;
            let j = ((lines.len() - 1) as f64 * b) as usize;
            lines.swap(i, j);
            let out: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, out).unwrap();
        }
        load_must_not_panic(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn random_record_splices_never_panic(
        file in 0usize..5,
        at in 0.0f64..1.0,
        junk in ".*",
    ) {
        // Replace one whole line with adversarial unicode.
        let dir = copy_of_pristine();
        let path = dir.join(DATASET_FILES[file]);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if !lines.is_empty() {
            let i = ((lines.len() - 1) as f64 * at) as usize;
            lines[i] = junk.replace('\n', " ");
            let out: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, out).unwrap();
        }
        load_must_not_panic(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_datasets_are_always_queryable(file in 0usize..5, at in 0.0f64..1.0) {
        // Beyond not panicking: every dataset that loads after the damage
        // is structurally sound, and the query pipeline accepts it.
        let dir = copy_of_pristine();
        let path = dir.join(DATASET_FILES[file]);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if !lines.is_empty() {
            let i = ((lines.len() - 1) as f64 * at) as usize;
            lines[i] = "garbage\trecord".into();
            let out: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, out).unwrap();
        }
        if let Ok(dataset) = load(&dir) {
            let index = soi_index::PoiIndex::build(&dataset.network, &dataset.pois, 0.001);
            let query = soi_core::soi::SoiQuery::new(
                dataset.query_keywords(&["shop"]),
                5,
                0.0005,
            )
            .unwrap();
            let outcome = soi_core::soi::run_soi(
                &dataset.network,
                &dataset.pois,
                &index,
                &query,
            );
            prop_assert!(outcome.is_ok(), "loaded dataset rejected by run_soi");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
