//! Fault injection: loading deliberately corrupted datasets must always
//! produce a typed [`SoiError`] or a documented lenient recovery — never a
//! panic, never an unbounded allocation.
//!
//! Each test saves a pristine generated dataset, applies one corruption
//! mode, and loads the result under both `Strict` and `Lenient` options.
//! The property tests at the bottom fuzz random byte-level damage over
//! every file of the dataset.

use proptest::prelude::*;
use soi_common::{ErrorCategory, LoadOptions, LoadReport, SoiError, ValidationKind};
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

fn load_strict(dir: &Path) -> Result<(Dataset, LoadReport), SoiError> {
    soi_data::io::load_dataset_with(dir, &LoadOptions::strict())
}

fn load_lenient(dir: &Path) -> Result<(Dataset, LoadReport), SoiError> {
    soi_data::io::load_dataset_with(dir, &LoadOptions::lenient())
}

/// Asserts that both modes fail with the given category (structural damage
/// has no lenient recovery).
fn assert_both_modes_fail(dir: &Path, category: ErrorCategory, what: &str) {
    for (mode, res) in [("strict", load_strict(dir)), ("lenient", load_lenient(dir))] {
        let err = res
            .err()
            .unwrap_or_else(|| panic!("{what}: {mode} load succeeded"));
        assert_eq!(err.category(), category, "{what} ({mode}): {err}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Asserts strict rejects with `kind` while lenient recovers, skipping
/// exactly `skipped` records of that kind.
fn assert_record_level(dir: &Path, kind: ValidationKind, skipped: u64, what: &str) {
    let err = load_strict(dir)
        .err()
        .unwrap_or_else(|| panic!("{what}: strict load succeeded"));
    assert_eq!(err.validation_kind(), Some(kind), "{what}: {err}");
    assert_eq!(err.category(), ErrorCategory::Data, "{what}: {err}");

    let (_, report) = load_lenient(dir).unwrap_or_else(|e| panic!("{what}: lenient failed: {e}"));
    assert_eq!(report.skipped(kind), skipped, "{what}: report {report}");
    std::fs::remove_dir_all(dir).ok();
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
    assert_both_modes_fail(&dir, ErrorCategory::NotFound, "missing network.tsv");
}

#[test]
fn missing_vocab_file_is_not_found() {
    let dir = copy_of_pristine();
    std::fs::remove_file(dir.join("vocab.tsv")).unwrap();
    assert_both_modes_fail(&dir, ErrorCategory::NotFound, "missing vocab.tsv");
}

#[test]
fn missing_name_file_recovers_with_warning() {
    // Documented recovery: name.txt is optional metadata; absence is a
    // warning, any other I/O failure on it is still an error.
    let dir = copy_of_pristine();
    std::fs::remove_file(dir.join("name.txt")).unwrap();
    for res in [load_strict(&dir), load_lenient(&dir)] {
        let (dataset, report) = res.expect("absent name.txt is not fatal");
        assert_eq!(dataset.name, "unnamed");
        assert!(report.warnings.iter().any(|w| w.contains("name.txt")));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_network_file_is_a_parse_error() {
    let dir = copy_of_pristine();
    std::fs::write(dir.join("network.tsv"), "").unwrap();
    assert_both_modes_fail(&dir, ErrorCategory::Data, "empty network.tsv");
}

#[test]
fn empty_poi_and_photo_files_load_as_empty_collections() {
    let dir = copy_of_pristine();
    std::fs::write(dir.join("pois.tsv"), "").unwrap();
    std::fs::write(dir.join("photos.tsv"), "").unwrap();
    let (dataset, report) = load_strict(&dir).expect("empty collections are valid");
    assert_eq!(dataset.pois.len(), 0);
    assert_eq!(dataset.photos.len(), 0);
    assert!(report.is_clean());
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
    for (mode, res) in [
        ("strict", load_strict(&dir)),
        ("lenient", load_lenient(&dir)),
    ] {
        assert!(res.is_err(), "{mode} load of binary garbage succeeded");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_utf8_in_pois_is_an_error() {
    let dir = copy_of_pristine();
    let mut bytes = std::fs::read(dir.join("pois.tsv")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = 0xFF;
    bytes[mid + 1] = 0xFE;
    std::fs::write(dir.join("pois.tsv"), bytes).unwrap();
    for (mode, res) in [
        ("strict", load_strict(&dir)),
        ("lenient", load_lenient(&dir)),
    ] {
        assert!(res.is_err(), "{mode} load of non-UTF-8 pois.tsv succeeded");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_network_is_a_parse_error() {
    let dir = copy_of_pristine();
    let text = std::fs::read_to_string(dir.join("network.tsv")).unwrap();
    let cut: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("network.tsv"), cut).unwrap();
    assert_both_modes_fail(&dir, ErrorCategory::Data, "truncated network.tsv");
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
    assert_both_modes_fail(&dir, ErrorCategory::Data, "bad header");
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
    assert_both_modes_fail(&dir, ErrorCategory::Data, "oversized node count");
}

// --- record-level damage: strict aborts, lenient skips and counts --------

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
        1,
        "shuffled poi fields",
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
        2,
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
        1,
        "keyword id beyond vocab",
    );
}

#[test]
fn dangling_segment_reference_is_rejected() {
    let dir = copy_of_pristine();
    // The last segment line references a node that does not exist. Editing
    // the last line cannot break any later segment's chain.
    let n_lines = std::fs::read_to_string(dir.join("network.tsv"))
        .unwrap()
        .lines()
        .count();
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
        1,
        "dangling segment",
    );
}

#[test]
fn zero_length_segment_is_rejected() {
    let dir = copy_of_pristine();
    let n_lines = std::fs::read_to_string(dir.join("network.tsv"))
        .unwrap()
        .lines()
        .count();
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
        1,
        "zero-length segment",
    );
}

#[test]
fn duplicate_vocab_terms_strict_rejects_lenient_preserves_ids() {
    let dir = copy_of_pristine();
    let vocab = std::fs::read_to_string(dir.join("vocab.tsv")).unwrap();
    let first = vocab.lines().next().unwrap().to_string();
    std::fs::write(dir.join("vocab.tsv"), format!("{vocab}{first}\n")).unwrap();

    let err = load_strict(&dir)
        .err()
        .unwrap_or_else(|| panic!("duplicate vocab term accepted strictly"));
    assert_eq!(
        err.validation_kind(),
        Some(ValidationKind::MalformedRecord),
        "{err}"
    );

    // Lenient keeps the id space positional: the duplicate line still
    // occupies an id (so POI/photo keyword ids stay valid), under a
    // disambiguated placeholder term.
    let pristine_len = load_strict(pristine()).unwrap().0.vocab.len();
    let (dataset, report) = load_lenient(&dir).expect("lenient recovers from duplicate term");
    assert_eq!(dataset.vocab.len(), pristine_len + 1);
    assert_eq!(report.skipped(ValidationKind::MalformedRecord), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lenient_recovery_preserves_all_clean_records() {
    // One bad record among many: the lenient load keeps everything else.
    let pristine_pois = load_strict(pristine()).unwrap().0.pois.len();
    let dir = copy_of_pristine();
    edit_lines(&dir, "pois.tsv", |i, line| {
        Some(if i == 3 {
            "what is a coordinate\teven".into()
        } else {
            line.into()
        })
    });
    let (dataset, report) = load_lenient(&dir).unwrap();
    assert_eq!(dataset.pois.len(), pristine_pois - 1);
    assert_eq!(report.total_skipped(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

// --- randomized damage: whatever the corruption, loading never panics ----

const DATASET_FILES: &[&str] = &[
    "network.tsv",
    "name.txt",
    "vocab.tsv",
    "pois.tsv",
    "photos.tsv",
];

/// Loads under both modes, discarding results: reaching the end of this
/// function (rather than unwinding) is the property under test.
fn load_both_modes_must_not_panic(dir: &Path) {
    let _ = load_strict(dir);
    let _ = load_lenient(dir);
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
        load_both_modes_must_not_panic(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn random_truncations_never_panic(file in 0usize..5, keep in 0.0f64..1.0) {
        let dir = copy_of_pristine();
        let path = dir.join(DATASET_FILES[file]);
        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * keep) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();
        load_both_modes_must_not_panic(&dir);
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
        load_both_modes_must_not_panic(&dir);
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
        load_both_modes_must_not_panic(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_lenient_datasets_are_always_queryable(file in 0usize..5, at in 0.0f64..1.0) {
        // Beyond not panicking: whatever survives a lenient load must be a
        // structurally sound dataset the query pipeline accepts.
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
        if let Ok((dataset, _)) = load_lenient(&dir) {
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
            prop_assert!(outcome.is_ok(), "lenient-loaded dataset rejected by run_soi");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
