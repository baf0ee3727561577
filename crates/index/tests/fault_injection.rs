//! Fault-injection suite for bundle snapshots.
//!
//! The container's own unit tests cover each corruption mode against a toy
//! two-section file; this suite drives the same faults through the full
//! bundle path — a real `PoiIndex`/`PhotoGrid` snapshot
//! read via [`soi_index::read_bundle`] and [`soi_index::IndexCache`] — and
//! checks the contract end to end:
//!
//! - every corruption surfaces as a categorized `Data` error (CLI exit
//!   code 3) carrying the snapshot path — never a panic;
//! - the cache treats a corrupt snapshot as a miss: rebuild, rewrite, and
//!   the *next* start hits.
//!
//! Below the container sits the section set of format version 5 — the POI
//! index's primary columns and the photo grid, every cell- or run-keyed map
//! a `Csr` column pair (`.s` row starts, `.i` items). A file whose checksums
//! are all valid but whose columns disagree with each other, the grid or
//! the dataset is the same `Data` error, and a file of another format
//! version names both versions.
//!
//! The section set itself is pinned: a bundle holds the `cache.meta` stamp,
//! the POI grid index and the photo grid, and nothing else; a stamp whose
//! flags word is set (an older writer's persisted IR-tree) reads as stale.

use soi_common::{CellId, ErrorCategory, KeywordId, PoiId};
use soi_data::{Dataset, PhotoCollection, PoiCollection};
use soi_geo::Point;
use soi_index::snapshot::{write_photo_grid, write_poi_index};
use soi_index::{
    dataset_fingerprint, read_bundle, write_bundle, BundleParams, CacheOutcome, IndexCache,
    ReadOutcome,
};
use soi_network::RoadNetwork;
use soi_snapshot::{
    fnv1a64, Snapshot, SnapshotWriter, FORMAT_VERSION, HEADER_LEN, TABLE_ENTRY_LEN,
};
use soi_text::{KeywordSet, Vocabulary};
use std::path::PathBuf;

/// A path no other call shares: tests of this binary run in parallel and
/// two of them write (and remove) the pristine image.
fn temp_path(name: &str) -> PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "soi-fault-{}-{}-{name}.soisnap",
        std::process::id(),
        CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

fn kws(ids: &[u32]) -> KeywordSet {
    KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
}

/// A small but multi-street dataset: enough POIs and photos that every
/// section of the bundle snapshot is non-trivial.
fn sample_dataset() -> Dataset {
    let mut b = RoadNetwork::builder();
    b.add_street_from_points(
        "Alpha",
        &[
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
        ],
    );
    b.add_street_from_points("Beta", &[Point::new(0.0, 2.0), Point::new(6.0, 2.0)]);
    b.add_street_from_points("Gamma", &[Point::new(2.0, 0.0), Point::new(2.0, 4.0)]);
    let network = b.build().unwrap();

    let mut vocab = Vocabulary::new();
    for term in ["cafe", "bar", "museum", "park", "shop", "hotel"] {
        vocab.intern(term);
    }
    let mut pois = PoiCollection::new();
    let mut photos = PhotoCollection::new();
    let mut x: u64 = 0x0DDB_A11C_AFEF_00D5;
    for i in 0..300 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let px = (x % 600) as f64 / 100.0;
        let py = ((x >> 17) % 400) as f64 / 100.0;
        let k1 = (x % 6) as u32;
        let k2 = ((x >> 23) % 6) as u32;
        if i % 3 == 0 {
            photos.add(Point::new(px, py), kws(&[k1]));
        } else {
            pois.add_weighted(Point::new(px, py), kws(&[k1, k2]), 1.0 + (x % 4) as f64);
        }
    }
    Dataset::new("fault-sample", network, vocab, pois, photos)
}

/// The shape of `soi serve`'s parameters: both grids at one cell size
/// (`2ε` there), no inert field set.
fn params() -> BundleParams {
    BundleParams {
        poi_cell: 0.5,
        pg_cell: 0.5,
        eps: None,
        with_ir: false,
        threads: 1,
    }
}

/// The pristine snapshot image for `dataset`.
fn pristine_image(dataset: &Dataset) -> Vec<u8> {
    let path = temp_path("pristine");
    let bundle = soi_index::build_bundle(dataset, &params());
    write_bundle(&path, dataset, &bundle, &params()).unwrap();
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    image
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(b[at..at + 8].try_into().unwrap())
}

/// Rewrites the header's table checksum so table edits reach the *next*
/// validation layer instead of tripping the checksum.
fn fix_table_checksum(b: &mut [u8]) {
    let n = read_u32(b, 16) as usize;
    let table = fnv1a64(&b[HEADER_LEN..HEADER_LEN + n * TABLE_ENTRY_LEN]);
    b[24..32].copy_from_slice(&table.to_ne_bytes());
}

/// Applies `mutate` to a copy of `image`, reads it as a bundle, and
/// returns the outcome. The mutated file is removed afterwards.
fn read_mutated(
    name: &str,
    dataset: &Dataset,
    image: &[u8],
    mutate: impl FnOnce(&mut Vec<u8>),
) -> soi_common::Result<ReadOutcome> {
    let path = temp_path(name);
    let mut bytes = image.to_vec();
    mutate(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let out = read_bundle(&path, dataset, &params());
    std::fs::remove_file(&path).ok();
    out
}

type Mutator = Box<dyn FnOnce(&mut Vec<u8>)>;

#[test]
fn every_corruption_mode_is_a_data_error_with_path() {
    let dataset = sample_dataset();
    let image = pristine_image(&dataset);
    let payload_start = {
        // First section's offset: everything after it is payload bytes.
        read_u64(&image, HEADER_LEN + 16) as usize
    };
    let cases: Vec<(&str, Mutator)> = vec![
        ("bad-magic", Box::new(|b: &mut Vec<u8>| b[0] = b'X')),
        (
            "unknown-version",
            Box::new(|b: &mut Vec<u8>| b[8..12].copy_from_slice(&0x7F7F_7F7Fu32.to_ne_bytes())),
        ),
        (
            "wrong-endianness",
            Box::new(|b: &mut Vec<u8>| b[12..16].reverse()),
        ),
        (
            "truncated-header",
            Box::new(|b: &mut Vec<u8>| b.truncate(10)),
        ),
        (
            "truncated-table",
            Box::new(|b: &mut Vec<u8>| b.truncate(HEADER_LEN + TABLE_ENTRY_LEN / 2)),
        ),
        (
            "truncated-payload",
            Box::new(|b: &mut Vec<u8>| {
                let l = b.len();
                b.truncate(l - 7);
            }),
        ),
        (
            "flipped-payload-first",
            Box::new(move |b: &mut Vec<u8>| b[payload_start] ^= 0x01),
        ),
        (
            "flipped-payload-last",
            Box::new(|b: &mut Vec<u8>| {
                let l = b.len();
                b[l - 1] ^= 0x80;
            }),
        ),
        (
            "flipped-payload-middle",
            Box::new(move |b: &mut Vec<u8>| {
                let mid = payload_start + (b.len() - payload_start) / 2;
                b[mid] ^= 0x10;
            }),
        ),
        (
            "zeroed-page",
            Box::new(move |b: &mut Vec<u8>| {
                let end = (payload_start + 4096).min(b.len());
                b[payload_start..end].fill(0);
            }),
        ),
        (
            "flipped-table-byte",
            Box::new(|b: &mut Vec<u8>| b[HEADER_LEN + 17] ^= 0x01),
        ),
        (
            "section-out-of-bounds",
            Box::new(|b: &mut Vec<u8>| {
                let file_len = b.len() as u64;
                b[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&file_len.to_ne_bytes());
                fix_table_checksum(b);
            }),
        ),
        (
            "section-overlap",
            Box::new(|b: &mut Vec<u8>| {
                let off0 = read_u64(b, HEADER_LEN + 16);
                let aligned = off0.div_ceil(8) * 8;
                let e1 = HEADER_LEN + TABLE_ENTRY_LEN;
                b[e1 + 16..e1 + 24].copy_from_slice(&aligned.to_ne_bytes());
                fix_table_checksum(b);
            }),
        ),
        (
            "section-count-overflow",
            Box::new(|b: &mut Vec<u8>| b[16..20].copy_from_slice(&u32::MAX.to_ne_bytes())),
        ),
    ];
    for (name, mutate) in cases {
        let err = match read_mutated(name, &dataset, &image, mutate) {
            Err(err) => err,
            Ok(out) => panic!("case {name}: corruption not detected ({out:?})"),
        };
        assert_eq!(
            err.category(),
            ErrorCategory::Data,
            "case {name}: wrong category for {err}"
        );
        assert_eq!(err.category().exit_code(), 3, "case {name}");
        assert!(
            err.to_string().contains(".soisnap"),
            "case {name}: error must carry the snapshot path: {err}"
        );
    }
}

/// Every single-byte flip anywhere in the file must surface as a `Data`
/// error (payloads and the table are checksummed; the header is fully
/// validated) — and must never panic. Alignment padding between sections
/// is the one region no checksum covers; flips there may load cleanly,
/// which is fine: padding bytes are never read.
#[test]
fn random_byte_flips_never_panic() {
    let dataset = sample_dataset();
    let image = pristine_image(&dataset);
    let mut x: u64 = 0xFEED_FACE_CAFE_BEEF;
    for round in 0..64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = (x % image.len() as u64) as usize;
        let bit = 1u8 << (x >> 32 & 7);
        let out = read_mutated("bitflip", &dataset, &image, |b| b[at] ^= bit);
        // A flip in alignment padding (or one that keeps the stamp valid
        // but changes its meaning) may read as clean or stale; any error
        // must be the categorized corruption kind.
        if let Err(err) = out {
            assert_eq!(
                err.category(),
                ErrorCategory::Data,
                "round {round}, flip at {at}: {err}"
            );
        }
    }
}

#[test]
fn cache_rebuilds_after_corruption_and_hits_next_start() {
    let dataset = sample_dataset();
    let dir = std::env::temp_dir().join(format!("soi-fault-cache-{}", std::process::id()));
    let cache = IndexCache::new(&dir);

    // First start: miss, build, persist.
    let (_, outcome) = cache.load_or_build(&dataset, &params()).unwrap();
    assert_eq!(outcome, CacheOutcome::MissBuilt);
    let snap = cache.snapshot_path(&dataset, &params());
    assert!(snap.exists());

    // Storage bitrot: flip one payload byte in place.
    let mut bytes = std::fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x04;
    std::fs::write(&snap, &bytes).unwrap();

    // Second start: the corrupt snapshot is detected, discarded, rebuilt.
    let (_, outcome) = cache.load_or_build(&dataset, &params()).unwrap();
    assert_eq!(outcome, CacheOutcome::RebuiltCorrupt);

    // Third start: the rewritten snapshot hits cleanly.
    let (_, outcome) = cache.load_or_build(&dataset, &params()).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bad_magic_is_a_data_error_and_the_cache_rebuilds_it() {
    let dataset = sample_dataset();
    let dir = std::env::temp_dir().join(format!("soi-fault-magic-{}", std::process::id()));
    let cache = IndexCache::new(&dir);
    cache.load_or_build(&dataset, &params()).unwrap();
    let snap = cache.snapshot_path(&dataset, &params());

    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[0] = b'X';
    std::fs::write(&snap, &bytes).unwrap();

    let err = read_bundle(&snap, &dataset, &params()).unwrap_err();
    assert_eq!(err.category(), ErrorCategory::Data);
    assert_eq!(err.category().exit_code(), 3);
    let (_, outcome) = cache.load_or_build(&dataset, &params()).unwrap();
    assert_eq!(outcome, CacheOutcome::RebuiltCorrupt);

    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the payload of section `name` of `image` and returns a
/// container whose table and payload checksums are all valid again: the
/// corruption is in what the columns *say*, which only the codecs can see.
fn with_section_rewritten(image: &[u8], name: &str, mutate: Rewrite) -> Vec<u8> {
    let path = temp_path("rewrite");
    std::fs::write(&path, image).unwrap();
    let snapshot = Snapshot::open(&path).unwrap();
    assert!(snapshot.has(name), "no section `{name}` to corrupt");
    let mut writer = SnapshotWriter::new();
    for section in snapshot.sections() {
        let mut bytes = snapshot.bytes(&section.name).unwrap().to_vec();
        if section.name == name {
            mutate(&mut bytes);
        }
        writer.bytes(&section.name, section.align, &bytes).unwrap();
    }
    std::fs::remove_file(&path).ok();
    writer.finish()
}

/// A rewrite of one section's payload bytes.
type Rewrite = Box<dyn Fn(&mut Vec<u8>)>;

/// A payload rewrite stated over the section's `u32` values.
fn as_u32s(mutate: impl Fn(&mut Vec<u32>) + 'static) -> Rewrite {
    Box::new(move |bytes| {
        let mut values: Vec<u32> = (0..bytes.len() / 4)
            .map(|i| read_u32(bytes, 4 * i))
            .collect();
        mutate(&mut values);
        *bytes = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
    })
}

/// The first row of a row-starts column holding at least two items.
fn row_with_two(starts: &[u32]) -> usize {
    let row = starts.windows(2).position(|w| w[1] - w[0] >= 2);
    starts[row.expect("some row holds two items")] as usize
}

/// For the first cell (in column order) that allows it: the position of
/// its member list's last item in `poi.cp.i`, and a member of another cell
/// that keeps the list strictly ascending in its place — an in-range id the
/// per-column checks accept.
fn foreign_member_end(members: &[(CellId, &[PoiId])]) -> (usize, u32) {
    let mut at = 0;
    for (cell, row) in members {
        let before = row.len().checked_sub(2).map(|i| row[i]);
        let mut elsewhere = members
            .iter()
            .filter(|(other, _)| other != cell)
            .flat_map(|(_, pois)| pois.iter());
        if let Some(p) = elsewhere.find(|&&p| Some(p) > before) {
            return (at + row.len() - 1, p.raw());
        }
        at += row.len();
    }
    panic!("no member list can end in a POI of another cell");
}

/// For the first cell with a run whose slot range is not the last: the
/// position of its last run's last slot in `poi.rs.i`, and the first slot
/// past the cell — an in-range slot that keeps the run strictly ascending
/// but lies in another cell.
fn slot_past_its_cell(snapshot: &Snapshot) -> (usize, u32) {
    let cell_slots = snapshot.u32s("poi.cp.s").unwrap();
    let cell_runs = snapshot.u32s("poi.ck.s").unwrap();
    let run_slots = snapshot.u32s("poi.rs.s").unwrap();
    let num_slots = *cell_slots.last().unwrap();
    let cell = (0..cell_runs.len() - 1)
        .find(|&c| cell_runs[c + 1] > cell_runs[c] && cell_slots[c + 1] < num_slots)
        .expect("a cell with runs before the last slot");
    let last_run = cell_runs[cell + 1] as usize - 1;
    (run_slots[last_run + 1] as usize - 1, cell_slots[cell + 1])
}

/// The last run of the first occupied cell that is not the last one: a run
/// whose end, `poi.rs.s[run + 1]`, is not the column's final offset.
fn last_run_before_another_cell(snapshot: &Snapshot) -> usize {
    let cell_runs = snapshot.u32s("poi.ck.s").unwrap();
    let num_runs = *cell_runs.last().unwrap();
    let cell = (0..cell_runs.len() - 1)
        .find(|&c| cell_runs[c + 1] > cell_runs[c] && cell_runs[c + 1] < num_runs)
        .expect("two occupied cells");
    cell_runs[cell + 1] as usize - 1
}

/// Each case corrupts one section in one way and must be caught by the
/// check that names it: the error carries the expected fragment, not just
/// any data error an earlier check raises.
#[test]
fn inconsistent_columns_are_data_errors_never_panics() {
    let dataset = sample_dataset();
    let image = pristine_image(&dataset);
    let (num_pois, num_photos) = (dataset.pois.len() as u32, dataset.photos.len() as u32);
    // One past the largest keyword a POI carries: no POI carries it.
    let num_kws = dataset
        .pois
        .iter()
        .filter_map(|p| p.keywords.ids().last())
        .map(|k| k.raw() + 1)
        .max()
        .unwrap();
    let bundle = soi_index::build_bundle(&dataset, &params());
    // Row starts of the run directory, the postings column and the cell
    // members, to aim the row-order corruptions at a row that can show
    // them; the slot count; and where a slot of another cell can end a
    // postings run (`poi.rs.i`), and which.
    let (kw_row, run_row, member_row, num_slots, (foreign_slot_at, foreign_slot), empty_run) = {
        let path = temp_path("starts");
        std::fs::write(&path, &image).unwrap();
        let snapshot = Snapshot::open(&path).unwrap();
        let found = (
            row_with_two(snapshot.u32s("poi.ck.s").unwrap()),
            row_with_two(snapshot.u32s("poi.rs.s").unwrap()),
            row_with_two(snapshot.u32s("poi.cp.s").unwrap()),
            snapshot.u32s("poi.cp.i").unwrap().len() as u32,
            slot_past_its_cell(&snapshot),
            last_run_before_another_cell(&snapshot),
        );
        std::fs::remove_file(&path).ok();
        found
    };
    // Where a POI of another cell can end a cell's member list
    // (`poi.cp.i`), and which.
    let members: Vec<(CellId, &[PoiId])> = bundle
        .poi
        .occupied_cells()
        .map(|(id, c)| (id, c.pois))
        .collect();
    let (foreign_member_at, foreign_member) = foreign_member_end(&members);
    let empty_run_message = format!("poi postings: run {empty_run} is empty");

    // Moves a row-starts column's final offset off the item count.
    let end_moved = |by: i32| -> Rewrite {
        as_u32s(move |v| *v.last_mut().unwrap() = v.last().unwrap().wrapping_add_signed(by))
    };
    // One more (empty) row: a self-consistent column pair, wrong row count.
    let extra_row = || -> Rewrite { as_u32s(|v| v.push(*v.last().unwrap())) };
    let first_set_to = |id: u32| -> Rewrite { as_u32s(move |v| v[0] = id) };
    // (case, section, the fragment its check's message carries, rewrite)
    let cases: Vec<(&str, &str, &str, Rewrite)> = vec![
        // The offset column of every Csr goes through one check.
        (
            "starts-too-short",
            "poi.cp.s",
            "poi cell members: expected",
            as_u32s(|v| v.truncate(v.len() / 2)),
        ),
        (
            "starts-too-long",
            "pg.ph.s",
            "photo-grid members: expected",
            as_u32s(|v| v.extend([0, 0])),
        ),
        (
            "starts-empty",
            "poi.ck.s",
            "poi run directory: expected",
            as_u32s(|v| v.clear()),
        ),
        (
            "starts-not-from-zero",
            "poi.cp.s",
            "poi cell members: offsets must start at 0",
            first_set_to(1),
        ),
        (
            "starts-decrease",
            "pg.ph.s",
            "photo-grid members: offsets decrease",
            as_u32s(|v| v[1] = u32::MAX),
        ),
        (
            "starts-end-short-of-items",
            "pg.ph.s",
            "photo-grid members: offsets must end at",
            end_moved(-1),
        ),
        (
            "starts-end-past-items",
            "poi.cp.s",
            "poi cell members: offsets must end at",
            end_moved(1),
        ),
        // The run directory's entries are the postings column's rows.
        (
            "run-end-past-postings",
            "poi.rs.s",
            "poi postings: offsets must end at",
            end_moved(5),
        ),
        (
            "more-directory-entries-than-runs",
            "poi.rs.s",
            "poi postings: expected",
            as_u32s(|v| {
                v.remove(1);
            }),
        ),
        // The last run of a cell, emptied into the next cell's first run:
        // every row still ascends.
        (
            "empty-postings-run",
            "poi.rs.s",
            &empty_run_message,
            as_u32s(move |v| v[empty_run + 1] = v[empty_run]),
        ),
        (
            "row-count-not-grid-cells",
            "pg.ph.s",
            "photo-grid members: expected",
            extra_row(),
        ),
        // Item ids at their bound.
        (
            "poi-id-out-of-range",
            "poi.cp.i",
            "poi cell members: id",
            first_set_to(num_pois),
        ),
        (
            "posting-out-of-range",
            "poi.rs.i",
            "poi postings: id",
            first_set_to(num_slots),
        ),
        (
            "photo-id-out-of-range",
            "pg.ph.i",
            "photo-grid members: id",
            first_set_to(num_photos),
        ),
        // The last run of the last occupied cell, so its row still ascends.
        (
            "keyword-without-global-list",
            "poi.ck.i",
            "poi run directory: keyword",
            as_u32s(move |v| *v.last_mut().unwrap() = num_kws),
        ),
        // Rows the binary search and the sorted-list union walk.
        (
            "run-keywords-unsorted",
            "poi.ck.i",
            "poi run directory: row",
            as_u32s(move |v| v.swap(kw_row, kw_row + 1)),
        ),
        (
            "run-keywords-repeated",
            "poi.ck.i",
            "poi run directory: row",
            as_u32s(move |v| v[kw_row + 1] = v[kw_row]),
        ),
        (
            "postings-run-not-ascending",
            "poi.rs.i",
            "poi postings: row",
            as_u32s(move |v| v.swap(run_row, run_row + 1)),
        ),
        // What the postings rely on: ascending slot is ascending id, and a
        // run's slots lie in the run's own cell.
        (
            "cell-members-unsorted",
            "poi.cp.i",
            "poi cell members: row",
            as_u32s(move |v| v.swap(member_row, member_row + 1)),
        ),
        (
            "run-slot-outside-its-cell",
            "poi.rs.i",
            "holds a slot outside",
            as_u32s(move |v| v[foreign_slot_at] = foreign_slot),
        ),
        (
            "poi-in-two-cells",
            "poi.cp.i",
            "is in two cells",
            as_u32s(move |v| v[foreign_member_at] = foreign_member),
        ),
    ];
    // The rewrite itself is sound: unchanged columns still load.
    let untouched = with_section_rewritten(&image, "poi.cp.s", Box::new(|_| {}));
    assert!(matches!(
        read_mutated("untouched", &dataset, &untouched, |_| {}),
        Ok(ReadOutcome::Loaded(_))
    ));
    for (name, section, expected, mutate) in cases {
        let corrupted = with_section_rewritten(&image, section, mutate);
        let err = match read_mutated(name, &dataset, &corrupted, |_| {}) {
            Err(err) => err,
            Ok(out) => panic!("case {name}: `{section}` corruption not detected ({out:?})"),
        };
        assert_eq!(
            err.category(),
            ErrorCategory::Data,
            "case {name}: wrong category for {err}"
        );
        assert!(
            err.to_string().contains(".soisnap"),
            "case {name}: error must carry the snapshot path: {err}"
        );
        assert!(
            err.to_string().contains(expected),
            "case {name}: caught by another check than `{expected}`: {err}"
        );
    }
}

/// A snapshot of a previous format version is a categorized error that
/// names both versions — never misread — and the cache answers it the way
/// it answers any unusable file: it rebuilds and rewrites it.
#[test]
fn previous_format_version_is_rejected_and_the_cache_rebuilds() {
    let dataset = sample_dataset();
    let set_version = |b: &mut Vec<u8>, v: u32| b[8..12].copy_from_slice(&v.to_ne_bytes());
    assert_eq!(FORMAT_VERSION, 5, "extend this test with the new version");

    let image = pristine_image(&dataset);
    for old in [1, 2, 3, 4] {
        let err = read_mutated("old", &dataset, &image, |b| set_version(b, old)).unwrap_err();
        assert_eq!(err.category(), ErrorCategory::Data);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {old}"))
                && msg.contains("supports 5")
                && msg.contains(".soisnap"),
            "error must name both versions and the file: {msg}"
        );
    }

    // The cache keys file names by format version, so it would not even
    // open a version-4 file; put one exactly where it looks anyway.
    let dir = std::env::temp_dir().join(format!("soi-fault-v4-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = IndexCache::new(&dir);
    cache.load_or_build(&dataset, &params()).unwrap();
    let snap = cache.snapshot_path(&dataset, &params());
    let mut bytes = std::fs::read(&snap).unwrap();
    set_version(&mut bytes, 4);
    std::fs::write(&snap, &bytes).unwrap();

    let (_, outcome) = cache.load_or_build(&dataset, &params()).unwrap();
    assert_eq!(outcome, CacheOutcome::RebuiltCorrupt);
    assert_eq!(
        read_u32(&std::fs::read(&snap).unwrap(), 8),
        FORMAT_VERSION,
        "the rebuild must have written a fresh bundle"
    );
    let (_, outcome) = cache.load_or_build(&dataset, &params()).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);
    std::fs::remove_dir_all(&dir).ok();
}

/// The served section set, in file order: the stamp, the POI grid index and
/// the photo grid that `/soi` and `/describe` boot from — nothing else.
#[test]
fn served_bundle_holds_exactly_the_stamp_poi_and_photo_grid_sections() {
    let dataset = sample_dataset();
    let path = temp_path("sections");
    std::fs::write(&path, pristine_image(&dataset)).unwrap();
    let snapshot = Snapshot::open(&path).unwrap();
    let names: Vec<&str> = snapshot
        .sections()
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "cache.meta",
            "poi.gf",
            "poi.gn",
            "poi.cp.s",
            "poi.cp.i",
            "poi.ck.s",
            "poi.ck.i",
            "poi.rs.s",
            "poi.rs.i",
            "pg.gf",
            "pg.gn",
            "pg.ph.s",
            "pg.ph.i",
        ]
    );
    assert_eq!(snapshot.u64s("cache.meta").unwrap()[1], 0, "flags word");
    std::fs::remove_file(&path).ok();
}

/// A bundle whose `cache.meta` flags word is 1 — how a writer that
/// persisted the IR-tree stamped it — reads as stale. Under its own cache
/// key, the cache rebuilds it into a file whose flags word is 0.
#[test]
fn a_set_flags_word_reads_stale_and_the_cache_rebuilds_it() {
    let dataset = sample_dataset();
    let p = params();
    let dir = std::env::temp_dir().join(format!("soi-fault-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cache = IndexCache::new(&dir);
    let snap = cache.snapshot_path(&dataset, &p);

    let bundle = soi_index::build_bundle(&dataset, &p);
    let mut w = SnapshotWriter::new();
    let stamp = [
        dataset_fingerprint(&dataset),
        1,
        p.poi_cell.to_bits(),
        p.pg_cell.to_bits(),
    ];
    w.u64s("cache.meta", &stamp).unwrap();
    write_poi_index(&mut w, "poi", &bundle.poi).unwrap();
    write_photo_grid(&mut w, "pg", &bundle.photo_grid).unwrap();
    w.write_to(&snap).unwrap();
    let flags = |path: &PathBuf| Snapshot::open(path).unwrap().u64s("cache.meta").unwrap()[1];

    let Ok(ReadOutcome::Stale(why)) = read_bundle(&snap, &dataset, &p) else {
        panic!("a set flags word must read as stale");
    };
    assert!(why.contains("different build parameters"), "{why}");

    let (_, outcome) = cache.load_or_build(&dataset, &p).unwrap();
    assert_eq!(outcome, CacheOutcome::RebuiltCorrupt);
    assert_eq!(flags(&snap), 0, "the rebuild must stamp a zero flags word");
    let (_, outcome) = cache.load_or_build(&dataset, &p).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);
    std::fs::remove_dir_all(&dir).ok();
}
