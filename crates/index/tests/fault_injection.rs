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
//! - [`CacheMode::Lenient`]-style default caching treats a corrupt
//!   snapshot as a miss: rebuild, rewrite, and the *next* start hits;
//! - [`CacheMode::Strict`] fails loudly instead.
//!
//! Below the container sits the section set of format version 3 — every
//! cell/keyword/segment keyed map a `Csr` column pair (`.s` row starts,
//! `.i` items). A file whose checksums are all valid but whose columns
//! disagree with each other, the grid or the dataset is the same `Data`
//! error, and a file of another format version names both versions.
//!
//! The section set itself is pinned: a bundle holds the `cache.meta` stamp,
//! the POI grid index and the photo grid, and nothing else; a stamp whose
//! flags word is set (an older writer's persisted IR-tree) reads as stale.

use soi_common::{CellId, ErrorCategory, KeywordId, PoiId};
use soi_data::{Dataset, PhotoCollection, PoiCollection};
use soi_geo::Point;
use soi_index::snapshot::{write_photo_grid, write_poi_index};
use soi_index::{
    dataset_fingerprint, read_bundle, write_bundle, BundleParams, CacheMode, CacheOutcome,
    IndexCache, ReadOutcome,
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
fn lenient_cache_rebuilds_after_corruption_and_hits_next_start() {
    let dataset = sample_dataset();
    let dir = std::env::temp_dir().join(format!("soi-fault-cache-{}", std::process::id()));
    let cache = IndexCache::new(&dir, CacheMode::Lenient);

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
fn strict_cache_fails_loudly_on_corruption() {
    let dataset = sample_dataset();
    let dir = std::env::temp_dir().join(format!("soi-fault-strict-{}", std::process::id()));
    let lenient = IndexCache::new(&dir, CacheMode::Lenient);
    lenient.load_or_build(&dataset, &params()).unwrap();
    let snap = lenient.snapshot_path(&dataset, &params());

    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[0] = b'X';
    std::fs::write(&snap, &bytes).unwrap();

    let strict = IndexCache::new(&dir, CacheMode::Strict);
    let err = strict.load_or_build(&dataset, &params()).unwrap_err();
    assert_eq!(err.category(), ErrorCategory::Data);
    assert_eq!(err.category().exit_code(), 3);
    // The corrupt file must still be there: strict mode never destroys
    // evidence.
    assert!(snap.exists());

    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the payloads of the sections named in `rewrites` of `image`
/// and returns a container whose table and payload checksums are all valid
/// again: the corruption is in what the columns *say*, which only the
/// codecs can see.
fn with_sections_rewritten(image: &[u8], rewrites: &[(&str, Rewrite)]) -> Vec<u8> {
    let path = temp_path("rewrite");
    std::fs::write(&path, image).unwrap();
    let snapshot = Snapshot::open(&path).unwrap();
    for (name, _) in rewrites {
        assert!(snapshot.has(name), "no section `{name}` to corrupt");
    }
    let mut writer = SnapshotWriter::new();
    for section in snapshot.sections() {
        let mut bytes = snapshot.bytes(&section.name).unwrap().to_vec();
        for (_, mutate) in rewrites.iter().filter(|(name, _)| *name == section.name) {
            mutate(&mut bytes);
        }
        writer.bytes(&section.name, section.align, &bytes).unwrap();
    }
    std::fs::remove_file(&path).ok();
    writer.finish()
}

/// [`with_sections_rewritten`] for one section.
fn with_section_rewritten(image: &[u8], name: &str, mutate: Rewrite) -> Vec<u8> {
    with_sections_rewritten(image, &[(name, mutate)])
}

/// A rewrite of one section's payload bytes.
type Rewrite = Box<dyn Fn(&mut Vec<u8>)>;

/// A payload rewrite stated over the section's `f64` values.
fn as_f64s(mutate: impl Fn(&mut Vec<f64>) + 'static) -> Rewrite {
    Box::new(move |bytes| {
        let mut values: Vec<f64> = (0..bytes.len() / 8)
            .map(|i| f64::from_bits(read_u64(bytes, 8 * i)))
            .collect();
        mutate(&mut values);
        *bytes = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
    })
}

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

/// For the first of `rows` (each a cell's row of one items column, in
/// column order) that allows it: the position of the row's last item in the
/// column, and a member of another cell that keeps the row strictly
/// ascending in its place — an in-range id the per-column checks accept.
fn foreign_row_end(rows: &[(CellId, &[PoiId])], members: &[(CellId, &[PoiId])]) -> (usize, u32) {
    let mut at = 0;
    for (cell, row) in rows {
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
    panic!("no row can end in a POI of another cell");
}

#[test]
fn inconsistent_columns_are_data_errors_never_panics() {
    let dataset = sample_dataset();
    let image = pristine_image(&dataset);
    let (num_pois, num_photos) = (dataset.pois.len() as u32, dataset.photos.len() as u32);
    let num_segments = dataset.network.num_segments() as u32;
    let bundle = soi_index::build_bundle(&dataset, &params());
    let num_cells = bundle.poi.grid().num_cells() as u32;
    // Row starts of the run directory, the docs column and the cell
    // members, to aim the row-order corruptions at a row that can show them.
    let (kw_row, doc_row, member_row) = {
        let path = temp_path("starts");
        std::fs::write(&path, &image).unwrap();
        let snapshot = Snapshot::open(&path).unwrap();
        let rows = (
            row_with_two(snapshot.u32s("poi.ck.s").unwrap()),
            row_with_two(snapshot.u32s("poi.rd.s").unwrap()),
            row_with_two(snapshot.u32s("poi.cp.s").unwrap()),
        );
        std::fs::remove_file(&path).ok();
        rows
    };
    // Where a POI of another cell can end a postings run (`poi.rd.i`) or a
    // cell's member list (`poi.cp.i`), and which.
    let cells: Vec<_> = bundle.poi.occupied_cells().collect();
    let members: Vec<(CellId, &[PoiId])> = cells.iter().map(|(id, c)| (*id, c.pois)).collect();
    let runs: Vec<(CellId, &[PoiId])> = cells
        .iter()
        .flat_map(|(id, c)| c.keywords().iter().map(|&k| (*id, c.postings(k))))
        .collect();
    let (foreign_posting_at, foreign_posting) = foreign_row_end(&runs, &members);
    let (foreign_member_at, foreign_member) = foreign_row_end(&members, &members);

    // Moves a row-starts column's final offset off the item count.
    let end_moved = |by: i32| -> Rewrite {
        as_u32s(move |v| *v.last_mut().unwrap() = v.last().unwrap().wrapping_add_signed(by))
    };
    // One more (empty) row: a self-consistent column pair, wrong row count.
    let extra_row = || -> Rewrite { as_u32s(|v| v.push(*v.last().unwrap())) };
    let first_set_to = |id: u32| -> Rewrite { as_u32s(move |v| v[0] = id) };
    let cases: Vec<(&str, &str, Rewrite)> = vec![
        // The offset column of every Csr goes through one check.
        (
            "starts-too-short",
            "poi.cp.s",
            as_u32s(|v| v.truncate(v.len() / 2)),
        ),
        ("starts-too-long", "pg.ph.s", as_u32s(|v| v.extend([0, 0]))),
        ("starts-empty", "poi.r.s", as_u32s(|v| v.clear())),
        ("starts-not-from-zero", "poi.cp.s", first_set_to(1)),
        ("starts-decrease", "poi.r.s", as_u32s(|v| v[1] = u32::MAX)),
        ("starts-end-short-of-items", "pg.ph.s", end_moved(-1)),
        ("starts-end-past-items", "poi.r.s", end_moved(1)),
        // The run directory's ends are the docs column's row starts.
        ("run-end-past-docs", "poi.rd.s", end_moved(5)),
        (
            "more-directory-entries-than-runs",
            "poi.ck.i",
            as_u32s(|v| v.push(0)),
        ),
        ("empty-postings-run", "poi.rd.s", as_u32s(|v| v[1] = 0)),
        ("row-count-not-grid-cells", "pg.ph.s", extra_row()),
        ("raster-of-another-grid", "poi.r.s", extra_row()),
        (
            "length-list-of-another-network",
            "poi.slen",
            as_u32s(|v| v.push(0)),
        ),
        // A weight column (f64) that does not cover the grid.
        (
            "weights-too-short",
            "poi.cw",
            Box::new(|b| b.truncate(b.len() - 8)),
        ),
        // Item ids at their bound.
        ("poi-id-out-of-range", "poi.cp.i", first_set_to(num_pois)),
        ("posting-out-of-range", "poi.rd.i", first_set_to(num_pois)),
        ("photo-id-out-of-range", "pg.ph.i", first_set_to(num_photos)),
        (
            "raster-segment-out-of-range",
            "poi.r.i",
            first_set_to(num_segments),
        ),
        (
            "global-cell-out-of-range",
            "poi.g.i",
            first_set_to(num_cells),
        ),
        (
            "keyword-without-global-list",
            "poi.ck.i",
            first_set_to(u32::MAX),
        ),
        (
            "length-list-segment-out-of-range",
            "poi.slen",
            first_set_to(num_segments),
        ),
        // Rows the binary search and the sorted-list union walk.
        (
            "run-keywords-unsorted",
            "poi.ck.i",
            as_u32s(move |v| v.swap(kw_row, kw_row + 1)),
        ),
        (
            "run-keywords-repeated",
            "poi.ck.i",
            as_u32s(move |v| v[kw_row + 1] = v[kw_row]),
        ),
        (
            "postings-unsorted",
            "poi.rd.i",
            as_u32s(move |v| v.swap(doc_row, doc_row + 1)),
        ),
        // What the slot derivation relies on: ascending slot is ascending
        // id, and a run's postings are members of the run's own cell.
        (
            "cell-members-unsorted",
            "poi.cp.i",
            as_u32s(move |v| v.swap(member_row, member_row + 1)),
        ),
        (
            "posting-of-another-cell",
            "poi.rd.i",
            as_u32s(move |v| v[foreign_posting_at] = foreign_posting),
        ),
        (
            "poi-in-two-cells",
            "poi.cp.i",
            as_u32s(move |v| v[foreign_member_at] = foreign_member),
        ),
    ];
    // The rewrite itself is sound: unchanged columns still load.
    let untouched = with_section_rewritten(&image, "poi.cp.s", Box::new(|_| {}));
    assert!(matches!(
        read_mutated("untouched", &dataset, &untouched, |_| {}),
        Ok(ReadOutcome::Loaded(_))
    ));
    for (name, section, mutate) in cases {
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
    }
}

/// What Alg. 1's upper bounds read from a snapshot and trust: the cell
/// totals and global `(cell, weight)` lists `relcount` is summed from, and
/// SL3's length order. A checksummed file that lowers a total or a global
/// weight, drops a global entry, or disorders SL3 is a `Data` error: a
/// query over it would stop on a bound that is no upper bound.
#[test]
fn columns_the_bounds_trust_are_checked_against_the_members() {
    let dataset = sample_dataset();
    let image = pristine_image(&dataset);
    let bundle = soi_index::build_bundle(&dataset, &params());
    let index = &bundle.poi;
    let occupied = index
        .occupied_cells()
        .find(|(_, cell)| cell.total_weight > 0.0)
        .map(|(id, _)| id.index())
        .expect("an occupied cell");
    // The first keyword with a global list, and where its row ends.
    let keyword = (0..)
        .find(|&k| !index.global_postings(KeywordId(k)).is_empty())
        .unwrap();
    let row_end = (0..=keyword)
        .map(|k| index.global_postings(KeywordId(k)).len())
        .sum::<usize>();
    let by_len = index.segments_by_len();
    let (shortest, longest) = (0, by_len.len() - 1);
    assert!(
        dataset.network.segment(by_len[shortest]).len()
            < dataset.network.segment(by_len[longest]).len()
    );

    let lowered = |at: usize| as_f64s(move |v| v[at] = v[at].next_down());
    let cases: Vec<(&str, Vec<(&str, Rewrite)>)> = vec![
        ("cell-total-lowered", vec![("poi.cw", lowered(occupied))]),
        (
            "global-weight-lowered",
            vec![("poi.gw", lowered(row_end - 1))],
        ),
        (
            // The keyword's last entry goes from all three columns; every
            // later row starts one earlier.
            "global-entry-missing",
            vec![
                (
                    "poi.g.s",
                    as_u32s(move |v| v[keyword as usize + 1..].iter_mut().for_each(|s| *s -= 1)),
                ),
                ("poi.g.i", as_u32s(move |v| _ = v.remove(row_end - 1))),
                ("poi.gw", as_f64s(move |v| _ = v.remove(row_end - 1))),
            ],
        ),
        (
            "segment-lengths-unordered",
            vec![("poi.slen", as_u32s(move |v| v.swap(shortest, longest)))],
        ),
        (
            "segment-lengths-repeated",
            vec![("poi.slen", as_u32s(|v| v[1] = v[0]))],
        ),
    ];
    for (name, rewrites) in cases {
        let corrupted = with_sections_rewritten(&image, &rewrites);
        let err = match read_mutated(name, &dataset, &corrupted, |_| {}) {
            Err(err) => err,
            Ok(out) => panic!("case {name}: corruption not detected ({out:?})"),
        };
        assert_eq!(err.category(), ErrorCategory::Data, "case {name}: {err}");
        assert!(err.to_string().contains(".soisnap"), "case {name}: {err}");
    }
}

/// A snapshot of a previous format version is a categorized error that
/// names both versions — never misread — and the cache answers it the way
/// it answers any unusable file: lenient rebuilds and rewrites, strict
/// refuses.
#[test]
fn previous_format_version_is_rejected_and_the_cache_rebuilds() {
    let dataset = sample_dataset();
    let set_version = |b: &mut Vec<u8>, v: u32| b[8..12].copy_from_slice(&v.to_ne_bytes());
    assert_eq!(FORMAT_VERSION, 3, "extend this test with the new version");

    let image = pristine_image(&dataset);
    for old in [1, 2] {
        let err = read_mutated("old", &dataset, &image, |b| set_version(b, old)).unwrap_err();
        assert_eq!(err.category(), ErrorCategory::Data);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {old}"))
                && msg.contains("supports 3")
                && msg.contains(".soisnap"),
            "error must name both versions and the file: {msg}"
        );
    }

    // The cache keys file names by format version, so it would not even
    // open a version-2 file; put one exactly where it looks anyway.
    let dir = std::env::temp_dir().join(format!("soi-fault-v2-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = IndexCache::new(&dir, CacheMode::Lenient);
    cache.load_or_build(&dataset, &params()).unwrap();
    let snap = cache.snapshot_path(&dataset, &params());
    let mut bytes = std::fs::read(&snap).unwrap();
    set_version(&mut bytes, 2);
    std::fs::write(&snap, &bytes).unwrap();

    let strict = IndexCache::new(&dir, CacheMode::Strict);
    let err = strict.load_or_build(&dataset, &params()).unwrap_err();
    assert_eq!(err.category(), ErrorCategory::Data);

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
            "poi.cw",
            "poi.ck.s",
            "poi.ck.i",
            "poi.rd.s",
            "poi.rd.i",
            "poi.g.s",
            "poi.g.i",
            "poi.gw",
            "poi.slen",
            "poi.r.s",
            "poi.r.i",
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
/// key, lenient mode rebuilds it into a file whose flags word is 0, and
/// strict mode reports it and leaves it in place.
#[test]
fn a_set_flags_word_reads_stale_lenient_rebuilds_and_strict_reports() {
    let dataset = sample_dataset();
    let p = params();
    let dir = std::env::temp_dir().join(format!("soi-fault-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cache = IndexCache::new(&dir, CacheMode::Lenient);
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

    let strict = IndexCache::new(&dir, CacheMode::Strict);
    let err = strict.load_or_build(&dataset, &p).unwrap_err();
    assert_eq!(err.category(), ErrorCategory::Data, "{err}");
    assert!(err.to_string().contains(".soisnap"), "{err}");
    assert_eq!(flags(&snap), 1, "strict mode must leave the file alone");

    let (_, outcome) = cache.load_or_build(&dataset, &p).unwrap();
    assert_eq!(outcome, CacheOutcome::RebuiltCorrupt);
    assert_eq!(flags(&snap), 0, "the rebuild must stamp a zero flags word");
    let (_, outcome) = strict.load_or_build(&dataset, &p).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);
    std::fs::remove_dir_all(&dir).ok();
}
