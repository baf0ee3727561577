//! Fault-injection suite for bundle snapshots.
//!
//! The container's own unit tests cover each corruption mode against a toy
//! two-section file; this suite drives the same faults through the full
//! bundle path — a real `PoiIndex`/`PhotoGrid`/`IrTree`/ε-maps snapshot
//! read via [`soi_index::read_bundle`] and [`soi_index::IndexCache`] — and
//! checks the contract end to end:
//!
//! - every corruption surfaces as a categorized `Data` error (CLI exit
//!   code 3) carrying the snapshot path — never a panic;
//! - [`CacheMode::Lenient`]-style default caching treats a corrupt
//!   snapshot as a miss: rebuild, rewrite, and the *next* start hits;
//! - [`CacheMode::Strict`] fails loudly instead.

use soi_common::{ErrorCategory, KeywordId};
use soi_data::{Dataset, PhotoCollection, PoiCollection};
use soi_geo::Point;
use soi_index::{
    read_bundle, write_bundle, BundleParams, CacheMode, CacheOutcome, IndexCache, ReadOutcome,
};
use soi_network::RoadNetwork;
use soi_snapshot::{fnv1a64, HEADER_LEN, TABLE_ENTRY_LEN};
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

fn params() -> BundleParams {
    BundleParams {
        poi_cell: 0.5,
        pg_cell: 0.5,
        eps: Some(0.25),
        with_ir: true,
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
