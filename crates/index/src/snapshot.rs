//! Snapshot persistence for the offline index structures.
//!
//! The structures `/soi` and `/describe` serve from —
//! [`PoiIndex`](crate::PoiIndex) and [`PhotoGrid`](crate::PhotoGrid) — can
//! be encoded into a [`soi_snapshot`] container and decoded back without
//! re-running the build. Only primary columns are stored: the cell- and
//! run-keyed maps are [`Csr`](soi_common::Csr) column pairs in memory and
//! the same two columns on disk, so writing one is a copy of each column
//! and loading one is a validation pass plus a copy. What is a function of
//! them and the dataset (the POI index's coordinate column, cell totals and
//! global lists) is derived on load by the one constructor a build also
//! goes through: a loaded index `==` the built one and answers every query
//! byte-identically.
//!
//! The module has three layers, one file each under `snapshot/`:
//!
//! 1. **Per-structure codecs** (`write_*` / `read_*`): store a structure's
//!    columns as typed sections under a caller-chosen prefix — every `Csr`
//!    through the one `write_csr` / `read_csr` pair — and re-validate
//!    every invariant on the way back in (CSR shapes, row counts against
//!    the grid, id bounds against the dataset), so a corrupt or hand-edited
//!    file is a categorized [`Data`](soi_common::ErrorCategory::Data)
//!    error, never a panic.
//! 2. **The bundle** ([`IndexBundle`], [`build_bundle`], [`write_bundle`],
//!    [`read_bundle`]): the structures `/soi` and `/describe` need for one
//!    dataset, stamped with the dataset content fingerprint and the build
//!    parameters so staleness is detected before any decode work.
//! 3. **The cache** ([`IndexCache`]): a directory of bundle snapshots keyed
//!    by `(dataset fingerprint, format version, params)`. `load_or_build`
//!    prefers the snapshot, and rebuilds and re-writes it on a miss, a
//!    stale key or a corrupt file instead of failing the command.

mod bundle;
mod cache;
mod codec;

pub use bundle::{
    build_bundle, dataset_fingerprint, read_bundle, write_bundle, BundleParams, IndexBundle,
    ReadOutcome,
};
pub use cache::{CacheOutcome, IndexCache};
pub use codec::{read_photo_grid, read_poi_index, write_photo_grid, write_poi_index};

#[cfg(test)]
mod tests {
    use super::cache::snapshot_key;
    use super::*;
    use crate::{fold_dataset, PhotoGrid, PoiIndex};
    use soi_common::KeywordId;
    use soi_data::{Dataset, PhotoCollection, PoiCollection};
    use soi_geo::Point;
    use soi_network::RoadNetwork;
    use soi_snapshot::{Snapshot, SnapshotWriter};
    use soi_text::{KeywordSet, Vocabulary};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("soi-idxsnap-{}-{name}.soisnap", std::process::id()))
    }

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

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
        let network = b.build().unwrap();

        let mut vocab = Vocabulary::new();
        for term in ["cafe", "bar", "museum", "park", "shop"] {
            vocab.intern(term);
        }
        let mut pois = PoiCollection::new();
        let mut x: u64 = 0x5EED_0123_4567_89AB;
        for _ in 0..60 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let px = (x % 600) as f64 / 100.0;
            let py = ((x >> 17) % 400) as f64 / 100.0;
            let k1 = (x % 5) as u32;
            let k2 = ((x >> 23) % 5) as u32;
            pois.add_weighted(Point::new(px, py), kws(&[k1, k2]), 1.0 + (x % 3) as f64);
        }
        let mut photos = PhotoCollection::new();
        for _ in 0..80 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let px = (x % 600) as f64 / 100.0;
            let py = ((x >> 17) % 400) as f64 / 100.0;
            let k1 = (x % 5) as u32;
            photos.add(Point::new(px, py), kws(&[k1]));
        }
        Dataset::new("sample", network, vocab, pois, photos)
    }

    fn params() -> BundleParams {
        BundleParams {
            poi_cell: 0.5,
            pg_cell: 0.5,
            eps: None,
            with_ir: false,
            threads: 1,
        }
    }

    #[test]
    fn poi_index_round_trips() {
        let ds = sample_dataset();
        let index = PoiIndex::build(&ds.network, &ds.pois, 0.5);
        let path = temp_path("poi");
        let mut w = SnapshotWriter::new();
        write_poi_index(&mut w, "poi", &index).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let back = read_poi_index(&snap, "poi", &ds.pois).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(index == back, "the loaded index must equal the built one");
    }

    #[test]
    fn photo_grid_round_trips() {
        let ds = sample_dataset();
        let grid = PhotoGrid::build(&ds.network, &ds.photos, 0.5);
        let path = temp_path("pg");
        let mut w = SnapshotWriter::new();
        write_photo_grid(&mut w, "pg", &grid).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let back = read_photo_grid(&snap, "pg", ds.photos.len()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(grid == back, "the loaded grid must equal the built one");
    }

    #[test]
    fn bundle_round_trips_whatever_eps_and_with_ir_say() {
        let ds = sample_dataset();
        let without = params();
        let with = BundleParams {
            eps: Some(0.4),
            with_ir: true,
            ..without
        };
        // `eps` and `with_ir` are inert: a bundle written under either
        // value loads under the other, keeps its cache key, and no
        // section belongs to either.
        assert_eq!(snapshot_key(7, &with), snapshot_key(7, &without));
        for (written, read) in [(with, without), (without, with)] {
            let bundle = build_bundle(&ds, &written);
            let path = temp_path("bundle");
            write_bundle(&path, &ds, &bundle, &written).unwrap();
            let sections = Snapshot::open(&path).unwrap();
            assert!(sections
                .sections()
                .iter()
                .all(|s| !s.name.starts_with("eps") && !s.name.starts_with("ir")));
            let ReadOutcome::Loaded(back) = read_bundle(&path, &ds, &read).unwrap() else {
                panic!("freshly written bundle reported stale");
            };
            std::fs::remove_file(&path).ok();
            assert!(bundle.poi == back.poi && bundle.photo_grid == back.photo_grid);
        }
    }

    #[test]
    fn stale_fingerprint_and_params_detected() {
        let ds = sample_dataset();
        let p = params();
        let bundle = build_bundle(&ds, &p);
        let path = temp_path("stale");
        write_bundle(&path, &ds, &bundle, &p).unwrap();

        // Changed dataset content → stale.
        let mut changed = ds.clone();
        changed.pois.add(Point::new(1.0, 1.0), kws(&[0]));
        assert!(matches!(
            read_bundle(&path, &changed, &p).unwrap(),
            ReadOutcome::Stale(_)
        ));

        // Changed params → stale.
        let p2 = BundleParams { poi_cell: 0.7, ..p };
        assert!(matches!(
            read_bundle(&path, &ds, &p2).unwrap(),
            ReadOutcome::Stale(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_hit_miss_and_corruption_rebuild() {
        let ds = sample_dataset();
        let p = params();
        let dir = std::env::temp_dir().join(format!("soi-idxcache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let cache = IndexCache::new(&dir);
        let (_, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::MissBuilt);
        let (hit, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(build_bundle(&ds, &p).poi == hit.poi);

        // Corrupt one payload byte: the cache rebuilds.
        let path = cache.snapshot_path(&ds, &p);
        let snap = Snapshot::open(&path).unwrap();
        let offset = snap.sections()[0].offset as usize;
        drop(snap);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::RebuiltCorrupt);
        // The rewrite healed the cache.
        let (_, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_content() {
        let ds = sample_dataset();
        let base = dataset_fingerprint(&ds);
        assert_eq!(base, dataset_fingerprint(&ds.clone()));
        let mut renamed = ds.clone();
        renamed.name = "other".to_string();
        assert_ne!(base, dataset_fingerprint(&renamed));
        let mut more_photos = ds.clone();
        more_photos.photos.add(Point::new(0.5, 0.5), kws(&[1]));
        assert_ne!(base, dataset_fingerprint(&more_photos));
    }

    #[test]
    fn ingested_cache_replays_only_newer_deltas() {
        let ds = sample_dataset();
        let p = params();
        let dir = std::env::temp_dir().join(format!("soi-ingcache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = IndexCache::new(&dir);

        let log: Vec<String> = vec![
            r#"{"op":"add_poi","x":1.0,"y":1.0,"kw":["cafe"],"weight":2.0}"#.into(),
            r#"{"op":"add_photo","x":2.0,"y":1.0,"tags":["museum"]}"#.into(),
            r#"{"op":"del_poi","id":3}"#.into(),
        ];
        // A folded dataset's bundle is an ordinary snapshot, filed under the
        // folded content's own key.
        let folded = fold_dataset(&ds, &log, &[3]).unwrap();
        assert_eq!(folded.pois.len(), ds.pois.len()); // +1 add, -1 delete
        assert_eq!(folded.photos.len(), ds.photos.len() + 1);
        let built = build_bundle(&folded, &p);
        let path = cache.store(&folded, &built, &p).unwrap();
        assert_eq!(path, cache.snapshot_path(&folded, &p));
        assert_ne!(path, cache.snapshot_path(&ds, &p));

        // A longer log folded at the same point: a hit on the folded
        // content; the newer line stays pending for the caller to seal.
        let mut longer = log.clone();
        longer.push(r#"{"op":"add_photo","x":3.0,"y":1.0,"tags":["park"]}"#.into());
        let replayed = fold_dataset(&ds, &longer, &[3]).unwrap();
        assert_eq!(replayed.photos.len(), ds.photos.len() + 1);
        let (hit, outcome) = cache.load_or_build(&replayed, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(built.poi == hit.poi && built.photo_grid == hit.photo_grid);

        // A rewritten prefix folds to other content: a miss, under its own
        // key.
        let mut rewritten = log.clone();
        rewritten[0] = r#"{"op":"add_poi","x":1.5,"y":1.0,"kw":["bar"]}"#.into();
        let other = fold_dataset(&ds, &rewritten, &[3]).unwrap();
        let (_, outcome) = cache.load_or_build(&other, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::MissBuilt);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_dataset_honours_boundaries() {
        let ds = sample_dataset();
        let n = ds.pois.len() as u32;
        // Epoch 1 adds a POI; epoch 2 deletes it *by its post-fold id*
        // (fold keeps ascending order, so the add lands at index n).
        let log = [
            r#"{"op":"add_poi","x":1.0,"y":1.0,"kw":["cafe"]}"#.to_string(),
            format!(r#"{{"op":"del_poi","id":{n}}}"#),
        ];
        let folded = fold_dataset(&ds, &log, &[1, 2]).unwrap();
        assert_eq!(folded.pois.len(), ds.pois.len());
        // As one batch the same two lines also cancel out (the delete
        // targets the pending add), so both interpretations agree here…
        let single = fold_dataset(&ds, &log, &[2]).unwrap();
        assert_eq!(single.pois.len(), ds.pois.len());
        // No boundaries: nothing is applied — the tail is all pending.
        assert_eq!(
            fold_dataset(&ds, &log, &[]).unwrap().pois.len(),
            ds.pois.len()
        );
        // Out-of-range boundary is rejected.
        assert!(fold_dataset(&ds, &log, &[3]).is_err());
        // Boundaries that go backwards are rejected.
        assert!(fold_dataset(&ds, &log, &[2, 1]).is_err());
    }

    #[test]
    fn out_of_bounds_ids_rejected() {
        let ds = sample_dataset();
        let index = PoiIndex::build(&ds.network, &ds.pois, 0.5);
        let path = temp_path("oob");
        let mut w = SnapshotWriter::new();
        write_poi_index(&mut w, "poi", &index).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        // A collection holding fewer POIs than the postings reference.
        let mut one = PoiCollection::new();
        one.add(Point::new(0.0, 0.0), kws(&[0]));
        let err = read_poi_index(&snap, "poi", &one).unwrap_err();
        assert_eq!(err.category(), soi_common::ErrorCategory::Data);
        std::fs::remove_file(&path).ok();
    }
}
