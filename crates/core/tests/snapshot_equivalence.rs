//! Loaded-vs-built equivalence: an index bundle decoded from a snapshot
//! must be indistinguishable from a freshly built one — structure by
//! structure (`built == loaded`, every column, floats by bit pattern) and
//! query by query.
//!
//! For every structure in the bundle (`PoiIndex`, `PhotoGrid`, `IrTree`)
//! and for several build thread counts, we run the
//! same queries against the fresh and the loaded bundle and require
//! *bit-identical* answers — not approximately equal: every interest,
//! relevance, and objective is compared via `f64::to_bits` — and identical
//! deterministic work counters in [`QueryStats`]. If the snapshot
//! round-trip perturbed so much as one posting's order, these fail.

use soi_common::KeywordId;
use soi_core::describe::{greedy_select, ContextBuilder, DescribeParams, PhiSource};
use soi_core::soi::{run_soi, QueryStats, SoiConfig, SoiOutcome, SoiQuery};
use soi_data::{Dataset, PhotoCollection, PoiCollection};
use soi_geo::Point;
use soi_index::{build_bundle, read_bundle, write_bundle, BundleParams, IndexBundle, ReadOutcome};
use soi_network::RoadNetwork;
use soi_text::{KeywordSet, Vocabulary};

const EPS: f64 = 0.25;

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
    b.add_street_from_points("Gamma", &[Point::new(2.0, 0.0), Point::new(2.0, 4.0)]);
    b.add_street_from_points("Delta", &[Point::new(0.0, 4.0), Point::new(6.0, 0.0)]);
    let network = b.build().unwrap();

    let mut vocab = Vocabulary::new();
    for term in ["cafe", "bar", "museum", "park", "shop", "hotel"] {
        vocab.intern(term);
    }
    let mut pois = PoiCollection::new();
    let mut photos = PhotoCollection::new();
    let mut x: u64 = 0xE0_1D1E_5CE4_11CE;
    for i in 0..600 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let px = (x % 600) as f64 / 100.0;
        let py = ((x >> 17) % 400) as f64 / 100.0;
        let k1 = (x % 6) as u32;
        let k2 = ((x >> 23) % 6) as u32;
        if i % 2 == 0 {
            photos.add(Point::new(px, py), kws(&[k1, k2]));
        } else {
            pois.add_weighted(Point::new(px, py), kws(&[k1, k2]), 1.0 + (x % 5) as f64);
        }
    }
    Dataset::new("equiv-sample", network, vocab, pois, photos)
}

fn params(threads: usize) -> BundleParams {
    BundleParams {
        poi_cell: 0.5,
        pg_cell: 0.5,
        eps: None,
        with_ir: true,
        threads,
    }
}

/// Round-trips `dataset`'s bundle through a snapshot file. The tests of
/// this binary run in parallel over the same thread counts, so every call
/// gets a file of its own.
fn load_round_trip(dataset: &Dataset, p: &BundleParams) -> (IndexBundle, IndexBundle) {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let fresh = build_bundle(dataset, p);
    let path = std::env::temp_dir().join(format!(
        "soi-equiv-{}-{}-t{}.soisnap",
        std::process::id(),
        CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        p.threads
    ));
    write_bundle(&path, dataset, &fresh, p).unwrap();
    let loaded = match read_bundle(&path, dataset, p).unwrap() {
        ReadOutcome::Loaded(b) => *b,
        ReadOutcome::Stale(why) => panic!("snapshot unexpectedly stale: {why}"),
    };
    std::fs::remove_file(&path).ok();
    (fresh, loaded)
}

/// The deterministic (non-timing) fields of [`QueryStats`].
#[allow(clippy::type_complexity)]
fn counters(
    s: &QueryStats,
) -> (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    u64,
    u64,
    usize,
    bool,
) {
    (
        s.cells_popped,
        s.segments_popped,
        s.cell_visits,
        s.duplicate_visits,
        s.segments_seen,
        s.segments_finalized_filtering,
        s.segments_finalized_refinement,
        s.segments_bounded_out,
        s.termination_ub.to_bits(),
        s.termination_lb.to_bits(),
        s.accesses,
        s.deadline_expired,
    )
}

fn assert_outcomes_identical(a: &SoiOutcome, b: &SoiOutcome, what: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{what}: result count");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.street, y.street, "{what}");
        assert_eq!(
            x.interest.to_bits(),
            y.interest.to_bits(),
            "{what}: interest of {}",
            x.street
        );
        assert_eq!(x.best_segment, y.best_segment, "{what}");
        assert_eq!(
            x.best_segment_mass.to_bits(),
            y.best_segment_mass.to_bits(),
            "{what}"
        );
    }
    assert_eq!(counters(&a.stats), counters(&b.stats), "{what}: stats");
    assert_eq!(a.partial, b.partial, "{what}");
}

fn queries() -> Vec<SoiQuery> {
    let mut qs = Vec::new();
    for (ids, k, eps) in [
        (&[0u32][..], 3, EPS),
        (&[1, 2][..], 5, EPS),
        (&[0, 3, 4][..], 4, EPS),
        (&[5][..], 2, 0.4),
    ] {
        qs.push(SoiQuery::new(kws(ids), k, eps).unwrap());
    }
    qs
}

#[test]
fn soi_queries_identical_across_thread_counts() {
    let dataset = sample_dataset();
    let config = SoiConfig::default();
    // Reference answers from a single-threaded fresh build.
    let reference = build_bundle(&dataset, &params(1));
    for threads in [1, 2, 8] {
        let (fresh, loaded) = load_round_trip(&dataset, &params(threads));
        // Whole structures first: threads(1) == threads(n) == loaded.
        assert!(reference.poi == fresh.poi, "threads={threads}: build");
        assert!(fresh.poi == loaded.poi, "threads={threads}: round trip");
        assert!(
            reference.photo_grid == fresh.photo_grid,
            "threads={threads}"
        );
        assert!(fresh.photo_grid == loaded.photo_grid, "threads={threads}");
        for q in &queries() {
            let want =
                run_soi(&dataset.network, &dataset.pois, &reference.poi, q, &config).unwrap();
            let from_fresh =
                run_soi(&dataset.network, &dataset.pois, &fresh.poi, q, &config).unwrap();
            let from_loaded =
                run_soi(&dataset.network, &dataset.pois, &loaded.poi, q, &config).unwrap();
            let what = format!("threads={threads} k={} eps={}", q.k, q.eps);
            // Builds are deterministic across thread counts…
            assert_outcomes_identical(&want, &from_fresh, &format!("{what} (build determinism)"));
            // …and the snapshot round-trip changes nothing.
            assert_outcomes_identical(&from_fresh, &from_loaded, &format!("{what} (round trip)"));
            assert!(!want.results.is_empty(), "{what}: degenerate query");
        }
    }
}

#[test]
fn ir_tree_top_k_identical_after_round_trip() {
    let dataset = sample_dataset();
    for threads in [1, 2, 8] {
        let (fresh, loaded) = load_round_trip(&dataset, &params(threads));
        let (fresh_ir, loaded_ir) = (fresh.ir.unwrap(), loaded.ir.unwrap());
        for (q, ids, k) in [
            (Point::new(1.0, 1.0), &[0u32][..], 5),
            (Point::new(3.0, 2.0), &[1, 4][..], 8),
            (Point::new(5.0, 0.5), &[2, 3, 5][..], 3),
        ] {
            let a = fresh_ir.top_k_relevant(q, &kws(ids), k);
            let b = loaded_ir.top_k_relevant(q, &kws(ids), k);
            assert_eq!(a.len(), b.len(), "threads={threads}");
            for ((pa, sa), (pb, sb)) in a.iter().zip(&b) {
                assert_eq!(pa, pb, "threads={threads}");
                assert_eq!(sa.to_bits(), sb.to_bits(), "threads={threads}");
            }
        }
    }
}

#[test]
fn describe_selection_identical_after_round_trip() {
    let dataset = sample_dataset();
    let describe = DescribeParams::new(4, 0.5, 0.5).unwrap();
    for threads in [1, 2, 8] {
        let (fresh, loaded) = load_round_trip(&dataset, &params(threads));
        let run = |grid| {
            let builder = ContextBuilder {
                network: &dataset.network,
                photos: &dataset.photos,
                photo_grid: grid,
                pois: Some(&dataset.pois),
                eps: EPS,
                rho: 0.5,
                phi_source: PhiSource::PhotosAndPois,
            };
            let mut all = Vec::new();
            for street in 0..dataset.network.num_streets() {
                let ctx = builder.build(soi_common::StreetId(street as u32)).unwrap();
                let out = greedy_select(&ctx, &dataset.photos, &describe);
                all.push((out.selected, out.objective.to_bits()));
            }
            all
        };
        assert_eq!(
            run(&fresh.photo_grid),
            run(&loaded.photo_grid),
            "threads={threads}: describe selections diverged after round trip"
        );
    }
}
