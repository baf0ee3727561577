//! Tier-1 determinism guarantees of the parallel pipeline (PR 2).
//!
//! Every multi-threaded offline build must be byte-identical to its
//! sequential counterpart, and the batched [`soi_engine::QueryEngine`]
//! must return bit-identical results whatever the worker count. These
//! tests run the full stack end-to-end on a generated city.

use soi_core::soi::{run_soi, SoiOutcome, SoiQuery};
use soi_engine::{QueryContext, QueryEngine};
use soi_index::{PhotoGrid, PoiIndex};
use std::sync::Arc;

const EPS: f64 = 0.0005;
const CELL: f64 = 2.0 * EPS;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> soi_data::Dataset {
    soi_datagen::generate(&soi_datagen::vienna(0.02)).0
}

fn queries(dataset: &soi_data::Dataset) -> Vec<SoiQuery> {
    [
        (5usize, &["shop"][..]),
        (10, &["food", "cafe"][..]),
        (7, &["shop", "food", "bar"][..]),
    ]
    .into_iter()
    .map(|(k, kws)| SoiQuery::new(dataset.query_keywords(kws), k, EPS).expect("valid query"))
    .collect()
}

/// The whole index — every column, floats by bit pattern — must equal the
/// sequential build's at every thread count, and so every query answers
/// identically.
#[test]
fn poi_index_parallel_build_is_thread_count_invariant() {
    let dataset = fixture();
    let sequential = PoiIndex::build_with_threads(&dataset.network, &dataset.pois, CELL, 1);
    let queries = queries(&dataset);
    let expected: Vec<SoiOutcome> = queries
        .iter()
        .map(|q| run_soi(&dataset.network, &dataset.pois, &sequential, q).expect("valid query"))
        .collect();

    for threads in WORKER_COUNTS {
        let parallel = PoiIndex::build_with_threads(&dataset.network, &dataset.pois, CELL, threads);
        assert!(
            sequential == parallel,
            "{threads} threads built another index"
        );
        for (q, want) in queries.iter().zip(&expected) {
            let got = run_soi(&dataset.network, &dataset.pois, &parallel, q).expect("valid query");
            assert_eq!(got.results, want.results, "threads {threads}");
        }
    }
}

#[test]
fn photo_grid_build_is_thread_count_invariant() {
    let dataset = fixture();
    let grid1 = PhotoGrid::build_with_threads(&dataset.network, &dataset.photos, CELL, 1);
    let streets: Vec<_> = dataset.network.streets().iter().map(|s| s.id).collect();

    for threads in WORKER_COUNTS {
        let grid = PhotoGrid::build_with_threads(&dataset.network, &dataset.photos, CELL, threads);
        assert!(grid1 == grid, "{threads} threads built another photo grid");
        for &street in streets.iter().take(10) {
            assert_eq!(
                grid1.photos_near_street(&dataset.network, &dataset.photos, street, EPS),
                grid.photos_near_street(&dataset.network, &dataset.photos, street, EPS),
                "threads {threads}"
            );
        }
    }
}

#[test]
fn engine_batch_is_bit_identical_across_worker_counts() {
    let dataset = fixture();
    let index = PoiIndex::build(&dataset.network, &dataset.pois, CELL);
    let queries = queries(&dataset);
    let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));

    let reference = QueryEngine::new(1).run_soi_batch(&ctx, &queries);
    assert_eq!(reference.stats.errors, 0);
    for workers in WORKER_COUNTS {
        let batch = QueryEngine::new(workers).run_soi_batch(&ctx, &queries);
        assert_eq!(batch.stats.queries, queries.len());
        assert_eq!(batch.stats.errors, 0);
        for (got, want) in batch.results.iter().zip(&reference.results) {
            let (got, want) = (
                got.as_ref().expect("valid query"),
                want.as_ref().expect("valid query"),
            );
            assert_eq!(got.results.len(), want.results.len());
            for (g, w) in got.results.iter().zip(&want.results) {
                assert_eq!(g.street, w.street, "workers {workers}");
                assert_eq!(g.interest.to_bits(), w.interest.to_bits());
                assert_eq!(g.best_segment, w.best_segment);
                assert_eq!(g.best_segment_mass.to_bits(), w.best_segment_mass.to_bits());
            }
        }
    }
}
