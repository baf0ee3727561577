//! Allocation budget of a warm Alg. 1 query — a hard, deterministic gate.
//!
//! A query run on a scratch that has already seen its shape draws every
//! source list, dense table and cell-list arena from that scratch. What is
//! left to allocate is the answer itself and the `LBk` tracker's tree
//! nodes: a few dozen allocations that grow with `k` and with the number
//! of streets whose bound was raised, not with the cells or segments the
//! query visits. Allocation and work counts repeat exactly on a fixed
//! fixture (unlike wall-clock), so the ceiling below is exact arithmetic
//! and CI runs it in release mode beside the determinism suite.

use soi_core::soi::{run_soi_with_scratch, SoiConfig, SoiQuery, SoiScratch};
use soi_index::PoiIndex;
use soi_obs::AllocScope;

const EPS: f64 = 0.0005;

/// Allocations a warm query may make. The fixture's queries make 13–62;
/// one allocation per rasterised segment or visited cell (the state this
/// gate guards against) would add hundreds.
const WARM_ALLOCS_CEILING: u64 = 96;

#[test]
fn warm_queries_allocate_a_few_dozen_times_whatever_they_visit() {
    let dataset = soi_datagen::generate(&soi_datagen::vienna(0.1)).0;
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * EPS);
    let queries: Vec<SoiQuery> = [
        (5usize, &["shop"][..], EPS),
        (10, &["food", "cafe"][..], EPS),
        (20, &["shop", "food", "bar", "museum"][..], EPS),
        (10, &["shop", "food"][..], 2.0 * EPS),
    ]
    .into_iter()
    .map(|(k, kws, eps)| SoiQuery::new(dataset.query_keywords(kws), k, eps).expect("valid"))
    .collect();
    let config = SoiConfig::default();
    let mut scratch = SoiScratch::default();
    let mut run = |query: &SoiQuery| {
        let scope = AllocScope::start();
        let outcome = run_soi_with_scratch(
            &dataset.network,
            &dataset.pois,
            &index,
            query,
            &config,
            &mut scratch,
        )
        .expect("valid query");
        (scope.finish().allocs, outcome)
    };
    let cold: Vec<u64> = queries.iter().map(|q| run(q).0).collect();
    // Two warm passes: the second must repeat the first exactly.
    let warm: Vec<(u64, usize)> = queries
        .iter()
        .chain(&queries)
        .map(|q| {
            let (allocs, outcome) = run(q);
            assert!(!outcome.results.is_empty(), "degenerate fixture");
            let visited = outcome.stats.cell_visits + outcome.stats.segments_seen;
            (allocs, visited)
        })
        .collect();
    let (first, second) = warm.split_at(queries.len());
    assert_eq!(first, second, "allocation and work counts must repeat");
    for (&(allocs, visited), &cold) in first.iter().zip(&cold) {
        assert!(
            allocs <= WARM_ALLOCS_CEILING,
            "warm query made {allocs} allocations (ceiling {WARM_ALLOCS_CEILING})"
        );
        assert!(allocs <= cold, "warm {allocs} > cold {cold}");
        assert!(
            visited as u64 > 4 * WARM_ALLOCS_CEILING,
            "fixture too small to tell per-visit allocation apart: {visited} visits"
        );
    }
}
