//! Allocation budgets of warm `/soi` and `/describe` jobs — hard,
//! deterministic gates.
//!
//! A query run on a scratch that has already seen its shape draws every
//! source list, dense table, cell-list arena and the k best street bounds
//! from that scratch. What is left to allocate is the answer itself: the
//! ranking's bounded heap, its sorted copy and the result vector — three
//! allocations, whatever `k` is and whatever the query visits. Allocation
//! and work counts repeat exactly on a fixed fixture (unlike wall-clock),
//! so the ceiling below is exact arithmetic and CI runs it in release mode
//! beside the determinism suite.
//!
//! A describe job on an engine worker refills that worker's Alg. 2 tables
//! in place and reads its street context from the epoch's table; what is
//! left is the answer vector and the job's bookkeeping, whatever `|Rs|` is.
//! The job that first touches a street builds its context, into columns
//! allocated at their final length: a bounded number of allocations, not
//! one per photo.

use soi_common::StreetId;
use soi_core::describe::{ContextBuilder, DescribeParams, PhiSource, StreetContexts};
use soi_core::soi::{run_soi_with_scratch, SoiConfig, SoiQuery, SoiScratch};
use soi_core::QueryBudget;
use soi_engine::{EngineWorker, QueryCapture};
use soi_index::{PhotoGrid, PoiIndex};
use soi_obs::AllocScope;

const EPS: f64 = 0.0005;

/// Allocations a warm query may make: the 3 every query of the fixture
/// makes, plus 5 of slack for an answer assembled another way. `LBk` kept
/// in per-query tree nodes (the state before it was the k best in one
/// retained vector) made 13–62 here; one allocation per rasterised segment
/// or visited cell would add hundreds.
const WARM_ALLOCS_CEILING: u64 = 8;

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

/// Allocations a warm describe job may make: the 2 every job of the
/// fixture makes (the selection vector and the phase timer's first push),
/// plus the same 5 of slack as the `/soi` gate.
const WARM_DESCRIBE_ALLOCS_CEILING: u64 = 7;

/// Allocations a job that builds its street's context may make on a warm
/// worker: the fixture's first touches make 63, 70 and 75 at `|Rs|` 246,
/// 798 and 2 492. That is three more each than before the context stored
/// its relevance columns (the two columns and the buffer the cell bounds
/// sort weights in), so the ceiling, set at 72 plus 5 of slack, now leaves
/// 2. The index's columns are sized before they are filled; what
/// grows by doubling is `Rs` itself, `Φs`, the candidate cells, the cells'
/// keyword unions and the tag numbering, so the count rises with
/// `log |Rs|`. One allocation per member photo would add hundreds.
const FIRST_TOUCH_ALLOCS_CEILING: u64 = 77;

#[test]
fn warm_describe_jobs_allocate_the_same_few_times_whatever_rs_holds() {
    let dataset = soi_datagen::generate(&soi_datagen::berlin(0.2)).0;
    let grid = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * EPS);
    let builder = ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid: &grid,
        pois: Some(&dataset.pois),
        eps: EPS,
        rho: 0.0001,
        phi_source: PhiSource::Photos,
    };
    // Streets of very different |Rs|: the largest, and ones a third and a
    // tenth of it, largest last so no job merely fits in what its
    // predecessor grew.
    let mut sized: Vec<(usize, StreetId)> = dataset
        .network
        .streets()
        .iter()
        .map(|s| {
            let rs = grid.photos_near_street(&dataset.network, &dataset.photos, s.id, EPS);
            (rs.len(), s.id)
        })
        .collect();
    sized.sort_unstable();
    let largest = sized[sized.len() - 1].0;
    let at_most = |n: usize| sized[sized.partition_point(|&(len, _)| len <= n) - 1];
    let streets = [
        at_most(largest / 10),
        at_most(largest / 3),
        at_most(largest),
    ];
    assert!(streets[0].0 * 2 < streets[1].0 && streets[1].0 * 2 < streets[2].0);
    let jobs: Vec<(StreetId, DescribeParams)> = streets
        .iter()
        .flat_map(|&(_, street)| {
            [(20usize, 0.5), (10, 0.25)]
                .map(|(k, lambda)| (street, DescribeParams::new(k, lambda, 0.5).expect("valid")))
        })
        .collect();
    let mut worker = EngineWorker::default();
    let mut run = |table: &StreetContexts, (street, params): &(StreetId, DescribeParams)| {
        let run = worker.run_describe(
            || table.get_or_build(&builder, *street, None),
            (&dataset.photos).into(),
            params,
            QueryBudget::unlimited(),
            QueryCapture::default(),
        );
        let outcome = run.result.expect("valid job");
        assert_eq!(outcome.selected.len(), params.k, "degenerate fixture");
        (run.alloc.allocs, outcome.stats.photos_evaluated)
    };
    let table = StreetContexts::new(dataset.network.num_streets());
    let cold: Vec<u64> = jobs.iter().map(|job| run(&table, job).0).collect();
    // Two warm passes over the stored contexts: the second must repeat the
    // first exactly.
    let warm: Vec<(u64, usize)> = jobs
        .iter()
        .chain(&jobs)
        .map(|job| run(&table, job))
        .collect();
    let (first, second) = warm.split_at(jobs.len());
    assert_eq!(first, second, "allocation and work counts must repeat");
    for (&(allocs, evaluated), &cold) in first.iter().zip(&cold) {
        assert!(
            allocs <= WARM_DESCRIBE_ALLOCS_CEILING,
            "warm describe job made {allocs} allocations (ceiling {WARM_DESCRIBE_ALLOCS_CEILING})"
        );
        assert!(allocs <= cold, "warm {allocs} > cold {cold}");
        assert!(
            evaluated as u64 > 20 * WARM_DESCRIBE_ALLOCS_CEILING,
            "fixture too small to tell per-photo allocation apart: {evaluated} photos"
        );
    }
    // A fresh table on the warm worker: each street's first job builds its
    // context, and only the build is new.
    let fresh = StreetContexts::new(dataset.network.num_streets());
    for (job, &(rs, _)) in jobs.iter().step_by(2).zip(&streets) {
        let (allocs, _) = run(&fresh, job);
        assert!(
            allocs <= FIRST_TOUCH_ALLOCS_CEILING,
            "first-touch job on |Rs| {rs} made {allocs} allocations \
             (ceiling {FIRST_TOUCH_ALLOCS_CEILING})"
        );
        assert!(
            rs as u64 > 2 * FIRST_TOUCH_ALLOCS_CEILING,
            "fixture too small to tell per-photo allocation apart: |Rs| {rs}"
        );
    }
}
