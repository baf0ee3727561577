//! A process's first query allocates exactly what the same query does again
//! on fresh scratch: the metric instruments every job feeds are registered
//! when an engine worker is made, before any job's allocation scope opens,
//! so their one-off registration is never reported as query work.
//!
//! This is its own test binary: in a binary whose earlier tests already ran
//! a query, the instruments would be registered before this test starts.

use soi_core::describe::{ContextBuilder, DescribeParams};
use soi_core::soi::SoiQuery;
use soi_core::QueryBudget;
use soi_engine::{EngineWorker, QueryCapture, QueryContext};
use soi_index::{PhotoGrid, PoiIndex};

const EPS: f64 = 0.0005;

#[test]
fn a_first_query_allocates_what_a_repeat_on_fresh_scratch_does() {
    let dataset = soi_datagen::generate(&soi_datagen::vienna(0.05)).0;
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * EPS);
    let grid = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * EPS);
    let ctx = QueryContext::new(&dataset.network, &dataset.pois, &index);
    let query = SoiQuery::new(dataset.query_keywords(&["shop", "food"]), 10, EPS).expect("valid");
    let soi_allocs = || {
        let run = EngineWorker::default().run_soi(
            &ctx,
            &query,
            QueryBudget::unlimited(),
            QueryCapture::default(),
        );
        assert!(!run.result.expect("valid query").results.is_empty());
        run.alloc.allocs
    };
    let first = soi_allocs();
    assert_eq!(first, soi_allocs(), "the process's first /soi job");

    // The first describe job of the process, on a context built outside it.
    let street = dataset.network.streets()[0].id;
    let context = ContextBuilder::for_dataset(&dataset, &grid, EPS, 1e-4)
        .build(street)
        .expect("valid street");
    let params = DescribeParams::new(5, 0.5, 0.5).expect("valid");
    let describe_allocs = || {
        let run = EngineWorker::default().run_describe(
            || Ok((&context, false)),
            (&dataset.photos).into(),
            &params,
            QueryBudget::unlimited(),
            QueryCapture::default(),
        );
        run.result.expect("valid job");
        run.alloc.allocs
    };
    let first = describe_allocs();
    assert_eq!(
        first,
        describe_allocs(),
        "the process's first /describe job"
    );
}
