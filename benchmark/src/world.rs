//! The benchmark's in-process copy of what the server holds: the dataset
//! as loaded from the files the server reads, and the same index bundle.
//! Request generation, the oracles, the layer pass and the traced replay
//! all work from it.

use crate::workload::{Spec, EPS, HOT_STREETS};
use soi_common::StreetId;
use soi_core::describe::{ContextBuilder, DescribeParams, PhiSource};
use soi_core::soi::SoiQuery;
use soi_data::Dataset;
use soi_index::{BundleParams, IndexBundle, PhotoGrid};
use std::path::Path;
use std::time::Instant;

/// The server's `--rho` default.
pub const RHO: f64 = 1e-4;

/// The bundle parameters `soi serve` derives from its `--eps` default:
/// both grids at `2ε`, the ε-maps for `ε` persisted, no IR-tree.
pub fn serve_bundle_params() -> BundleParams {
    BundleParams {
        poi_cell: 2.0 * EPS,
        pg_cell: 2.0 * EPS,
        eps: Some(EPS),
        with_ir: false,
        threads: 0,
    }
}

pub struct World {
    pub dataset: Dataset,
    pub bundle: IndexBundle,
    pub params: BundleParams,
    /// The [`HOT_STREETS`] streets with the largest `Rs`, largest first.
    pub hot_streets: Vec<u32>,
    pub generate_s: f64,
    pub load_s: f64,
    pub build_bundle_s: f64,
}

impl World {
    /// Generates `berlin` at `scale` (the preset's fixed seed: the city is
    /// a fixture, the *requests* vary with `--seed`), saves it to
    /// `data_dir` for the server, loads it back the way the server does,
    /// and builds the server's index bundle.
    pub fn build(scale: f64, data_dir: &Path) -> Result<Self, String> {
        let config = soi_datagen::berlin(scale);
        let started = Instant::now();
        let (generated, _) = soi_datagen::generate(&config);
        let generate_s = started.elapsed().as_secs_f64();
        soi_data::io::save_dataset(&generated, data_dir).map_err(|e| e.to_string())?;
        drop(generated);

        let started = Instant::now();
        let dataset = soi_data::io::load_dataset(data_dir).map_err(|e| e.to_string())?;
        let load_s = started.elapsed().as_secs_f64();

        let params = serve_bundle_params();
        let started = Instant::now();
        let bundle = soi_index::build_bundle(&dataset, &params);
        let build_bundle_s = started.elapsed().as_secs_f64();

        let hot_streets = hot_streets(&dataset, &bundle.photo_grid);
        if hot_streets.len() < HOT_STREETS {
            return Err(format!(
                "dataset has only {} streets with photos",
                hot_streets.len()
            ));
        }
        Ok(Self {
            dataset,
            bundle,
            params,
            hot_streets,
            generate_s,
            load_s,
            build_bundle_s,
        })
    }

    pub fn context_builder(&self) -> ContextBuilder<'_> {
        context_builder(&self.dataset, &self.bundle.photo_grid)
    }
}

/// The in-process form of a `/soi` request: keywords resolved against the
/// vocabulary exactly as the server's body parser resolves them.
pub fn soi_query(dataset: &Dataset, spec: &Spec) -> Option<SoiQuery> {
    let Spec::Soi { keywords, k, eps } = spec else {
        return None;
    };
    SoiQuery::new(dataset.query_keywords(keywords), *k, *eps).ok()
}

/// The in-process form of a `/describe` request.
pub fn describe_job(spec: &Spec) -> Option<(StreetId, DescribeParams)> {
    let Spec::Describe {
        street,
        k,
        lambda,
        w,
    } = spec
    else {
        return None;
    };
    let params = DescribeParams::new(*k, *lambda, *w).ok()?;
    Some((StreetId(*street), params))
}

/// The street-context inputs the server's dispatcher uses.
pub fn context_builder<'a>(dataset: &'a Dataset, photo_grid: &'a PhotoGrid) -> ContextBuilder<'a> {
    ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid,
        pois: Some(&dataset.pois),
        eps: EPS,
        rho: RHO,
        phi_source: PhiSource::Photos,
    }
}

/// Streets ordered by `|Rs|` descending (ties: lower id first), cut to
/// [`HOT_STREETS`], skipping streets without photos.
fn hot_streets(dataset: &Dataset, photo_grid: &PhotoGrid) -> Vec<u32> {
    let mut sized: Vec<(usize, u32)> = dataset
        .network
        .streets()
        .iter()
        .map(|street| {
            let members =
                photo_grid.photos_near_street(&dataset.network, &dataset.photos, street.id, EPS);
            (members.len(), street.id.raw())
        })
        .filter(|&(n, _)| n > 0)
        .collect();
    sized.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    sized.truncate(HOT_STREETS);
    sized.into_iter().map(|(_, id)| id).collect()
}
