//! The index cache: a directory of bundle snapshots keyed by dataset
//! fingerprint, container format version and build parameters.

use std::path::{Path, PathBuf};

use soi_common::{Result, SoiError};
use soi_data::Dataset;
use soi_snapshot::{corrupt, Fnv64, FORMAT_VERSION};

use super::bundle::{
    build_bundle, dataset_fingerprint, read_bundle_with, write_bundle_with, BundleParams,
    IndexBundle, ReadOutcome,
};

/// How the cache reacts to a corrupt snapshot — or, in
/// [`IndexCache::load_or_build`], one whose stamp disagrees with the cache
/// key in its file name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// A corrupt snapshot fails the command (`Data` error, exit code 3).
    Strict,
    /// A corrupt snapshot is discarded and the index rebuilt and re-written
    /// transparently. The default.
    Lenient,
}

/// What [`IndexCache::load_or_build`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The bundle was decoded from an up-to-date snapshot.
    Hit,
    /// No usable snapshot existed; the bundle was built fresh and a new
    /// snapshot written.
    MissBuilt,
    /// The snapshot existed but failed validation or carried a stale
    /// stamp; lenient mode rebuilt and re-wrote it.
    RebuiltCorrupt,
}

impl CacheOutcome {
    /// The line a boot logs for the outcome.
    pub fn message(self) -> &'static str {
        match self {
            Self::Hit => "index bundle loaded from snapshot cache",
            Self::MissBuilt => "index bundle built and cached",
            Self::RebuiltCorrupt => "corrupt snapshot discarded; index bundle rebuilt",
        }
    }
}

/// A directory of bundle snapshots keyed by dataset fingerprint, container
/// format version, and build parameters.
#[derive(Debug, Clone)]
pub struct IndexCache {
    dir: PathBuf,
    mode: CacheMode,
}

impl IndexCache {
    /// A cache rooted at `dir` (created on first use).
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        Self {
            dir: dir.into(),
            mode,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot path for `dataset` under `params`. The file name folds
    /// in the dataset fingerprint, the container format version, and the
    /// parameter stamp, so any change produces a different file (stale
    /// snapshots are simply never opened).
    pub fn snapshot_path(&self, dataset: &Dataset, params: &BundleParams) -> PathBuf {
        self.snapshot_path_with(dataset, params, dataset_fingerprint(dataset))
    }

    /// [`IndexCache::snapshot_path`] with a precomputed dataset fingerprint.
    fn snapshot_path_with(
        &self,
        dataset: &Dataset,
        params: &BundleParams,
        fingerprint: u64,
    ) -> PathBuf {
        let key = snapshot_key(fingerprint, params);
        let name = sanitised_stem(&dataset.name);
        self.dir.join(format!("{name}-{key:016x}.soisnap"))
    }

    /// Writes `bundle` as `dataset`'s snapshot under `params` — the file
    /// [`IndexCache::load_or_build`] finds for that dataset — and returns
    /// its path. One fingerprint walk names the file and stamps it.
    ///
    /// # Errors
    /// I/O failures creating the directory or writing the snapshot.
    pub fn store(
        &self,
        dataset: &Dataset,
        bundle: &IndexBundle,
        params: &BundleParams,
    ) -> Result<PathBuf> {
        std::fs::create_dir_all(&self.dir).map_err(|e| SoiError::io(e, self.dir.clone()))?;
        let fingerprint = dataset_fingerprint(dataset);
        let path = self.snapshot_path_with(dataset, params, fingerprint);
        write_bundle_with(&path, fingerprint, bundle, params)?;
        Ok(path)
    }

    /// Loads the bundle from the cache, or builds (and persists) it.
    ///
    /// # Errors
    /// I/O failures creating the directory or writing the snapshot; in
    /// [`CacheMode::Strict`], also any corrupt or stale snapshot.
    pub fn load_or_build(
        &self,
        dataset: &Dataset,
        params: &BundleParams,
    ) -> Result<(IndexBundle, CacheOutcome)> {
        std::fs::create_dir_all(&self.dir).map_err(|e| SoiError::io(e, self.dir.clone()))?;
        // One dataset walk covers both the cache key and the staleness
        // check inside the snapshot: the fingerprint is the expensive part
        // of a cache hit after the decode itself.
        let fingerprint = dataset_fingerprint(dataset);
        let path = self.snapshot_path_with(dataset, params, fingerprint);
        let mut outcome = CacheOutcome::MissBuilt;
        if path.exists() {
            let err = match read_bundle_with(&path, dataset, params, fingerprint) {
                Ok(ReadOutcome::Loaded(bundle)) => return Ok((*bundle, CacheOutcome::Hit)),
                // Key-hashed file names make a stale stamp near-impossible:
                // a file whose stamp disagrees with its own name (an older
                // writer's flags word, say) is answered like a corrupt one.
                Ok(ReadOutcome::Stale(why)) => {
                    corrupt(&path, format!("stale under its own cache key: {why}"))
                }
                Err(e) => e,
            };
            if self.mode == CacheMode::Strict {
                return Err(err);
            }
            outcome = CacheOutcome::RebuiltCorrupt;
        }
        crate::obs::index_metrics().snapshot_rebuilds.inc();
        let bundle = build_bundle(dataset, params);
        write_bundle_with(&path, fingerprint, &bundle, params)?;
        Ok((bundle, outcome))
    }
}

/// The content part of a snapshot file key: fingerprint, format version
/// and build params.
pub(super) fn snapshot_key(fingerprint: u64, params: &BundleParams) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(fingerprint);
    h.write_u32(FORMAT_VERSION);
    h.write_f64(params.poi_cell);
    h.write_f64(params.pg_cell);
    h.finish()
}

/// A dataset name reduced to a filesystem-safe snapshot file stem.
fn sanitised_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(48)
        .collect()
}
