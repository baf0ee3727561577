//! `soi generate`: a synthetic city dataset, saved to a directory.

use crate::args::Args;
use soi_common::{Result, SoiError};
use soi_obs::log::{self, Value};
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let city = args.require("city")?;
    let out = args.require("out")?;
    let scale: f64 = args.get_parsed("scale", 0.05)?;
    let mut config = match city {
        "london" => soi_datagen::london(scale),
        "berlin" => soi_datagen::berlin(scale),
        "vienna" => soi_datagen::vienna(scale),
        other => {
            return Err(SoiError::invalid(format!(
                "unknown city {other:?} (expected london, berlin, or vienna)"
            )))
        }
    };
    if let Some(seed) = args.get("seed") {
        config.seed = seed
            .parse()
            .map_err(|_| SoiError::invalid("--seed must be an integer"))?;
    }
    log::event(
        "cli.generate",
        &format!("generating {} at scale {scale}", config.name),
        &[
            ("city", Value::Str(&config.name)),
            ("scale", Value::F64(scale)),
            ("pois", Value::U64(config.n_pois as u64)),
            ("photos", Value::U64(config.n_photos as u64)),
        ],
    );
    let (dataset, truth) = soi_datagen::generate(&config);
    soi_data::io::save_dataset(&dataset, out)?;
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "wrote {} to {out}: {} segments, {} streets, {} POIs, {} photos",
        dataset.name,
        dataset.network.num_segments(),
        dataset.network.num_streets(),
        dataset.pois.len(),
        dataset.photos.len()
    )?;
    for (category, streets) in &truth.destinations {
        let names: Vec<&str> = streets
            .iter()
            .map(|&s| dataset.network.street(s).name.as_str())
            .collect();
        writeln!(
            stdout,
            "planted {category} destinations: {}",
            names.join(", ")
        )?;
    }
    Ok(())
}
