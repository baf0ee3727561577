//! `soi stats`: dataset statistics (the paper's Table 1 columns).

use crate::args::Args;
use crate::load;
use soi_common::Result;
use soi_network::NetworkStats;
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let stats = NetworkStats::of(&dataset.network);
    let mut out = std::io::stdout().lock();
    writeln!(out, "dataset: {}", dataset.name)?;
    writeln!(out, "{stats}")?;
    writeln!(out, "POIs:     {}", dataset.pois.len())?;
    writeln!(out, "photos:   {}", dataset.photos.len())?;
    writeln!(out, "keywords: {}", dataset.vocab.len())?;
    Ok(())
}
