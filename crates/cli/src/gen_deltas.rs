//! `soi gen-deltas`: a deterministic delta stream valid against a dataset.

use crate::args::Args;
use crate::load;
use soi_common::{Result, ResultExt, SoiError};
use std::io::Write;

/// `soi gen-deltas --data DIR --out FILE`: writes a deterministic
/// JSON-lines delta stream (POI/photo inserts and deletes) valid against
/// the dataset regardless of where the server folds epochs: insert
/// positions are convex combinations of existing POI positions (always
/// inside the index extent), and delete ids are distinct values below
/// `len - total_deletes`, so they stay in range however the dense-id
/// reassignment of intervening folds lands.
pub(crate) fn run(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let out_path = args.require("out")?;
    let total: usize = args.get_parsed("ops", 256usize)?;
    let seed: u64 = args.get_parsed("seed", 42u64)?;
    let del_ratio: f64 = args.get_parsed("del-ratio", 0.2f64)?;
    let photo_ratio: f64 = args.get_parsed("photo-ratio", 0.3f64)?;
    if !(0.0..=1.0).contains(&del_ratio) || !(0.0..=1.0).contains(&photo_ratio) {
        return Err(SoiError::invalid(
            "--del-ratio and --photo-ratio must lie in [0, 1]",
        ));
    }
    if dataset.pois.is_empty() {
        return Err(SoiError::invalid(
            "gen-deltas needs a dataset with POIs to sample positions from",
        ));
    }
    let mut rng = SplitMix64(seed);

    // Budget the deletes up front so ids can be chosen distinct and
    // fold-proof: any delete id stays below the smallest size the
    // collection can shrink to.
    let dels = ((total as f64) * del_ratio) as usize;
    let photo_dels = (((dels as f64) * photo_ratio) as usize).min(dataset.photos.len() / 2);
    let poi_dels = (dels - ((dels as f64) * photo_ratio) as usize).min(dataset.pois.len() / 2);
    let pick_distinct = |rng: &mut SplitMix64, count: usize, bound: usize| -> Vec<usize> {
        let mut taken = std::collections::HashSet::new();
        let mut ids = Vec::with_capacity(count);
        while ids.len() < count {
            let id = rng.below(bound);
            if taken.insert(id) {
                ids.push(id);
            }
        }
        ids
    };
    let mut poi_del_ids = pick_distinct(&mut rng, poi_dels, dataset.pois.len() - poi_dels);
    let mut photo_del_ids = pick_distinct(
        &mut rng,
        photo_dels,
        (dataset.photos.len() - photo_dels).max(1),
    );

    let sample_pos = |rng: &mut SplitMix64| {
        let a = dataset
            .pois
            .get(soi_common::PoiId::from_index(rng.below(dataset.pois.len())));
        let b = dataset
            .pois
            .get(soi_common::PoiId::from_index(rng.below(dataset.pois.len())));
        let t = rng.next_f64();
        soi_geo::Point::new(
            a.pos.x + (b.pos.x - a.pos.x) * t,
            a.pos.y + (b.pos.y - a.pos.y) * t,
        )
    };
    let sample_terms = |rng: &mut SplitMix64| -> Vec<usize> {
        let vocab = dataset.vocab.len();
        (0..1 + rng.below(3))
            .map(|_| rng.below(vocab.max(1)))
            .filter(|_| vocab > 0)
            .collect()
    };
    let render_ids = |ids: &[usize]| {
        let body: Vec<String> = ids.iter().map(usize::to_string).collect();
        format!("[{}]", body.join(","))
    };

    let mut lines = Vec::with_capacity(total);
    let mut counts = [0u64; 4];
    for _ in 0..total {
        // Spend the delete budgets uniformly across the stream, adds fill
        // the rest (photo adds at --photo-ratio).
        let remaining = total - lines.len();
        let budget = poi_del_ids.len() + photo_del_ids.len();
        let line = if budget > 0 && rng.below(remaining) < budget {
            let take_photo = rng.below(budget) < photo_del_ids.len();
            if take_photo {
                counts[3] += 1;
                let id = photo_del_ids.pop().unwrap_or_default();
                format!("{{\"op\":\"del_photo\",\"id\":{id}}}")
            } else {
                counts[2] += 1;
                let id = poi_del_ids.pop().unwrap_or_default();
                format!("{{\"op\":\"del_poi\",\"id\":{id}}}")
            }
        } else {
            let pos = sample_pos(&mut rng);
            let terms = render_ids(&sample_terms(&mut rng));
            if rng.next_f64() < photo_ratio {
                counts[1] += 1;
                format!(
                    "{{\"op\":\"add_photo\",\"x\":{},\"y\":{},\"tags\":{terms}}}",
                    pos.x, pos.y
                )
            } else {
                counts[0] += 1;
                format!(
                    "{{\"op\":\"add_poi\",\"x\":{},\"y\":{},\"kw\":{terms},\"weight\":1.0}}",
                    pos.x, pos.y
                )
            }
        };
        lines.push(line);
    }
    // Every line must round-trip the real parser before it is written —
    // a generator that emits rejectable ops poisons whole ingest batches.
    for (i, line) in lines.iter().enumerate() {
        soi_index::DeltaOp::parse_line(line, &dataset.vocab)
            .map_err(|e| SoiError::invalid(format!("generated line {}: {e}", i + 1)))?;
    }
    let mut doc = lines.join("\n");
    doc.push('\n');
    std::fs::write(out_path, doc).at_path(out_path)?;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "wrote {} delta ops to {out_path} (add_poi {}, add_photo {}, del_poi {}, del_photo {}; seed {seed})",
        total, counts[0], counts[1], counts[2], counts[3]
    )?;
    Ok(())
}

/// A tiny deterministic RNG (splitmix64) so `gen-deltas` needs no
/// external dependency and the same seed always emits the same stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (0 when `n` is 0).
    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }
}
