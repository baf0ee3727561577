//! The four workloads: what each sends and why.
//!
//! Request lists are a function of `--seed` (and, for `/describe`, of the
//! fixed dataset's forty most-photographed streets). The server only ever
//! sees the rendered bodies.

use crate::rng::Rng;

/// Requests generated per workload; the phases walk this list in order
/// and wrap around (no phase is long enough to wrap at the shipped rates).
pub const LIST_LEN: usize = 4096;

/// The ε every `/soi` request of the hot workload shares, and the server's
/// `--eps` default that sizes its grids and selects `/describe` photo sets.
pub const EPS: f64 = 0.0005;

/// ε values `soi_diverse` draws from: 24 log-spaced points in
/// [0.0002, 0.002], three times the ε-map LRU's 8 entries.
const DIVERSE_EPS_COUNT: usize = 24;

/// Streets `describe_hot` cycles over.
pub const HOT_STREETS: usize = 40;

/// The Fig. 4 keyword grid: every non-empty subset of these four.
const FIG4_KEYWORDS: [&str; 4] = ["shop", "food", "religion", "education"];
const FIG4_K: [usize; 3] = [10, 20, 50];
const FIG6_K: [usize; 3] = [5, 10, 20];
const FIG6_LAMBDA: [f64; 3] = [0.25, 0.5, 0.75];
const FIG6_W: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    SoiHot,
    SoiDiverse,
    DescribeHot,
    MixedIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SoiHot,
        Workload::SoiDiverse,
        Workload::DescribeHot,
        Workload::MixedIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoiHot => "soi_hot",
            Workload::SoiDiverse => "soi_diverse",
            Workload::DescribeHot => "describe_hot",
            Workload::MixedIngest => "mixed_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop read rate of the rate phase, requests per second. Each
    /// keeps the server's CPU near or under half of one core at scale 0.5
    /// (11, 26, 6 and 23 ms of CPU per request), so the rate phase measures
    /// service time rather than queueing.
    pub fn rate(self) -> f64 {
        match self {
            Workload::SoiHot => 40.0,
            Workload::SoiDiverse => 20.0,
            Workload::DescribeHot => 80.0,
            Workload::MixedIngest => 30.0,
        }
    }

    /// Generator connections of the rate phase. `mixed_ingest` reads on
    /// one connection beside its one writer; the others use `clients`.
    pub fn rate_clients(self, clients: usize) -> usize {
        match self {
            Workload::MixedIngest => 1,
            _ => clients,
        }
    }

    pub fn ingests(self) -> bool {
        self == Workload::MixedIngest
    }

    /// One line: why this workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SoiHot => {
                "Fig. 4 grid: 45 repeated /soi shapes at one eps, so an Alg. 1 speed-up and any per-eps or per-shape reuse both show"
            }
            Workload::SoiDiverse => {
                "random /soi keywords, k and 24 eps values with no sharing: a cache keyed on eps or shape predicts no change, a real Alg. 1 gain still shows"
            }
            Workload::DescribeHot => {
                "/describe on the 40 busiest streets bypasses Alg. 1: serve-layer, PhotoGrid and DiversificationIndex changes show, Alg. 1 changes must not"
            }
            Workload::MixedIngest => {
                "reads beside /ingest batches with folds, delta re-seals and a snapshot boot: a read gain paid for in seal, fold or boot cost shows only here"
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    Soi,
    Describe,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Soi => "/soi",
            Endpoint::Describe => "/describe",
        }
    }
}

/// The parameters of one request, as the in-process passes need them.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    Soi {
        keywords: Vec<&'static str>,
        k: usize,
        eps: f64,
    },
    Describe {
        street: u32,
        k: usize,
        lambda: f64,
        w: f64,
    },
}

/// One request: its parameters and the exact body the server receives.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub spec: Spec,
    pub body: String,
}

impl Request {
    fn new(spec: Spec) -> Self {
        let body = match &spec {
            Spec::Soi { keywords, k, eps } => {
                let words: Vec<String> = keywords.iter().map(|w| format!("\"{w}\"")).collect();
                format!(
                    "{{\"keywords\":[{}],\"k\":{k},\"eps\":{eps}}}",
                    words.join(",")
                )
            }
            Spec::Describe {
                street,
                k,
                lambda,
                w,
            } => format!("{{\"street\":{street},\"k\":{k},\"lambda\":{lambda},\"w\":{w}}}"),
        };
        Self { spec, body }
    }

    pub fn endpoint(&self) -> Endpoint {
        match self.spec {
            Spec::Soi { .. } => Endpoint::Soi,
            Spec::Describe { .. } => Endpoint::Describe,
        }
    }
}

/// The 45 Fig. 4 shapes in one seeded order.
fn soi_hot_shapes(rng: &mut Rng) -> Vec<Request> {
    let mut shapes = Vec::with_capacity(45);
    for mask in 1u32..16 {
        let keywords: Vec<&'static str> = FIG4_KEYWORDS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, w)| *w)
            .collect();
        for k in FIG4_K {
            shapes.push(Request::new(Spec::Soi {
                keywords: keywords.clone(),
                k,
                eps: EPS,
            }));
        }
    }
    rng.shuffle(&mut shapes);
    shapes
}

/// The Fig. 6 shapes (street × k × λ at w = 0.5) in one seeded order.
fn describe_hot_shapes(rng: &mut Rng, hot_streets: &[u32]) -> Vec<Request> {
    let mut shapes = Vec::with_capacity(hot_streets.len() * 9);
    for &street in hot_streets {
        for k in FIG6_K {
            for lambda in FIG6_LAMBDA {
                shapes.push(Request::new(Spec::Describe {
                    street,
                    k,
                    lambda,
                    w: FIG6_W,
                }));
            }
        }
    }
    rng.shuffle(&mut shapes);
    shapes
}

/// The ε values of `soi_diverse`, rounded so the body text and the
/// in-process query agree on the exact `f64`.
fn diverse_eps_values() -> Vec<f64> {
    (0..DIVERSE_EPS_COUNT)
        .map(|i| {
            let eps = 0.0002 * 10f64.powf(i as f64 / (DIVERSE_EPS_COUNT - 1) as f64);
            (eps * 1e7).round() / 1e7
        })
        .collect()
}

/// One block of `soi_diverse`: as many requests as there are ε values,
/// drawn so that every block has the same marginals — each ε once, each
/// keyword count 1..=4 equally often, one k from each equal stratum of
/// 1..=100, and `misc` (73 % of all POIs, so the cost of a request turns
/// on it) as often as independent draws would include it on average
/// (about s/9 of the requests with s keywords: 1, 1, 2, 3 of each six).
/// What varies with the seed is which values meet in one request, so two
/// seeds send different requests of the same overall weight.
fn soi_diverse_block(rng: &mut Rng, categories: &[&'static str], eps: &[f64]) -> Vec<Request> {
    const MISC: &str = "misc";
    let n = eps.len();
    let others: Vec<&'static str> = categories.iter().copied().filter(|c| *c != MISC).collect();
    let mut eps_order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut eps_order);
    let mut k_strata: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut k_strata);
    // (keyword count, includes misc), `n / 4` requests per count.
    let mut shapes: Vec<(usize, bool)> = Vec::with_capacity(n);
    for size in 1..=4usize {
        let per_size = n / 4;
        let with_misc = (per_size * size + 4) / 9;
        shapes.extend((0..per_size).map(|i| (size, i < with_misc)));
    }
    rng.shuffle(&mut shapes);
    (0..shapes.len())
        .map(|i| {
            let (size, misc) = shapes[i];
            let mut pool = others.clone();
            rng.shuffle(&mut pool);
            pool.truncate(size - usize::from(misc));
            if misc {
                pool.insert(rng.below(pool.len() + 1), MISC);
            }
            let stratum = k_strata[i];
            let (lo, hi) = (stratum * 100 / n, (stratum + 1) * 100 / n);
            Request::new(Spec::Soi {
                keywords: pool,
                k: 1 + lo + rng.below(hi - lo),
                eps: eps[eps_order[i]],
            })
        })
        .collect()
}

/// The request list of `workload` for `seed`. `hot_streets` are the
/// dataset's most-photographed streets (`/describe` targets).
pub fn requests(workload: Workload, seed: u64, hot_streets: &[u32]) -> Vec<Request> {
    let cycle = |shapes: Vec<Request>| -> Vec<Request> {
        (0..LIST_LEN)
            .map(|i| shapes[i % shapes.len()].clone())
            .collect()
    };
    match workload {
        Workload::SoiHot => cycle(soi_hot_shapes(&mut Rng::new(seed, 1))),
        Workload::SoiDiverse => {
            let mut rng = Rng::new(seed, 2);
            let categories: Vec<&'static str> =
                soi_datagen::CATEGORIES.iter().map(|c| c.name).collect();
            let eps = diverse_eps_values();
            let mut list = Vec::with_capacity(LIST_LEN + eps.len());
            while list.len() < LIST_LEN {
                list.extend(soi_diverse_block(&mut rng, &categories, &eps));
            }
            list.truncate(LIST_LEN);
            list
        }
        Workload::DescribeHot => cycle(describe_hot_shapes(&mut Rng::new(seed, 3), hot_streets)),
        Workload::MixedIngest => {
            // Two `soi_hot` shapes, then one `describe_hot` shape.
            let soi = soi_hot_shapes(&mut Rng::new(seed, 4));
            let describe = describe_hot_shapes(&mut Rng::new(seed, 5), hot_streets);
            let (mut s, mut d) = (0usize, 0usize);
            (0..LIST_LEN)
                .map(|i| {
                    if i % 3 == 2 {
                        d += 1;
                        describe[(d - 1) % describe.len()].clone()
                    } else {
                        s += 1;
                        soi[(s - 1) % soi.len()].clone()
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(workload: Workload, seed: u64) -> Vec<String> {
        let streets: Vec<u32> = (100..100 + HOT_STREETS as u32).collect();
        requests(workload, seed, &streets)
            .into_iter()
            .map(|r| r.body)
            .collect()
    }

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        for workload in Workload::ALL {
            assert_eq!(bodies(workload, 7), bodies(workload, 7), "{workload:?}");
            assert_ne!(bodies(workload, 7), bodies(workload, 8), "{workload:?}");
            assert_eq!(bodies(workload, 7).len(), LIST_LEN);
        }
    }

    #[test]
    fn soi_hot_is_the_fig4_grid() {
        let list = bodies(Workload::SoiHot, 1);
        let distinct: std::collections::BTreeSet<&String> = list.iter().collect();
        assert_eq!(distinct.len(), 45);
        assert_eq!(list[..45], list[45..90], "one shuffle, repeated");
        assert!(list.iter().all(|b| b.ends_with("\"eps\":0.0005}")));
    }

    #[test]
    fn soi_diverse_spreads_over_eps_and_k() {
        let list = requests(Workload::SoiDiverse, 1, &[]);
        let mut eps_seen = std::collections::BTreeSet::new();
        for request in &list {
            let Spec::Soi { keywords, k, eps } = &request.spec else {
                panic!("soi_diverse sends only /soi");
            };
            assert!((1..=4).contains(&keywords.len()));
            assert!((1..=100).contains(k));
            assert!((0.0002..=0.002).contains(eps));
            // The body's text parses back to the exact in-process value.
            let text = request.body.split("\"eps\":").nth(1).expect("eps field");
            assert_eq!(text.trim_end_matches('}').parse::<f64>().ok(), Some(*eps));
            eps_seen.insert(eps.to_bits());
        }
        assert_eq!(eps_seen.len(), DIVERSE_EPS_COUNT);
    }

    #[test]
    fn soi_diverse_blocks_share_their_marginals() {
        let list = requests(Workload::SoiDiverse, 5, &[]);
        for block in list.chunks_exact(DIVERSE_EPS_COUNT).take(40) {
            let mut eps: Vec<u64> = Vec::new();
            let mut sizes = [0usize; 5];
            let mut with_misc = 0;
            let mut k_strata = std::collections::BTreeSet::new();
            for request in block {
                let Spec::Soi {
                    keywords,
                    k,
                    eps: e,
                } = &request.spec
                else {
                    panic!("soi_diverse sends only /soi");
                };
                eps.push(e.to_bits());
                sizes[keywords.len()] += 1;
                with_misc += usize::from(keywords.contains(&"misc"));
                let n = DIVERSE_EPS_COUNT;
                let stratum = (0..n).find(|j| *k <= (j + 1) * 100 / n).expect("k <= 100");
                k_strata.insert(stratum);
                let distinct: std::collections::BTreeSet<_> = keywords.iter().collect();
                assert_eq!(distinct.len(), keywords.len(), "repeated keyword");
            }
            eps.sort_unstable();
            eps.dedup();
            assert_eq!(eps.len(), DIVERSE_EPS_COUNT, "each eps once per block");
            assert_eq!(sizes, [0, 6, 6, 6, 6]);
            assert_eq!(with_misc, 7);
            assert_eq!(k_strata.len(), DIVERSE_EPS_COUNT, "one k per stratum");
        }
    }

    #[test]
    fn mixed_reads_two_soi_per_describe() {
        let streets: Vec<u32> = (0..HOT_STREETS as u32).collect();
        let list = requests(Workload::MixedIngest, 3, &streets);
        for (i, request) in list.iter().enumerate() {
            let want = if i % 3 == 2 {
                Endpoint::Describe
            } else {
                Endpoint::Soi
            };
            assert_eq!(request.endpoint(), want);
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200, "{}", workload.why().len());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
