//! Seeded request streams. The benchmark renders every request line
//! itself, from the seed alone, so the program under test receives only
//! the generated inputs and the same seed always yields a byte-identical
//! stream.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The ten Livermore kernels of the case study.
pub const KERNELS: [u32; 10] = [1, 2, 3, 4, 6, 7, 8, 9, 10, 12];
/// The paper's ablations as `config` fields (baseline = none).
const ABLATIONS: [(&str, &str); 5] = [
    ("baseline", ""),
    ("nochain", "\"chaining\":false"),
    ("nobubbles", "\"bubbles\":false"),
    ("norefresh", "\"refresh\":false"),
    ("nopair", "\"pair_constraint\":false"),
];
/// Machine presets (`c240` is the server's base and goes unnamed).
const PRESETS: [&str; 3] = ["c240", "c240-64b", "dual-port"];

/// Combinations of everything but the kernel.
const REST: usize = ABLATIONS.len() * PRESETS.len();
/// The single-CPU point space at default passes: kernels × ablations ×
/// presets.
pub const SPACE: usize = KERNELS.len() * REST;

/// Requests per block: the unit `suite_s` times on the sweeps (the size
/// of the paper's own kernels × ablations grid).
pub const BLOCK: usize = 50;
/// Pass multiplier of the long-pass points of `sweep-cold`.
pub const LONG_PASSES: i64 = 20;
/// Long-pass points per block of `sweep-cold`: enough that the tail
/// (ten samples beyond it) falls among the two costliest kernels' long
/// points rather than between kernel groups.
const LONG_PER_BLOCK: usize = 2;
/// Hot-set size of `sweep-repeat`.
pub const HOT: usize = 16;
/// `sweep-repeat` shares: invalid lines, then fresh points; the rest
/// repeat a hot key.
pub const INVALID_SHARE: f64 = 0.02;
pub const FRESH_SHARE: f64 = 0.20;

/// Seeded invalid lines and the error kind each must be answered with.
const INVALID: [(&str, &str); 6] = [
    ("{\"kernel\":1,", "protocol"),
    ("{\"kernel\":1,\"colour\":\"red\"}", "protocol"),
    ("{\"kernel\":5}", "unknown_kernel"),
    ("{\"kernel\":1,\"machine\":\"cray-2\"}", "unknown_machine"),
    ("{\"kernel\":1,\"config\":{\"banks\":0}}", "invalid_config"),
    ("{\"kernel\":1,\"passes\":0}", "invalid_passes"),
];

/// The trivial request each set-up waits on: one pass of LFK1, outside
/// every stream's key space.
pub const WARMUP: &str = "{\"id\":\"warmup\",\"kernel\":1,\"passes\":1}";

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub line: String,
    /// `Some(kind)`: the line is invalid and must be answered with an
    /// error row of this kind.
    pub expect_error: Option<&'static str>,
}

/// One point of the space, optionally with a pass count.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kernel: u32,
    rest: usize,
    passes: Option<i64>,
}

impl Spec {
    fn of(index: usize) -> Spec {
        Spec {
            kernel: KERNELS[index / REST],
            rest: index % REST,
            passes: None,
        }
    }

    fn render(&self, id: &str) -> String {
        let mut r = self.rest;
        let mut digit = |n: usize| {
            let d = r % n;
            r /= n;
            d
        };
        let ablation = ABLATIONS[digit(ABLATIONS.len())].1;
        let preset = PRESETS[digit(PRESETS.len())];
        let mut line = format!("{{\"id\":\"{id}\",\"kernel\":{}", self.kernel);
        if preset != "c240" {
            let _ = write!(line, ",\"machine\":\"{preset}\"");
        }
        if let Some(p) = self.passes {
            let _ = write!(line, ",\"passes\":{p}");
        }
        if !ablation.is_empty() {
            let _ = write!(line, ",\"config\":{{{ablation}}}");
        }
        line.push('}');
        line
    }
}

fn default_passes(kernel: u32) -> i64 {
    lfk_suite::by_id(kernel)
        .expect("generator uses curated kernel ids")
        .passes()
}

/// The pass count of a point's `lap`-th repeat of the space (lap 0 is
/// the first pass through it, at default passes). Laps alternate around
/// the default, +1, −1, +2, −2, …, so each pair of laps costs what two
/// default laps do; past ±(default − 1) they only go up. Every lap of a
/// kernel has its own pass count, so every key stays new.
fn lap_passes(default: i64, lap: i64) -> Option<i64> {
    let symmetric = 2 * (default - 1);
    match lap {
        0 => None,
        _ if lap > symmetric => Some(2 * default - 1 + (lap - symmetric)),
        _ if lap % 2 == 1 => Some(default + (lap + 1) / 2),
        _ => Some(default - lap / 2),
    }
}

/// Unique points in a seeded order. Past the end of the space the order
/// repeats with an explicit pass count per lap ([`lap_passes`]), which
/// keeps every key new however long a run lasts.
struct UniquePoints {
    order: Vec<usize>,
    next: usize,
}

impl UniquePoints {
    fn new(rng: &mut Rng) -> UniquePoints {
        let mut order: Vec<usize> = (0..SPACE).collect();
        rng.shuffle(&mut order);
        UniquePoints { order, next: 0 }
    }

    fn take(&mut self) -> Spec {
        let i = self.next;
        self.next += 1;
        let mut spec = Spec::of(self.order[i % SPACE]);
        spec.passes = lap_passes(default_passes(spec.kernel), (i / SPACE) as i64);
        spec
    }
}

/// `sweep-cold`: unique single-CPU points over kernels × ablations ×
/// presets (default passes on the first lap), plus exactly
/// [`LONG_PER_BLOCK`] long-pass points per [`BLOCK`] at seeded
/// positions. Long points run on the base machine at [`LONG_PASSES`] ×
/// default passes (plus one pass per round, which keeps their keys
/// unique) and rotate over the kernels in a fixed order. Their costs
/// then depend on the kernel alone, so the tail they set is steady, and
/// every seed pairs the same kernels' long points in a block, so the
/// blocks' costs, which `suite_s` times, do not depend on the seed.
pub fn cold_stream(seed: u64) -> impl Iterator<Item = Request> {
    let mut rng = Rng::new(seed);
    let mut points = UniquePoints::new(&mut rng);
    let mut long_at = [0; LONG_PER_BLOCK];
    let mut longs = 0usize;
    (0usize..).map(move |i| {
        if i % BLOCK == 0 {
            let mut offsets: Vec<usize> = (0..BLOCK).collect();
            rng.shuffle(&mut offsets);
            for (at, offset) in long_at.iter_mut().zip(offsets) {
                *at = i + offset;
            }
        }
        let spec = if long_at.contains(&i) {
            let kernel = KERNELS[longs % KERNELS.len()];
            let round = (longs / KERNELS.len()) as i64;
            longs += 1;
            Spec {
                kernel,
                rest: 0,
                passes: Some(default_passes(kernel) * LONG_PASSES + round),
            }
        } else {
            points.take()
        };
        Request {
            line: spec.render(&format!("c{i}")),
            expect_error: None,
        }
    })
}

/// `sweep-repeat`: a closed set of [`HOT`] default-pass points that
/// about 78% of requests repeat, about 20% fresh unique points, and
/// about 2% invalid lines drawn from fixed templates.
pub fn repeat_stream(seed: u64) -> impl Iterator<Item = Request> {
    let mut rng = Rng::new(seed);
    let mut points = UniquePoints::new(&mut rng);
    let hot: Vec<Spec> = (0..HOT).map(|_| points.take()).collect();
    (0usize..).map(move |i| {
        let id = format!("r{i}");
        let r = rng.unit();
        if r < INVALID_SHARE {
            let (text, kind) = INVALID[rng.below(INVALID.len())];
            Request {
                line: text.to_string(),
                expect_error: Some(kind),
            }
        } else {
            let spec = if r < INVALID_SHARE + FRESH_SHARE {
                points.take()
            } else {
                hot[rng.below(HOT)]
            };
            Request {
                line: spec.render(&id),
                expect_error: None,
            }
        }
    })
}

/// The paper's kernels × ablations grid on the base machine: the sample
/// the in-process `paper-suite` sends through the service layers when
/// traced.
pub fn grid_lines() -> Vec<String> {
    KERNELS
        .iter()
        .flat_map(|&kernel| {
            (0..ABLATIONS.len()).map(move |a| {
                Spec {
                    kernel,
                    rest: a,
                    passes: None,
                }
                .render(&format!("g-lfk{kernel}-{}", ABLATIONS[a].0))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_core::sweep::parse_point;
    use std::collections::HashSet;

    fn lines(stream: impl Iterator<Item = Request>, n: usize) -> Vec<String> {
        stream.take(n).map(|r| r.line).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(lines(cold_stream(7), 500), lines(cold_stream(7), 500));
        assert_ne!(lines(cold_stream(7), 500), lines(cold_stream(8), 500));
        assert_eq!(lines(repeat_stream(7), 500), lines(repeat_stream(7), 500));
        assert_ne!(lines(repeat_stream(7), 500), lines(repeat_stream(8), 500));
    }

    #[test]
    fn cold_points_are_valid_unique_and_long_ones_fixed_per_block() {
        let reqs: Vec<Request> = cold_stream(3).take(40 * BLOCK).collect();
        let mut keys = HashSet::new();
        let mut long = Vec::new();
        for r in &reqs {
            let p = parse_point(&r.line).expect("cold lines parse");
            assert!(keys.insert(p.key()), "duplicate key: {}", r.line);
            long.push(p.passes.unwrap_or(0) >= default_passes(p.kernel) * LONG_PASSES);
        }
        for block in long.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|&&l| l).count(), LONG_PER_BLOCK);
        }
    }

    #[test]
    fn unique_points_stay_unique_past_the_end_of_the_space() {
        let mut rng = Rng::new(1);
        let mut points = UniquePoints::new(&mut rng);
        let mut keys = HashSet::new();
        // Past the laps that alternate around the default (38 for the
        // 20-pass kernels).
        for _ in 0..SPACE * 45 {
            let line = points.take().render("x");
            assert!(keys.insert(parse_point(&line).unwrap().key()), "{line}");
        }
    }

    #[test]
    fn lap_pairs_cost_what_default_laps_do() {
        for default in [20, 60] {
            assert_eq!(lap_passes(default, 0), None);
            let mut seen = HashSet::new();
            for pair in 0..default - 1 {
                let up = lap_passes(default, 2 * pair + 1).unwrap();
                let down = lap_passes(default, 2 * pair + 2).unwrap();
                assert_eq!(up + down, 2 * default);
                assert!(down >= 1 && seen.insert(up) && seen.insert(down));
            }
            for lap in 2 * default - 1..4 * default {
                let p = lap_passes(default, lap).unwrap();
                assert!(p > default && seen.insert(p));
            }
        }
    }

    #[test]
    fn repeat_shares_hit_their_targets() {
        let n = 20_000;
        let reqs: Vec<Request> = repeat_stream(11).take(n).collect();
        let invalid = reqs.iter().filter(|r| r.expect_error.is_some()).count();
        let mut seen = HashSet::new();
        let mut repeats = 0;
        for r in reqs.iter().filter(|r| r.expect_error.is_none()) {
            if !seen.insert(parse_point(&r.line).unwrap().key()) {
                repeats += 1;
            }
        }
        let share = |k: usize| k as f64 / n as f64;
        assert!((share(invalid) - INVALID_SHARE).abs() < 0.005);
        let target = 1.0 - INVALID_SHARE - FRESH_SHARE;
        assert!((share(repeats) - target).abs() < 0.01, "{}", share(repeats));
        // Every valid line that is not a repeat is a fresh key.
        let fresh = n - invalid - repeats;
        assert!((share(fresh) - FRESH_SHARE).abs() < 0.01);
    }

    #[test]
    fn grid_is_the_fifty_point_ablation_grid() {
        let grid = grid_lines();
        assert_eq!(grid.len(), 50);
        let keys: HashSet<String> = grid.iter().map(|l| parse_point(l).unwrap().key()).collect();
        assert_eq!(keys.len(), 50);
    }
}
