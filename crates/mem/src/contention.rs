//! Background memory traffic from the other three CPUs (and the I/O port).
//!
//! The paper's rules of thumb (§4.2): four *different* programs running
//! simultaneously cost ~20% through memory contention; four processes of
//! the *same* executable fall into lockstep and cost only 5–10%; an
//! otherwise idle machine approaches the 40 ns/access peak.
//!
//! We model each background processor as a deterministic
//! [`ContentionStream`]: a strided reference stream that claims each bank
//! it touches for one bank-cycle. The measured CPU's accesses must find a
//! grant slot that no stream claims. Streams are deterministic so
//! simulations are exactly reproducible.

use crate::TICKS_PER_CYCLE;

/// One background processor's memory reference stream.
///
/// At cycle `c` the stream (when active) touches bank
/// `(phase + c·stride) mod banks`, claiming it for the bank busy time.
/// `stride` must be odd so the stream visits every bank (and so claim
/// windows are computable in closed form). The `duty` fraction thins the
/// stream: only `duty_num` of every `duty_den` visits to a bank are
/// claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionStream {
    /// Word stride of the background stream (must be odd).
    pub stride: u64,
    /// Starting phase in cycles.
    pub phase: u64,
    /// Numerator of the active-duty fraction.
    pub duty_num: u32,
    /// Denominator of the active-duty fraction.
    pub duty_den: u32,
}

impl ContentionStream {
    /// A full-rate unit-stride stream at the given phase — what a
    /// well-vectorized neighbor process generates.
    pub fn unit(phase: u64) -> Self {
        ContentionStream {
            stride: 1,
            phase,
            duty_num: 1,
            duty_den: 1,
        }
    }

    /// If this stream claims bank `bank` at any point during the grant
    /// cycle `[t, t + 1)`, returns the end cycle of the blocking claim.
    ///
    /// Claims occur at cycles `c` with `(phase + c·stride) ≡ bank (mod
    /// banks)`, each lasting `claim_len` cycles. A stride sharing a
    /// factor with `banks` has no solution here and never blocks.
    ///
    /// This is the reference solver. A [`MemorySystem`] grants through a
    /// schedule solved once per bank at construction, which must agree
    /// with it exactly.
    ///
    /// [`MemorySystem`]: crate::MemorySystem
    ///
    /// # Panics
    ///
    /// Panics if `stride` is even — an even stride misses half the banks
    /// and breaks the closed-form claim solver, so it is rejected in
    /// release builds too (not just `debug_assert`), matching the check
    /// in [`ContentionConfig::with_stream`].
    pub fn blocking_claim_end(&self, bank: u32, banks: u32, t: f64, claim_len: f64) -> Option<f64> {
        assert!(self.stride % 2 == 1, "contention stride must be odd");
        let m = u64::from(banks);
        let inv = mod_inverse(self.stride % m, m)?;
        self.claim_end_from(self.first_visit(bank, m, inv), m, t, claim_len)
    }

    /// The cycle in `0..banks` of the stream's first visit to `bank`:
    /// the solution `c` of `phase + c·stride ≡ bank (mod banks)`, given
    /// `inv = stride⁻¹ mod banks`. Visits to `bank` repeat every `banks`
    /// cycles after it.
    fn first_visit(&self, bank: u32, m: u64, inv: u64) -> u64 {
        let target = (u64::from(bank) + m - self.phase % m) % m;
        (target * inv) % m
    }

    /// [`ContentionStream::blocking_claim_end`] for a bank whose first
    /// visit cycle `c0` is already solved.
    fn claim_end_from(&self, c0: u64, m: u64, t: f64, claim_len: f64) -> Option<f64> {
        // Visits to the bank happen at cycles c0, c0+m, c0+2m, ...; a
        // claim window [v, v+claim_len) blocks the grant cycle [t, t+1)
        // when the two intersect.
        let tt = t.max(0.0);
        let k = ((tt - c0 as f64) / m as f64).floor();
        for kk in [k - 1.0, k, k + 1.0] {
            if kk < 0.0 {
                continue;
            }
            let visit_index = kk as u64;
            if !self.visit_active(visit_index) {
                continue;
            }
            let v = c0 as f64 + kk * m as f64;
            if v < tt + 1.0 && tt < v + claim_len {
                return Some(v + claim_len);
            }
        }
        None
    }

    /// [`ContentionStream::claim_end_from`] in 1/20-cycle ticks: `t`,
    /// `claim_len` and the returned end are tick counts. Integer
    /// arithmetic throughout, so no libm `floor` call; on grid times it
    /// agrees with the `f64` solver (see the schedule test).
    fn claim_end_ticks(&self, c0: u64, m: u64, t: i64, claim_len: i64) -> Option<i64> {
        let (c0, m) = (c0 as i64 * TICKS_PER_CYCLE, m as i64 * TICKS_PER_CYCLE);
        let t = t.max(0);
        let k = (t - c0).div_euclid(m);
        for kk in [k - 1, k, k + 1] {
            if kk < 0 || !self.visit_active(kk as u64) {
                continue;
            }
            let v = c0 + kk * m;
            if v < t + TICKS_PER_CYCLE && t < v + claim_len {
                return Some(v + claim_len);
            }
        }
        None
    }

    fn visit_active(&self, visit_index: u64) -> bool {
        visit_index % u64::from(self.duty_den) < u64::from(self.duty_num)
    }
}

fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    // Extended Euclid; returns a^-1 mod m when gcd(a, m) == 1.
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None;
    }
    Some(old_s.rem_euclid(m as i128) as u64)
}

/// A set of background streams — the machine's load situation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContentionConfig {
    streams: Vec<ContentionStream>,
}

impl ContentionConfig {
    /// An idle machine: the other CPUs make no memory references.
    pub fn idle() -> Self {
        ContentionConfig::default()
    }

    /// `n` copies of the same executable running beside us (the paper's
    /// 5–10% case): unit-stride streams at staggered phases fall into
    /// lockstep with a unit-stride measured stream and cost nothing; a
    /// single slowly-rotating desync stream models the occasional drift
    /// (branches, strip boundaries) that keeps real processes from
    /// perfect alignment. Calibrated to ≈ 1.08× per access.
    pub fn lockstep(n: usize) -> Self {
        if n == 0 {
            return ContentionConfig::idle();
        }
        let mut streams: Vec<ContentionStream> = (0..n.saturating_sub(1) as u64)
            .map(|i| ContentionStream::unit(9 + 8 * i))
            .collect();
        streams.push(ContentionStream {
            stride: 3,
            phase: 4,
            duty_num: 1,
            duty_den: 12,
        });
        ContentionConfig { streams }
    }

    /// `n` unrelated programs running beside us (the paper's ~20% case):
    /// incommensurate odd strides collide irregularly with any measured
    /// stream. Duty 1/3 — real neighbors also compute between references.
    /// Calibrated to ≈ 1.5× per access, matching the paper's observation
    /// that typical contention stretches an access from 40 ns to
    /// 56–64 ns (§4.2).
    pub fn mixed(n: usize) -> Self {
        let strides = [3u64, 7, 11, 13, 5, 9];
        ContentionConfig {
            streams: (0..n)
                .map(|i| ContentionStream {
                    stride: strides[i % strides.len()],
                    phase: 5 * (i as u64 + 1),
                    duty_num: 1,
                    duty_den: 3,
                })
                .collect(),
        }
    }

    /// Adds a custom stream.
    ///
    /// # Panics
    ///
    /// Panics on an even stride; this is the compatibility wrapper over
    /// [`ContentionConfig::try_with_stream`].
    pub fn with_stream(self, stream: ContentionStream) -> Self {
        self.try_with_stream(stream)
            .expect("contention stride must be odd")
    }

    /// Appends a stream without validating it (validation lives in
    /// `try_with_stream`).
    pub(crate) fn push_stream(mut self, stream: ContentionStream) -> Self {
        self.streams.push(stream);
        self
    }

    /// The configured streams.
    pub fn streams(&self) -> &[ContentionStream] {
        &self.streams
    }

    /// Whether any stream is configured.
    pub fn is_idle(&self) -> bool {
        self.streams.is_empty()
    }

    /// The period, in cycles, after which the joint claim pattern of all
    /// streams repeats: each stream visits a given bank once per `banks`
    /// cycles and its duty gate repeats every `duty_den` visits, so the
    /// combined pattern is periodic in `lcm(banks · duty_den)`. Returns 1
    /// for an idle machine. Used by the simulator's fast-forward detector
    /// to require matching contention phase between periodic states.
    pub fn pattern_period(&self, banks: u32) -> u64 {
        self.streams.iter().fold(1u64, |acc, s| {
            let p = u64::from(banks) * u64::from(s.duty_den);
            acc / crate::gcd(acc, p) * p
        })
    }

    /// The first bank that background claims saturate: every integer
    /// cycle of one steady-state [`pattern_period`] falls inside an active
    /// claim, as the grant search sees claims, so a request to that bank
    /// could never be granted. `None` when no bank saturates.
    ///
    /// A load bound screens most configurations out before any bank is
    /// examined: each stream covers at most a `duty · min(claim_len,
    /// 2·banks) / banks` share of a bank's cycles, so below a total share
    /// of 1 some cycle stays free. Patterns too long to check within
    /// [`SATURATION_CHECK_BUDGET`] intervals per bank also return `None`;
    /// the grant search's convergence guard remains their backstop, as it
    /// does for refresh windows that happen to cover a bank's only free
    /// cycles.
    ///
    /// [`pattern_period`]: ContentionConfig::pattern_period
    pub(crate) fn saturated_bank(&self, banks: u32, claim_len: u64) -> Option<u32> {
        let m = u64::from(banks);
        if self.streams.is_empty() || m == 0 {
            return None;
        }
        // A visit blocks the grant search for `min(claim_len, 2m)` cycles:
        // the solver only looks one visit back.
        let len = claim_len.min(2 * m);
        let load: f64 = self
            .streams
            .iter()
            .map(|s| f64::from(s.duty_num) / f64::from(s.duty_den) * len as f64 / m as f64)
            .sum();
        if load < 1.0 - 1e-9 {
            return None;
        }
        let period = self.streams.iter().try_fold(1u64, |acc, s| {
            let p = m.checked_mul(u64::from(s.duty_den))?;
            (acc / crate::gcd(acc, p)).checked_mul(p)
        })?;
        let per_bank = (period / m + 3).checked_mul(self.streams.len() as u64)?;
        if per_bank > SATURATION_CHECK_BUDGET {
            return None;
        }
        let schedule = ContentionSchedule::new(self, banks);
        (0..banks).find(|&bank| schedule.saturates(bank, len, period))
    }
}

/// Upper bound on the claim intervals [`ContentionConfig::saturated_bank`]
/// examines per bank.
const SATURATION_CHECK_BUDGET: u64 = 1 << 16;

/// A [`ContentionConfig`] solved for one bank count: each stream's first
/// visit cycle to each bank. A [`MemorySystem`] builds it once, since its
/// stream set and bank count are fixed, so a grant search step costs a
/// table lookup plus O(1) arithmetic per stream instead of the
/// extended-Euclid solve in [`ContentionStream::blocking_claim_end`].
///
/// [`MemorySystem`]: crate::MemorySystem
#[derive(Debug, Clone, Default)]
pub(crate) struct ContentionSchedule {
    /// Streams whose stride is coprime to the bank count. The reference
    /// solver finds no visits for the others, so they never block and are
    /// left out.
    streams: Vec<ContentionStream>,
    /// Bank count.
    banks: u64,
    /// `first_visit[bank · streams.len() + i]`: stream `i`'s first visit
    /// to `bank`, in `0..banks`.
    first_visit: Vec<u32>,
}

impl ContentionSchedule {
    /// Solves `config` for `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics on an even stride, as the reference solver does.
    pub(crate) fn new(config: &ContentionConfig, banks: u32) -> Self {
        let m = u64::from(banks);
        if m == 0 {
            return ContentionSchedule::default();
        }
        let solved: Vec<(ContentionStream, u64)> = config
            .streams
            .iter()
            .filter_map(|s| {
                assert!(s.stride % 2 == 1, "contention stride must be odd");
                Some((*s, mod_inverse(s.stride % m, m)?))
            })
            .collect();
        let first_visit = (0..banks)
            .flat_map(|bank| {
                solved
                    .iter()
                    .map(move |(s, inv)| s.first_visit(bank, m, *inv) as u32)
            })
            .collect();
        ContentionSchedule {
            streams: solved.into_iter().map(|(s, _)| s).collect(),
            banks: m,
            first_visit,
        }
    }

    /// The end of the latest claim blocking a grant to `bank` at tick
    /// `t`, if any stream blocks it: the maximum of every stream's
    /// [`ContentionStream::blocking_claim_end`], in ticks (`claim_len`
    /// too).
    pub(crate) fn blocking_claim_end(&self, bank: u32, t: i64, claim_len: i64) -> Option<i64> {
        if self.streams.is_empty() {
            return None;
        }
        self.streams
            .iter()
            .zip(self.row(bank))
            .filter_map(|(s, &c0)| s.claim_end_ticks(u64::from(c0), self.banks, t, claim_len))
            .max()
    }

    /// Every stream's first visit to `bank`, in stream order.
    fn row(&self, bank: u32) -> &[u32] {
        let n = self.streams.len();
        &self.first_visit[bank as usize * n..][..n]
    }

    /// Whether visits blocking `len` cycles each cover every integer
    /// cycle of the steady-state window `[2·banks, 2·banks + period)`.
    /// From cycle `2·banks` on every visit the solver looks back to
    /// exists, so the pattern repeats with `period`.
    fn saturates(&self, bank: u32, len: u64, period: u64) -> bool {
        let m = self.banks;
        let start = 2 * m;
        let end = start + period;
        let mut claims: Vec<(u64, u64)> = Vec::new();
        for (s, &c0) in self.streams.iter().zip(self.row(bank)) {
            let c0 = u64::from(c0);
            for k in ((start - c0) / m).saturating_sub(2)..=(end - c0) / m {
                if s.visit_active(k) {
                    let v = c0 + k * m;
                    claims.push((v, v + len));
                }
            }
        }
        claims.sort_unstable();
        let mut covered = start;
        for (from, to) in claims {
            if from > covered {
                break;
            }
            covered = covered.max(to);
        }
        covered >= end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestRng;

    #[test]
    fn mod_inverse_works() {
        assert_eq!(mod_inverse(3, 32), Some(11)); // 3*11 = 33 ≡ 1
        assert_eq!(mod_inverse(1, 32), Some(1));
        assert_eq!(mod_inverse(2, 32), None);
    }

    #[test]
    fn unit_stream_claims_each_bank_once_per_rotation() {
        let s = ContentionStream::unit(0);
        // Bank 5 is visited at cycles 5, 37, 69, ... each claim lasting 8.
        assert_eq!(s.blocking_claim_end(5, 32, 5.0, 8.0), Some(13.0));
        assert_eq!(s.blocking_claim_end(5, 32, 12.9, 8.0), Some(13.0));
        assert_eq!(s.blocking_claim_end(5, 32, 13.0, 8.0), None);
        assert_eq!(s.blocking_claim_end(5, 32, 37.0, 8.0), Some(45.0));
        // Just before the claim the window [t, t+1) does not yet overlap.
        assert_eq!(s.blocking_claim_end(5, 32, 3.9, 8.0), None);
        assert_eq!(s.blocking_claim_end(5, 32, 4.5, 8.0), Some(13.0));
    }

    #[test]
    fn duty_thins_claims() {
        let s = ContentionStream::unit(0).try_with_duty(1, 2).unwrap();
        // Visits to bank 0 at cycles 0, 32, 64, ...; only even visit
        // indices claim.
        assert!(s.blocking_claim_end(0, 32, 0.0, 8.0).is_some());
        assert!(s.blocking_claim_end(0, 32, 32.0, 8.0).is_none());
        assert!(s.blocking_claim_end(0, 32, 64.0, 8.0).is_some());
    }

    #[test]
    fn presets() {
        assert!(ContentionConfig::idle().is_idle());
        assert_eq!(ContentionConfig::lockstep(3).streams().len(), 3);
        assert_eq!(ContentionConfig::mixed(3).streams().len(), 3);
        for s in ContentionConfig::mixed(6).streams() {
            assert_eq!(s.stride % 2, 1);
        }
    }

    #[test]
    fn bad_duty_rejected() {
        assert_eq!(
            ContentionStream::unit(0).try_with_duty(5, 4),
            Err(crate::MemConfigError::DutyAboveOne { num: 5, den: 4 })
        );
    }

    #[test]
    #[should_panic(expected = "stride must be odd")]
    fn even_stride_rejected_by_config() {
        let _ = ContentionConfig::idle().with_stream(ContentionStream {
            stride: 2,
            phase: 0,
            duty_num: 1,
            duty_den: 1,
        });
    }

    #[test]
    #[should_panic(expected = "stride must be odd")]
    fn even_stride_rejected_at_claim_time_in_release_too() {
        // A hand-built (not `with_stream`-validated) stream must still be
        // rejected by the claim solver itself — as a hard assert, so
        // release builds cannot silently compute wrong claim windows.
        let s = ContentionStream {
            stride: 4,
            phase: 0,
            duty_num: 1,
            duty_den: 1,
        };
        let _ = s.blocking_claim_end(0, 32, 0.0, 8.0);
    }

    /// The reference answer for a whole configuration: the latest end
    /// over every stream's own solve.
    fn reference_claim_end(
        cfg: &ContentionConfig,
        bank: u32,
        banks: u32,
        t: f64,
        claim_len: f64,
    ) -> Option<f64> {
        cfg.streams()
            .iter()
            .filter_map(|s| s.blocking_claim_end(bank, banks, t, claim_len))
            .fold(None, |acc, end| Some(acc.map_or(end, |a: f64| a.max(end))))
    }

    fn random_config(rng: &mut TestRng, max_den: u64) -> ContentionConfig {
        (0..rng.range(1, 4)).fold(ContentionConfig::idle(), |cfg, _| {
            let den = rng.range(1, max_den);
            cfg.with_stream(
                ContentionStream {
                    stride: 2 * rng.range(0, 5_000) + 1,
                    phase: rng.range(0, 1_000_000),
                    duty_num: 1,
                    duty_den: 1,
                }
                .try_with_duty(rng.range(0, den) as u32, den as u32)
                .unwrap(),
            )
        })
    }

    #[test]
    fn config_blocking_takes_max() {
        let cfg = ContentionConfig::idle()
            .with_stream(ContentionStream::unit(0))
            .with_stream(ContentionStream::unit(1));
        // Bank 5: stream A claims [5,13), stream B claims [4,12).
        let end = ContentionSchedule::new(&cfg, 32).blocking_claim_end(5, 100, 160);
        assert_eq!(end, Some(260));
        assert_eq!(reference_claim_end(&cfg, 5, 32, 5.0, 8.0), Some(13.0));
    }

    #[test]
    fn schedule_matches_the_reference_solver() {
        for seed in 0..300u64 {
            let mut rng = TestRng::new(seed);
            let banks = if rng.range(0, 1) == 0 {
                rng.range(1, 64)
            } else {
                rng.range(1, u64::from(crate::MAX_BANKS))
            } as u32;
            let cfg = random_config(&mut rng, 12);
            let claim_len = rng.range(1, 16);
            let schedule = ContentionSchedule::new(&cfg, banks);
            for _ in 0..200 {
                let bank = rng.range(0, u64::from(banks) - 1) as u32;
                // A tick count, and its grid time in cycles for the
                // reference; claim ends are whole cycles.
                let t = rng.range(0, 20 * 200_000) as i64;
                let cycles = t as f64 / 20.0;
                assert_eq!(
                    schedule.blocking_claim_end(bank, t, 20 * claim_len as i64),
                    reference_claim_end(&cfg, bank, banks, cycles, claim_len as f64)
                        .map(|end| (end * 20.0) as i64),
                    "seed {seed}: bank {bank}/{banks} at t={cycles}, claim {claim_len}, {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn saturation_matches_a_cycle_by_cycle_scan() {
        let mut saturated = 0;
        for seed in 0..400u64 {
            let mut rng = TestRng::new(seed);
            let banks = rng.range(1, 16) as u32;
            let claim_len = rng.range(1, 10);
            let cfg = random_config(&mut rng, 4);
            // Scan one steady-state period cycle by cycle with the
            // reference solver.
            let m = u64::from(banks);
            let period = cfg.pattern_period(banks);
            let scan = (0..banks).find(|&bank| {
                (2 * m..2 * m + period).all(|c| {
                    reference_claim_end(&cfg, bank, banks, c as f64, claim_len as f64).is_some()
                })
            });
            assert_eq!(
                cfg.saturated_bank(banks, claim_len),
                scan,
                "seed {seed}: {banks} banks, claim {claim_len}, {cfg:?}"
            );
            saturated += usize::from(scan.is_some());
        }
        assert!(saturated > 20, "only {saturated} saturated cases drawn");
    }

    #[test]
    fn lockstep_saturates_sixteen_banks_but_not_thirty_two() {
        // Unit streams at phases 9 and 17 claim [b-9, b-1) and [b-1, b+7)
        // of every 16 cycles: together, all of them.
        assert_eq!(ContentionConfig::lockstep(3).saturated_bank(16, 8), Some(0));
        assert_eq!(ContentionConfig::lockstep(3).saturated_bank(32, 8), None);
        assert_eq!(ContentionConfig::mixed(3).saturated_bank(16, 8), None);
        assert_eq!(ContentionConfig::idle().saturated_bank(16, 8), None);
    }
}
