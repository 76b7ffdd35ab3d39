//! The banked memory system: data storage plus access timing.
//!
//! Since the multi-CPU co-simulation refactor the system is split in
//! two: [`BankState`] holds the *shared* arbitration state (per-bank
//! earliest-free cycles, which CPU last claimed each bank, and
//! machine-wide counters), while [`MemorySystem`] is a per-CPU *view*
//! over it — private data space and private accounting on top of the
//! shared banks. A single-CPU simulation owns both halves and behaves
//! exactly as before; a co-simulation driver (`c240_sim::Machine`)
//! keeps one `BankState` and swaps it into whichever CPU's view is
//! stepping, so contention between CPUs *emerges* from real interleaved
//! traffic instead of the synthetic [`ContentionStream`]s.
//!
//! Grants run in integer ticks of 1/20 cycle, the grid every timing
//! parameter of the machine lies on: claim starts, the horizon, refresh
//! windows, background claims and the wait counters are `i64` tick
//! counts. Only the public surface speaks `f64` cycles, converted exactly
//! on the way in and out.
//!
//! [`ContentionStream`]: crate::ContentionStream

use std::collections::VecDeque;

use crate::contention::{ContentionConfig, ContentionSchedule};
use crate::{bank_of, gcd, MAX_BANK_BUSY, TICKS_PER_CYCLE};

/// The tick count of the 1/20-cycle grid point nearest `x` cycles,
/// halfway cases away from zero: the point `c240_isa::timing::quantize`
/// picks, so `cycles(ticks(x)) == quantize(x)` bitwise. Truncation plus
/// an exact fractional-part compare, not a libm `round` call. Saturates
/// at the `i64` range; NaN maps to 0.
#[inline]
fn ticks(x: f64) -> i64 {
    let y = x * TICKS_PER_CYCLE as f64;
    let n = y as i64;
    // Exact: `n` is `y` truncated, so `y - n` is `y`'s fractional part
    // (0 once `|y| ≥ 2⁵²`).
    let frac = y - n as f64;
    if frac >= 0.5 {
        n.saturating_add(1)
    } else if frac <= -0.5 {
        n.saturating_sub(1)
    } else {
        n
    }
}

/// The canonical `f64` cycle value of a tick count — exact division, the
/// value a `quantize`d accumulator holds for the same count (below 2⁵³
/// ticks).
#[inline]
fn cycles(t: i64) -> f64 {
    t as f64 / TICKS_PER_CYCLE as f64
}

/// A whole number of cycles in ticks, saturating at `i64::MAX` (only an
/// unvalidated configuration gets near it).
fn whole_ticks(n: u64) -> i64 {
    i64::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(TICKS_PER_CYCLE))
        .unwrap_or(i64::MAX)
}

/// Whether tick `t` falls in a refresh window: windows of `len` ticks
/// open every `period` ticks from tick 0.
#[inline]
fn in_refresh(t: i64, period: i64, len: i64) -> bool {
    t.rem_euclid(period) < len
}

/// Wait counters in ticks, one per [`WaitBreakdown`] cause.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct TickWaits {
    bank_busy: i64,
    refresh: i64,
    contention: i64,
}

impl TickWaits {
    fn cycles(&self) -> WaitBreakdown {
        WaitBreakdown {
            bank_busy: cycles(self.bank_busy),
            refresh: cycles(self.refresh),
            contention: cycles(self.contention),
        }
    }

    /// Adds `k` periods of per-period deltas given in (integer-valued)
    /// `f64` ticks.
    fn advance(&mut self, d: WaitBreakdown, k: i64) {
        self.bank_busy += k * d.bank_busy as i64;
        self.refresh += k * d.refresh as i64;
        self.contention += k * d.contention as i64;
    }
}

/// Index of the first claim ending after tick `t` in a bank's claim list
/// (sorted by start, every claim `busy` ticks long, so ends are sorted
/// too). A galloping search from the back: a request `d` claims behind
/// the newest costs `O(log d)`, and the common case — a request among
/// the newest claims — a probe or two.
fn first_ending_after(claims: &VecDeque<(i64, u32)>, t: i64, busy: i64) -> usize {
    let ends_by_t = |i: usize| claims[i].0 + busy <= t;
    // Every claim at or after `hi` ends after `t`.
    let mut hi = claims.len();
    let mut step = 1;
    let mut lo = loop {
        if hi == 0 {
            return 0;
        }
        let probe = hi.saturating_sub(step);
        if ends_by_t(probe) {
            break probe + 1;
        }
        hi = probe;
        step *= 2;
    };
    // Every claim before `lo` ends by `t`.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ends_by_t(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Configuration of the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Number of interleaved banks (32 in the standard C-240).
    pub banks: u32,
    /// Bank cycle (recovery) time in cycles (8 on the C-240).
    pub bank_busy: u64,
    /// Cycles between refresh windows (400 on the C-240 = 16 µs).
    pub refresh_period: u64,
    /// Length of each refresh window in cycles (8 on the C-240).
    pub refresh_len: u64,
    /// Whether refresh is modeled (disable for ablations).
    pub refresh_enabled: bool,
    /// Memory size in 8-byte words.
    pub words: usize,
    /// Background traffic from the other CPUs.
    pub contention: ContentionConfig,
}

impl MemConfig {
    /// The standard C-240 configuration (§2 of the paper) with 8 MiB of
    /// data space and an otherwise idle machine.
    pub fn c240() -> Self {
        MemConfig {
            banks: 32,
            bank_busy: 8,
            refresh_period: 400,
            refresh_len: 8,
            refresh_enabled: true,
            words: 1 << 20,
            contention: ContentionConfig::idle(),
        }
    }

    /// Same configuration with refresh disabled (ablation).
    pub fn without_refresh(mut self) -> Self {
        self.refresh_enabled = false;
        self
    }

    /// Same configuration with the given background contention.
    pub fn with_contention(mut self, contention: ContentionConfig) -> Self {
        self.contention = contention;
        self
    }

    /// Same configuration with a different bank count.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or oversized; this is the compatibility
    /// wrapper over [`MemConfig::try_with_banks`].
    pub fn with_banks(self, banks: u32) -> Self {
        self.try_with_banks(banks)
            .expect("memory must have at least one bank")
    }

    /// Same configuration with a different data size in words.
    pub fn with_words(mut self, words: usize) -> Self {
        self.words = words;
        self
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::c240()
    }
}

/// The shared half of the memory system: per-bank arbitration state plus
/// machine-wide accounting, common to every CPU port.
///
/// A single-CPU [`MemorySystem`] owns its own `BankState`; a co-sim
/// driver owns one and swaps it between the CPUs' views with
/// [`MemorySystem::swap_bank_state`] (an O(1) pointer swap) so every
/// grant search sees every other CPU's outstanding claims.
#[derive(Debug, Clone, PartialEq)]
pub struct BankState {
    /// Earliest cycle each bank is free of *all* claims so far (the end
    /// of its latest claim).
    free: Vec<f64>,
    /// The view (CPU port) that last claimed each bank — waits behind a
    /// foreign claim are charged to contention, not bank-busy.
    owner: Vec<u32>,
    /// Multiport mode only: each bank's outstanding claim windows as
    /// `(start tick, owner)` pairs sorted by start. Every claim lasts the
    /// configured bank-busy time, so the ends are sorted too, and grant
    /// searches keep the windows pairwise disjoint. Empty in single-port
    /// mode.
    claims: Vec<VecDeque<(i64, u32)>>,
    /// Whether grant searches fit into idle windows *between* claims
    /// (multiport co-sim) or only after the latest claim (single-port).
    multiport: bool,
    /// Claims ending at or before this tick can no longer affect any
    /// future request and are pruned.
    horizon: i64,
    /// Machine-wide accesses across all views.
    accesses: u64,
    /// Machine-wide wait ticks across all views.
    waited: i64,
    /// Machine-wide wait breakdown across all views, in ticks.
    breakdown: TickWaits,
}

impl BankState {
    /// Fresh (all banks free at cycle 0) single-port state for `banks`
    /// banks: a request waits until the bank's latest claim ends. Exact
    /// for one CPU, whose port serializes requests in non-decreasing
    /// earliest-start order, so an idle window behind the cursor can
    /// never be used anyway.
    pub fn new(banks: u32) -> Self {
        BankState {
            free: vec![0.0; banks as usize],
            owner: vec![0; banks as usize],
            claims: Vec::new(),
            multiport: false,
            horizon: 0,
            accesses: 0,
            waited: 0,
            breakdown: TickWaits::default(),
        }
    }

    /// Fresh *multiport* state: claims are tracked individually and a
    /// grant search may fit into an idle window between two existing
    /// claims. Co-simulated CPUs interleave out of timestamp order (CPU
    /// A steps a whole vector instruction — claiming several rotations
    /// of each bank — before CPU B's earlier-cycle request arrives), so
    /// the single `free` cursor would force B behind A's *last*
    /// rotation; window-fitting restores the interleaved packing the
    /// real banks provide. For requests arriving in non-decreasing
    /// earliest order (any single port) the two modes grant identically.
    pub fn multiport(banks: u32) -> Self {
        BankState {
            claims: vec![VecDeque::new(); banks as usize],
            multiport: true,
            ..BankState::new(banks)
        }
    }

    /// Whether this state window-fits (see [`BankState::multiport`]).
    pub fn is_multiport(&self) -> bool {
        self.multiport
    }

    /// Declares that every future request starts at or after `cycle`
    /// (the co-sim driver's minimum issue clock, minus margin): claims
    /// ending at or before it are dead and get pruned. Monotonic —
    /// lower values than a previous horizon are ignored.
    pub fn set_horizon(&mut self, cycle: f64) {
        // The last tick whose cycle value is at or below `cycle`, so a
        // claim is pruned exactly when its `f64` end would compare at or
        // below it. Negative and NaN horizons prune nothing.
        let cycle = cycle.max(0.0);
        let mut h = ticks(cycle);
        if cycles(h) > cycle {
            h -= 1;
        }
        self.horizon = self.horizon.max(h);
    }

    /// Clears all arbitration state and counters.
    pub fn reset(&mut self) {
        self.free.fill(0.0);
        self.owner.fill(0);
        for c in &mut self.claims {
            c.clear();
        }
        self.horizon = 0;
        self.accesses = 0;
        self.waited = 0;
        self.breakdown = TickWaits::default();
    }

    /// Total accesses served across every view sharing this state.
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Total wait cycles across every view sharing this state.
    pub fn wait_cycles(&self) -> f64 {
        cycles(self.waited)
    }

    /// The machine-wide wait breakdown across every view sharing this
    /// state. Per-view breakdowns sum to this exactly.
    pub fn wait_breakdown(&self) -> WaitBreakdown {
        self.breakdown.cycles()
    }
}

/// The memory system as seen from one CPU port: word-addressed data plus
/// the (possibly shared) per-bank availability.
///
/// Timing methods take the earliest cycle an access may start and return
/// the cycle at which the bank granted it. Between request and grant the
/// access may wait for: the bank's recovery from one of this CPU's own
/// earlier accesses (bank busy), another CPU's claim on the bank
/// (contention — only in co-simulation), a refresh window, or a
/// synthetic background contention claim.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    /// `config.contention` solved for `config.banks`.
    contention: ContentionSchedule,
    /// `config.bank_busy` in ticks.
    busy: i64,
    /// Refresh period and window length in ticks; `None` when refresh is
    /// off or (unvalidated) its period is zero, which opens no window.
    refresh: Option<(i64, i64)>,
    data: Vec<f64>,
    bank: BankState,
    view: u32,
    accesses: u64,
    /// This view's wait ticks.
    waited: i64,
    /// This view's wait breakdown, in ticks.
    breakdown: TickWaits,
}

/// Cycles accesses spent waiting, split by cause.
///
/// Every bump of the grant-search cursor is charged to exactly one
/// field, so `bank_busy + refresh + contention` equals
/// [`MemorySystem::wait_cycles`] identically — not approximately.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WaitBreakdown {
    /// Waiting for a bank still cycling from an earlier access by the
    /// same CPU.
    pub bank_busy: f64,
    /// Waiting out refresh windows (each blocked access pays the full
    /// window, per §3.2 of the paper).
    pub refresh: f64,
    /// Waiting behind other CPUs' bank claims — co-simulated neighbor
    /// CPUs or synthetic background streams.
    pub contention: f64,
}

impl WaitBreakdown {
    /// Sum of all causes; equals total wait cycles.
    pub fn total(&self) -> f64 {
        self.bank_busy + self.refresh + self.contention
    }
}

impl MemorySystem {
    /// Creates a zero-filled memory with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on a contention stream with an even stride or a bank busy
    /// time above [`MAX_BANK_BUSY`] (see [`MemConfig::validate`]).
    pub fn new(config: MemConfig) -> Self {
        assert!(
            config.bank_busy <= MAX_BANK_BUSY,
            "bank busy time {} exceeds the maximum of {MAX_BANK_BUSY} cycles",
            config.bank_busy
        );
        let banks = config.banks;
        let words = config.words;
        let refresh = (config.refresh_enabled && config.refresh_period > 0).then(|| {
            (
                whole_ticks(config.refresh_period),
                whole_ticks(config.refresh_len),
            )
        });
        MemorySystem {
            contention: ContentionSchedule::new(&config.contention, banks),
            busy: whole_ticks(config.bank_busy),
            refresh,
            config,
            data: vec![0.0; words],
            bank: BankState::new(banks),
            view: 0,
            accesses: 0,
            waited: 0,
            breakdown: TickWaits::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Memory size in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Accesses served through *this view* (this CPU's port).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Cycles this view's accesses spent waiting beyond their earliest
    /// start.
    pub fn wait_cycles(&self) -> f64 {
        cycles(self.waited)
    }

    /// This view's wait cycles split by cause (bank busy, refresh,
    /// contention).
    pub fn wait_breakdown(&self) -> WaitBreakdown {
        self.breakdown.cycles()
    }

    /// The view id this port charges its bank claims to (0 outside
    /// co-simulation).
    pub fn view(&self) -> u32 {
        self.view
    }

    /// Assigns the view id. A co-sim driver gives each CPU a distinct id
    /// so waits behind another CPU's claim are attributed to contention.
    pub fn set_view(&mut self, view: u32) {
        self.view = view;
    }

    /// The shared arbitration state this view currently holds (bank
    /// availability plus machine-wide counters).
    pub fn shared(&self) -> &BankState {
        &self.bank
    }

    /// Swaps this view's bank state with `other` — O(1). A co-sim driver
    /// swaps its one shared [`BankState`] in before stepping a CPU and
    /// back out afterwards, so all CPUs arbitrate against the same banks.
    pub fn swap_bank_state(&mut self, other: &mut BankState) {
        std::mem::swap(&mut self.bank, other);
    }

    /// Reads `addr` (word address) no earlier than cycle `earliest`;
    /// returns the granted cycle and the value.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size, which
    /// indicates a bug in the simulated program.
    pub fn read(&mut self, addr: u64, earliest: f64) -> (f64, f64) {
        let value = self.peek(addr);
        let t = self.grant(addr, earliest);
        (t, value)
    }

    /// Writes `value` to `addr` no earlier than cycle `earliest`; returns
    /// the granted cycle.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn write(&mut self, addr: u64, value: f64, earliest: f64) -> f64 {
        self.check(addr);
        let t = self.grant(addr, earliest);
        self.data[addr as usize] = value;
        t
    }

    /// Reads data without touching timing state (test/setup use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn peek(&self, addr: u64) -> f64 {
        self.check(addr);
        self.data[addr as usize]
    }

    /// Writes data without touching timing state (test/setup use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn poke(&mut self, addr: u64, value: f64) {
        self.check(addr);
        self.data[addr as usize] = value;
    }

    /// A contiguous run of `n` words starting at `addr`, or `None` if
    /// the run leaves the configured memory. Bulk (unit-stride) data
    /// access for the simulator's fast-forward warp; timing untouched.
    pub fn peek_run(&self, addr: u64, n: usize) -> Option<&[f64]> {
        self.data
            .get(addr as usize..(addr as usize).checked_add(n)?)
    }

    /// Mutable variant of [`MemorySystem::peek_run`].
    pub fn poke_run(&mut self, addr: u64, n: usize) -> Option<&mut [f64]> {
        self.data
            .get_mut(addr as usize..(addr as usize).checked_add(n)?)
    }

    /// Clears all timing state (bank availability, statistics) while
    /// keeping data — used between measurement runs.
    pub fn reset_timing(&mut self) {
        self.bank.reset();
        self.accesses = 0;
        self.waited = 0;
        self.breakdown = TickWaits::default();
    }

    fn check(&self, addr: u64) {
        assert!(
            (addr as usize) < self.data.len(),
            "memory access out of bounds: word address {addr} >= {} words",
            self.data.len()
        );
    }

    /// Finds and claims the earliest grant cycle for an access to `addr`
    /// starting no earlier than `earliest`.
    ///
    /// Waits behind a bank claimed by this view are charged to bank
    /// busy; waits behind a bank last claimed by a *different* view
    /// (another co-simulated CPU) are charged to contention — the same
    /// category the synthetic background streams use, so the attribution
    /// taxonomy is identical either way.
    fn grant(&mut self, addr: u64, earliest: f64) -> f64 {
        self.check(addr);
        let bank = bank_of(addr, self.config.banks) as usize;
        let earliest = ticks(earliest.max(0.0));
        let busy = self.busy;
        // Every stored recovery time is a grid value, so this is exact.
        let free = ticks(self.bank.free[bank]);
        // Multiport: the index of the first claim ending after `t`.
        let mut next = 0;
        if self.bank.multiport {
            // Claims ending at or before the horizon are dead; with the
            // ends sorted they form a prefix.
            let horizon = self.bank.horizon;
            let claims = &mut self.bank.claims[bank];
            while claims.front().is_some_and(|&(s, _)| s + busy <= horizon) {
                claims.pop_front();
            }
            next = first_ending_after(claims, earliest, busy);
        }
        let mut t = earliest;
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(
                guard < 100_000,
                "memory grant search did not converge (bank {bank}, t={}); \
                 contention configuration saturates the bank",
                cycles(t)
            );
            if self.bank.multiport {
                // Window fit: slide past the first claim overlapping
                // [t, t+busy), charging the displacement to its owner's
                // category, and retry (idle windows between later claims
                // remain usable). With starts and ends sorted, only the
                // first claim ending after t can be that claim, and `t`
                // only grows, so that index only moves forward.
                let claims = &self.bank.claims[bank];
                while claims.get(next).is_some_and(|&(s, _)| s + busy <= t) {
                    next += 1;
                }
                if let Some(&(s, owner)) = claims.get(next).filter(|&&(s, _)| s < t + busy) {
                    let end = s + busy;
                    self.charge_claim(owner, end - t);
                    t = end;
                    continue;
                }
            } else if t < free {
                self.charge_claim(self.bank.owner[bank], free - t);
                t = free;
                continue;
            }
            if let Some((period, len)) = self.refresh {
                if in_refresh(t, period, len) {
                    // The paper (§3.2): a refresh "will force the VP to
                    // stall for eight cycles" — the blocked access pays
                    // the full window (re-arbitration included), not just
                    // the remainder of it.
                    self.breakdown.refresh += len;
                    self.bank.breakdown.refresh += len;
                    t += len;
                    continue;
                }
            }
            if let Some(end) = self.contention.blocking_claim_end(bank as u32, t, busy) {
                self.breakdown.contention += end - t;
                self.bank.breakdown.contention += end - t;
                t = end;
                continue;
            }
            break;
        }
        let end = t + busy;
        if self.bank.multiport {
            // Every claim before `next` ends by `t`, and the one at `next`
            // starts at or after `t + busy`: the sorted insertion point.
            self.bank.claims[bank].insert(next, (t, self.view));
        }
        if end >= free {
            self.bank.free[bank] = cycles(end);
            self.bank.owner[bank] = self.view;
        }
        self.accesses += 1;
        self.bank.accesses += 1;
        self.waited += t - earliest;
        self.bank.waited += t - earliest;
        cycles(t)
    }

    /// Charges `wait` ticks spent behind a bank claim by `owner`: to bank
    /// busy if this view made the claim, else to contention.
    fn charge_claim(&mut self, owner: u32, wait: i64) {
        if owner == self.view {
            self.breakdown.bank_busy += wait;
            self.bank.breakdown.bank_busy += wait;
        } else {
            self.breakdown.contention += wait;
            self.bank.breakdown.contention += wait;
        }
    }

    /// Per-bank earliest-free cycles, exposed so the simulator's
    /// steady-state fast-forward can snapshot and translate the memory
    /// system's timing state along with its own.
    pub fn bank_state(&self) -> &[f64] {
        &self.bank.free
    }

    /// Mutable view of the per-bank earliest-free cycles (fast-forward
    /// translation; see [`MemorySystem::bank_state`]).
    pub fn bank_state_mut(&mut self) -> &mut [f64] {
        &mut self.bank.free
    }

    /// Adds `k` periods' worth of access counters in one step — the
    /// fast-forward path's replacement for `k` repetitions of identical
    /// per-period traffic. The per-period deltas must come from two
    /// counter snapshots of this system taken one period apart, expressed
    /// in *ticks* (1/20 cycle); the translation runs in integer tick
    /// arithmetic so the result is the canonical grid value the naive run
    /// would have accumulated.
    pub fn ff_apply(
        &mut self,
        accesses: u64,
        waited_ticks: f64,
        breakdown_ticks: WaitBreakdown,
        k: u64,
    ) {
        self.accesses += accesses * k;
        self.bank.accesses += accesses * k;
        let k = k as i64;
        self.waited += k * waited_ticks as i64;
        self.bank.waited += k * waited_ticks as i64;
        self.breakdown.advance(breakdown_ticks, k);
        self.bank.breakdown.advance(breakdown_ticks, k);
    }

    /// Whether a strided element stream of `n` accesses starting at word
    /// `base`, paced exactly `z` cycles apart from cycle `start`, is
    /// provably conflict-free: every grant lands at its requested cycle
    /// with zero wait. True only when contention is idle, the whole
    /// stream stays clear of refresh windows, same-bank revisits are
    /// spaced at least the bank recovery time apart, and every touched
    /// bank has already recovered from earlier traffic (its own or, in
    /// co-simulation, any other CPU's).
    pub fn stream_conflict_free(&self, base: i64, stride: i64, n: u32, start: f64, z: f64) -> bool {
        if n == 0 {
            return true;
        }
        if !self.config.contention.is_idle() {
            return false;
        }
        if let Some((period, len)) = self.refresh {
            // The first and last elements' grid ticks, as `claim_stream`
            // places them.
            let first = ticks(start);
            let span = ticks(start + z * (n - 1) as f64) - first;
            let into = first.rem_euclid(period);
            if into < len || into + span >= period {
                return false;
            }
        }
        // Same-bank revisit spacing: a stride touching `r` distinct banks
        // revisits each one every `r` elements = `z·r` cycles.
        let r = self.banks_touched(stride);
        if (n > r) && z * (r as f64) < self.config.bank_busy as f64 {
            return false;
        }
        // Every touched bank must be free by the stream's start.
        let banks = i64::from(self.config.banks);
        let mut bank = base.rem_euclid(banks);
        let step = stride.rem_euclid(banks);
        for _ in 0..r.min(n) {
            if self.bank.free[bank as usize] > start {
                return false;
            }
            bank = (bank + step) % banks;
        }
        true
    }

    /// Claims a conflict-free stream's grants in closed form: the
    /// per-element search of [`MemorySystem::read`]/`write` collapses to
    /// a counter bump plus final per-bank recovery times. Must only be
    /// called after [`MemorySystem::stream_conflict_free`] returned true
    /// for the same arguments; produces bit-identical timing state to
    /// `n` individual grants at `start + z·e`.
    pub fn claim_stream(&mut self, base: i64, stride: i64, n: u32, start: f64, z: f64) {
        if n == 0 {
            return;
        }
        self.accesses += u64::from(n);
        self.bank.accesses += u64::from(n);
        let banks = i64::from(self.config.banks);
        let r = self.banks_touched(stride);
        let step = stride.rem_euclid(banks);
        if self.bank.multiport {
            // Window-fitting neighbors must see every element's claim,
            // not just the last visit per bank. The conflict-free
            // precondition guarantees all existing claims on touched
            // banks end by `start`, so pushing in element order keeps
            // each bank's claim list sorted.
            let mut bank = base.rem_euclid(banks);
            for e in 0..n {
                self.bank.claims[bank as usize].push_back((ticks(start + z * e as f64), self.view));
                bank = (bank + step) % banks;
            }
        }
        // Only the last visit to each bank determines its recovery time.
        let busy = self.config.bank_busy as f64;
        let first = n.saturating_sub(r);
        let mut bank = (base + stride * i64::from(first)).rem_euclid(banks);
        for e in first..n {
            self.bank.free[bank as usize] = cycles(ticks(start + z * e as f64 + busy));
            self.bank.owner[bank as usize] = self.view;
            bank = (bank + step) % banks;
        }
    }

    /// The number of distinct banks a stride touches before repeating —
    /// `banks / gcd(stride, banks)`.
    pub fn banks_touched(&self, stride_words: i64) -> u32 {
        let banks = u64::from(self.config.banks);
        let s = stride_words.unsigned_abs() % banks;
        let g = gcd(if s == 0 { banks } else { s }, banks);
        (banks / g) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionStream;

    /// The float grid snap the tick arithmetic replaced — what the
    /// reference models below accumulate with.
    fn q(x: f64) -> f64 {
        (x * 20.0).round() / 20.0
    }

    fn quiet() -> MemorySystem {
        MemorySystem::new(MemConfig::c240().without_refresh())
    }

    #[test]
    fn unit_stride_streams_at_one_per_cycle() {
        let mut mem = quiet();
        let mut t = 0.0;
        for i in 0..256u64 {
            let (g, _) = mem.read(i, t);
            assert_eq!(g, t, "element {i} should not wait");
            t += 1.0;
        }
        assert_eq!(mem.wait_cycles(), 0.0);
    }

    #[test]
    fn same_bank_accesses_wait_bank_busy() {
        let mut mem = quiet();
        let (t0, _) = mem.read(0, 0.0);
        let (t1, _) = mem.read(32, t0 + 1.0); // same bank 0
        assert_eq!(t0, 0.0);
        assert_eq!(t1, 8.0);
    }

    #[test]
    fn stride_32_is_bank_limited() {
        let mut mem = quiet();
        let mut t = 0.0;
        let mut grants = Vec::new();
        for i in 0..16u64 {
            let (g, _) = mem.read(i * 32, t);
            grants.push(g);
            t = g + 1.0; // port wants one per cycle
        }
        // Steady state: one element per 8 cycles.
        let deltas: Vec<f64> = grants.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 8.0), "{deltas:?}");
    }

    #[test]
    fn refresh_blocks_grants() {
        let mut mem = MemorySystem::new(MemConfig::c240());
        // Request at cycle 2 lands inside the refresh window [0, 8) and
        // pays the full 8-cycle stall (§3.2 of the paper).
        let (g, _) = mem.read(0, 2.0);
        assert_eq!(g, 10.0);
        // Request at 401 lands inside [400, 408).
        let (g2, _) = mem.read(1, 401.0);
        assert_eq!(g2, 409.0);
        // Requests between windows go through immediately.
        let (g3, _) = mem.read(2, 100.0);
        assert_eq!(g3, 100.0);
    }

    #[test]
    fn refresh_costs_about_two_percent() {
        let mut mem = MemorySystem::new(MemConfig::c240());
        let mut t = 0.0;
        let n = 40_000u64;
        for i in 0..n {
            let (g, _) = mem.read(i % 1000, t);
            t = g + 1.0;
        }
        let ideal = n as f64;
        let slowdown = t / ideal;
        assert!(
            (1.015..1.025).contains(&slowdown),
            "refresh slowdown {slowdown} should be ~1.02"
        );
    }

    #[test]
    fn write_then_read_roundtrips_data() {
        let mut mem = quiet();
        let t = mem.write(77, 3.25, 0.0);
        let (_, v) = mem.read(77, t + 8.0);
        assert_eq!(v, 3.25);
    }

    #[test]
    fn poke_peek() {
        let mut mem = quiet();
        mem.poke(5, -1.5);
        assert_eq!(mem.peek(5), -1.5);
        assert_eq!(mem.access_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mem = MemorySystem::new(MemConfig::c240().with_words(16));
        let _ = mem.peek(16);
    }

    #[test]
    fn reset_timing_keeps_data() {
        let mut mem = quiet();
        mem.write(3, 9.0, 0.0);
        mem.reset_timing();
        assert_eq!(mem.peek(3), 9.0);
        assert_eq!(mem.access_count(), 0);
        let (g, _) = mem.read(3, 0.0);
        assert_eq!(g, 0.0);
    }

    #[test]
    fn contention_delays_grants() {
        let cfg = MemConfig::c240()
            .without_refresh()
            .with_contention(ContentionConfig::idle().with_stream(ContentionStream::unit(0)));
        let mut mem = MemorySystem::new(cfg);
        // The stream claims bank 0 during [0, 8).
        let (g, _) = mem.read(0, 0.0);
        assert_eq!(g, 8.0);
    }

    #[test]
    fn mixed_contention_slows_unit_stream() {
        let busy = MemConfig::c240()
            .without_refresh()
            .with_contention(ContentionConfig::mixed(3));
        let mut mem = MemorySystem::new(busy);
        let mut t = 0.0;
        let n = 10_000u64;
        for i in 0..n {
            let (g, _) = mem.read(i, t);
            t = g + 1.0;
        }
        let slowdown = t / n as f64;
        // §4.2: typical contention stretches a 40 ns access to 56–64 ns.
        assert!(
            (1.35..=1.65).contains(&slowdown),
            "mixed contention slowdown {slowdown} should be ~1.4-1.6"
        );
    }

    #[test]
    fn lockstep_contention_is_mild() {
        let busy = MemConfig::c240()
            .without_refresh()
            .with_contention(ContentionConfig::lockstep(3));
        let mut mem = MemorySystem::new(busy);
        let mut t = 0.0;
        let n = 40_000u64;
        for i in 0..n {
            let (g, _) = mem.read(i, t);
            t = g + 1.0;
        }
        let slowdown = t / n as f64;
        // §4.2: same-executable neighbors cost only 5-10%.
        assert!(
            (1.04..=1.12).contains(&slowdown),
            "lockstep contention slowdown {slowdown} should be ~1.05-1.10"
        );
    }

    #[test]
    fn banks_touched() {
        let mem = quiet();
        assert_eq!(mem.banks_touched(1), 32);
        assert_eq!(mem.banks_touched(2), 16);
        assert_eq!(mem.banks_touched(32), 1);
        assert_eq!(mem.banks_touched(25), 32);
        assert_eq!(mem.banks_touched(0), 1);
        assert_eq!(mem.banks_touched(-2), 16);
    }

    #[test]
    fn wait_statistics_accumulate() {
        let mut mem = quiet();
        let _ = mem.read(0, 0.0);
        let _ = mem.read(32, 0.0); // waits 8 cycles
        assert_eq!(mem.wait_cycles(), 8.0);
        assert_eq!(mem.access_count(), 2);
        assert_eq!(mem.wait_breakdown().bank_busy, 8.0);
    }

    #[test]
    fn wait_breakdown_sums_exactly_under_all_causes() {
        // Refresh + contention + bank recycling all active at once.
        let cfg = MemConfig::c240().with_contention(ContentionConfig::mixed(3));
        let mut mem = MemorySystem::new(cfg);
        let mut t = 0.0;
        for i in 0..5_000u64 {
            let addr = (i * 7) % 2000;
            let (g, _) = mem.read(addr, t);
            // Re-read the same bank one cycle after its grant: the bank
            // is still recycling, so this charges bank_busy.
            let (g2, _) = mem.read(addr, g + 1.0);
            t = g2 + 1.0;
        }
        let b = mem.wait_breakdown();
        // Exact, not approximate: every cursor bump was charged once.
        assert_eq!(b.total(), mem.wait_cycles());
        assert!(b.bank_busy > 0.0 && b.refresh > 0.0 && b.contention > 0.0);
        // Ablations zero their category.
        let mut quiet_mem = MemorySystem::new(MemConfig::c240().without_refresh());
        let mut t = 0.0;
        for i in 0..1_000u64 {
            let (g, _) = quiet_mem.read(i % 64, t);
            t = g + 1.0;
        }
        let qb = quiet_mem.wait_breakdown();
        assert_eq!(qb.refresh, 0.0);
        assert_eq!(qb.contention, 0.0);
        assert_eq!(qb.total(), quiet_mem.wait_cycles());
    }

    #[test]
    fn shared_bank_state_charges_foreign_claims_to_contention() {
        // Two views arbitrate over one BankState: B's wait behind A's
        // claim is contention; A's wait behind its own claim stays
        // bank-busy. The shared totals see both.
        let mut a = quiet();
        let mut b = quiet();
        b.set_view(1);
        let mut shared = BankState::new(32);

        a.swap_bank_state(&mut shared);
        let (g, _) = a.read(0, 0.0); // A claims bank 0 for [0, 8)
        assert_eq!(g, 0.0);
        a.swap_bank_state(&mut shared);

        b.swap_bank_state(&mut shared);
        let (g, _) = b.read(32, 1.0); // same bank, different view
        assert_eq!(g, 8.0);
        b.swap_bank_state(&mut shared);

        assert_eq!(b.wait_breakdown().contention, 7.0);
        assert_eq!(b.wait_breakdown().bank_busy, 0.0);
        assert_eq!(a.wait_breakdown().total(), 0.0);

        // A re-reading its own bank still charges bank busy.
        a.swap_bank_state(&mut shared);
        let (g, _) = a.read(64, 9.0); // bank 0, now owned by B until 16
        assert_eq!(g, 16.0);
        a.swap_bank_state(&mut shared);
        assert_eq!(a.wait_breakdown().contention, 7.0);

        // Per-view breakdowns sum to the shared machine-wide totals.
        let total = shared.wait_breakdown();
        let sum_bank = a.wait_breakdown().bank_busy + b.wait_breakdown().bank_busy;
        let sum_cont = a.wait_breakdown().contention + b.wait_breakdown().contention;
        assert_eq!(total.bank_busy, sum_bank);
        assert_eq!(total.contention, sum_cont);
        assert_eq!(shared.access_count(), a.access_count() + b.access_count());
        assert_eq!(shared.wait_cycles(), a.wait_cycles() + b.wait_cycles());
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn saturating_contention_trips_the_grant_guard() {
        // `MemConfig::validate` rejects this configuration; a memory system
        // built from it anyway still stops instead of spinning forever.
        let cfg = MemConfig::c240()
            .with_banks(16)
            .with_contention(ContentionConfig::lockstep(3));
        let _ = MemorySystem::new(cfg).read(0, 0.0);
    }

    /// The `f64` refresh and background-stream steps of a grant search:
    /// the cycle `t` moves to when a refresh window or a background
    /// claim (answered by the reference solver) blocks it, charged to
    /// `w`; `None` when neither does.
    fn float_refresh_or_background(
        cfg: &MemConfig,
        bank: usize,
        t: f64,
        w: &mut WaitBreakdown,
    ) -> Option<f64> {
        if cfg.refresh_enabled {
            let len = cfg.refresh_len as f64;
            if t.rem_euclid(cfg.refresh_period as f64) < len {
                w.refresh = q(w.refresh + len);
                return Some(q(t + len));
            }
        }
        let busy = cfg.bank_busy as f64;
        let end = cfg
            .contention
            .streams()
            .iter()
            .filter_map(|s| s.blocking_claim_end(bank as u32, cfg.banks, t, busy))
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))?;
        w.contention = q(w.contention + (end - t));
        Some(q(end))
    }

    /// Linear-scan multiport arbitration: the per-grant `retain` over a
    /// bank's claims and the first-overlap `find` that the indexed grant
    /// search replaces, with contention answered by the reference solver.
    struct LinearBanks {
        cfg: MemConfig,
        claims: Vec<Vec<(f64, u32)>>,
        horizon: f64,
        waits: Vec<WaitBreakdown>,
    }

    impl LinearBanks {
        fn grant(&mut self, view: u32, addr: u64, earliest: f64) -> f64 {
            let bank = bank_of(addr, self.cfg.banks) as usize;
            let earliest = q(earliest.max(0.0));
            let busy = self.cfg.bank_busy as f64;
            let horizon = self.horizon;
            self.claims[bank].retain(|&(s, _)| q(s + busy) > horizon);
            let w = &mut self.waits[view as usize];
            let mut t = earliest;
            loop {
                let hit = self.claims[bank]
                    .iter()
                    .find(|&&(s, _)| s < q(t + busy) && q(s + busy) > t)
                    .copied();
                if let Some((s, owner)) = hit {
                    let end = q(s + busy);
                    if owner == view {
                        w.bank_busy = q(w.bank_busy + (end - t));
                    } else {
                        w.contention = q(w.contention + (end - t));
                    }
                    t = end;
                    continue;
                }
                match float_refresh_or_background(&self.cfg, bank, t, w) {
                    Some(later) => t = later,
                    None => break,
                }
            }
            let pos = self.claims[bank].partition_point(|&(s, _)| s <= t);
            self.claims[bank].insert(pos, (t, view));
            t
        }
    }

    /// A random configuration for the reference comparisons: bank count,
    /// bank busy, refresh geometry and up to two background streams.
    fn random_config(rng: &mut crate::TestRng) -> MemConfig {
        let banks = [4u32, 8, 16, 32][rng.range(0, 3) as usize];
        let mut cfg = MemConfig::c240().with_banks(banks).with_words(4096);
        cfg.bank_busy = rng.range(1, 12);
        cfg.refresh_enabled = rng.range(0, 1) == 1;
        cfg.refresh_period = rng.range(40, 400);
        cfg.refresh_len = rng.range(1, 8);
        for _ in 0..rng.range(0, 2) {
            let den = rng.range(2, 6) as u32;
            cfg.contention = cfg.contention.with_stream(ContentionStream {
                stride: 2 * rng.range(0, 20) + 1,
                phase: rng.range(0, 100),
                duty_num: 1,
                duty_den: den,
            });
        }
        cfg
    }

    /// Request patterns for [`multiport_case`].
    #[derive(Clone, Copy)]
    enum Requests {
        /// Each view asks up to 20 cycles behind its own clock; the
        /// horizon trails the slowest clock by 20 cycles.
        NearClock,
        /// One request in four reaches back anywhere between the horizon
        /// and the view's clock, and the horizon trails by 400 cycles:
        /// dozens of claims per bank are live, so the grant search starts
        /// far from the newest. No background streams.
        FarBehind,
    }

    /// Drives `views` ports over one multiport [`BankState`] and the
    /// linear-scan reference with the same random requests; returns the
    /// longest claim list seen.
    fn multiport_case(seed: u64, requests: Requests) -> usize {
        let mut rng = crate::TestRng::new(seed);
        let mut cfg = random_config(&mut rng);
        if matches!(requests, Requests::FarBehind) {
            // Neighbor claims alone fill the banks here.
            cfg.contention = ContentionConfig::idle();
        }
        let banks = cfg.banks;
        let views = rng.range(2, 4) as usize;
        let mut ports: Vec<MemorySystem> = (0..views)
            .map(|v| {
                let mut m = MemorySystem::new(cfg.clone());
                m.set_view(v as u32);
                m
            })
            .collect();
        let mut shared = BankState::multiport(banks);
        let mut reference = LinearBanks {
            claims: vec![Vec::new(); banks as usize],
            horizon: 0.0,
            waits: vec![WaitBreakdown::default(); views],
            cfg,
        };
        let (lag, every) = match requests {
            Requests::NearClock => (20.0, 16),
            Requests::FarBehind => (400.0, 128),
        };
        let mut clock = vec![0.0f64; views];
        let mut longest = 0;
        for i in 0..3_000u32 {
            // Views take turns out of timestamp order, and each view
            // sometimes asks for a cycle behind its own clock.
            let v = rng.range(0, views as u64 - 1) as usize;
            let addr = rng.range(0, 4095);
            let earliest = match requests {
                Requests::FarBehind if rng.range(0, 3) == 0 => {
                    let from = reference.horizon.max(0.0);
                    let back = rng.range(0, ((clock[v] - from) * 20.0) as u64) as f64;
                    q(clock[v] - back / 20.0)
                }
                _ => q(clock[v] - rng.range(0, 400) as f64 / 20.0).max(0.0),
            };
            let expected = reference.grant(v as u32, addr, earliest);
            ports[v].swap_bank_state(&mut shared);
            let (granted, _) = ports[v].read(addr, earliest);
            ports[v].swap_bank_state(&mut shared);
            assert_eq!(granted, expected, "seed {seed}, request {i}");
            let next = q(granted + rng.range(0, 60) as f64 / 20.0);
            clock[v] = match requests {
                Requests::NearClock => next,
                // A request from far behind does not pull its view back.
                Requests::FarBehind => clock[v].max(next),
            };
            longest = longest.max(shared.claims.iter().map(VecDeque::len).max().unwrap_or(0));
            if i % every == every - 1 {
                // Every later request starts at or above the horizon.
                let h = clock.iter().copied().fold(f64::INFINITY, f64::min) - lag;
                shared.set_horizon(h);
                reference.horizon = reference.horizon.max(h);
            }
        }
        for (v, port) in ports.iter().enumerate() {
            assert_eq!(
                port.wait_breakdown(),
                reference.waits[v],
                "seed {seed}, view {v}"
            );
        }
        let live: usize = shared.claims.iter().map(VecDeque::len).sum();
        let expected_live: usize = reference.claims.iter().map(Vec::len).sum();
        assert_eq!(live, expected_live, "seed {seed}: horizon pruning");
        longest
    }

    #[test]
    fn multiport_grant_matches_the_linear_scan() {
        for seed in 0..120u64 {
            multiport_case(seed, Requests::NearClock);
        }
        let longest = (1_000..1_030u64)
            .map(|seed| multiport_case(seed, Requests::FarBehind))
            .max()
            .unwrap_or(0);
        assert!(longest >= 64, "claim lists stayed short ({longest})");
    }

    /// The single-port grant as `f64` code: one earliest-free cursor per
    /// bank, every sum snapped with [`q`], `rem_euclid` for refresh.
    struct CursorBanks {
        cfg: MemConfig,
        free: Vec<f64>,
        owner: Vec<u32>,
        waited: Vec<f64>,
        waits: Vec<WaitBreakdown>,
    }

    impl CursorBanks {
        fn grant(&mut self, view: u32, addr: u64, earliest: f64) -> f64 {
            let bank = bank_of(addr, self.cfg.banks) as usize;
            let earliest = q(earliest.max(0.0));
            let busy = self.cfg.bank_busy as f64;
            let w = &mut self.waits[view as usize];
            let mut t = earliest;
            loop {
                if t < self.free[bank] {
                    let wait = self.free[bank] - t;
                    if self.owner[bank] == view {
                        w.bank_busy = q(w.bank_busy + wait);
                    } else {
                        w.contention = q(w.contention + wait);
                    }
                    t = self.free[bank];
                    continue;
                }
                match float_refresh_or_background(&self.cfg, bank, t, w) {
                    Some(later) => t = later,
                    None => break,
                }
            }
            let end = q(t + busy);
            if end >= self.free[bank] {
                self.free[bank] = end;
                self.owner[bank] = view;
            }
            let waited = &mut self.waited[view as usize];
            *waited = q(*waited + (t - earliest));
            t
        }
    }

    #[test]
    fn single_port_grant_matches_the_float_cursor() {
        for seed in 0..200u64 {
            let mut rng = crate::TestRng::new(seed);
            let cfg = random_config(&mut rng);
            if cfg.validate().is_err() {
                // Saturating contention: no grant search could end.
                continue;
            }
            let views = rng.range(1, 3) as usize;
            let mut ports: Vec<MemorySystem> = (0..views)
                .map(|v| {
                    let mut m = MemorySystem::new(cfg.clone());
                    m.set_view(v as u32);
                    m
                })
                .collect();
            let mut shared = BankState::new(cfg.banks);
            let mut reference = CursorBanks {
                free: vec![0.0; cfg.banks as usize],
                owner: vec![0; cfg.banks as usize],
                waited: vec![0.0; views],
                waits: vec![WaitBreakdown::default(); views],
                cfg,
            };
            let mut clock = 0.0f64;
            for i in 0..2_000u32 {
                let v = rng.range(0, views as u64 - 1) as usize;
                let addr = rng.range(0, 4095);
                // Mostly forward in 1/20-cycle steps; one request in
                // eight goes back in time, some of them off the grid.
                let earliest = match rng.range(0, 7) {
                    0 => clock - rng.range(0, 2_000) as f64 / 7.0,
                    _ => clock,
                };
                ports[v].swap_bank_state(&mut shared);
                let (granted, _) = ports[v].read(addr, earliest);
                ports[v].swap_bank_state(&mut shared);
                assert_eq!(
                    granted,
                    reference.grant(v as u32, addr, earliest),
                    "seed {seed}, request {i}"
                );
                clock = q(clock + rng.range(0, 40) as f64 / 20.0);
            }
            for (v, port) in ports.iter().enumerate() {
                assert_eq!(port.wait_breakdown(), reference.waits[v], "seed {seed}");
                assert_eq!(port.wait_cycles(), reference.waited[v], "seed {seed}");
            }
            assert_eq!(shared.free, reference.free, "seed {seed}");
        }
    }

    #[test]
    fn tick_rounding_matches_the_float_snap() {
        let mut rng = crate::TestRng::new(7);
        for _ in 0..100_000 {
            let x = rng.range(0, 1 << 40) as f64 / 1_000.0;
            assert_eq!(cycles(ticks(x)), q(x), "{x}");
            assert_eq!(cycles(ticks(-x)), q(-x), "{}", -x);
        }
        // Exact halves round away from zero, as `f64::round` does.
        for x in [0.025, 0.075, 1.125, -0.025, -2.475] {
            assert_eq!(cycles(ticks(x)), q(x), "{x}");
        }
        assert_eq!(ticks(f64::NAN), 0);
        assert_eq!(ticks(f64::INFINITY), i64::MAX);
        assert_eq!(ticks(f64::NEG_INFINITY), i64::MIN);
    }

    #[test]
    fn tick_refresh_check_matches_the_float_remainder() {
        for (period, len) in [(400u64, 8u64), (40, 1), (97, 13), (400, 399)] {
            let (pt, lt) = (whole_ticks(period), whole_ticks(len));
            for base in [0u64, 123_456, 1 << 40, (1 << 40) + 17] {
                // Start each scan a window before a period boundary.
                let first = whole_ticks(base - base % period).max(pt) - pt;
                for n in first..first + 4 * pt {
                    let float = cycles(n).rem_euclid(period as f64) < len as f64;
                    assert_eq!(
                        in_refresh(n, pt, lt),
                        float,
                        "tick {n}, period {period}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_refresh_period_opens_no_window() {
        // Unvalidated: refresh on with a zero period. The float check's
        // `rem_euclid(0.0)` was NaN, so no request ever saw a window.
        let mut zero = MemConfig::c240().with_contention(ContentionConfig::mixed(2));
        zero.refresh_period = 0;
        let off = zero.clone().without_refresh();
        let mut a = MemorySystem::new(zero);
        let mut b = MemorySystem::new(off);
        let mut t = 0.0;
        for i in 0..2_000u64 {
            let (g, _) = a.read(i * 3, t);
            assert_eq!(g, b.read(i * 3, t).0, "request {i}");
            t = g + 0.5;
        }
        assert_eq!(a.wait_breakdown(), b.wait_breakdown());
        assert_eq!(a.wait_breakdown().refresh, 0.0);
        let quiet_zero = {
            let mut c = MemConfig::c240();
            c.refresh_period = 0;
            MemorySystem::new(c)
        };
        assert!(quiet_zero.stream_conflict_free(0, 1, 64, 0.0, 1.0));
    }

    #[test]
    fn closed_form_stream_matches_per_element_grants() {
        for seed in 0..300u64 {
            let mut rng = crate::TestRng::new(seed);
            let mut cfg = random_config(&mut rng);
            cfg.contention = ContentionConfig::idle();
            if cfg.validate().is_err() {
                continue;
            }
            let multiport = rng.range(0, 1) == 1;
            let fresh = |cfg: &MemConfig| {
                let mut m = MemorySystem::new(cfg.clone());
                if multiport {
                    m.swap_bank_state(&mut BankState::multiport(cfg.banks));
                }
                m
            };
            let (mut closed, mut stepped) = (fresh(&cfg), fresh(&cfg));
            let mut start = 0.0;
            for _ in 0..40 {
                let base = rng.range(0, 2_000) as i64;
                let stride = rng.range(0, 40) as i64 - 20;
                let n = rng.range(1, 128) as u32;
                let z = [1.0, 1.35, 2.0, 4.0][rng.range(0, 3) as usize];
                start = q(start + rng.range(0, 4_000) as f64 / 20.0);
                if !closed.stream_conflict_free(base, stride, n, start, z) {
                    continue;
                }
                closed.claim_stream(base, stride, n, start, z);
                for e in 0..n {
                    let at = q(start + z * f64::from(e));
                    let addr = (base + stride * i64::from(e)).rem_euclid(4096) as u64;
                    assert_eq!(stepped.read(addr, at).0, at, "seed {seed}, element {e}");
                }
                start = q(start + z * f64::from(n));
            }
            assert_eq!(closed.bank_state(), stepped.bank_state(), "seed {seed}");
            assert_eq!(closed.bank.claims, stepped.bank.claims, "seed {seed}");
            assert_eq!(closed.access_count(), stepped.access_count());
            assert_eq!(stepped.wait_cycles(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum")]
    fn oversized_bank_busy_is_refused_at_construction() {
        let mut cfg = MemConfig::c240();
        cfg.bank_busy = MAX_BANK_BUSY + 1;
        let _ = MemorySystem::new(cfg);
    }
}
