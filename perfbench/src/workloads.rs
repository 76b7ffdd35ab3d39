//! The three workloads. Each runs one measured phase and reports every
//! end-to-end metric; the traced run adds a second, traced phase and the
//! per-layer numbers.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use c240_obs::json::Json;
use c240_sim::SimConfig;
use macs_core::ChimeConfig;
use macs_experiments::cosim::{cosim_table, run_cosim, CoSimReport, Mix};
use macs_experiments::{figures, tables, Suite};

use crate::gate;
use crate::gen::{self, Request, BLOCK};
use crate::served::{closed_loop, Answer, Class, Served};
use crate::spans::SpanLog;
use crate::stats::{median, tail, Tail};

/// End-to-end metrics: name and unit. Every workload reports each one.
pub const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("points_per_s", "1/s"),
    ("point_p50_ms", "ms"),
    ("point_tail_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
    ("tp_err_pct", "%"),
];

/// Set-ups after each sweep loop segment; `setup_s` is the median of
/// all of a phase's set-ups. A launch takes a few milliseconds, so many
/// of them, spread over the whole run like the hit bursts, buy a median
/// that follows the run's typical speed rather than one moment's.
const SETUPS_PER_SEGMENT: usize = 12;
/// `paper-suite` set-ups after each pass, each in a fresh process.
const PAPER_SETUPS_PER_PASS: usize = 5;
/// Timed `paper-suite` passes at least. Each pass makes one Figure 3
/// call, its slowest, so the tail (ten calls beyond it) is the Figure 3
/// call ten from the slowest. With twenty passes or more that call sits
/// in the middle of the run's Figure 3 calls, not among its fastest two
/// or three, whose times scatter with the host's moment-to-moment speed.
const PAPER_MIN_PASSES: usize = 20;
/// Outstanding requests of the served closed loops.
const WINDOW: usize = 2;
/// Requests per `sweep-cold` loop segment (four blocks; `sweep-repeat`
/// runs five times as many, which take about as long). The gate's
/// recomputation, and on `sweep-cold` a burst of hits, follow each
/// segment.
const SEGMENT: usize = 4 * BLOCK;
/// Hits per burst.
const BURST: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    SweepCold,
    SweepRepeat,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSuite,
        Workload::SweepCold,
        Workload::SweepRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::SweepCold => "sweep-cold",
            Workload::SweepRepeat => "sweep-repeat",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn stream(self, seed: u64) -> Box<dyn Iterator<Item = Request>> {
        match self {
            Workload::SweepCold => Box::new(gen::cold_stream(seed)),
            _ => Box::new(gen::repeat_stream(seed)),
        }
    }

    /// The process under test, as `macs-bench` arguments.
    fn server_args(self, journal: &Path, traced: bool) -> Vec<String> {
        let journal = journal.display().to_string();
        let metrics: &[&str] = if traced { &["--metrics"] } else { &[] };
        let args: Vec<&str> = match self {
            Workload::SweepRepeat => [
                &["--coordinate", "--fleet", "2", "--journal", &journal][..],
                metrics,
                &["--", "--workers", "1"],
                metrics,
            ]
            .concat(),
            _ => [
                &["--serve", "--workers", "2", "--journal", &journal][..],
                metrics,
            ]
            .concat(),
        };
        args.into_iter().map(String::from).collect()
    }
}

/// Where a run reads and writes: the `macs-bench` binary, and a scratch
/// directory inside the checkout for journals.
pub struct Ctx {
    pub seed: u64,
    pub macs_bench: PathBuf,
    pub work: PathBuf,
}

/// Simulated work of one `suite_s` unit (exact: it depends on the seed
/// only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub instructions: u64,
    pub elements: u64,
    /// Memory wait cycles: bank busy, refresh, contention.
    pub waits: [f64; 3],
}

impl Work {
    fn add(&mut self, stats: &c240_sim::RunStats) {
        self.instructions += stats.instructions.total();
        self.elements += stats.elements.iter().sum::<u64>();
        self.add_waits(&stats.memory_waits);
    }

    fn add_waits(&mut self, w: &c240_mem::WaitBreakdown) {
        self.waits[0] += w.bank_busy;
        self.waits[1] += w.refresh;
        self.waits[2] += w.contention;
    }
}

/// One measured phase.
pub struct Phase {
    pub e2e: BTreeMap<&'static str, f64>,
    pub tail: Tail,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Served answers of the phase's main session.
    pub answers: Vec<Answer>,
    /// Valid request lines of the phase's first block (`paper-suite`:
    /// the kernels × ablations grid): the layer probes' inputs.
    pub sample: Vec<String>,
    /// Fault tallies of the phase's sessions (each must be 0; the gate
    /// fails the run otherwise), for the result record.
    pub faults: BTreeMap<&'static str, u64>,
}

fn median_ms(answers: &[Answer], keep: impl Fn(&Answer) -> bool) -> Result<f64, String> {
    let xs: Vec<f64> = answers
        .iter()
        .filter(|a| keep(a))
        .map(Answer::latency_ms)
        .collect();
    if xs.is_empty() {
        return Err("no samples for a latency metric".into());
    }
    Ok(median(&xs))
}

fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f`, recording its latency under `class` (and a span when
/// traced).
fn timed<T>(
    calls: &mut Vec<(Class, f64)>,
    spans: &mut Option<&mut SpanLog>,
    name: &str,
    class: Class,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    calls.push((class, (end - start).as_secs_f64() * 1e3));
    if let Some(log) = spans.as_mut() {
        log.record(name, start, end);
    }
    out
}

/// What `paper-suite` builds before its first simulation: the machine
/// and chime configurations, and every kernel's program with its access
/// (A) and execute (X) processes. Memory set-up is left out.
/// `perfbench paper-setup` runs it once and prints its seconds.
pub fn paper_setup() -> f64 {
    let start = Instant::now();
    let sim = SimConfig::c240();
    let chime = ChimeConfig::c240();
    let programs: Vec<_> = lfk_suite::all()
        .iter()
        .map(|k| {
            let program = k.program();
            let a = macs_core::a_process(&program);
            let x = macs_core::x_process(&program);
            (program, a, x)
        })
        .collect();
    std::hint::black_box((sim, chime, programs));
    start.elapsed().as_secs_f64()
}

/// [`paper_setup`] in a fresh `perfbench paper-setup` process, on a
/// fresh heap like the suite's own set-up. Repeated in a process that
/// has run passes, the set-up's time jumps between two levels, by
/// whether the pages it allocates are still mapped, which depends on
/// the allocator's history.
fn fresh_paper_setup() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg("paper-setup")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("paper-setup: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("paper-setup exited with {}: {text}", out.status)),
    }
}

/// Simulated work of one suite pass: the suite's full/A/X runs, the
/// same again for Figure 3's loaded-machine runs, and both co-sim mixes
/// (each CPU plus the solo baselines).
pub fn paper_work(suite: &Suite, cosims: &[&CoSimReport]) -> Work {
    let mut w = Work::default();
    for row in &suite.rows {
        let a = &row.analysis;
        for m in [&a.measured, &a.a_process, &a.x_process] {
            w.add(&m.stats);
        }
    }
    w.instructions *= 2;
    w.elements *= 2;
    let full = |id: u32| {
        &suite
            .row(id)
            .expect("co-sim kernels are suite kernels")
            .analysis
            .measured
            .stats
    };
    for report in cosims {
        let mut solos: Vec<u32> = report.rows.iter().map(|r| r.kernel).collect();
        solos.sort_unstable();
        solos.dedup();
        for id in report.rows.iter().map(|r| r.kernel).chain(solos) {
            let s = full(id);
            w.instructions += s.instructions.total();
            w.elements += s.elements.iter().sum::<u64>();
        }
        w.add_waits(&report.shared_waits);
    }
    w
}

/// One pass of the reproduction `macs-report all` performs, through the
/// same public entry points, as six timed calls: Table 1's calibration
/// runs, the suite, the report renders that read it (the hit: answered
/// from results already computed), Figure 3's loaded-machine runs, and
/// the two co-sim mixes. Five simulating calls keep `miss_p50_ms` on
/// one call's cost instead of between two.
/// Returns the pass time, the suite, the co-sim reports and everything
/// the pass rendered.
fn paper_pass(
    sim: &SimConfig,
    chime: &ChimeConfig,
    calls: &mut Vec<(Class, f64)>,
    spans: &mut Option<&mut SpanLog>,
) -> (f64, Suite, [CoSimReport; 2], Vec<String>) {
    let sim4 = sim.clone().with_cpus(4);
    let pass = Instant::now();
    let mut renders = vec![timed(calls, spans, "tables::table1", Class::Miss, || {
        tables::table1(sim).render()
    })];
    let suite = timed(calls, spans, "Suite::run_with", Class::Miss, || {
        Suite::run_with(sim, chime)
    });
    renders.extend(timed(calls, spans, "reports", Class::Hit, || {
        [
            tables::table2(&suite).render(),
            tables::table3(&suite).render(),
            tables::table4(&suite).render(),
            tables::table5(&suite).render(),
            figures::fig1(&suite),
            figures::fig3_bars(&suite),
        ]
    }));
    renders.push(timed(calls, spans, "figures::fig3", Class::Miss, || {
        figures::fig3(&suite).render()
    }));
    let cosims = [Mix::Lockstep, Mix::Mixed].map(|mix| {
        timed(
            calls,
            spans,
            &format!("run_cosim({mix})"),
            Class::Miss,
            || run_cosim(&sim4, mix),
        )
    });
    let secs = pass.elapsed().as_secs_f64();
    renders.extend(cosims.iter().map(cosim_table));
    (secs, suite, cosims, renders)
}

/// `paper-suite`: an untimed warm-up pass, then timed passes for
/// `seconds`, and at least `share` (the phase's share of the run) of
/// [`PAPER_MIN_PASSES`].
/// The gate runs between passes: the paper's invariants, and every pass
/// rendering exactly what the warm-up pass did.
pub fn paper_phase(
    seconds: f64,
    share: f64,
    mut spans: Option<&mut SpanLog>,
) -> Result<(Phase, Work), String> {
    let min_passes = (PAPER_MIN_PASSES as f64 * share).ceil() as usize;
    let mut setups: Vec<f64> = Vec::new();
    let sim = SimConfig::c240();
    let chime = ChimeConfig::c240();
    let (_, suite, cosims, reference) = paper_pass(&sim, &chime, &mut Vec::new(), &mut None);
    let [lockstep, mixed] = &cosims;
    let work = paper_work(&suite, &[lockstep, mixed]);
    let tp_err = gate::tp_err_pct(|id| suite.row(id).expect("Table 4 kernels").analysis.t_p_cpf());
    let mut failures = gate::check_paper(&suite, &[lockstep, mixed]);

    let mut calls: Vec<(Class, f64)> = Vec::new();
    let mut passes: Vec<f64> = Vec::new();
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let (secs, suite, cosims, renders) = paper_pass(&sim, &chime, &mut calls, &mut spans);
        passes.push(secs);
        for _ in 0..PAPER_SETUPS_PER_PASS {
            setups.push(fresh_paper_setup()?);
        }
        let [lockstep, mixed] = &cosims;
        failures.extend(gate::check_paper(&suite, &[lockstep, mixed]));
        if renders != reference {
            failures.push("a pass rendered different artifacts than the first".into());
        }
    }
    let busy: f64 = passes.iter().sum();
    let all: Vec<f64> = calls.iter().map(|c| c.1).collect();
    let of =
        |class: Class| -> Vec<f64> { calls.iter().filter(|c| c.0 == class).map(|c| c.1).collect() };
    let t = tail(&all).expect("the minimum passes give more than ten calls");
    let e2e = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("suite_s", median(&passes)),
        ("points_per_s", calls.len() as f64 / busy),
        ("point_p50_ms", median(&all)),
        ("point_tail_ms", t.value),
        ("hit_p50_ms", median(&of(Class::Hit))),
        ("miss_p50_ms", median(&of(Class::Miss))),
        (
            "sim_minstr_per_s",
            work.instructions as f64 * passes.len() as f64 / busy / 1e6,
        ),
        ("peak_rss_mb", own_peak_rss_mb()),
        ("tp_err_pct", tp_err),
    ]);
    let phase = Phase {
        e2e,
        tail: t,
        attempted: calls.len(),
        failures,
        answers: Vec::new(),
        sample: gen::grid_lines(),
        faults: BTreeMap::new(),
    };
    Ok((phase, work))
}

/// Times `repeats` set-ups of the process `args` describes: each a
/// fresh launch on an empty `journal`, warmed up and shut down again.
fn time_setups(
    ctx: &Ctx,
    args: &[String],
    journal: &Path,
    repeats: usize,
    summaries: &mut Vec<(Json, usize)>,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..repeats {
        let _ = std::fs::remove_file(journal);
        let (served, secs) = Served::spawn_warm(&ctx.macs_bench, args)?;
        setups.push(secs);
        summaries.push((served.finish()?, 1));
    }
    Ok(())
}

/// Sends `lines` in order through a fresh, traced session of the
/// process `kind` runs (closed loop, two outstanding) and returns the
/// answers, checked by the gate. The layer probes use it to drive the
/// service layers a workload does not load itself.
pub fn probe_session(ctx: &Ctx, kind: Workload, lines: &[String]) -> Result<Vec<Answer>, String> {
    let journal = ctx.work.join(format!("probe-{}.journal", kind.name()));
    let mut summaries = Vec::new();
    let (mut server, _) = Served::spawn_warm(&ctx.macs_bench, &kind.server_args(&journal, true))?;
    let mut requests = lines.iter().cloned().enumerate().map(|(i, line)| {
        (
            i,
            Request {
                line,
                expect_error: None,
            },
        )
    });
    let answers = closed_loop(
        &mut server,
        &mut requests,
        Instant::now(),
        lines.len(),
        WINDOW,
        &mut HashSet::new(),
    )?;
    summaries.push((server.finish()?, answers.len() + 1));
    let failures = gate::check_served(&answers, &summaries, &mut HashSet::new());
    if let Some(f) = failures.first() {
        return Err(format!("probe session failed its gate: {f}"));
    }
    Ok(answers)
}

/// Simulated work of the valid points of a stream's first block, each
/// distinct key once (what the block asks the simulator to do).
fn block_work(requests: &[Request]) -> Work {
    let base = SimConfig::c240();
    let mut seen = HashSet::new();
    let mut w = Work::default();
    for r in requests.iter().filter(|r| r.expect_error.is_none()) {
        let point = macs_core::sweep::parse_point(&r.line).expect("valid generated line");
        if !seen.insert(point.key()) {
            continue;
        }
        let cfg = point.config(&base).expect("generated presets exist");
        let kernel = lfk_suite::by_id(point.kernel).expect("generated kernels exist");
        let passes = point.passes.unwrap_or_else(|| kernel.passes());
        let mut cpu = c240_sim::Cpu::new(cfg);
        kernel.setup(&mut cpu);
        let stats = cpu
            .run(&kernel.program_with_passes(passes))
            .expect("generated points simulate");
        w.add(&stats);
    }
    w
}

/// `sweep-cold` and `sweep-repeat`: one served session under a closed
/// loop for `seconds` of loop time.
pub fn sweep_phase(
    kind: Workload,
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
    spans: Option<&mut SpanLog>,
) -> Result<(Phase, Work), String> {
    let tag = if traced { "traced" } else { "untraced" };
    let journal = |session: usize| {
        ctx.work
            .join(format!("{}-{tag}-{session}.journal", kind.name()))
    };
    let setup_journal = ctx
        .work
        .join(format!("{}-{tag}-setup.journal", kind.name()));
    let setup_args = kind.server_args(&setup_journal, traced);
    let _ = std::fs::remove_file(journal(0));
    let mut summaries = Vec::new();
    let (server, secs) =
        Served::spawn_warm(&ctx.macs_bench, &kind.server_args(&journal(0), traced))?;
    let mut server = Some(server);
    let mut setups = vec![secs];

    // The loop runs in segments. After each one the gate recomputes the
    // segment's new keys in-process, so the measured time is spread over
    // about twice the wall-clock span and averages more of the host's
    // slow and fast spells, and a batch of set-ups is timed.
    // `sweep-cold` serves each segment from a fresh session on a fresh
    // journal. A server's peak memory steps up by several MiB at a time
    // on some long points, depending on how they fall on its two
    // workers; how many steps a whole run's worth of points sees is
    // luck, while the median peak of many short sessions is steady. Each
    // finished session's journal then serves a burst of hits on a
    // resumed server, which times the lone server's hit path (it has no
    // cache; its store is the journal) across the whole run.
    let sessions = kind == Workload::SweepCold;
    let segment = if sessions { SEGMENT } else { SEGMENT * 5 };
    let mut failures = Vec::new();
    let mut checked = HashSet::new();
    let mut answered = HashSet::new();
    let mut stream = kind.stream(ctx.seed).enumerate();
    let budget = Duration::from_secs_f64(seconds);
    let mut answers: Vec<Answer> = Vec::new();
    let mut resumed_answers = Vec::new();
    let mut busy = Duration::ZERO;
    let mut peaks = Vec::new();
    for session in 0.. {
        let live = server.as_mut().expect("a session is open");
        let t0 = Instant::now();
        let seg = closed_loop(
            live,
            &mut stream.by_ref().take(segment),
            t0 + budget.saturating_sub(busy),
            BLOCK.saturating_sub(answers.len()),
            WINDOW,
            &mut answered,
        )?;
        busy += seg.iter().map(|a| a.done).max().unwrap_or(t0) - t0;
        let range = answers.len()..answers.len() + seg.len();
        answers.extend(seg);
        if sessions {
            let done = server.take().expect("a session is open");
            peaks.push(done.peak_rss_mb());
            summaries.push((done.finish()?, range.len() + 1));
            resumed_answers.extend(hit_burst(
                ctx,
                &journal(session),
                &answers[range.clone()],
                &mut summaries,
                &mut answered,
            )?);
            let _ = std::fs::remove_file(journal(session));
        }
        failures.extend(gate::recompute(&answers[range.clone()], &mut checked));
        time_setups(
            ctx,
            &setup_args,
            &setup_journal,
            SETUPS_PER_SEGMENT,
            &mut summaries,
            &mut setups,
        )?;
        if busy >= budget || range.is_empty() {
            break;
        }
        if sessions {
            let args = kind.server_args(&journal(session + 1), traced);
            let (next, secs) = Served::spawn_warm(&ctx.macs_bench, &args)?;
            setups.push(secs);
            server = Some(next);
        }
    }
    if let Some(done) = server {
        peaks.push(done.peak_rss_mb());
        summaries.push((done.finish()?, answers.len() + 1));
    }
    let mut faults: BTreeMap<&'static str, u64> = gate::FAULTS
        .iter()
        .map(|&f| {
            let n = summaries
                .iter()
                .map(|(s, _)| s.get(f).and_then(Json::as_u64).unwrap_or(0));
            (f, n.sum())
        })
        .collect();
    if kind == Workload::SweepRepeat {
        // Known only when the coordinator ran with `--metrics`.
        if let Some(n) = gate::redispatched(&journal(0)) {
            if n > 0 {
                failures.push(format!("the coordinator redispatched {n} points"));
            }
            faults.insert("redispatched", n);
        }
    }

    let mut all = answers.clone();
    all.extend(resumed_answers.iter().cloned());
    failures.extend(gate::check_served(&all, &summaries, &mut checked));

    if let Some(log) = spans {
        for a in &all {
            log.record(&format!("request {}", a.index), a.sent, a.done);
        }
    }

    let window_s = busy.as_secs_f64();
    let mut blocks: BTreeMap<usize, (usize, Instant, Instant)> = BTreeMap::new();
    for a in &answers {
        let b = blocks.entry(a.index / BLOCK).or_insert((0, a.sent, a.done));
        b.0 += 1;
        b.1 = b.1.min(a.sent);
        b.2 = b.2.max(a.done);
    }
    let block_s: Vec<f64> = blocks
        .values()
        .filter(|b| b.0 == BLOCK)
        .map(|b| (b.2 - b.1).as_secs_f64())
        .collect();
    let latencies: Vec<f64> = answers.iter().map(Answer::latency_ms).collect();
    let t = tail(&latencies).expect("a block has more than ten requests");
    let simulated: u64 = answers
        .iter()
        .filter(|a| a.class == Class::Miss)
        .filter_map(|a| {
            let row = Json::parse(&a.row).ok()?;
            row.get("instructions").and_then(Json::as_u64)
        })
        .sum();
    let hits = if kind == Workload::SweepCold {
        &resumed_answers
    } else {
        &answers
    };
    let e2e = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("suite_s", median(&block_s)),
        ("points_per_s", answers.len() as f64 / window_s),
        ("point_p50_ms", median(&latencies)),
        ("point_tail_ms", t.value),
        ("hit_p50_ms", median_ms(hits, |a| a.class == Class::Hit)?),
        (
            "miss_p50_ms",
            median_ms(&answers, |a| a.class == Class::Miss)?,
        ),
        ("sim_minstr_per_s", simulated as f64 / window_s / 1e6),
        ("peak_rss_mb", median(&peaks)),
        ("tp_err_pct", 0.0), // filled in once per run
    ]);
    let first: Vec<Request> = kind.stream(ctx.seed).take(BLOCK).collect();
    let work = if traced {
        block_work(&first)
    } else {
        Work::default()
    };
    let mut seen = HashSet::new();
    let sample = first
        .into_iter()
        .filter(|r| r.expect_error.is_none())
        .filter(|r| {
            let key = macs_core::sweep::parse_point(&r.line).map(|p| p.key());
            seen.insert(key.unwrap_or_default())
        })
        .map(|r| r.line)
        .collect();
    let phase = Phase {
        e2e,
        tail: t,
        attempted: all.len(),
        failures,
        answers: all,
        sample,
        faults,
    };
    Ok((phase, work))
}

/// Re-requests up to [`BURST`] of `answers` from a server resumed from
/// `journal` and returns its answers (all hits: every key was answered
/// before).
fn hit_burst(
    ctx: &Ctx,
    journal: &Path,
    answers: &[Answer],
    summaries: &mut Vec<(Json, usize)>,
    answered: &mut HashSet<String>,
) -> Result<Vec<Answer>, String> {
    let args: Vec<String> = ["--serve", "--workers", "2", "--resume"]
        .iter()
        .map(|s| s.to_string())
        .chain([journal.display().to_string()])
        .collect();
    let (mut resumed, _) = Served::spawn_warm(&ctx.macs_bench, &args)?;
    let sample = &answers[..answers.len().min(BURST)];
    let mut again = sample.iter().map(|a| {
        (
            a.index,
            Request {
                line: a.line.clone(),
                expect_error: None,
            },
        )
    });
    let hits = closed_loop(
        &mut resumed,
        &mut again,
        Instant::now(),
        sample.len(),
        WINDOW,
        answered,
    )?;
    summaries.push((resumed.finish()?, hits.len() + 1));
    Ok(hits)
}

/// `tp_err_pct` for the served workloads: the ten Table 4 kernels at
/// default configuration, evaluated in-process exactly as a served
/// point is.
pub fn served_tp_err() -> f64 {
    let base = SimConfig::c240();
    let retry = macs_core::supervise::RetryPolicy::default();
    gate::tp_err_pct(|id| {
        let point = macs_core::sweep::parse_point(&format!("{{\"kernel\":{id}}}"))
            .expect("a bare kernel point parses");
        let row = macs_bench::eval_point(&point, &base, None, &retry).row;
        row.get("cpf")
            .and_then(Json::as_f64)
            .expect("Table 4 kernels evaluate")
    })
}
