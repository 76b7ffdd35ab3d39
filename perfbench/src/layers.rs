//! Per-layer numbers for the traced run: the benchmark times its own
//! calls into each layer's public functions, on the workload's own
//! request lines, and reads the served layers' costs from the rows'
//! `trace` provenance.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use c240_mem::{BankState, MemConfig, MemorySystem};
use c240_obs::json::Json;
use c240_obs::{CounterProbe, Tracer};
use c240_sim::{Cpu, Machine, SimConfig};
use macs_bench::eval_point;
use macs_core::supervise::RetryPolicy;
use macs_core::sweep::{parse_point, Journal, SweepPoint};
use macs_core::{ChimeConfig, KernelBounds};
use macs_experiments::analyze_lfk;
use macs_experiments::cosim::{run_cosim, Mix};

use crate::gen::{KERNELS, LONG_PASSES};
use crate::served::{Answer, Class};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::Work;

/// Minimum wall time each microbenchmark repeats its batch for.
const BUDGET: Duration = Duration::from_millis(150);

/// Per-layer values of a traced run.
#[derive(Default)]
pub struct Layers {
    /// The per-layer metrics, with their units, in report order. None
    /// reads 0 on any workload.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Facts for the result record only, not compared between runs:
    /// values that read 0 on some workloads by design (fast-forward
    /// engagement per kernel, contention waits on the single-CPU
    /// sweeps).
    pub facts: Vec<(String, f64)>,
}

impl Layers {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn note(&mut self, name: impl Into<String>, value: f64) {
        self.facts.push((name.into(), value));
    }
}

/// Median per-item nanoseconds of `batch` (which handles `items` items),
/// over at least three batches and [`BUDGET`].
fn per_item_ns(items: usize, mut batch: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < BUDGET {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    median(&samples)
}

fn kernel(id: u32) -> Box<dyn lfk_suite::LfkKernel> {
    lfk_suite::by_id(id).expect("curated kernel id")
}

/// The in-process layers, timed on `sample` (valid request lines of the
/// workload) plus the ten kernels.
pub fn in_process(sample: &[String], work: &Work, scratch: &Path, spans: &mut SpanLog) -> Layers {
    let mut out = Layers::default();
    let n = sample.len();
    let base = SimConfig::c240();
    let points: Vec<SweepPoint> = sample
        .iter()
        .map(|l| parse_point(l).expect("sample lines are valid"))
        .collect();

    // core: protocol parse, key, validate, journal append.
    let ns = spans.time("core.parse", || {
        per_item_ns(n, || {
            for line in sample {
                black_box(parse_point(black_box(line)).ok());
            }
        })
    });
    out.put("core.parse_ns", ns, "ns");
    let ns = spans.time("core.key", || {
        per_item_ns(n, || {
            for p in &points {
                black_box(black_box(p).key());
            }
        })
    });
    out.put("core.key_ns", ns, "ns");
    let ns = spans.time("core.validate", || {
        per_item_ns(n, || {
            for p in &points {
                let cfg = p.config(&base).expect("generated presets exist");
                black_box(cfg.validate().is_ok());
            }
        })
    });
    out.put("core.validate_ns", ns, "ns");

    // bench: the in-process point evaluation the server's workers run;
    // its rows feed the journal and render probes.
    let retry = RetryPolicy::default();
    let mut eval_ns = Vec::new();
    let rows: Vec<(String, Json)> = spans.time("bench.eval_point", || {
        points
            .iter()
            .map(|p| {
                let t = Instant::now();
                let row = eval_point(p, &base, None, &retry).row;
                eval_ns.push(t.elapsed().as_nanos() as f64);
                (p.key(), row)
            })
            .collect()
    });
    out.put("bench.eval_point_ns", median(&eval_ns), "ns");

    let path = scratch.join("layer-probe.journal");
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open_append(&path).expect("scratch journal opens");
    let before = journal.bytes_written();
    let mut appended = 0u64;
    let ns = spans.time("core.journal_append", || {
        per_item_ns(rows.len(), || {
            for (key, row) in &rows {
                journal.record(key, row).expect("scratch journal appends");
                appended += 1;
            }
        })
    });
    out.put("core.journal_append_ns", ns, "ns");
    out.put(
        "core.journal_bytes_per_row",
        (journal.bytes_written() - before) as f64 / appended as f64,
        "bytes",
    );
    drop(journal);
    let _ = std::fs::remove_file(&path);

    // obs: row rendering and span cost.
    let ns = spans.time("obs.render", || {
        per_item_ns(rows.len(), || {
            for (_, row) in &rows {
                black_box(black_box(row).to_string());
            }
        })
    });
    out.put("obs.render_ns", ns, "ns");
    let bytes: usize = rows.iter().map(|(_, r)| r.to_string().len()).sum();
    out.put("obs.row_bytes", bytes as f64 / rows.len() as f64, "bytes");
    let tracer = Tracer::new();
    let ns = spans.time("obs.span", || {
        per_item_ns(1000, || {
            for i in 0..1000u64 {
                let mut s = tracer.span("probe");
                s.arg("i", i);
                black_box(s.end());
            }
            black_box(tracer.drain());
        })
    });
    out.put("obs.span_ns", ns, "ns");

    // lfk: scheduling each sample point's program.
    let scheduled: Vec<_> = points
        .iter()
        .map(|p| {
            let k = kernel(p.kernel);
            let passes = p.passes.unwrap_or_else(|| k.passes());
            (k, passes)
        })
        .collect();
    let ns = spans.time("lfk.schedule", || {
        per_item_ns(n, || {
            for (k, passes) in &scheduled {
                black_box(k.try_program_with_passes(*passes).is_ok());
            }
        })
    });
    out.put("lfk.schedule_ns", ns, "ns");

    // core: the bounds engine, per kernel.
    let chime = ChimeConfig::c240();
    let programs: Vec<_> = KERNELS
        .iter()
        .map(|&id| (kernel(id), kernel(id).program()))
        .collect();
    let ns = spans.time("core.bounds", || {
        per_item_ns(KERNELS.len(), || {
            for (k, prog) in &programs {
                black_box(KernelBounds::compute("probe", k.ma(), prog, &chime));
            }
        })
    });
    out.put("core.bounds_ns", ns, "ns");

    spans.time("sim", || sim_layers(&mut out, &base, &programs));
    spans.time("mem", || mem_layers(&mut out));

    // experiments: one kernel's full analysis, and each co-sim mix.
    let analyze = per_item_ns(KERNELS.len(), || {
        for (k, _) in &programs {
            black_box(analyze_lfk(k.as_ref(), &base, &chime));
        }
    });
    out.put("experiments.analyze_ns", analyze, "ns");
    let sim4 = base.clone().with_cpus(4);
    for mix in [Mix::Lockstep, Mix::Mixed] {
        let ns = spans.time(&format!("experiments.cosim.{mix}"), || {
            per_item_ns(1, || {
                black_box(run_cosim(&sim4, mix));
            })
        });
        out.put(format!("experiments.cosim_ns.{mix}"), ns, "ns");
    }

    out.put("sim.instructions", work.instructions as f64, "count");
    out.put("sim.elements", work.elements as f64, "count");
    let [bank_busy, refresh, contention] = work.waits;
    out.put("mem.wait_cycles.bank_busy", bank_busy, "count");
    out.put("mem.wait_cycles.refresh", refresh, "count");
    // 0 on the sweeps, whose points run alone on the machine.
    out.note("mem.wait_cycles.contention", contention);
    out
}

type Programs = [(Box<dyn lfk_suite::LfkKernel>, c240_isa::Program)];

/// One timed run of `program` on a fresh, set-up CPU: wall ns, stats and
/// fast-forwarded instructions.
fn run_once(
    k: &dyn lfk_suite::LfkKernel,
    cfg: &SimConfig,
    program: &c240_isa::Program,
    probed: bool,
) -> (f64, c240_sim::RunStats, u64) {
    let mut cpu = Cpu::new(cfg.clone());
    k.setup(&mut cpu);
    let t = Instant::now();
    let stats = if probed {
        cpu.run_probed(program, &mut CounterProbe::new())
    } else {
        cpu.run(program)
    }
    .expect("curated kernels simulate");
    let ns = t.elapsed().as_nanos() as f64;
    (ns, stats, cpu.fast_forwarded_instructions())
}

fn sim_layers(out: &mut Layers, base: &SimConfig, programs: &Programs) {
    // Element stepping, probed and not, over the ten default programs.
    let mut per_instr = Vec::new();
    let mut per_elem = Vec::new();
    let mut overhead = Vec::new();
    let start = Instant::now();
    while per_instr.len() < 3 || start.elapsed() < BUDGET * 2 {
        let (mut probed_ns, mut plain_ns, mut instr, mut elems) = (0.0, 0.0, 0u64, 0u64);
        for (k, prog) in programs {
            let (ns, stats, _) = run_once(k.as_ref(), base, prog, true);
            probed_ns += ns;
            instr += stats.instructions.total();
            elems += stats.elements.iter().sum::<u64>();
            plain_ns += run_once(k.as_ref(), base, prog, false).0;
        }
        per_instr.push(probed_ns / instr as f64);
        per_elem.push(probed_ns / elems as f64);
        overhead.push(probed_ns / plain_ns);
    }
    out.put("sim.ns_per_instr", median(&per_instr), "ns");
    out.put("sim.ns_per_elem", median(&per_elem), "ns");
    out.put("sim.probe_overhead", median(&overhead), "ratio");

    // Fast-forward engagement per kernel at default and long passes (a
    // fact: several kernels never warp), and long-pass host cost with
    // fast-forward on and off.
    let exact = base.clone().without_fast_forward();
    let (mut skipped, mut total, mut ff_ns, mut exact_ns) = (0u64, 0u64, 0.0, 0.0);
    for (k, prog) in programs {
        let id = k.id();
        let (_, stats, ff) = run_once(k.as_ref(), base, prog, false);
        out.note(
            format!("sim.ff_warped_pct.lfk{id:02}.default"),
            100.0 * ff as f64 / stats.instructions.total() as f64,
        );
        let long = k.program_with_passes(k.passes() * LONG_PASSES);
        let (ns, stats, ff) = run_once(k.as_ref(), base, &long, false);
        out.note(
            format!("sim.ff_warped_pct.lfk{id:02}.long"),
            100.0 * ff as f64 / stats.instructions.total() as f64,
        );
        skipped += ff;
        total += stats.instructions.total();
        ff_ns += ns;
        exact_ns += run_once(k.as_ref(), &exact, &long, false).0;
    }
    out.put(
        "sim.ff_warped_pct",
        100.0 * skipped as f64 / total as f64,
        "%",
    );
    out.put("sim.ff_ns_per_instr", ff_ns / total as f64, "ns");
    out.put("sim.exact_ns_per_instr", exact_ns / total as f64, "ns");

    // Co-simulation, per CPU: LFK1 in lockstep on 2 and 4 CPUs.
    let lfk1 = &programs[0];
    for cpus in [2u32, 4] {
        let cfg = SimConfig {
            mem: base
                .mem
                .clone()
                .with_contention(c240_mem::ContentionConfig::idle()),
            ..base.clone()
        }
        .with_cpus(cpus);
        let mut samples = Vec::new();
        while samples.len() < 3 {
            let mut machine = Machine::new(cfg.clone());
            let progs: Vec<_> = (0..cpus as usize)
                .map(|i| {
                    lfk1.0.setup(machine.cpu_mut(i));
                    lfk1.1.clone()
                })
                .collect();
            let t = Instant::now();
            let stats = machine.run(&progs).expect("LFK1 co-simulates");
            let ns = t.elapsed().as_nanos() as f64;
            let instr: u64 = stats.iter().map(|s| s.instructions.total()).sum();
            samples.push(ns / instr as f64);
        }
        out.put(
            format!("sim.cosim_ns_per_instr.{cpus}cpu"),
            median(&samples),
            "ns",
        );
    }
}

/// `MemorySystem::read` on unit-stride and bank-conflicting strides,
/// single-port and with two ports sharing window-fitted banks.
fn mem_layers(out: &mut Layers) {
    const READS: u64 = 4096;
    for multiport in [false, true] {
        let cfg = MemConfig::c240();
        let banks = cfg.banks;
        let mut mem = MemorySystem::new(cfg);
        let words = mem.words() as u64;
        let ns = per_item_ns(READS as usize, || {
            if multiport {
                let mut fresh = BankState::multiport(banks);
                mem.swap_bank_state(&mut fresh);
            }
            mem.reset_timing();
            let mut clock = [0.0f64; 2];
            for i in 0..READS {
                let stride = if (i / 256) % 2 == 0 {
                    1
                } else {
                    u64::from(banks)
                };
                let addr = (i * stride) % words;
                let port = if multiport { (i % 2) as usize } else { 0 };
                mem.set_view(port as u32);
                let (granted, value) = mem.read(addr, clock[port]);
                black_box(value);
                clock[port] = granted + 1.0;
                if multiport && i % 64 == 63 {
                    let mut shared = BankState::new(1);
                    mem.swap_bank_state(&mut shared);
                    shared.set_horizon(clock[0].min(clock[1]) - 512.0);
                    mem.swap_bank_state(&mut shared);
                }
            }
        });
        let name = if multiport { "multiport" } else { "single" };
        out.put(format!("mem.read_ns.{name}"), ns, "ns");
    }
}

fn trace_ns(row: &Json, field: &str) -> Option<f64> {
    row.get("trace")?.get(field)?.as_f64()
}

/// Worker-reported point time of a freshly computed row.
fn worker_ns(row: &Json) -> Option<f64> {
    Some(
        trace_ns(row, "validate_ns")?
            + trace_ns(row, "schedule_ns")?
            + trace_ns(row, "simulate_ns")?,
    )
}

fn fresh_rows(answers: &[Answer]) -> Vec<(&Answer, Json)> {
    answers
        .iter()
        .filter(|a| a.class == Class::Miss)
        .filter_map(|a| Some((a, Json::parse(&a.row).ok()?)))
        .filter(|(_, row)| worker_ns(row).is_some())
        .collect()
}

/// The served layers from a `--serve --metrics` session: the workers'
/// phase times, and transport (latency minus the worker-reported point
/// time) — which together account for the served latency.
pub fn serve_layers(out: &mut Layers, answers: &[Answer]) {
    let rows = fresh_rows(answers);
    let med = |f: &dyn Fn(&Answer, &Json) -> f64| -> f64 {
        median(&rows.iter().map(|(a, r)| f(a, r)).collect::<Vec<_>>())
    };
    let latency_ns = |a: &Answer| (a.done - a.sent).as_nanos() as f64;
    let phases = ["validate_ns", "schedule_ns", "simulate_ns"]
        .map(|p| med(&|_, r| trace_ns(r, p).expect("fresh rows carry trace")));
    let transport = med(&|a, r| latency_ns(a) - worker_ns(r).expect("fresh rows carry trace"));
    let latency = med(&|a, _| latency_ns(a));
    for (p, v) in ["validate_ns", "schedule_ns", "simulate_ns"]
        .iter()
        .zip(phases)
    {
        out.put(format!("bench.serve.{p}"), v, "ns");
    }
    out.put("bench.transport_ns", transport, "ns");
    out.put(
        "bench.accounted_pct",
        100.0 * (phases.iter().sum::<f64>() + transport) / latency,
        "%",
    );
}

/// The coordinator's layers from a `--coordinate --metrics` session:
/// dispatch (miss latency minus the worker-reported point time) and the
/// cache hit ratio.
pub fn coordinate_layers(out: &mut Layers, answers: &[Answer]) {
    let rows = fresh_rows(answers);
    let dispatch: Vec<f64> = rows
        .iter()
        .map(|(a, r)| (a.done - a.sent).as_nanos() as f64 - worker_ns(r).expect("filtered"))
        .collect();
    out.put("bench.dispatch_ns", median(&dispatch), "ns");
    let valid = answers.iter().filter(|a| a.class != Class::Invalid).count();
    let hits = answers.iter().filter(|a| a.class == Class::Hit).count();
    out.put("bench.cache_hit_ratio", hits as f64 / valid as f64, "ratio");
}
