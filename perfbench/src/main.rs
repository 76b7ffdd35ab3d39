//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--macs-bench PATH]
//! perfbench compare BASE_RECORD CHANGE_RECORD
//! perfbench spread OUTPUT...
//! perfbench paper-setup
//! ```
//!
//! Runs one workload (`paper-suite`, `sweep-cold`, `sweep-repeat`) for
//! `S` seconds on inputs generated from seed `N`, checks every output,
//! and prints a result record stamped with the host fingerprint followed
//! by a final JSON line `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 if the correctness gate fails. `compare` sets
//! two results side by side (refused across hosts); `spread` gives each
//! metric's median and quartile spread over repeated runs. `paper-setup`
//! times one `paper-suite` set-up in a fresh process; `paper-suite` runs
//! it for `setup_s`. See README.md.

mod gate;
mod gen;
mod layers;
mod record;
mod served;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use c240_obs::json::Json;

use layers::Layers;
use spans::SpanLog;
use workloads::{Ctx, Phase, Work, Workload, E2E};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    macs_bench: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut macs_bench = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed: expected an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds: expected a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                })
            }
            "--macs-bench" => macs_bench = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let macs_bench = macs_bench
        .or_else(|| {
            let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
            Some(PathBuf::from(target).join("release").join("macs-bench"))
        })
        .filter(|p| p.is_file())
        .ok_or("no macs-bench binary: build it or pass --macs-bench PATH")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        macs_bench,
    })
}

/// One measured phase of the workload, `share` of the run long.
fn phase(
    args: &Args,
    ctx: &Ctx,
    share: f64,
    traced: bool,
    spans: Option<&mut SpanLog>,
) -> Result<(Phase, Work), String> {
    let seconds = args.seconds * share;
    match args.workload {
        Workload::PaperSuite => workloads::paper_phase(seconds, share, spans),
        kind => workloads::sweep_phase(kind, ctx, seconds, traced, spans),
    }
}

/// End-to-end metrics measured in host time: the ones tracing can slow.
fn host_time() -> impl Iterator<Item = &'static str> {
    E2E.into_iter()
        .map(|(name, _)| name)
        .filter(|name| !matches!(*name, "peak_rss_mb" | "tp_err_pct"))
}

/// The per-layer numbers of a traced run: the in-process layer probes on
/// the workload's own lines, the served layers from whichever session
/// of the run loaded them (a probe session over the workload's lines
/// where it does not), and the tracing overhead per host-time end-to-end
/// metric. The phases ran untraced, traced, traced, untraced, so a
/// steady drift of the host's speed over the run cancels out of the
/// overhead.
fn per_layer(
    args: &Args,
    ctx: &Ctx,
    [u1, t1, t2, u2]: [&Phase; 4],
    work: &Work,
    spans: &mut SpanLog,
) -> Result<Layers, String> {
    let mut out = layers::in_process(&t2.sample, work, &ctx.work, spans);
    let serve = match args.workload {
        Workload::SweepCold => t2.answers.clone(),
        _ => workloads::probe_session(ctx, Workload::SweepCold, &t2.sample)?,
    };
    layers::serve_layers(&mut out, &serve);
    let coordinate = match args.workload {
        Workload::SweepRepeat => t2.answers.clone(),
        // Each line twice: the second time round is a cache hit.
        _ => {
            let twice = [&t2.sample[..], &t2.sample[..]].concat();
            workloads::probe_session(ctx, Workload::SweepRepeat, &twice)?
        }
    };
    layers::coordinate_layers(&mut out, &coordinate);
    for name in host_time() {
        let untraced = u1.e2e[name] + u2.e2e[name];
        let traced = t1.e2e[name] + t2.e2e[name];
        out.put(
            format!("trace_overhead_pct.{name}"),
            100.0 * (traced - untraced) / untraced,
            "%",
        );
    }
    Ok(out)
}

fn run(args: &Args) -> Result<(Json, bool), String> {
    // The in-process suite and the gate's recomputation use two
    // threads, like the served workloads' two workers.
    std::env::set_var(macs_core::pool::THREADS_ENV, "2");
    let ctx = Ctx {
        seed: args.seed,
        macs_bench: args.macs_bench.clone(),
        work: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        )),
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let result = measure(args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

fn measure(args: &Args, ctx: &Ctx) -> Result<(Json, bool), String> {
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut facts = Json::obj();
    let mut phases = Vec::new();
    if args.trace {
        let mut log = SpanLog::new();
        let (u1, _) = phase(args, ctx, 0.25, false, None)?;
        let (t1, _) = phase(args, ctx, 0.25, true, Some(&mut log))?;
        let (t2, work) = phase(args, ctx, 0.25, true, Some(&mut log))?;
        let (u2, _) = phase(args, ctx, 0.25, false, None)?;
        let layers = per_layer(args, ctx, [&u1, &t1, &t2, &u2], &work, &mut log)?;
        metrics.extend(layers.metrics);
        for (name, value) in layers.facts {
            facts = facts.field(&name, value);
        }
        let dir = Path::new(".bench_out");
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!(
            "{}-seed{}.spans.ndjson",
            args.workload.name(),
            args.seed
        ));
        log.write_ndjson(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        phases.extend([u1, t1, t2, u2]);
    } else {
        let (mut p, _) = phase(args, ctx, 1.0, false, None)?;
        if args.workload != Workload::PaperSuite {
            p.e2e.insert("tp_err_pct", workloads::served_tp_err());
        }
        for (name, unit) in E2E {
            metrics.push((name.to_string(), p.e2e[name], unit));
        }
        phases.push(p);
    }
    let attempted: usize = phases.iter().map(|p| p.attempted).sum();
    let failures: Vec<&String> = phases.iter().flat_map(|p| &p.failures).collect();
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED: {f}");
    }
    let failed = failures.len().min(attempted);
    let correct = failures.is_empty();
    let tail = &phases.last().expect("at least one phase").tail;
    let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
    for (fault, n) in phases.iter().flat_map(|p| &p.faults) {
        *faults.entry(fault).or_default() += n;
    }
    let faults = faults
        .into_iter()
        .fold(Json::obj(), |j, (fault, n)| j.field(fault, n));

    let mut m = Json::obj();
    for (name, value, unit) in &metrics {
        m = m.field(
            name,
            Json::obj().field("value", *value).field("unit", *unit),
        );
    }
    let record = Json::obj()
        .field("schema", record::RECORD_SCHEMA)
        .field("workload", args.workload.name())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", u64::from(args.trace))
        .field("fingerprint", record::fingerprint())
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("failed_ratio", failed as f64 / attempted.max(1) as f64)
        .field(
            "point_tail",
            Json::obj()
                .field("percentile", tail.percentile)
                .field("samples", tail.samples),
        )
        .field("faults", faults)
        .field("layer_facts", facts)
        .field("metrics", m.clone());
    eprintln!(
        "perfbench {} seed {}: {attempted} attempted, {failed} failed; tail = p{:.2} of {} samples",
        args.workload.name(),
        args.seed,
        tail.percentile,
        tail.samples
    );
    let by_name: BTreeMap<_, _> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), (v, u)))
        .collect();
    for (name, (value, unit)) in &by_name {
        eprintln!("  {name:<44} {value:>16.6} {unit}");
    }
    println!("{record}");
    let line = Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", m);
    Ok((line, correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("paper-setup") {
        println!("{}", workloads::paper_setup());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("spread") {
        return match record::spread(&argv[1..]) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench spread: {e}");
                ExitCode::from(2)
            }
        };
    }
    if argv.first().map(String::as_str) == Some("compare") {
        if argv.len() != 3 {
            eprintln!("usage: perfbench compare BASE_RECORD CHANGE_RECORD");
            return ExitCode::from(2);
        }
        return match record::compare(Path::new(&argv[1]), Path::new(&argv[2])) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
