//! A very short run of each workload through the built benchmark binary:
//! it must pass its own correctness gate and print every metric it
//! promises, by name and with a unit, on its last line.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use c240_obs::json::Json;

const E2E: [&str; 10] = [
    "setup_s",
    "suite_s",
    "points_per_s",
    "point_p50_ms",
    "point_tail_ms",
    "hit_p50_ms",
    "miss_p50_ms",
    "sim_minstr_per_s",
    "peak_rss_mb",
    "tp_err_pct",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

/// The program under test, built once for all tests.
fn macs_bench() -> &'static Path {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    BUILT.get_or_init(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .filter(|p| p.is_absolute())
            .unwrap_or_else(|| repo_root().join("target"));
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "macs-bench",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "macs-bench builds");
        target.join("release").join("macs-bench")
    })
}

/// Runs one workload and returns its result record and result line.
fn run(workload: &str, trace: u32) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .arg("--macs-bench")
        .arg(macs_bench())
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("the result line is JSON");
    let record = Json::parse(lines.next().expect("a result record")).expect("the record is JSON");
    let Json::Obj(fields) = &result else {
        panic!("the result line is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    (record, result)
}

fn metric(result: &Json, name: &str) -> f64 {
    let m = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} is reported"));
    assert!(
        m.get("unit").and_then(Json::as_str).is_some(),
        "{name} has a unit"
    );
    m.get("value")
        .and_then(Json::as_f64)
        .expect("a numeric value")
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in ["paper-suite", "sweep-cold", "sweep-repeat"] {
        let (_, result) = run(workload, 0);
        for name in E2E {
            assert!(metric(&result, name) > 0.0, "{workload}: {name} is never 0");
        }
        // The model's error against the paper is simulated time: exact.
        assert!((metric(&result, "tp_err_pct") - 11.627304026837253).abs() < 1e-9);
    }
}

#[test]
fn the_traced_run_reports_the_layers_and_fast_forward_per_kernel() {
    let (record, result) = run("sweep-repeat", 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("the result line has metrics");
    };
    for (name, _) in metrics {
        let v = metric(&result, name);
        assert!(v != 0.0 && v.is_finite(), "{name} reads {v}");
    }
    for name in [
        "core.parse_ns",
        "lfk.schedule_ns",
        "sim.ns_per_elem",
        "mem.read_ns.multiport",
        "obs.render_ns",
        "experiments.cosim_ns.mixed",
        "bench.serve.simulate_ns",
        "bench.transport_ns",
        "bench.dispatch_ns",
        "trace_overhead_pct.point_p50_ms",
    ] {
        metric(&result, name);
    }
    assert!(metric(&result, "bench.cache_hit_ratio") > 0.3);
    // Fast-forward engagement per kernel and the fault tallies are in
    // the record: LFK7 warps at long passes, and nothing failed.
    let facts = record.get("layer_facts").expect("layer facts");
    let warped = facts.get("sim.ff_warped_pct.lfk07.long").and_then(Json::as_f64);
    assert!(warped.unwrap() > 50.0);
    assert!(facts.get("sim.ff_warped_pct.lfk01.default").is_some());
    let Some(Json::Obj(faults)) = record.get("faults") else {
        panic!("the record has fault tallies");
    };
    let names: Vec<&str> = faults.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["overloaded", "panicked", "redispatched", "retried", "timed_out"]);
    assert!(faults.iter().all(|(_, n)| n.as_u64() == Some(0)));
}
