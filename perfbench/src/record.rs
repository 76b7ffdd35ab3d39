//! Result records: every result is stamped with the host fingerprint,
//! the seed and the workload, and results from different hosts are
//! never compared.

use std::path::{Path, PathBuf};
use std::process::Command;

use c240_obs::json::Json;

use crate::stats;

pub const RECORD_SCHEMA: &str = "perfbench-result/v1";
/// Fingerprint fields that identify the host; two results compare only
/// when all of them agree. The commit and source digest say which code
/// ran and are expected to differ between a parent and its change.
const HOST_FIELDS: [&str; 3] = ["cpu_model", "nproc", "rustc"];

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the repository's sources, so a checkout without git
/// history still names the code it measured.
fn source_digest(root: &Path) -> String {
    let mut files: Vec<PathBuf> = ["Cargo.toml", "Cargo.lock"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    let mut dirs = vec![root.join("crates"), root.join("perfbench")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.flatten().map(|e| e.path()) {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    dirs.push(path);
                }
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

pub fn fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .field("cpu_model", cpu_model)
        .field("nproc", nproc)
        .field(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .field(
            "commit",
            // Only this checkout's own history: a checkout without one
            // (an exported tree) must not report an enclosing repository.
            Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".into()),
        )
        .field("source_digest", source_digest(Path::new(".")))
}

/// Reads the last result record in `path` (a saved record, or a whole
/// captured standard output).
fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .rev()
        .filter_map(|l| Json::parse(l).ok())
        .find(|r| r.get("schema").and_then(Json::as_str) == Some(RECORD_SCHEMA))
        .ok_or_else(|| format!("{}: no {RECORD_SCHEMA} record", path.display()))
}

fn same_host_and_workload(a: &Json, b: &Json) -> Result<(), String> {
    for field in HOST_FIELDS {
        let get = |r: &Json| {
            r.get("fingerprint")
                .and_then(|f| f.get(field))
                .map(Json::to_string)
        };
        if get(a) != get(b) {
            return Err(format!(
                "refusing to compare results from different hosts: {field} {} vs {}",
                get(a).unwrap_or_default(),
                get(b).unwrap_or_default()
            ));
        }
    }
    for field in ["workload", "trace"] {
        if a.get(field).map(Json::to_string) != b.get(field).map(Json::to_string) {
            return Err(format!("refusing to compare different {field}s"));
        }
    }
    Ok(())
}

/// `compare BASE CHANGE`: per-metric change, refused across hosts,
/// workloads or trace modes.
pub fn compare(base: &Path, change: &Path) -> Result<String, String> {
    let (a, b) = (load(base)?, load(change)?);
    same_host_and_workload(&a, &b)?;
    let mut out = String::new();
    let empty = Json::obj();
    let (ma, mb) = (
        a.get("metrics").unwrap_or(&empty),
        b.get("metrics").unwrap_or(&empty),
    );
    if let Json::Obj(fields) = ma {
        for (name, m) in fields {
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(x), Some(y)) = (value(m), mb.get(name).and_then(value)) else {
                continue;
            };
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            out.push_str(&format!(
                "{name:<40} {x:>14.6} {y:>14.6} {unit:<9} {:>+8.2}%\n",
                100.0 * (y - x) / x.abs().max(f64::MIN_POSITIVE)
            ));
        }
    }
    Ok(out)
}

/// `spread RECORD...`: per metric, the median over the records and the
/// distance between the first and third quartiles as a share of it.
/// Refused across hosts and workloads, like `compare`.
pub fn spread(paths: &[String]) -> Result<String, String> {
    let records: Vec<Json> = paths
        .iter()
        .map(|p| load(Path::new(p)))
        .collect::<Result<_, _>>()?;
    let first = records.first().ok_or("no records given")?;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for r in &records {
        same_host_and_workload(first, r)?;
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let Some(v) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some(entry) => entry.2.push(v),
                None => {
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    values.push((name.clone(), unit, vec![v]));
                }
            }
        }
    }
    let mut out = format!("{} records\n", records.len());
    for (name, unit, xs) in values {
        let med = stats::median(&xs);
        let iqr = if xs.len() >= 2 {
            format!("{:>8.4}", stats::spread(&xs))
        } else {
            "-".to_string()
        };
        out.push_str(&format!("{name:<44} {med:>16.6} {unit:<9} spread {iqr}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(dir: &Path, name: &str, cpu: &str, value: f64) -> PathBuf {
        let r = Json::obj()
            .field("schema", RECORD_SCHEMA)
            .field("workload", "sweep-cold")
            .field("trace", 0u64)
            .field(
                "fingerprint",
                Json::obj()
                    .field("cpu_model", cpu)
                    .field("nproc", 2u64)
                    .field("rustc", "rustc 1.0"),
            )
            .field(
                "metrics",
                Json::obj().field(
                    "suite_s",
                    Json::obj().field("value", value).field("unit", "s"),
                ),
            );
        let path = dir.join(name);
        std::fs::write(&path, format!("{r}\n")).unwrap();
        path
    }

    #[test]
    fn results_from_different_hosts_are_never_compared() {
        let dir = std::env::temp_dir().join(format!("perfbench-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = record(&dir, "a", "cpu A", 1.0);
        let b = record(&dir, "b", "cpu A", 1.5);
        let c = record(&dir, "c", "cpu B", 1.0);
        let table = compare(&a, &b).unwrap();
        assert!(
            table.contains("suite_s") && table.contains("+50.00%"),
            "{table}"
        );
        let refused = compare(&a, &c).unwrap_err();
        assert!(refused.contains("different hosts"), "{refused}");
        let paths: Vec<String> = [&a, &b].iter().map(|p| p.display().to_string()).collect();
        assert!(spread(&paths).unwrap().contains("suite_s"));
        assert!(spread(&[a.display().to_string(), c.display().to_string()]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
