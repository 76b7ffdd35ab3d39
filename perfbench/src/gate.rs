//! The correctness gate, run outside every timed region. A request that
//! fails any check counts toward `failed`; any failure fails the run.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use c240_obs::json::Json;
use c240_sim::SimConfig;
use macs_bench::eval_point;
use macs_core::supervise::RetryPolicy;
use macs_core::sweep::parse_point;
use macs_experiments::cosim::CoSimReport;
use macs_experiments::paper::TABLE4;
use macs_experiments::Suite;

use crate::served::Answer;

/// The simulated fields of an ok row; a served row and the in-process
/// evaluation of the same point must render them byte for byte alike.
const SIMULATED: [&str; 7] = [
    "cycles",
    "instructions",
    "iterations",
    "cpl",
    "cpf",
    "mflops",
    "memory_wait_cpl",
];

/// Summary tallies that count faults: with no faults injected and no
/// deadlines set, each must be 0, and any other count fails the run.
pub const FAULTS: [&str; 4] = ["retried", "timed_out", "overloaded", "panicked"];

/// What an in-process evaluation and a served row must agree on.
fn fingerprint(row: &Json) -> String {
    let field = |k: &str| row.get(k).map(Json::to_string).unwrap_or_default();
    let mut out = format!(
        "status={} error_kind={}",
        field("status"),
        field("error_kind")
    );
    for k in SIMULATED {
        out.push_str(&format!(" {k}={}", field(k)));
    }
    out
}

/// Checks served answers: each request got exactly one row (the
/// summary's point count covers the stream plus its warm-up request),
/// no summary counts a fault ([`FAULTS`]), seeded invalid lines got
/// their error kind, valid points came back ok, and every row for one
/// key is identical; then recomputes the keys not in `checked` (see
/// [`recompute`]). Returns one message per failure.
pub fn check_served(
    answers: &[Answer],
    summaries: &[(Json, usize)],
    checked: &mut HashSet<String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (summary, requests) in summaries {
        let points = summary.get("points").and_then(Json::as_u64).unwrap_or(0);
        if points != *requests as u64 {
            failures.push(format!(
                "stream of {requests} requests summarised as {points} points"
            ));
        }
        for fault in FAULTS {
            match summary.get(fault).and_then(Json::as_u64) {
                Some(0) => {}
                n => failures.push(format!("a session summary counts {fault}: {n:?}")),
            }
        }
    }
    let mut first_row: BTreeMap<&str, &str> = BTreeMap::new();
    for a in answers {
        let row = match Json::parse(&a.row) {
            Ok(row) => row,
            Err(e) => {
                failures.push(format!("unparseable row {}: {e}", a.row));
                continue;
            }
        };
        let status = row.get("status").and_then(Json::as_str);
        let kind = row.get("error_kind").and_then(Json::as_str);
        match a.expect_error {
            Some(expected) if status != Some("error") || kind != Some(expected) => {
                failures.push(format!(
                    "{} expected a {expected} error, got {}",
                    a.line, a.row
                ));
            }
            None if status != Some("ok") => failures.push(format!("{} failed: {}", a.line, a.row)),
            _ => {}
        }
        if let Some(k) = &a.key {
            let first = *first_row.entry(k).or_insert(&a.row);
            if first != a.row {
                failures.push(format!("key {k}: a row differs from the first: {}", a.row));
            }
        }
    }
    failures.extend(recompute(answers, checked));
    failures
}

/// Points the coordinator that wrote `journal` dispatched again after a
/// worker died or hung, from the metrics snapshot it journals at
/// shutdown (`None` when it ran without `--metrics` and wrote none).
/// With no faults injected it must be 0.
pub fn redispatched(journal: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(journal).ok()?;
    let snapshot = text
        .lines()
        .rev()
        .filter_map(|l| Json::parse(l).ok())
        .find(|r| r.get("schema").and_then(Json::as_str) == Some(c240_obs::METRICS_SCHEMA))?;
    // A counter that never counted is absent from the snapshot.
    Some(
        snapshot
            .get("counters")
            .and_then(|c| c.get("macs_redispatch_total"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
    )
}

/// Recomputes in-process, with `eval_point`, every keyed answer whose
/// key is not yet in `checked` (then adds it), and reports each whose
/// status or simulated fields differ from the served row. The sweeps
/// call it between loop segments, so the gate's simulations interleave
/// with the measured ones instead of trailing them.
pub fn recompute(answers: &[Answer], checked: &mut HashSet<String>) -> Vec<String> {
    let fresh: Vec<(String, String)> = answers
        .iter()
        .filter_map(|a| {
            let key = a.key.as_ref()?;
            checked
                .insert(key.clone())
                .then(|| (a.line.clone(), a.row.clone()))
        })
        .collect();
    let base = SimConfig::c240();
    let retry = RetryPolicy::default();
    macs_core::parallel_map(fresh, |(line, served)| {
        let point = parse_point(&line).expect("keyed rows answer parseable lines");
        let local = eval_point(&point, &base, None, &retry).row;
        let served = Json::parse(&served).ok()?;
        let (want, got) = (fingerprint(&local), fingerprint(&served));
        (want != got).then(|| format!("{line}: in-process {want}, served {got}"))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The paper's invariants on one suite pass: `t_MA ≤ t_MAC ≤ t_MACS ≤
/// t_p` and the Eq. 18 A/X band `max(t_a, t_x) ≤ t_p ≤ t_a + t_x` per
/// kernel (with the 0.01 CPL slack the bounds engine's own tests allow
/// on the lower edge), and both co-sim mixes inside their §4.2 bands.
pub fn check_paper(suite: &Suite, cosims: &[&CoSimReport]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &suite.rows {
        let a = &row.analysis;
        let (tp, ta, tx) = (a.t_p_cpl(), a.t_a_cpl(), a.t_x_cpl());
        if !a.bounds.is_monotone() || a.bounds.t_macs_cpl() > tp + 1e-9 {
            failures.push(format!(
                "LFK{}: bounds MA {} MAC {} MACS {} vs t_p {tp}",
                row.id,
                a.bounds.t_ma_cpl(),
                a.bounds.t_mac_cpl(),
                a.bounds.t_macs_cpl()
            ));
        }
        if tp < ta.max(tx) - 0.01 || tp > ta + tx + 1e-9 {
            failures.push(format!(
                "LFK{}: t_p {tp} outside the A/X band [{}, {}]",
                row.id,
                ta.max(tx),
                ta + tx
            ));
        }
    }
    for report in cosims {
        if !report.in_band() {
            let (lo, hi) = report.mix.band();
            failures.push(format!(
                "co-sim {} slowdown {} outside [{lo}, {hi}]",
                report.mix,
                report.mean_slowdown()
            ));
        }
    }
    failures
}

/// Mean |simulated t_p − paper t_p| / paper t_p over the paper's Table
/// 4 kernels, in percent (simulated time: deterministic).
pub fn tp_err_pct(simulated_cpf: impl Fn(u32) -> f64) -> f64 {
    let sum: f64 = TABLE4
        .iter()
        .map(|r| (simulated_cpf(r.id) - r.t_p).abs() / r.t_p)
        .sum();
    100.0 * sum / TABLE4.len() as f64
}
