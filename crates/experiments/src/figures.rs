//! Regeneration of the paper's figures.

use std::fmt::Write as _;

use c240_isa::ProgramBuilder;
use c240_mem::ContentionConfig;
use c240_sim::{Cpu, SimConfig};
use macs_core::{hierarchy_figure, Measurement, TextTable};

use crate::{KernelRow, Suite};

/// Figure 1: the hierarchy of performance models and measurements,
/// rendered with every kernel's numbers filled in.
pub fn fig1(suite: &Suite) -> String {
    let mut out = String::new();
    for r in &suite.rows {
        out.push_str(&hierarchy_figure(&r.analysis));
        out.push('\n');
    }
    out
}

/// Figure 2: chaining with tailgating in the function unit pipelines —
/// the §3.3 example (ld/add/mul twice) traced on the simulator and
/// rendered as a Gantt chart, plus the headline numbers.
pub fn fig2(sim: &SimConfig) -> String {
    let mut b = ProgramBuilder::new();
    b.set_vl_imm(128);
    // Two identical chimes; the second tailgates the first (§3.3).
    for i in 0..2 {
        let off = i * 1024;
        b.vload("a5", off, "v0");
        b.vadd("v0", "v1", "v2");
        b.vmul("v2", "v3", "v5");
    }
    b.halt();
    let program = b.build().expect("figure 2 example is valid");

    let mut cpu = Cpu::new(sim.clone().without_refresh().with_trace());
    let stats = cpu.run(&program).expect("figure 2 example runs");
    let events = cpu.trace().events().to_vec();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: Chaining with tailgating (VL = 128, two ld/add/mul chimes)\n"
    );
    out.push_str(&cpu.trace().gantt(6, 2.0));
    let first_chime_end = events[2].last_result;
    let second_chime_end = events[5].last_result;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "first chime completes at cycle {:.0} (paper: 162 with chaining, 422 without)",
        first_chime_end
    );
    let _ = writeln!(
        out,
        "second chime adds {:.0} cycles (paper: VL + ΣB = 132 in steady state)",
        second_chime_end - first_chime_end
    );
    let _ = writeln!(out, "total: {:.0} cycles", stats.cycles);
    out
}

/// Figure 3 data: per-kernel CPF for the three bounds, the single-CPU
/// measurement, and the measurement with three busy neighbor CPUs
/// (the paper's "multiple process" bars).
///
/// Everything but the loaded-machine column comes from the suite. That
/// column needs one unprobed run per kernel; the ten runs are
/// independent and go through [`macs_core::parallel_map`] like
/// [`Suite::run_with`].
pub fn fig3(suite: &Suite) -> TextTable {
    let mut t = TextTable::new(
        "Figure 3: Performance of LFK kernels (CPF; single vs loaded machine)",
        &[
            "LFK", "t_MA", "t_MAC", "t_MACS", "single", "multi", "slowdown",
        ],
    );
    let busy = loaded_machine(&suite.sim);
    let loaded =
        macs_core::parallel_map(suite.rows.iter().collect(), |r| loaded_run(r, &busy).cpf());
    for (r, multi) in suite.rows.iter().zip(loaded) {
        let single = r.analysis.t_p_cpf();
        t.row(vec![
            r.id.to_string(),
            format!("{:.3}", r.analysis.bounds.t_ma_cpf()),
            format!("{:.3}", r.analysis.bounds.t_mac_cpf()),
            format!("{:.3}", r.analysis.bounds.t_macs_cpf()),
            format!("{single:.3}"),
            format!("{multi:.3}"),
            format!("{:.2}x", multi / single),
        ]);
    }
    t
}

/// The suite's machine with three busy neighbor CPUs.
fn loaded_machine(sim: &SimConfig) -> SimConfig {
    SimConfig {
        mem: sim.mem.clone().with_contention(ContentionConfig::mixed(3)),
        ..sim.clone()
    }
}

/// A suite kernel's program measured on the loaded machine. Figure 3
/// plots only this time, so it takes one unprobed run: no bounds (the
/// flop count comes from the suite row) and no A/X processes.
fn loaded_run(row: &KernelRow, busy: &SimConfig) -> Measurement {
    let kernel = lfk_suite::by_id(row.id).expect("suite kernels exist");
    let mut cpu = Cpu::new(busy.clone());
    kernel.setup(&mut cpu);
    macs_core::measure(
        &mut cpu,
        &kernel.program(),
        kernel.iterations(),
        row.analysis.bounds.flops,
    )
    .expect("curated kernels simulate cleanly")
}

/// Renders a text bar chart of Figure 3 from its table (one row per
/// kernel, bars proportional to CPF).
pub fn fig3_bars(suite: &Suite) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3 (bars, CPF; # = bound→measured gap):\n");
    for r in &suite.rows {
        let a = &r.analysis;
        let bound = a.bounds.t_macs_cpf();
        let meas = a.t_p_cpf();
        let scale = 18.0;
        let b = (bound * scale).round() as usize;
        let m = (meas * scale).round() as usize;
        let _ = writeln!(
            out,
            "LFK{:<3} |{}{}| {:.3} → {:.3} CPF",
            r.id,
            "=".repeat(b),
            "#".repeat(m.saturating_sub(b)),
            bound,
            meas
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_lfk;

    /// Loaded-machine (`c240` + `mixed(3)`) runs of every suite kernel:
    /// `(id, cycles, bank_busy, refresh, contention, accesses)`.
    const LOADED: [(u32, f64, f64, f64, f64, u64); 10] = [
        (1, 117508.0, 0.0, 2352.0, 32665.0, 80080),
        (2, 72020.0, 780.0, 1208.0, 16532.0, 35640),
        (3, 59772.45, 0.0, 1184.0, 17377.0, 40040),
        (4, 40933.0, 150.0, 728.0, 10168.45, 24063),
        (6, 277612.7, 895.4, 4024.0, 51184.5, 122866),
        (7, 297657.0, 359.0, 5952.0, 83531.0, 199000),
        (8, 314860.0, 554.0, 5088.0, 73348.0, 166322),
        (9, 97907.0, 177.0, 1960.0, 26630.0, 66660),
        (10, 176210.0, 60.0, 3528.0, 47271.0, 121200),
        (12, 88382.0, 700.0, 1768.0, 24462.0, 60000),
    ];

    #[test]
    fn fig3_loaded_runs_are_exact_and_match_the_full_analysis() {
        let suite = Suite::run();
        let busy = loaded_machine(&suite.sim);
        for (r, &(id, cycles, bank_busy, refresh, contention, accesses)) in
            suite.rows.iter().zip(&LOADED)
        {
            assert_eq!(r.id, id);
            let m = loaded_run(r, &busy);
            assert_eq!(m.stats.cycles, cycles, "LFK{id}");
            let w = m.stats.memory_waits;
            assert_eq!(
                (w.bank_busy, w.refresh, w.contention),
                (bank_busy, refresh, contention),
                "LFK{id}"
            );
            assert_eq!(m.stats.memory_accesses, accesses, "LFK{id}");
            // The single unprobed run plots exactly what the full probed
            // analysis measured.
            let kernel = lfk_suite::by_id(id).expect("suite kernel");
            let full = analyze_lfk(kernel.as_ref(), &busy, &suite.chime);
            assert_eq!(m.cpf().to_bits(), full.t_p_cpf().to_bits(), "LFK{id}");
        }
    }

    #[test]
    fn fig2_reproduces_section_3_3_numbers() {
        let text = fig2(&SimConfig::c240());
        assert!(text.contains("ld.l"), "{text}");
        // First chime ≈ 162 cycles (the set-vl issue shifts by 1).
        let line = text
            .lines()
            .find(|l| l.contains("first chime"))
            .unwrap()
            .to_string();
        let cycles: f64 = line.split_whitespace().nth(5).unwrap().parse().unwrap();
        assert!((160.0..=165.0).contains(&cycles), "{line}");
        // Steady chime ≈ 132.
        let line2 = text
            .lines()
            .find(|l| l.contains("second chime"))
            .unwrap()
            .to_string();
        let delta: f64 = line2.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!((130.0..=134.0).contains(&delta), "{line2}");
    }
}
