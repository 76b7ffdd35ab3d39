//! Co-simulation integration suite: the multi-CPU machine's accounting
//! invariants, its bit-exact single-CPU degeneration, and determinism.

use c240_sim::{CoSimProbes, CounterProbe, Cpu, Machine, SimConfig};
use macs_experiments::cosim::{run_cosim, Mix};

/// Everything the simulator reports lives on the canonical 1/20-cycle
/// grid.
fn on_grid(x: f64) -> bool {
    let t = x * 20.0;
    (t - t.round()).abs() < 1e-6
}

fn kernel(id: u32) -> Box<dyn lfk_suite::LfkKernel> {
    lfk_suite::by_id(id).expect("curated kernel id")
}

/// A 1-CPU machine is the legacy simulator: identical `RunStats` *and*
/// identical per-lane / per-pc stall attribution, fast-forward included.
#[test]
fn single_cpu_cosim_is_bit_identical_to_legacy() {
    for id in [1u32, 2, 7, 12] {
        let k = kernel(id);
        let program = k.program();

        let mut cpu = Cpu::new(SimConfig::c240());
        k.setup(&mut cpu);
        let mut legacy_probe = CounterProbe::new();
        let legacy = cpu
            .run_probed(&program, &mut legacy_probe)
            .expect("legacy run");

        let mut machine = Machine::new(SimConfig::c240().with_cpus(1));
        k.setup(machine.cpu_mut(0));
        let mut probes = CoSimProbes::new(1);
        let stats = machine
            .run_probed(std::slice::from_ref(&program), probes.as_mut_slice())
            .expect("co-sim run");

        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0], legacy, "LFK{id}: RunStats must be bit-identical");
        assert_eq!(
            *probes.cpu(0),
            legacy_probe,
            "LFK{id}: stall attribution must be bit-identical"
        );
    }
}

/// Per-CPU accounting stays exact under contention: each CPU's wait
/// breakdown sums to its wait total, each lane's busy+stalls+idle covers
/// its wall clock, and the per-CPU counters sum to the shared bank
/// state's machine totals — all on the quantized grid.
#[test]
fn wait_breakdown_invariants_under_cosim() {
    let cpus = 4usize;
    let ids = Mix::Mixed.kernel_ids(cpus as u32);
    let mut machine = Machine::new(SimConfig::c240().with_cpus(cpus as u32));
    let programs: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let k = kernel(id);
            k.setup(machine.cpu_mut(i));
            k.program()
        })
        .collect();
    let mut probes = CoSimProbes::new(cpus);
    let stats = machine
        .run_probed(&programs, probes.as_mut_slice())
        .expect("co-sim run");

    let mut acc_sum = 0u64;
    let mut wait_sum = 0.0f64;
    let mut bank_sum = 0.0f64;
    let mut refresh_sum = 0.0f64;
    let mut cont_sum = 0.0f64;
    for (i, s) in stats.iter().enumerate() {
        let w = s.memory_waits;
        assert!(
            (w.total() - s.memory_wait_cycles).abs() < 1e-9,
            "cpu {i}: breakdown total {} != wait cycles {}",
            w.total(),
            s.memory_wait_cycles
        );
        for x in [w.bank_busy, w.refresh, w.contention, s.cycles] {
            assert!(on_grid(x), "cpu {i}: {x} is off the 1/20-cycle grid");
        }
        for (lane, acct) in probes.cpu(i).lanes() {
            let accounted = acct.accounted();
            assert!(
                (accounted - s.cycles).abs() < 1e-6 * s.cycles.max(1.0),
                "cpu {i} lane {lane}: accounted {accounted} != cycles {}",
                s.cycles
            );
        }
        acc_sum += s.memory_accesses;
        wait_sum += s.memory_wait_cycles;
        bank_sum += w.bank_busy;
        refresh_sum += w.refresh;
        cont_sum += w.contention;
    }

    let shared = machine.shared();
    assert_eq!(shared.access_count(), acc_sum);
    let sw = shared.wait_breakdown();
    assert!((shared.wait_cycles() - wait_sum).abs() < 1e-6);
    assert!((sw.bank_busy - bank_sum).abs() < 1e-6);
    assert!((sw.refresh - refresh_sum).abs() < 1e-6);
    assert!((sw.contention - cont_sum).abs() < 1e-6);
    // Neighbors really did collide.
    assert!(sw.contention > 0.0, "mixed co-sim must show contention");

    // The machine roll-up preserves the partition against summed clocks.
    let combined = probes.combined();
    let total_cycles: f64 = stats.iter().map(|s| s.cycles).sum();
    for (lane, acct) in combined.lanes() {
        assert!(
            (acct.accounted() - total_cycles).abs() < 1e-6 * total_cycles,
            "combined lane {lane}: accounted {} != summed cycles {total_cycles}",
            acct.accounted()
        );
    }
}

/// Two identical co-simulations produce identical stats and identical
/// attribution — the machine is single-threaded and reads no host state
/// (`MACS_THREADS` only parallelizes the independent solo baselines).
#[test]
fn co_simulation_is_reproducible() {
    let run = || {
        let ids = Mix::Mixed.kernel_ids(4);
        let mut machine = Machine::new(SimConfig::c240().with_cpus(4));
        let programs: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let k = kernel(id);
                k.setup(machine.cpu_mut(i));
                k.program()
            })
            .collect();
        let mut probes = CoSimProbes::new(4);
        let stats = machine
            .run_probed(&programs, probes.as_mut_slice())
            .expect("co-sim run");
        (stats, probes)
    };
    let (s1, p1) = run();
    let (s2, p2) = run();
    assert_eq!(s1, s2);
    assert_eq!(p1, p2);
}

/// The report layer reproduces the paper's §4.2 bands end to end (the
/// same check CI's cosim-validation job runs).
#[test]
fn report_bands_hold_end_to_end() {
    for mix in [Mix::Lockstep, Mix::Mixed] {
        let report = run_cosim(&SimConfig::c240().with_cpus(4), mix);
        assert_eq!(report.cpus, 4);
        assert_eq!(report.rows.len(), 4);
        assert!(
            report.in_band(),
            "{mix}: mean slowdown {:.4} outside band {:?}",
            report.mean_slowdown(),
            mix.band()
        );
        for r in &report.rows {
            assert!(
                r.slowdown >= 1.0,
                "cpu {}: sharing banks cannot speed a CPU up",
                r.cpu
            );
        }
    }
}

/// The four-CPU mixes, pinned exactly: per-CPU cycles and the machine's
/// shared access count.
#[test]
fn four_cpu_mixes_are_pinned() {
    let sim = SimConfig::c240().with_cpus(4);
    for (mix, cycles, accesses) in [
        (Mix::Lockstep, [92384.0, 92392.0, 92400.0, 92408.0], 320320),
        (Mix::Mixed, [96485.2, 105385.2, 54428.65, 47183.2], 179823),
    ] {
        let report = run_cosim(&sim, mix);
        let got: Vec<f64> = report.rows.iter().map(|r| r.cycles).collect();
        assert_eq!(got, cycles, "{mix}");
        assert_eq!(report.shared_accesses, accesses, "{mix}");
    }
}
