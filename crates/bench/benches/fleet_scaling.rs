//! E18 — fleet scaling: one engine process hosting 1 → 10 000 Virtual
//! Components.
//!
//! The fleet deployment ([`ScenarioBuilder::fleet`]) puts `n` VCs on a
//! serial RT-Link schedule with 8× slot headroom, and this bench times
//! whole engine runs at each fleet size, reporting simulated slots per
//! wall-clock second. At every size up to 1k VCs the legacy per-slot
//! event stream is timed on the identical scenario, so the table
//! carries the event-driven cursor's speedup directly; at 10k only the
//! cursor runs (the per-slot driver is the reason this bench exists).
//! A second row family stretches the same fleet to a 1024× headroom
//! (≈ 0.1 % duty cycle — low-power TDMA territory), where idle slots
//! dominate the legacy driver's wall time and the cursor's batch-skip
//! pays in full.
//!
//! A third row family compares the occupied-slot execution strategies
//! on the dense fleet: the epoch-compiled cycle plan
//! ([`CyclePlanMode::Planned`], the default) against the direct
//! per-slot oracle, both on the event-driven cursor — the dense rows
//! are bounded by exactly the per-occupied-slot work the plan
//! pre-resolves.
//!
//! The plan rows time the two strategies as interleaved pairs (Planned,
//! Direct, Planned, Direct, …), so a CPU-speed swing hits both sides of
//! a pair alike, and report the median of the per-pair speedups.
//!
//! A fourth row family times setup alone: the median `Engine::new` over
//! five builds of the dense fleet at 5k / 10k / 20k VCs (500 / 1k / 2k
//! with `--smoke`). Linear setup doubles with the fleet; quadratic
//! setup quadruples.
//!
//! Asserted: the 10k-VC run completes; the cursor's slots/sec is at
//! least 10× legacy at 1k VCs on the sparse schedule; the compiled
//! plan's median paired speedup over the direct oracle is at least 1.5×
//! at 1k VCs on the dense schedule; setup at 20k VCs takes at most 3×
//! setup at 10k (full mode only); and at 100 VCs both steppings and
//! both plan modes produce **equal** [`evm_core::RunResult`]s — speed
//! is the only difference.
//!
//! Every row's baseline column holds the retired strategy it is
//! measured against: legacy stepping for the dense/sparse stepping
//! rows, the direct oracle for the plan rows.
//!
//! Writes `fleet_scaling.csv` and `fleet_scaling.json`. Pass `--smoke`
//! for the CI-sized run (1 / 100 / 1000 VCs, same files).

use std::time::Instant;

use evm_bench::{banner, f, row, write_result};
use evm_core::runtime::{CyclePlanMode, Engine, Scenario, SlotStepping};
use evm_core::RunResult;

/// Interleaved Planned/Direct pairs behind the plan gate.
const PLAN_PAIRS: usize = 7;

/// `Engine::new` builds per setup row; the row reports their median.
const SETUP_BUILDS: usize = 5;

/// Fleet scenario sized for benching: enough cycles for a stable
/// measurement at small `n`, two cycles at 10k (≈ 480k slots).
fn scenario(n: usize, stepping: SlotStepping) -> Scenario {
    let mut s = Scenario::builder().fleet(n).stepping(stepping).build();
    let spc = s.rtlink.slots_per_cycle as u64;
    let cycles = (200_000 / spc).clamp(2, 100);
    s.duration = s.rtlink.cycle_duration() * cycles;
    s
}

/// The dense fleet under an explicit occupied-slot execution strategy
/// (event-driven cursor on both sides — the plan axis is orthogonal to
/// stepping).
fn plan_scenario(n: usize, plan: CyclePlanMode) -> Scenario {
    let mut s = scenario(n, SlotStepping::EventDriven);
    s.plan = plan;
    s
}

/// The ultra-sparse variant: the same fleet, stretched to a 1024×
/// slot-count headroom (≈ 0.1 % duty cycle — low-power TDMA territory,
/// where a node transmits for milliseconds and sleeps for minutes).
/// The serial schedule packs the same occupied slots at the front of
/// the cycle; everything added is idle air the cursor never visits and
/// the legacy driver pays one queue event for.
fn sparse_scenario(n: usize, stepping: SlotStepping) -> Scenario {
    let mut s = Scenario::builder().fleet(n).stepping(stepping).build();
    s.rtlink.slots_per_cycle = 1024 * (3 * n + 1);
    let cycle = s.rtlink.cycle_duration();
    s.sample_every = cycle / 4;
    // Engine throughput is the quantity under test, not plant fidelity:
    // integrate the (unconditionally stable) plant at cycle/64 so the
    // physics cost stays constant as the cycle stretches.
    s.plant_dt = s.plant_dt.max(cycle / 64);
    s.duration = cycle * 2;
    s
}

/// One whole engine run of `s`. Engine construction stays outside the
/// timed region: the run rows measure the slot loop, and the setup rows
/// time construction on their own.
fn run_once(s: &Scenario) -> (f64, RunResult) {
    let engine = Engine::new(s.clone());
    let start = Instant::now();
    let r = engine.run();
    (start.elapsed().as_secs_f64(), r)
}

/// Runs a pre-built scenario `reps` times, returning the best wall
/// time, the slot count and one result. Best-of-`reps` suppresses
/// first-run jitter (cold caches, frequency ramp) on the rows whose
/// ratio is asserted.
fn timed(s: Scenario, reps: usize) -> (f64, u64, RunResult) {
    let slots = s.duration / s.rtlink.slot_duration;
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let (wall, r) = run_once(&s);
        best = best.min(wall);
        result = Some(r);
    }
    (best, slots, result.expect("at least one reps"))
}

/// The median of `xs` (upper median for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times `primary` and `baseline` as `pairs` interleaved pairs and
/// returns the median wall time of each side, the median of the
/// per-pair speedups (baseline wall / primary wall) and one primary
/// result.
fn paired(primary: &Scenario, baseline: &Scenario, pairs: usize) -> (f64, f64, f64, RunResult) {
    let mut walls = Vec::with_capacity(pairs);
    let mut baseline_walls = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    let mut result = None;
    for _ in 0..pairs {
        let (wall, r) = run_once(primary);
        let (baseline_wall, br) = run_once(baseline);
        assert!(br.actuations > 0, "baseline fleet must actuate");
        walls.push(wall);
        baseline_walls.push(baseline_wall);
        ratios.push(baseline_wall / wall);
        result = Some(r);
    }
    (
        median(walls),
        median(baseline_walls),
        median(ratios),
        result.expect("at least one pair"),
    )
}

/// The median `Engine::new` time over `builds` builds of the dense
/// fleet of `n` VCs, plus its node count.
fn setup_time(n: usize, builds: usize) -> (f64, usize) {
    let s = scenario(n, SlotStepping::EventDriven);
    let nodes = s.topology.nodes.len();
    let times = (0..builds)
        .map(|_| {
            let s = s.clone();
            let start = Instant::now();
            let _engine = Engine::new(s);
            start.elapsed().as_secs_f64()
        })
        .collect();
    (median(times), nodes)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E18",
        if smoke {
            "fleet scaling: slots/sec, 1 -> 1k VCs (smoke)"
        } else {
            "fleet scaling: slots/sec, 1 -> 10k VCs"
        },
    );
    let sizes: &[usize] = if smoke {
        &[1, 100, 1_000]
    } else {
        &[1, 10, 100, 1_000, 10_000]
    };

    // Differential spot checks: at 100 VCs both steppings and both
    // plan modes produce the same result, byte for byte.
    {
        let legacy = Engine::new(scenario(100, SlotStepping::Legacy)).run();
        let event = Engine::new(scenario(100, SlotStepping::EventDriven)).run();
        assert!(legacy.actuations > 0, "fleet run must actuate");
        assert!(event == legacy, "steppings diverged at 100 VCs");
        let direct = Engine::new(plan_scenario(100, CyclePlanMode::Direct)).run();
        assert!(event == direct, "plan modes diverged at 100 VCs");
    }

    println!(
        "{}",
        row(&[
            "vcs".into(),
            "nodes".into(),
            "slots".into(),
            "wall [s]".into(),
            "slots/s".into(),
            "baseline slots/s".into(),
            "speedup".into(),
        ])
    );
    let mut csv =
        String::from("schedule,vcs,nodes,slots,wall_s,slots_per_s,baseline_slots_per_s,speedup\n");
    let mut json_rows = Vec::new();
    let mut speedup_at_1k = f64::NAN;
    // Records one row; `baseline_wall` is the retired strategy's wall
    // time on the same slots, `speedup` the asserted ratio.
    let mut record = |kind: &str,
                      n: usize,
                      nodes: usize,
                      slots: u64,
                      wall: f64,
                      baseline_wall: Option<f64>,
                      speedup: Option<f64>| {
        let rate = slots as f64 / wall;
        let baseline_rate = baseline_wall.map(|b| slots as f64 / b);
        println!(
            "{}",
            row(&[
                format!("{kind}/{n}"),
                format!("{nodes}"),
                format!("{slots}"),
                f(wall),
                f(rate),
                baseline_rate.map_or_else(|| "-".into(), f),
                speedup.map_or_else(|| "-".into(), f),
            ])
        );
        csv.push_str(&format!(
            "{kind},{n},{nodes},{slots},{wall:.4},{rate:.1},{},{}\n",
            baseline_rate.map_or_else(String::new, |v| format!("{v:.1}")),
            speedup.map_or_else(String::new, |v| format!("{v:.2}")),
        ));
        json_rows.push((kind.to_string(), n, nodes, slots, wall, rate, speedup));
    };
    // Best-of-`reps` primary against best-of-`reps` baseline.
    let mut run_row =
        |kind: &str, n: usize, reps: usize, primary: Scenario, baseline: Option<Scenario>| {
            let (wall, slots, r) = timed(primary, reps);
            assert!(r.actuations > 0, "{kind} fleet of {n} must actuate");
            let baseline_wall = baseline.map(|s| {
                let (baseline_wall, _, br) = timed(s, reps);
                assert!(
                    br.actuations > 0,
                    "baseline {kind} fleet of {n} must actuate"
                );
                baseline_wall
            });
            let speedup = baseline_wall.map(|b| b / wall);
            record(kind, n, r.meta.nodes, slots, wall, baseline_wall, speedup);
            speedup
        };

    // Dense rows: the default fleet shape (8× headroom) at every size.
    // The legacy driver pays one queue event per slot; at 10k VCs (240k
    // slots/cycle) that is the regime this PR retires, so the baseline
    // is only timed up to 1k.
    for &n in sizes {
        let legacy = (n <= 1_000).then(|| scenario(n, SlotStepping::Legacy));
        run_row(
            "dense",
            n,
            1,
            scenario(n, SlotStepping::EventDriven),
            legacy,
        );
    }

    // Sparse rows: the 1024× headroom shape, where idle air dominates
    // and the cursor's batch-skip is the whole game. This is the
    // headline speedup — the dense rows share their wall time between
    // slot advancement and per-cycle node work, which no stepping
    // strategy can skip.
    for &n in &[100usize, 1_000] {
        let s = run_row(
            "sparse",
            n,
            3,
            sparse_scenario(n, SlotStepping::EventDriven),
            Some(sparse_scenario(n, SlotStepping::Legacy)),
        );
        if n == 1_000 {
            speedup_at_1k = s.expect("legacy timed at 1k");
        }
    }

    assert!(
        speedup_at_1k >= 10.0,
        "event-driven cursor must be >= 10x legacy at 1k VCs on the \
         sparse schedule (got {speedup_at_1k:.2}x)"
    );

    // Plan rows: the epoch-compiled cycle plan vs the direct per-slot
    // oracle on the dense fleet. Dense schedules are bounded by
    // occupied-slot dispatch — the floor the plan flattens — so this is
    // where the win must show. Interleaved pairs keep a host speed swing
    // from landing on one side only; the gate reads the median ratio.
    let mut plan_speedup_at_1k = f64::NAN;
    let plan_sizes: &[usize] = if smoke { &[1_000] } else { &[1_000, 10_000] };
    for &n in plan_sizes {
        let planned = plan_scenario(n, CyclePlanMode::Planned);
        let slots = planned.duration / planned.rtlink.slot_duration;
        let (wall, direct_wall, speedup, r) = paired(
            &planned,
            &plan_scenario(n, CyclePlanMode::Direct),
            PLAN_PAIRS,
        );
        assert!(r.actuations > 0, "plan fleet of {n} must actuate");
        record(
            "plan",
            n,
            r.meta.nodes,
            slots,
            wall,
            Some(direct_wall),
            Some(speedup),
        );
        if n == 1_000 {
            plan_speedup_at_1k = speedup;
        }
    }
    assert!(
        plan_speedup_at_1k >= 1.5,
        "compiled cycle plan must be >= 1.5x the direct oracle at 1k VCs \
         on the dense schedule (median of {PLAN_PAIRS} paired runs: \
         {plan_speedup_at_1k:.2}x)"
    );

    // Setup rows: `Engine::new` alone on the dense fleet, at three
    // doubling sizes. The ratio of the top two sizes is ~2 when setup is
    // linear and ~4 when it is quadratic.
    let setup_sizes: [usize; 3] = if smoke {
        [500, 1_000, 2_000]
    } else {
        [5_000, 10_000, 20_000]
    };
    println!(
        "{}",
        row(&["setup".into(), "nodes".into(), "Engine::new [s]".into()])
    );
    let mut setup_rows = Vec::new();
    for &n in &setup_sizes {
        let (t, nodes) = setup_time(n, SETUP_BUILDS);
        println!("{}", row(&[format!("setup/{n}"), format!("{nodes}"), f(t)]));
        csv.push_str(&format!("setup,{n},{nodes},,{t:.4},,,\n"));
        setup_rows.push((n, nodes, t));
    }
    let setup_ratio = setup_rows[2].2 / setup_rows[1].2;
    let ratio_key = if smoke {
        "setup_ratio_2k_over_1k"
    } else {
        "setup_ratio_20k_over_10k"
    };
    println!("{ratio_key}: {setup_ratio:.2}");
    if !smoke {
        assert!(
            setup_ratio <= 3.0,
            "fleet setup must scale linearly: Engine::new at 20k VCs took \
             {setup_ratio:.2}x the 10k time (limit 3.0x)"
        );
    }

    write_result("fleet_scaling.csv", &csv);
    let mut out = String::from("{\n  \"bench\": \"fleet_scaling\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"rows\": [\n"));
    for (i, (kind, n, nodes, slots, wall, rate, speedup)) in json_rows.iter().enumerate() {
        let comma = if i + 1 == json_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"schedule\": \"{kind}\", \"vcs\": {n}, \"nodes\": {nodes}, \
             \"slots\": {slots}, \"wall_s\": {wall:.4}, \
             \"slots_per_s\": {rate:.1}, \"speedup_vs_baseline\": {}}}{comma}\n",
            speedup.map_or_else(|| "null".into(), |v| format!("{v:.2}")),
        ));
    }
    out.push_str("  ],\n  \"setup_rows\": [\n");
    for (i, (n, nodes, t)) in setup_rows.iter().enumerate() {
        let comma = if i + 1 == setup_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"vcs\": {n}, \"nodes\": {nodes}, \"setup_s\": {t:.4}}}{comma}\n"
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_at_1k_sparse\": {speedup_at_1k:.2},\n  \
         \"plan_speedup_at_1k\": {plan_speedup_at_1k:.2},\n  \
         \"{ratio_key}\": {setup_ratio:.2}\n}}\n"
    ));
    write_result("fleet_scaling.json", &out);
}
