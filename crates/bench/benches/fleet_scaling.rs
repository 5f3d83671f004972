//! E18 — fleet scaling: one engine process hosting 1 → 10 000 Virtual
//! Components.
//!
//! The fleet deployment ([`ScenarioBuilder::fleet`]) puts `n` VCs on a
//! serial RT-Link schedule with 8× slot headroom, and this bench times
//! whole engine runs at each fleet size, reporting simulated slots per
//! wall-clock second. A second row family stretches the same fleet to a
//! 1024× headroom (≈ 0.1 % duty cycle — low-power TDMA territory), where
//! idle slots are nearly the whole cycle and the slot cursor's
//! batch-skip pays in full.
//!
//! The skip gate compares the two shapes within one run of the bench: a
//! 1k-VC fleet over 2 cycles, sparse (1024×) against dense (8×), timed
//! as interleaved pairs (dense, sparse, dense, sparse, …) so a CPU-speed
//! swing hits both sides of a pair alike. Both shapes carry the same
//! occupied slots; the sparse cycle has 128× as many slots. With the
//! batch-skip an empty stretch costs one cursor step, and the median
//! per-pair sparse/dense wall ratio stays near 1 (1.16 on a 2-vCPU
//! host); stepping one empty slot at a time reads 6.5–7.3× there.
//!
//! A third row family times setup alone: the median `Engine::new` over
//! five builds of the dense fleet at 5k / 10k / 20k VCs (500 / 1k / 2k
//! with `--smoke`). Linear setup doubles with the fleet; quadratic
//! setup quadruples.
//!
//! Asserted: every run actuates; the 10k-VC run completes; the median
//! sparse/dense wall ratio at 1k VCs is at most 3.0; and setup at 20k
//! VCs takes at most 3× setup at 10k (full mode only).
//!
//! Writes `fleet_scaling.csv` and `fleet_scaling.json`. Pass `--smoke`
//! for the CI-sized run (1 / 100 / 1000 VCs, same files).
//!
//! [`ScenarioBuilder::fleet`]: evm_core::runtime::ScenarioBuilder::fleet

use std::time::Instant;

use evm_bench::{banner, f, row, write_result};
use evm_core::runtime::{Engine, Scenario};
use evm_core::RunResult;

/// Interleaved dense/sparse pairs behind the skip gate.
const SKIP_PAIRS: usize = 7;

/// Upper bound on the median sparse/dense wall ratio at 1k VCs.
const SKIP_RATIO_LIMIT: f64 = 3.0;

/// `Engine::new` builds per setup row; the row reports their median.
const SETUP_BUILDS: usize = 5;

/// Fleet scenario sized for benching: enough cycles for a stable
/// measurement at small `n`, two cycles at 10k (≈ 480k slots).
fn scenario(n: usize) -> Scenario {
    let mut s = Scenario::builder().fleet(n).build();
    let spc = s.rtlink.slots_per_cycle as u64;
    let cycles = (200_000 / spc).clamp(2, 100);
    s.duration = s.rtlink.cycle_duration() * cycles;
    s
}

/// The ultra-sparse variant: the same fleet, stretched to a 1024×
/// slot-count headroom (≈ 0.1 % duty cycle — low-power TDMA territory,
/// where a node transmits for milliseconds and sleeps for minutes).
/// The serial schedule packs the same occupied slots at the front of
/// the cycle; everything added is idle air the cursor skips.
fn sparse_scenario(n: usize) -> Scenario {
    let mut s = Scenario::builder().fleet(n).build();
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

/// The dense fleet over the sparse rows' two cycles: the skip gate's
/// reference, with the same occupied slots and 1/128 of the empty ones.
fn dense_two_cycles(n: usize) -> Scenario {
    let mut s = Scenario::builder().fleet(n).build();
    s.duration = s.rtlink.cycle_duration() * 2;
    s
}

/// One whole engine run of `s`. Engine construction stays outside the
/// timed region: the run rows measure the slot loop, and the setup rows
/// time construction on their own.
fn run_once(s: &Scenario) -> (f64, RunResult) {
    let engine = Engine::new(s.clone());
    let start = Instant::now();
    let r = engine.run();
    assert!(r.actuations > 0, "fleet run must actuate");
    (start.elapsed().as_secs_f64(), r)
}

/// Runs `s` `reps` times and returns the best wall time and one result.
/// Best-of-`reps` suppresses first-run jitter (cold caches, frequency
/// ramp).
fn timed(s: &Scenario, reps: usize) -> (f64, RunResult) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let (wall, r) = run_once(s);
        best = best.min(wall);
        result = Some(r);
    }
    (best, result.expect("at least one rep"))
}

/// The median of `xs` (upper median for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median `Engine::new` time over `builds` builds of the dense
/// fleet of `n` VCs, plus its node count.
fn setup_time(n: usize, builds: usize) -> (f64, usize) {
    let s = scenario(n);
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

    println!(
        "{}",
        row(&[
            "vcs".into(),
            "nodes".into(),
            "slots".into(),
            "wall [s]".into(),
            "slots/s".into(),
        ])
    );
    let mut csv = String::from("schedule,vcs,nodes,slots,wall_s,slots_per_s\n");
    let mut json_rows = Vec::new();
    let mut run_row = |kind: &str, n: usize, reps: usize, s: Scenario| {
        let slots = s.duration / s.rtlink.slot_duration;
        let (wall, r) = timed(&s, reps);
        let nodes = r.meta.nodes;
        let rate = slots as f64 / wall;
        println!(
            "{}",
            row(&[
                format!("{kind}/{n}"),
                format!("{nodes}"),
                format!("{slots}"),
                f(wall),
                f(rate),
            ])
        );
        csv.push_str(&format!("{kind},{n},{nodes},{slots},{wall:.4},{rate:.1}\n"));
        json_rows.push((kind.to_string(), n, nodes, slots, wall, rate));
    };

    // Dense rows: the default fleet shape (8× headroom) at every size.
    for &n in sizes {
        run_row("dense", n, 1, scenario(n));
    }
    // Sparse rows: the 1024× headroom shape, where idle air dominates
    // and the cursor's batch-skip is the whole game.
    for &n in &[100usize, 1_000] {
        run_row("sparse", n, 3, sparse_scenario(n));
    }

    // Skip gate: sparse against dense on the same occupied slots, as
    // interleaved pairs; the gate reads the median per-pair ratio.
    let (dense, sparse) = (dense_two_cycles(1_000), sparse_scenario(1_000));
    let mut ratios = Vec::with_capacity(SKIP_PAIRS);
    for _ in 0..SKIP_PAIRS {
        let (dense_wall, _) = run_once(&dense);
        let (sparse_wall, _) = run_once(&sparse);
        ratios.push(sparse_wall / dense_wall);
    }
    let skip_ratio = median(ratios);
    println!("skip_ratio_sparse_over_dense_1k: {skip_ratio:.2} (median of {SKIP_PAIRS} pairs)");
    assert!(
        skip_ratio <= SKIP_RATIO_LIMIT,
        "empty slots must be skipped, not stepped: a 1k-VC fleet at 1024x \
         headroom took {skip_ratio:.2}x the 8x-headroom wall time over the \
         same 2 cycles (median of {SKIP_PAIRS} pairs; limit \
         {SKIP_RATIO_LIMIT:.1}x)"
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
        csv.push_str(&format!("setup,{n},{nodes},,{t:.4},\n"));
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
    for (i, (kind, n, nodes, slots, wall, rate)) in json_rows.iter().enumerate() {
        let comma = if i + 1 == json_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"schedule\": \"{kind}\", \"vcs\": {n}, \"nodes\": {nodes}, \
             \"slots\": {slots}, \"wall_s\": {wall:.4}, \
             \"slots_per_s\": {rate:.1}}}{comma}\n"
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
        "  ],\n  \"skip_ratio_sparse_over_dense_1k\": {skip_ratio:.2},\n  \
         \"{ratio_key}\": {setup_ratio:.2}\n}}\n"
    ));
    write_result("fleet_scaling.json", &out);
}
