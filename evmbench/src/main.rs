//! End-to-end benchmark of the EVM co-simulation engine.
//!
//! ```text
//! cargo run --release --manifest-path evmbench/Cargo.toml -- \
//!     --workload <fleet_setup_10k|fleet_steady_1k|failover_sweep|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload is a closed-loop batch: the next run starts when the
//! previous one finishes, for `--seconds` of host time, on inputs made
//! from `--seed`. Before the timed loop one untimed reference run (which
//! also warms caches) goes through `Engine::run` or `run_cells_checked`;
//! every timed run must reproduce it exactly, and it must pass the
//! workload's output checks.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` is the separate
//! traced run: it alternates untraced and traced iterations, records spans
//! around every layer call of the traced ones, replays each layer's public
//! function on the workload's own inputs, and prints the per-layer metrics.
//! Spans are written as JSON lines next to the benchmark binary, under
//! `traces/`.
//!
//! Every line but the last is a human-readable table (metric, value,
//! unit, samples); the last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod probes;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use evm_core::RunResult;
use evm_sweep::{run_cells_checked, SweepCell};

use probes::SetupReplay;
use spans::Tracer;
use stats::{median, peak_rss_mb, quantile};
use workloads::{Iteration, Workload};

/// Fewest timed iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 4;
/// Replays of each setup layer in the traced run.
const REPLAYS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// What one workload run reports.
#[derive(Default)]
struct Outcome {
    /// The metrics of the result line (the ones `BENCHMARK.json` lists).
    metrics: Vec<Metric>,
    /// Further metrics printed in the table only.
    extras: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Why runs failed (first few).
    failures: Vec<String>,
    /// Free-form lines printed under the table.
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    fn extra(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.extras.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Per-iteration samples of the timed loop.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    run: Vec<f64>,
    finalize: Vec<f64>,
    wall: Vec<f64>,
    slots_per_s: Vec<f64>,
    cells_per_s: Vec<f64>,
    cell_ms: Vec<f64>,
    build: Vec<f64>,
    engine_new: Vec<f64>,
    engine_finalize: Vec<f64>,
    expand: Vec<f64>,
    report: Vec<f64>,
    busy: Vec<f64>,
    /// `run_until` windows of the traced iterations, ms.
    window_ms: Vec<f64>,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
}

impl Samples {
    fn add(&mut self, it: &Iteration, slots: u64, threads: usize) {
        let wall = it.wall_s();
        let runs = it.ok_runs().count();
        self.setup.push(it.setup_s());
        self.run.push(it.run_s());
        self.finalize.push(it.finalize_s());
        self.wall.push(wall);
        self.slots_per_s.push(slots as f64 / wall);
        self.cells_per_s.push(runs as f64 / wall);
        self.cell_ms.extend(it.cell_ms());
        self.build
            .push(it.ok_runs().map(workloads::RunTiming::build_s).sum());
        self.engine_new
            .push(it.ok_runs().map(workloads::RunTiming::engine_new_s).sum());
        self.engine_finalize
            .push(it.ok_runs().map(workloads::RunTiming::finalize_s).sum());
        self.expand.push(it.expand_s());
        self.report.push(it.report_s());
        self.busy.push(it.busy_frac(threads));
    }
}

/// Records one iteration's spans: the root, its layer calls, and each
/// run's `engine_new` / `run` (with its `run_until` windows) /
/// `finalize`. Sweep cells hang under the executor span with their cell
/// id as trace id (`cells` is empty for a fleet run).
fn record_spans(tr: &mut Tracer, it: &Iteration, iteration: u64, cells: &[SweepCell]) {
    let root_name = if cells.is_empty() {
        "iteration"
    } else {
        "pass"
    };
    let root = tr.push(root_name, iteration, None, it.start, it.end);
    for &(name, a, b) in &it.stages {
        tr.push(name, iteration, Some(root), a, b);
    }
    let run_parent = match it.executor {
        Some((a, b)) => tr.push("executor", iteration, Some(root), a, b),
        None => root,
    };
    for (k, run) in it.runs.iter().enumerate() {
        let Some(run) = run else { continue };
        let (trace, parent) = match cells.get(k) {
            Some(cell) => {
                let id = cell.id as u64;
                (
                    id,
                    tr.push("cell", id, Some(run_parent), run.start, run.finalized),
                )
            }
            None => (iteration, run_parent),
        };
        if run.built > run.start {
            tr.push("build", trace, Some(parent), run.start, run.built);
        }
        tr.push("engine_new", trace, Some(parent), run.built, run.engine_new);
        let run_span = tr.push("run", trace, Some(parent), run.engine_new, run.run_end());
        for (a, b) in run.window_spans() {
            tr.push("run_until", trace, Some(run_span), a, b);
        }
        tr.push(
            "finalize",
            trace,
            Some(parent),
            run.run_end(),
            run.finalized,
        );
    }
}

/// The untimed reference of a workload: its results and which of them
/// pass the output checks.
struct Reference {
    /// Fleet: one result; sweep: one per cell (`None` = did not run).
    results: Vec<Option<RunResult>>,
    /// Per result: the output-check failure, if any.
    bad: Vec<Option<String>>,
    cells: Vec<SweepCell>,
    /// The sweep's report CSV (empty for fleets).
    csv: String,
}

impl Reference {
    fn fleet(shape: workloads::FleetShape, seed: u64) -> Self {
        let r = evm_core::runtime::Engine::new(shape.scenario(seed)).run();
        let bad = workloads::check_fleet(&r).err();
        Reference {
            results: vec![Some(r)],
            bad: vec![bad],
            cells: Vec::new(),
            csv: String::new(),
        }
    }

    fn sweep(seed: u64, threads: usize) -> Self {
        let cells = workloads::sweep_cells(seed);
        let checked = run_cells_checked(&cells, threads);
        let csv = workloads::sweep_csv(&cells, &checked);
        let mut results = Vec::with_capacity(cells.len());
        let mut bad = Vec::with_capacity(cells.len());
        for (cell, r) in cells.iter().zip(checked) {
            match r {
                Ok(r) => {
                    bad.push(workloads::check_cell(cell, &r).err());
                    results.push(Some(r));
                }
                Err(e) => {
                    bad.push(Some(format!("cell {}: {e}", cell.id)));
                    results.push(None);
                }
            }
        }
        Reference {
            results,
            bad,
            cells,
            csv,
        }
    }

    fn ok(&self) -> impl Iterator<Item = &RunResult> {
        self.results.iter().flatten()
    }

    /// Counts run `k`'s outcome: it must exist, equal the reference and
    /// the reference must pass its checks.
    fn judge(&self, out: &mut Outcome, k: usize, got: Option<&RunResult>, what: &str) {
        out.attempted += 1;
        match (got, &self.results[k], &self.bad[k]) {
            (_, _, Some(why)) => out.fail(why.clone()),
            (None, _, _) => out.fail(format!("{what}: run failed")),
            (Some(_), None, _) => out.fail(format!("{what}: reference run failed")),
            (Some(g), Some(r), None) if g != r => {
                out.fail(format!("{what}: RunResult differs from the reference"));
            }
            _ => {}
        }
    }
}

fn measure(w: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let threads = workloads::sweep_threads();
    let mut out = Outcome::default();
    let reference = match w.fleet() {
        Some(shape) => Reference::fleet(shape, seed),
        None => Reference::sweep(seed, threads),
    };
    let scenarios: Vec<evm_core::runtime::Scenario> = match w.fleet() {
        Some(shape) => vec![shape.scenario(seed)],
        None => reference.cells.iter().map(|c| c.scenario.clone()).collect(),
    };
    let slots: u64 = scenarios
        .iter()
        .map(|s| s.duration / s.rtlink.slot_duration)
        .sum();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut samples = Samples::default();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while i < MIN_ITERATIONS || Instant::now() < deadline {
        let traced_iter = traced && i % 2 == 1;
        let (it, cells) = match w.fleet() {
            Some(shape) => {
                let (it, r) = workloads::fleet_iteration(shape, seed);
                reference.judge(&mut out, 0, r.as_ref(), &format!("iteration {i}"));
                (it, Vec::new())
            }
            None => {
                let pass = workloads::sweep_iteration(seed, threads);
                let mut got: Vec<Option<&RunResult>> = vec![None; pass.cells.len()];
                for (r, &id) in pass.results.iter().zip(&pass.ok_ids) {
                    got[id] = Some(r);
                }
                for (k, g) in got.into_iter().enumerate() {
                    reference.judge(&mut out, k, g, &format!("pass {i} cell {k}"));
                }
                out.attempted += 1;
                if pass.csv != reference.csv {
                    out.fail(format!("pass {i}: report CSV differs from the reference"));
                }
                (pass.iteration, pass.cells)
            }
        };
        if traced_iter {
            record_spans(&mut tracer, &it, i as u64, &cells);
            samples.window_ms.extend(it.window_ms());
            samples.traced_wall.push(it.wall_s());
        } else {
            samples.untraced_wall.push(it.wall_s());
        }
        samples.add(&it, slots, threads);
        i += 1;
    }
    let iterations = samples.wall.len();

    if !traced {
        let n = iterations;
        let cells = samples.cell_ms.len();
        out.metric("setup_s", "s", median(&samples.setup), n);
        out.metric("wall_s", "s", median(&samples.wall), n);
        out.metric("cell_ms_p50", "ms", quantile(&samples.cell_ms, 0.5), cells);
        out.metric("cell_ms_p90", "ms", quantile(&samples.cell_ms, 0.9), cells);
        out.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
        // Printed, not gated: run_s and finalize_s of the 10k fleet are
        // tens of ms and spread by up to the largest bound between runs on
        // a shared host (wall_s gates them where they dominate), and the
        // two rates are a fixed multiple of 1 / wall_s.
        out.extra("run_s", "s", median(&samples.run), n);
        out.extra("finalize_s", "s", median(&samples.finalize), n);
        out.extra(
            "sim_slots_per_s",
            "slots/s",
            median(&samples.slots_per_s),
            n,
        );
        out.extra("cells_per_s", "1/s", median(&samples.cells_per_s), n);
        let attempted = out.attempted.max(1);
        out.extra(
            "failed_frac",
            "frac",
            out.failed as f64 / attempted as f64,
            attempted as usize,
        );
        let (fo, miss) = fault_figures(&reference);
        out.extra("sim_failover_s_p50", "sim_s", median(&fo), fo.len());
        out.extra("sim_deadline_miss_frac", "frac", miss, 1);
        out.notes.push(format!(
            "{iterations} closed-loop iterations of {} engine run(s) in {:.1} s; sweep threads {threads}",
            reference.results.len(),
            epoch.elapsed().as_secs_f64()
        ));
        return out;
    }

    layer_metrics(
        &mut out, w, seed, threads, &reference, &scenarios, &samples, &tracer,
    );
    out
}

/// Fault → failover-commit latencies (simulated s) of the faulted sweep
/// cells, and deadline misses over actuations.
fn fault_figures(reference: &Reference) -> (Vec<f64>, f64) {
    let failovers: Vec<f64> = reference
        .cells
        .iter()
        .zip(&reference.results)
        .filter_map(|(c, r)| workloads::sim_failover_s(c, r.as_ref()?))
        .collect();
    let (miss, act) = reference.ok().fold((0, 0), |(m, a), r| {
        (m + r.deadline_misses, a + r.actuations)
    });
    (failovers, miss as f64 / act.max(1) as f64)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    w: Workload,
    seed: u64,
    threads: usize,
    reference: &Reference,
    scenarios: &[evm_core::runtime::Scenario],
    samples: &Samples,
    tracer: &Tracer,
) {
    // Setup replay: per-layer setup times and the workload's work counts.
    let mut replays: Vec<SetupReplay> = (0..REPLAYS)
        .map(|_| {
            let mut total = SetupReplay::default();
            for s in scenarios {
                total.absorb(&SetupReplay::of(s));
            }
            total
        })
        .collect();
    let resolve_s = median(&replays.iter().map(|r| r.resolve_s).collect::<Vec<_>>());
    let compute_s = median(&replays.iter().map(|r| r.compute_s).collect::<Vec<_>>());
    let work = replays.swap_remove(0);
    let run_s = median(&samples.run);
    let setup_s = median(&samples.setup);
    let wall_s = median(&samples.wall);
    let n = samples.wall.len();

    out.metric("topo.resolve_s", "s", resolve_s, REPLAYS);
    out.metric("topo.setup_share", "frac", resolve_s / setup_s, REPLAYS);
    out.metric("topo.nodes", "count", work.nodes as f64, 1);
    out.metric("topo.links", "count", work.links as f64, 1);
    out.metric(
        "topo.resolve_ratio_10k_over_5k",
        "ratio",
        probes::resolve_ratio(seed, REPLAYS),
        REPLAYS,
    );
    out.metric("reconfig.compute_s", "s", compute_s, REPLAYS);
    out.metric("reconfig.flows", "count", work.flows as f64, 1);
    out.metric(
        "reconfig.occupied_slots",
        "count",
        work.occupied_slots as f64,
        1,
    );
    let epochs: u64 = reference.ok().map(|r| r.epochs).sum();
    out.metric("reconfig.epochs", "count", epochs as f64, 1);
    out.metric("setup.build_s", "s", median(&samples.build), n);
    out.metric(
        "setup.other_s",
        "s",
        median(&samples.engine_new) - resolve_s - compute_s,
        n,
    );

    let windows = samples.window_ms.len();
    out.metric(
        "driver.window_ms_p50",
        "ms",
        quantile(&samples.window_ms, 0.5),
        windows,
    );
    out.metric(
        "driver.window_ms_p99",
        "ms",
        quantile(&samples.window_ms, 0.99),
        windows,
    );
    out.metric(
        "driver.ns_per_slot",
        "ns",
        run_s * 1e9 / work.slots as f64,
        n,
    );
    out.metric(
        "driver.ns_per_occupied_slot",
        "ns",
        run_s * 1e9 / work.occupied_visits as f64,
        n,
    );

    // Layer replay probes and their estimated share of run_s.
    let share = |ns_per_call: f64, calls: u64| ns_per_call * 1e-9 * calls as f64 / run_s;
    let (channel_ns, budget_ns) = probes::channel_probe(&scenarios[0], &work.link_distances);
    // The engine samples budgeted links through the budget path.
    let path_ns = budget_ns.unwrap_or(channel_ns);
    out.metric("channel.delivery_ns", "ns", channel_ns, 5);
    out.metric("channel.delivery_budget_ns", "ns", path_ns, 5);
    out.metric("channel.deliveries", "count", work.deliveries as f64, 1);
    out.metric("channel.share", "frac", share(path_ns, work.deliveries), 5);

    let refs: Vec<&evm_core::runtime::Scenario> = scenarios.iter().collect();
    let (vm_ns, gas) = probes::vm_probe(&refs);
    out.metric("vm.run_ns.interp", "ns", vm_ns[0], 5);
    out.metric("vm.run_ns.fused", "ns", vm_ns[1], 5);
    out.metric("vm.run_ns.compiled", "ns", vm_ns[2], 5);
    out.metric("vm.gas_per_run", "count", gas, 1);
    out.metric("vm.runs", "count", work.vm_runs as f64, 1);
    let tier_ns = match scenarios[0].tier {
        evm_core::Tier::Interp => vm_ns[0],
        evm_core::Tier::Fused => vm_ns[1],
        evm_core::Tier::Compiled => vm_ns[2],
    };
    out.metric("vm.share", "frac", share(tier_ns, work.vm_runs), 5);

    let plant_us = probes::plant_probe(scenarios[0].plant_dt);
    out.metric("plant.step_us", "us", plant_us, 5);
    out.metric("plant.steps", "count", work.plant_steps as f64, 1);
    out.metric(
        "plant.share",
        "frac",
        share(plant_us * 1e3, work.plant_steps),
        5,
    );

    // Pending events of the event-driven cursor: plant step, sample, the
    // in-flight broadcast and one compute timer per replica of the VC
    // whose slot just fired.
    let depth = 3 + (work.controllers as usize).div_ceil(work.vcs.max(1) as usize);
    let queue_ns = probes::queue_probe(depth);
    out.metric("queue.push_pop_ns", "ns", queue_ns, 5);
    out.metric("queue.depth", "count", depth as f64, 1);
    out.metric("queue.ops", "count", work.queue_ops as f64, 1);
    out.metric("queue.share", "frac", share(queue_ns, work.queue_ops), 5);

    out.metric(
        "finalize.ns_per_node",
        "ns",
        median(&samples.engine_finalize) * 1e9 / work.nodes as f64,
        n,
    );

    let migrations = reference.ok().flat_map(|r| &r.migrations);
    let (bytes, frames, sent, retries) = migrations.fold((0, 0, 0, 0), |acc, m| {
        (
            acc.0 + m.image_bytes,
            acc.1 + m.frames,
            acc.2 + m.frames_sent,
            acc.3 + m.retries,
        )
    });
    out.metric("xfer.bytes", "bytes", bytes as f64, 1);
    out.metric("xfer.frames_sent", "count", sent as f64, 1);
    out.metric("xfer.retries", "count", retries as f64, 1);
    let goodput = if sent > 0 {
        frames as f64 / sent as f64
    } else {
        0.0
    };
    out.metric("xfer.goodput", "frac", goodput, 1);

    out.metric(
        "sweep.expand_frac",
        "frac",
        median(&samples.expand) / wall_s,
        n,
    );
    out.metric(
        "sweep.report_frac",
        "frac",
        median(&samples.report) / wall_s,
        n,
    );
    out.metric("sweep.busy_frac", "frac", median(&samples.busy), n);
    let entries: usize = reference.ok().map(|r| r.trace.len()).sum();
    out.metric("trace.entries", "count", entries as f64, 1);

    let (fo, miss) = fault_figures(reference);
    let fo_p50 = median(&fo);
    out.metric(
        "fault.sim_failover_s_p50",
        "sim_s",
        if fo_p50.is_finite() { fo_p50 } else { 0.0 },
        fo.len(),
    );
    out.metric("fault.deadline_miss_frac", "frac", miss, 1);

    // Report-CSV identity between 1 thread and the executor's threads
    // (the reference ran on the executor's threads).
    if w.fleet().is_none() {
        let serial = run_cells_checked(&reference.cells, 1);
        out.attempted += 1;
        if workloads::sweep_csv(&reference.cells, &serial) != reference.csv {
            out.fail(format!(
                "report CSV differs between 1 and {threads} threads"
            ));
        }
    }

    // Spans: coverage, self time per layer, overhead; then write them out.
    out.metric(
        "span.coverage",
        "frac",
        tracer.coverage(),
        samples.traced_wall.len(),
    );
    let self_s = tracer.self_time_by_name();
    // Shares of all self time, so parallel cells count once per worker.
    let total_self: f64 = self_s.values().sum();
    // Roots, `run` and `cell` are covered by their children (self ≈ 0).
    for name in [
        "build",
        "engine_new",
        "run_until",
        "finalize",
        "expand",
        "executor",
        "report",
        "csv",
    ] {
        let v = self_s.get(name).copied().unwrap_or(0.0);
        out.metric(
            &format!("self_frac.{name}"),
            "frac",
            v / total_self,
            samples.traced_wall.len(),
        );
    }
    out.metric(
        "trace.overhead_s",
        "s",
        median(&samples.traced_wall) - median(&samples.untraced_wall),
        samples.traced_wall.len(),
    );
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("traces")))
        .unwrap_or_else(|| "traces".into());
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("could not write spans: {e}")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_table(w: Workload, out: &Outcome, traced: bool) {
    println!(
        "== {} ({}) ==",
        w.name(),
        if traced {
            "traced: per-layer"
        } else {
            "end-to-end"
        }
    );
    println!(
        "{:<34} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let row = |m: &Metric| {
        println!(
            "{:<34} {:>16} {:<8} {:>8}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.samples
        );
    };
    out.metrics.iter().for_each(row);
    if !out.extras.is_empty() {
        println!("-- not in the result line --");
        out.extras.iter().for_each(row);
    }
    for note in &out.notes {
        println!("  {note}");
    }
    for why in &out.failures {
        println!("  FAILED: {why}");
    }
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "n/a".into()
    } else if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evmbench: {e}");
            eprintln!(
                "usage: evmbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else if let Some(w) = Workload::parse(&args.workload) {
        vec![w]
    } else {
        eprintln!("evmbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };

    let (mut attempted, mut failed) = (0, 0);
    let mut json_metrics = String::new();
    for &w in &workloads {
        let out = measure(w, args.seed, args.seconds, args.trace);
        print_table(w, &out, args.trace);
        attempted += out.attempted;
        failed += out.failed;
        for m in &out.metrics {
            let name = if workloads.len() > 1 {
                format!("{}.{}", w.name(), m.name)
            } else {
                m.name.clone()
            };
            if !json_metrics.is_empty() {
                json_metrics.push_str(", ");
            }
            let _ = write!(
                json_metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        json_metrics
    );
    ExitCode::SUCCESS
}
