//! The three workloads, their inputs and their output checks.
//!
//! Every number is taken from outside the engine: the benchmark times
//! calls into `ScenarioBuilder::build`, `Engine::try_new`,
//! `Engine::run_until` (in fixed windows), `Engine::finalize`, the sweep
//! executor (`run_indexed`) and `SweepReport::build`.

use std::time::Instant;

use evm_core::runtime::{Engine, ReroutePolicy, Scenario, ScenarioBuilder, TopologyError};
use evm_core::RunResult;
use evm_netsim::NodeId;
use evm_plant::ActuatorFault;
use evm_sim::{derive_seed, SimDuration, SimTime};
use evm_sweep::{available_threads, run_indexed, SweepCell, SweepGrid, SweepReport};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 10k-VC dense fleet, 2 cycles: setup and finalize dominate.
    FleetSetup10k,
    /// 1k-VC dense fleet, 400 cycles: the occupied-slot hot loop dominates.
    FleetSteady1k,
    /// Short plant-bound failover cells through the sweep executor.
    FailoverSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetSetup10k,
        Workload::FleetSteady1k,
        Workload::FailoverSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSetup10k => "fleet_setup_10k",
            Workload::FleetSteady1k => "fleet_steady_1k",
            Workload::FailoverSweep => "failover_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fleet shape, or `None` for the sweep.
    pub fn fleet(self) -> Option<FleetShape> {
        match self {
            Workload::FleetSetup10k => Some(FleetShape {
                vcs: 10_000,
                cycles: 2,
                window_cycles: 1,
            }),
            Workload::FleetSteady1k => Some(FleetShape {
                vcs: 1_000,
                cycles: 400,
                window_cycles: 10,
            }),
            Workload::FailoverSweep => None,
        }
    }
}

/// A dense fleet run: VC count, simulated cycles, cycles per
/// `run_until` window.
#[derive(Clone, Copy, Debug)]
pub struct FleetShape {
    pub vcs: usize,
    pub cycles: u64,
    pub window_cycles: u64,
}

impl FleetShape {
    /// `ScenarioBuilder::fleet(vcs)` on its default (dense) shape, seeded,
    /// run for `cycles` RT-Link cycles.
    pub fn scenario(self, seed: u64) -> Scenario {
        let mut s = Scenario::builder().fleet(self.vcs).seed(seed).build();
        s.duration = s.rtlink.cycle_duration() * self.cycles;
        s
    }

    pub fn windows(self) -> u64 {
        self.cycles.div_ceil(self.window_cycles)
    }
}

/// Simulated horizon of every sweep cell.
pub const CELL_HORIZON_S: u64 = 300;
/// `run_until` windows per sweep cell.
pub const CELL_WINDOWS: u64 = 10;
/// Seed replicates per sweep configuration: 11 configurations × 10 = 110
/// cells, so `cell_ms_p90` has at least ten samples beyond it per pass.
pub const SEEDS_PER_CONFIG: u32 = 10;

/// Worker threads of the sweep executor: `min(2, nproc)`.
pub fn sweep_threads() -> usize {
    available_threads().min(2)
}

/// The failover sweep's grid mix, expanded and renumbered so cell ids
/// are unique across the three grids.
pub fn sweep_cells(seed: u64) -> Vec<SweepCell> {
    let horizon = SimDuration::from_secs(CELL_HORIZON_S);
    // The Fig. 5 star with the paper's actuator fault, 1 and 2 VCs ×
    // loss 0 / 0.1 / 0.2.
    let star = Scenario::builder()
        .duration(horizon)
        .fault_at(SimTime::from_secs(60), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .build();
    // The redundant 2-hop line; ids: GW=0, S1=1, Ctrl-A..C=2..4, A1=5,
    // Head=6, R1=7, RB1=8. Kill the head, ship the capsule to the
    // re-elected head, then fault the primary.
    let head_kill = ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .reroute(ReroutePolicy::Heartbeat)
        .crash_node_at(NodeId(6), SimTime::from_secs(10))
        .fault_at(SimTime::from_secs(60), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .duration(horizon)
        .build();
    // The redundant 2-hop line; ids: GW=0, S1=1, Ctrl-A=2, Ctrl-B=3,
    // A1=4, Head=5, R1=6, RB1=7. Kill the primary forwarder R1.
    let forwarder_kill = ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .reroute(ReroutePolicy::Heartbeat)
        .crash_node_at(NodeId(6), SimTime::from_secs(15))
        .duration(horizon)
        .build();
    let grids = [
        SweepGrid::new(star)
            .over_vcs(&[1, 2])
            .over_loss(&[0.0, 0.1, 0.2]),
        SweepGrid::new(head_kill)
            .over_capsule_size(&[0, 512])
            .over_transfer_slots(&[1, 2]),
        SweepGrid::new(forwarder_kill),
    ];
    let mut cells: Vec<SweepCell> = grids
        .into_iter()
        .enumerate()
        .flat_map(|(g, grid)| {
            grid.seeds_per_cell(SEEDS_PER_CONFIG)
                .base_seed(derive_seed(seed, g as u64))
                .expand()
        })
        .collect();
    for (id, cell) in cells.iter_mut().enumerate() {
        cell.id = id;
    }
    cells
}

/// Instants of one timed engine run.
#[derive(Debug, Clone)]
pub struct RunTiming {
    pub start: Instant,
    /// After `ScenarioBuilder::build` (equal to `start` for sweep cells,
    /// whose scenarios come ready from the grid).
    pub built: Instant,
    /// After `Engine::try_new`.
    pub engine_new: Instant,
    /// End of each `run_until` window; the last one ends the run.
    pub windows: Vec<Instant>,
    /// After `Engine::finalize`.
    pub finalized: Instant,
}

impl RunTiming {
    pub fn run_end(&self) -> Instant {
        *self.windows.last().unwrap_or(&self.engine_new)
    }

    pub fn setup_s(&self) -> f64 {
        secs(self.start, self.engine_new)
    }

    pub fn build_s(&self) -> f64 {
        secs(self.start, self.built)
    }

    pub fn engine_new_s(&self) -> f64 {
        secs(self.built, self.engine_new)
    }

    pub fn run_s(&self) -> f64 {
        secs(self.engine_new, self.run_end())
    }

    pub fn finalize_s(&self) -> f64 {
        secs(self.run_end(), self.finalized)
    }

    pub fn total_s(&self) -> f64 {
        secs(self.start, self.finalized)
    }

    /// `(start, end)` of each `run_until` window.
    pub fn window_spans(&self) -> impl Iterator<Item = (Instant, Instant)> + '_ {
        std::iter::once(self.engine_new)
            .chain(self.windows.iter().copied())
            .zip(self.windows.iter().copied())
    }
}

pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Runs `f`, turning a panic into `None` so one failing run counts as
/// failed instead of aborting the benchmark.
fn guarded<T>(f: impl FnOnce() -> Option<T>) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .ok()
        .flatten()
}

/// `Engine::try_new`, then `run_until` over `windows` equal windows
/// ending exactly at the horizon, then `finalize` — the same `RunResult`
/// as `Engine::run` (checked against it).
pub fn timed_run(
    start: Instant,
    built: Instant,
    scenario: Scenario,
    windows: u64,
) -> Result<(RunTiming, RunResult), TopologyError> {
    let windows = windows.max(1);
    let end = SimTime::ZERO + scenario.duration;
    let step = scenario.duration / windows;
    let mut engine = Engine::try_new(scenario)?;
    let engine_new = Instant::now();
    let mut marks = Vec::with_capacity(windows as usize);
    for k in 1..=windows {
        let until = if k >= windows {
            end
        } else {
            SimTime::ZERO + step * k
        };
        engine.run_until(until);
        marks.push(Instant::now());
    }
    let result = engine.finalize();
    let finalized = Instant::now();
    Ok((
        RunTiming {
            start,
            built,
            engine_new,
            windows: marks,
            finalized,
        },
        result,
    ))
}

/// One closed-loop batch iteration: a whole fleet run, or a whole sweep
/// pass (expand → executor → report → CSV).
#[derive(Debug)]
pub struct Iteration {
    pub start: Instant,
    pub end: Instant,
    /// One entry per engine run, in cell order; `None` for a run that
    /// failed (topology error or panic).
    pub runs: Vec<Option<RunTiming>>,
    /// Sweep stages outside the cells: `expand`, `report`, `csv`.
    pub stages: Vec<(&'static str, Instant, Instant)>,
    /// The executor call (sweep only).
    pub executor: Option<(Instant, Instant)>,
}

impl Iteration {
    pub fn ok_runs(&self) -> impl Iterator<Item = &RunTiming> {
        self.runs.iter().flatten()
    }

    fn stage_s(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|&(_, a, b)| secs(a, b))
            .sum()
    }

    pub fn wall_s(&self) -> f64 {
        secs(self.start, self.end)
    }

    /// Build + `Engine::new`; for the sweep, expand + Σ per-cell
    /// `Engine::new`.
    pub fn setup_s(&self) -> f64 {
        self.stage_s("expand") + self.ok_runs().map(RunTiming::setup_s).sum::<f64>()
    }

    pub fn run_s(&self) -> f64 {
        self.ok_runs().map(RunTiming::run_s).sum()
    }

    /// `finalize`; for the sweep also `SweepReport::build` and the CSV.
    pub fn finalize_s(&self) -> f64 {
        self.ok_runs().map(RunTiming::finalize_s).sum::<f64>()
            + self.stage_s("report")
            + self.stage_s("csv")
    }

    pub fn expand_s(&self) -> f64 {
        self.stage_s("expand")
    }

    pub fn report_s(&self) -> f64 {
        self.stage_s("report") + self.stage_s("csv")
    }

    /// Σ cell time / (threads × executor wall).
    pub fn busy_frac(&self, threads: usize) -> f64 {
        match self.executor {
            Some((a, b)) => {
                let busy: f64 = self.ok_runs().map(RunTiming::total_s).sum();
                busy / (threads as f64 * secs(a, b))
            }
            None => 0.0,
        }
    }

    pub fn cell_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.ok_runs().map(|r| r.total_s() * 1e3)
    }

    pub fn window_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.ok_runs()
            .flat_map(RunTiming::window_spans)
            .map(|(a, b)| secs(a, b) * 1e3)
    }
}

/// One fleet run: build, `Engine::new`, windowed `run_until`,
/// `finalize`; `None` for the result if the run failed.
pub fn fleet_iteration(shape: FleetShape, seed: u64) -> (Iteration, Option<RunResult>) {
    let start = Instant::now();
    let out = guarded(|| {
        let scenario = shape.scenario(seed);
        let built = Instant::now();
        timed_run(start, built, scenario, shape.windows()).ok()
    });
    let end = Instant::now();
    let (timing, result) = out.unzip();
    let it = Iteration {
        start,
        end,
        runs: vec![timing],
        stages: Vec::new(),
        executor: None,
    };
    (it, result)
}

/// One sweep pass: expand the grid, run every cell on the executor,
/// build the report and render its CSV.
pub struct SweepPass {
    pub iteration: Iteration,
    pub cells: Vec<SweepCell>,
    /// Results of the cells that ran, in cell order.
    pub results: Vec<RunResult>,
    /// Cell index of each entry of `results`.
    pub ok_ids: Vec<usize>,
    pub csv: String,
}

pub fn sweep_iteration(seed: u64, threads: usize) -> SweepPass {
    let start = Instant::now();
    let cells = sweep_cells(seed);
    let expanded = Instant::now();
    let outs = run_indexed(&cells, threads, |_, cell| {
        guarded(|| {
            let t = Instant::now();
            timed_run(t, t, cell.scenario.clone(), CELL_WINDOWS).ok()
        })
    });
    let executed = Instant::now();
    let mut runs = Vec::with_capacity(outs.len());
    let mut results = Vec::with_capacity(outs.len());
    let mut ok_ids = Vec::with_capacity(outs.len());
    for (id, out) in outs.into_iter().enumerate() {
        match out {
            Some((timing, r)) => {
                runs.push(Some(timing));
                results.push(r);
                ok_ids.push(id);
            }
            None => runs.push(None),
        }
    }
    let report = if ok_ids.len() == cells.len() {
        SweepReport::build(&cells, &results)
    } else {
        let ok_cells: Vec<SweepCell> = ok_ids.iter().map(|&i| cells[i].clone()).collect();
        SweepReport::build(&ok_cells, &results)
    };
    let reported = Instant::now();
    let csv = report.to_csv() + &report.cells_csv();
    let end = Instant::now();
    let iteration = Iteration {
        start,
        end,
        runs,
        stages: vec![
            ("expand", start, expanded),
            ("report", executed, reported),
            ("csv", reported, end),
        ],
        executor: Some((expanded, executed)),
    };
    SweepPass {
        iteration,
        cells,
        results,
        ok_ids,
        csv,
    }
}

/// The report CSV of a `run_cells_checked` run, over the cells that ran.
pub fn sweep_csv(cells: &[SweepCell], results: &[Result<RunResult, TopologyError>]) -> String {
    let (ok_cells, ok_results): (Vec<SweepCell>, Vec<RunResult>) = cells
        .iter()
        .zip(results)
        .filter_map(|(c, r)| r.as_ref().ok().map(|r| (c.clone(), r.clone())))
        .unzip();
    let report = SweepReport::build(&ok_cells, &ok_results);
    report.to_csv() + &report.cells_csv()
}

/// Output check of a fleet run: every VC actuates.
pub fn check_fleet(r: &RunResult) -> Result<(), String> {
    match r.vc_stats.iter().position(|v| v.actuations == 0) {
        Some(vc) => Err(format!("VC {vc} never actuated")),
        None if r.vc_stats.is_empty() => Err("no VC stats".into()),
        None => Ok(()),
    }
}

/// Output check of a sweep cell, by the cell's shape: a faulted cell
/// commits a failover or falls back to fail-safe, a migration cell
/// completes exactly one attested migration, a forwarder-kill cell
/// commits a rerouted epoch.
pub fn check_cell(cell: &SweepCell, r: &RunResult) -> Result<(), String> {
    let s = &cell.scenario;
    if s.fault.is_some()
        && r.event_time("head commits failover").is_none()
        && r.event_time("fail-safe").is_none()
    {
        return Err(format!(
            "cell {}: fault without failover or fail-safe",
            cell.id
        ));
    }
    if s.transfer_slots > 0 && r.migrations.len() != 1 {
        return Err(format!(
            "cell {}: {} migrations, expected 1",
            cell.id,
            r.migrations.len()
        ));
    }
    if s.fault.is_none() && s.transfer_slots == 0 && r.epochs == 0 {
        return Err(format!("cell {}: forwarder kill never rerouted", cell.id));
    }
    Ok(())
}

/// Simulated fault → failover-commit latency of a faulted cell that
/// committed a failover.
pub fn sim_failover_s(cell: &SweepCell, r: &RunResult) -> Option<f64> {
    let (at, _) = cell.scenario.fault?;
    let commit = r.event_time("head commits failover")?;
    Some(commit.as_secs_f64() - at.as_secs_f64())
}
