//! Differential: one cycle plan for the whole run vs. the plan rebuilt
//! mid-run from the same schedule.
//!
//! The engine lowers each epoch's schedule into a `CyclePlan` (dense
//! indices, precomputed distances and channel budgets, folded broadcast
//! delivery, the cycle-start hook list) and rebuilds it at every epoch
//! commit, interning burst-loss state as it walks the slots. A forced
//! reconfiguration with nothing down recomputes the identical schedule,
//! so the rebuilt plan must drive the data plane exactly as the original
//! did: apart from the epoch counter and the `reconfig` trace lines that
//! record each no-op commit, the whole [`evm_core::RunResult`] — series,
//! the rest of the trace, QoS metrics, energy, per-VC stats, migrations
//! — is **byte-identical** with and without the rebuilds. Each test runs
//! one scenario family both ways, with a vacuity floor on actuations so
//! a silently-dead run can never pass.

use evm_core::runtime::{Engine, ReroutePolicy, Role, Scenario, ScenarioBuilder};
use evm_core::RunResult;
use evm_netsim::NodeId;
use evm_sim::{SimDuration, SimTime, Trace, TraceEntry};

/// Forced no-op reconfiguration requests: on a cycle boundary of the
/// 250 ms and 330 ms cycles used below, mid-cycle, and after the
/// 30 s faults have been handled.
const REBUILDS: [f64; 3] = [5.0, 20.07, 45.13];

/// Runs `make()`'s scenario as is and with [`REBUILDS`] forced plan
/// rebuilds, and asserts the two agree in everything but the epoch
/// count and the no-op commits' own trace lines. Returns the plain run.
fn assert_rebuilds_invisible(make: impl Fn() -> Scenario) -> RunResult {
    let plain = Engine::new(make()).run();
    assert!(plain.actuations > 20, "run must exercise the loop");
    let mut s = make();
    s.force_reconfig
        .extend(REBUILDS.iter().map(|&t| SimTime::from_secs_f64(t)));
    let rebuilt = Engine::new(s).run();

    let RunResult {
        meta,
        series,
        trace,
        e2e_latencies,
        deadline_misses,
        actuations,
        node_energy,
        vc_stats,
        epochs,
        reroute_latency,
        migrations,
    } = &rebuilt;
    let forced = REBUILDS.len() as u64;
    assert_eq!(*epochs, plain.epochs + forced, "every forced epoch commits");
    assert_eq!(*meta, plain.meta);
    assert!(*series == plain.series, "plan rebuild changed the series");
    assert_eq!(*e2e_latencies, plain.e2e_latencies);
    assert_eq!(*deadline_misses, plain.deadline_misses);
    assert_eq!(*actuations, plain.actuations);
    assert!(
        *node_energy == plain.node_energy,
        "plan rebuild changed the energy"
    );
    assert_eq!(*vc_stats, plain.vc_stats);
    assert_eq!(*reroute_latency, plain.reroute_latency);
    assert_eq!(*migrations, plain.migrations);

    let split = |t: &Trace| -> (usize, Vec<TraceEntry>) {
        let all = t.entries();
        let others: Vec<TraceEntry> = all
            .iter()
            .filter(|e| e.category != "reconfig")
            .cloned()
            .collect();
        (all.len() - others.len(), others)
    };
    let (plain_reconfig, plain_rest) = split(&plain.trace);
    let (rebuilt_reconfig, rebuilt_rest) = split(trace);
    assert_eq!(
        rebuilt_reconfig,
        plain_reconfig + 2 * REBUILDS.len(),
        "each forced epoch logs its staging and its commit"
    );
    assert!(rebuilt_rest == plain_rest, "plan rebuild changed the trace");
    plain
}

/// The first dedicated relay that carries forwarding jobs in the
/// engine's own epoch-0 routes.
fn loaded_relay(s: &Scenario) -> NodeId {
    let carriers = Engine::new(s.clone()).forwarding_nodes();
    s.topology
        .nodes
        .iter()
        .find(|n| matches!(n.role, Role::Relay(_)) && carriers.contains(&n.id))
        .map(|n| n.id)
        .expect("a dedicated relay carries jobs")
}

/// Fig. 5 baseline: the paper's single-hop testbed with the default
/// fault plan (primary-controller actuator fault at 30 s).
#[test]
fn fig5_identical_across_plan_modes() {
    assert_rebuilds_invisible(|| {
        let mut s = Scenario::baseline();
        s.duration = SimDuration::from_secs(90);
        s
    });
}

/// Multi-hop line: relay flows spanning two hops, serial schedule.
#[test]
fn line_identical_across_plan_modes() {
    assert_rebuilds_invisible(|| {
        ScenarioBuilder::star()
            .line(2)
            .sensors(1)
            .controllers(2)
            .actuators(1)
            .head(true)
            .duration(SimDuration::from_secs(60))
            .build()
    });
}

/// 3x3 grid: lattice routing where the controller itself forwards.
#[test]
fn grid_identical_across_plan_modes() {
    assert_rebuilds_invisible(|| {
        ScenarioBuilder::star()
            .grid(3, 3)
            .sensors(1)
            .controllers(1)
            .actuators(1)
            .head(true)
            .slots_per_cycle(33)
            .duration(SimDuration::from_secs(60))
            .build()
    });
}

/// Heartbeat reroute: a loaded forwarder dies mid-run and an epoch swap
/// re-routes around it; the forced rebuilds land before the crash and
/// after the reroute, both times recomputing the epoch in force.
#[test]
fn heartbeat_reroute_identical_across_plan_modes() {
    let base = || {
        ScenarioBuilder::star()
            .reroute(ReroutePolicy::Heartbeat)
            .line(2)
            .sensors(1)
            .controllers(2)
            .actuators(1)
            .head(true)
            .backup_relays(1)
            .duration(SimDuration::from_secs(90))
            .build()
    };
    let victim = loaded_relay(&base());
    let plain = assert_rebuilds_invisible(|| {
        let mut s = base();
        s.fault_plan.add_crash(evm_netsim::NodeCrash::permanent(
            victim,
            SimTime::from_secs(30),
        ));
        s
    });
    assert!(
        plain.epochs >= 1,
        "the dead forwarder must be routed around"
    );
}

/// Two VCs sharing one gateway, with VC 1's primary controller crashing
/// mid-run (failover path + per-VC stats under the dense node tables).
#[test]
fn two_vc_crash_identical_across_plan_modes() {
    assert_rebuilds_invisible(|| {
        ScenarioBuilder::star()
            .vcs(2)
            .crash_vc_primary_at(1, SimTime::from_secs(30))
            .duration(SimDuration::from_secs(90))
            .build()
    });
}
