//! Differential: one `run` vs. the same run advanced in uneven steps.
//!
//! The slot cursor batch-skips empty slots up to the next occupied
//! slot, cycle boundary, queue event or stop horizon, reserving one
//! queue sequence number per skipped slot. Where a run stops and
//! resumes must not matter: for any scenario, the whole
//! [`evm_core::RunResult`] — series, traces, QoS metrics, energy,
//! per-VC stats — is **byte-identical** between [`Engine::run`] and the
//! same engine advanced by [`Engine::run_until`] through an irregular
//! ladder of horizons (off-slot, on-slot, sub-slot and multi-cycle
//! steps), then closed out with [`Engine::finalize`]. Each test runs one
//! scenario family both ways and compares the results structurally,
//! with a vacuity floor on actuations so a silently-dead run can never
//! pass.

use evm_core::runtime::{Engine, ReroutePolicy, Role, Scenario, ScenarioBuilder};
use evm_core::RunResult;
use evm_netsim::NodeId;
use evm_sim::{SimDuration, SimTime};

/// Advances a fresh engine for `s` to its end through irregular
/// horizons. Step lengths come from a fixed LCG and cycle through four
/// shapes: an arbitrary microsecond count up to ~1.3 s, a stop exactly
/// on a later slot boundary, a sub-slot step, and a stop exactly on a
/// later cycle boundary. Horizons on a boundary are where a slot and a
/// queue event due at the same instant meet the stop.
fn run_stepped(s: Scenario) -> RunResult {
    let slot = s.rtlink.slot_duration;
    let cycle = s.rtlink.cycle_duration();
    let end = SimTime::ZERO + s.duration;
    let mut engine = Engine::new(s);
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut t = SimTime::ZERO;
    let mut steps = 0u64;
    while t < end {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = lcg >> 33;
        let horizon = match steps % 4 {
            0 => t + SimDuration::from_micros(1 + r % 1_300_000),
            1 => t.floor_to(slot) + slot * (1 + r % 40),
            2 => t + SimDuration::from_micros(1 + r % 9_999),
            _ => t.floor_to(cycle) + cycle * (1 + r % 8),
        };
        t = horizon.min(end);
        engine.run_until(t);
        steps += 1;
    }
    assert!(steps > 50, "the run must be split into many steps");
    engine.finalize()
}

/// Runs `make()`'s scenario in one go and stepped, and returns
/// `(whole, stepped)` after asserting the run is non-trivial.
fn run_both(make: impl Fn() -> Scenario) -> (RunResult, RunResult) {
    let whole = Engine::new(make()).run();
    assert!(whole.actuations > 20, "run must exercise the loop");
    let stepped = run_stepped(make());
    (whole, stepped)
}

/// The first dedicated relay that carries forwarding jobs in the
/// engine's own epoch-0 routes — the only kind of victim whose crash
/// forces a heartbeat reroute.
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
fn fig5_identical_across_steppings() {
    let (whole, stepped) = run_both(|| {
        let mut s = Scenario::baseline();
        s.duration = SimDuration::from_secs(90);
        s
    });
    assert!(stepped == whole, "stepping changed the Fig. 5 run");
}

/// Multi-hop line: relay flows spanning two hops, serial schedule.
#[test]
fn line_identical_across_steppings() {
    let (whole, stepped) = run_both(|| {
        ScenarioBuilder::star()
            .line(2)
            .sensors(1)
            .controllers(2)
            .actuators(1)
            .head(true)
            .duration(SimDuration::from_secs(60))
            .build()
    });
    assert!(stepped == whole, "stepping changed the line run");
}

/// 3x3 grid: lattice routing where the controller itself forwards.
#[test]
fn grid_identical_across_steppings() {
    let (whole, stepped) = run_both(|| {
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
    assert!(stepped == whole, "stepping changed the grid run");
}

/// Heartbeat reroute: a loaded forwarder dies mid-run, the heartbeat
/// scan marks it down, and an epoch swap re-routes around it. The
/// stepped run must cross the plan rebuild and the post-swap occupancy
/// change exactly as the single run does.
#[test]
fn heartbeat_reroute_identical_across_steppings() {
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
    let (whole, stepped) = run_both(|| {
        let mut s = base();
        s.fault_plan.add_crash(evm_netsim::NodeCrash::permanent(
            victim,
            SimTime::from_secs(30),
        ));
        s
    });
    assert!(
        whole.epochs >= 1,
        "the dead forwarder must be routed around"
    );
    assert!(
        stepped == whole,
        "stepping changed the heartbeat-reroute run"
    );
}

/// Two VCs sharing one gateway, with VC 1's primary controller crashing
/// mid-run (failover path + per-VC stats under the dense node tables).
#[test]
fn two_vc_crash_identical_across_steppings() {
    let (whole, stepped) = run_both(|| {
        ScenarioBuilder::star()
            .vcs(2)
            .crash_vc_primary_at(1, SimTime::from_secs(30))
            .duration(SimDuration::from_secs(90))
            .build()
    });
    assert!(stepped == whole, "stepping changed the 2-VC crash run");
}
