//! Output pins for whole runs: dense fleets and the golden scenarios.
//!
//! Fleet setup shares per-law and per-link work across replicas (one
//! compiled program and one capsule per control law, link budgets
//! memoized by distance, a cycle plan built from the placed slots
//! only). None of that may move a bit of the run: each fleet test
//! digests the whole [`RunResult`] of a `ScenarioBuilder::fleet(n)` run
//! and compares it with a value recorded before the sharing was
//! introduced.
//!
//! The scenario pins cover the engine's slot pipeline end to end:
//! single-hop Fig. 5, multi-hop line and grid routing, a heartbeat
//! reroute around a dead forwarder, a head kill with a live capsule
//! migration, and two VCs with a primary crash. Each value was recorded
//! while the engine still carried a per-slot-event stepping and a
//! re-resolve-every-slot body beside the slot cursor and the cycle
//! plan; all four combinations produced the same digest. Each test also
//! keeps a vacuity floor, so a silently dead run cannot pass.
//!
//! The digest is FNV-1a over the `Debug` rendering of every field, with
//! the two `HashMap`s rendered in key order so the value does not depend
//! on hash iteration order.

use std::collections::BTreeMap;
use std::fmt::Write;

use evm_core::runtime::{Engine, ReroutePolicy, Role, Scenario, ScenarioBuilder};
use evm_core::RunResult;
use evm_netsim::NodeId;
use evm_sim::{SimDuration, SimTime};

/// `fmt::Write` sink folding everything written into an FNV-1a hash.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(r: &RunResult) -> u64 {
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
    } = r;
    let series: BTreeMap<_, _> = series.iter().collect();
    let node_energy: BTreeMap<_, _> = node_energy.iter().collect();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(
        h,
        "{meta:?}{series:?}{trace:?}{e2e_latencies:?}{deadline_misses}{actuations}\
         {node_energy:?}{vc_stats:?}{epochs}{reroute_latency:?}{migrations:?}"
    )
    .expect("hashing never fails");
    h.0
}

/// Digest of a dense `vcs`-VC fleet run for `cycles` RT-Link cycles.
fn fleet_digest(vcs: usize, cycles: u64, seed: u64) -> u64 {
    let mut s = Scenario::builder().fleet(vcs).seed(seed).build();
    s.duration = s.rtlink.cycle_duration() * cycles;
    let r = Engine::new(s).run();
    assert!(r.actuations > 0, "fleet run must actuate");
    digest(&r)
}

#[test]
fn fleet_200_over_30_cycles_is_pinned() {
    assert_eq!(fleet_digest(200, 30, 1), 0x4efa_7ed6_1379_8ba3);
    assert_eq!(fleet_digest(200, 30, 7919), 0x9982_5102_c1bf_b43c);
}

#[test]
fn fleet_1000_over_2_cycles_is_pinned() {
    assert_eq!(fleet_digest(1000, 2, 1), 0xe1e2_4fa0_16e7_5d9d);
    assert_eq!(fleet_digest(1000, 2, 7919), 0xf0c3_7e4f_e271_38e0);
}

/// The larger fleets: ~0.1 s each with optimizations, but minutes in an
/// unoptimized build, where the driver re-checks the single-active
/// invariant over every VC after every event. Built only without debug
/// assertions (`cargo test --release`).
#[cfg(not(debug_assertions))]
#[test]
fn large_fleets_are_pinned() {
    assert_eq!(fleet_digest(1000, 30, 1), 0xb7e7_2d03_c299_b927);
    assert_eq!(fleet_digest(1000, 30, 7919), 0x8ab2_f4b0_d3c7_da56);
    assert_eq!(fleet_digest(3000, 2, 1), 0x588d_e301_c4a0_37b0);
    assert_eq!(fleet_digest(3000, 2, 7919), 0x6ca2_c7a8_9d8a_4cc7);
}

/// Runs `s` and returns its result, after asserting the run is
/// non-trivial.
fn run(s: Scenario) -> RunResult {
    let r = Engine::new(s).run();
    assert!(r.actuations > 20, "run must exercise the loop");
    r
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
fn fig5_is_pinned() {
    let mut s = Scenario::baseline();
    s.duration = SimDuration::from_secs(90);
    assert_eq!(digest(&run(s)), 0x3927_41f4_a156_b8d2);
}

/// Multi-hop line: relay flows spanning two hops, serial schedule.
#[test]
fn line_is_pinned() {
    let s = ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
        .duration(SimDuration::from_secs(60))
        .build();
    assert_eq!(digest(&run(s)), 0xe289_0a74_7ffd_49e4);
}

/// 3x3 grid: lattice routing where the controller itself forwards.
#[test]
fn grid_is_pinned() {
    let s = ScenarioBuilder::star()
        .grid(3, 3)
        .sensors(1)
        .controllers(1)
        .actuators(1)
        .head(true)
        .slots_per_cycle(33)
        .duration(SimDuration::from_secs(60))
        .build();
    assert_eq!(digest(&run(s)), 0xd995_ea0b_9e78_e5f1);
}

/// Heartbeat reroute: a loaded forwarder dies mid-run, the heartbeat
/// scan marks it down, and an epoch swap re-routes around it — through
/// the plan rebuild, the post-swap occupancy change, keepalive fills
/// and liveness stamps.
#[test]
fn heartbeat_reroute_is_pinned() {
    let mut s = ScenarioBuilder::star()
        .reroute(ReroutePolicy::Heartbeat)
        .line(2)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .duration(SimDuration::from_secs(90))
        .build();
    let victim = loaded_relay(&s);
    s.fault_plan.add_crash(evm_netsim::NodeCrash::permanent(
        victim,
        SimTime::from_secs(30),
    ));
    let r = run(s);
    assert!(r.epochs >= 1, "the dead forwarder must be routed around");
    assert_eq!(digest(&r), 0xf33b_13c1_5693_5bac);
}

/// Head-kill live migration: the head crashes, re-election ships the
/// capsule over dedicated transfer slots chunk by chunk. Exercises the
/// `CapsuleChunk` leg of folded broadcast delivery and the ack/loss RNG
/// draws across an epoch swap.
#[test]
fn head_kill_migration_is_pinned() {
    let s = ScenarioBuilder::star()
        .reroute(ReroutePolicy::Heartbeat)
        .line(2)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .transfer_slots(2)
        .capsule_pad_bytes(512)
        .crash_node_at(NodeId(6), SimTime::from_secs(10))
        .duration(SimDuration::from_secs(90))
        .build();
    let r = run(s);
    assert_eq!(
        r.migrations.len(),
        1,
        "the head kill must complete a live migration"
    );
    assert_eq!(digest(&r), 0x4fe6_35ac_0bd5_dc84);
}

/// Two VCs sharing one gateway, with VC 1's primary controller crashing
/// mid-run (failover path + per-VC stats under the dense node tables).
#[test]
fn two_vc_crash_is_pinned() {
    let s = ScenarioBuilder::star()
        .vcs(2)
        .crash_vc_primary_at(1, SimTime::from_secs(30))
        .duration(SimDuration::from_secs(90))
        .build();
    assert_eq!(digest(&run(s)), 0x2f0e_4de4_069c_50ce);
}
