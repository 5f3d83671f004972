//! Output pins for dense fleet runs.
//!
//! Fleet setup shares per-law and per-link work across replicas (one
//! compiled program and one capsule per control law, link budgets
//! memoized by distance, a slot table built from the placed slots
//! only). None of that may move a bit of the run: each test digests the
//! whole [`RunResult`] of a `ScenarioBuilder::fleet(n)` run and compares
//! it with a value recorded before the sharing was introduced.
//!
//! The digest is FNV-1a over the `Debug` rendering of every field, with
//! the two `HashMap`s rendered in key order so the value does not depend
//! on hash iteration order.

use std::collections::BTreeMap;
use std::fmt::Write;

use evm_core::runtime::{Engine, Scenario};
use evm_core::RunResult;

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
