//! Layer replay probes: each layer's public function, timed on the
//! workload's own inputs, outside any engine run.
//!
//! * setup replay — `TopologySpec::try_resolve` and
//!   `Reconfigurator::compute` exactly as `Engine::try_new` calls them
//!   (same seed, same channel stream), plus the work counts of the
//!   resulting epoch;
//! * `Vm::run` on every `Tier` over the workload's compiled control laws;
//! * `Plant::step` at the workload's `plant_dt`;
//! * `Channel::sample_delivery` over the workload's scheduled link
//!   distances;
//! * `EventQueue::push` + `pop` at the workload's queue depth.

use std::hint::black_box;
use std::time::Instant;

use evm_core::bytecode::{compile_control_law, control_law_gas_budget, NullEnv};
use evm_core::runtime::{Reconfigurator, Scenario};
use evm_core::{ControlLawSpec, Tier, Vm};
use evm_netsim::{Channel, Frame, FrameKind, NodeId};
use evm_plant::{GasPlant, Plant};
use evm_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::stats::median;
use crate::workloads::secs;

/// Payload of the most frequent frame, a sensor reading.
const SENSOR_PAYLOAD_BYTES: usize = 12;
/// Link distances kept per scenario for the channel probe.
const MAX_LINKS: usize = 4096;

/// Setup-layer replay of one scenario (or, absorbed, of a sweep pass):
/// times of the two setup layers and run-total work counts.
#[derive(Debug, Default, Clone)]
pub struct SetupReplay {
    pub resolve_s: f64,
    pub compute_s: f64,
    pub nodes: u64,
    pub links: u64,
    pub flows: u64,
    pub vcs: u64,
    pub controllers: u64,
    /// Occupied slots per cycle (the sync slot included).
    pub occupied_slots: u64,
    /// Simulated slots over the run.
    pub slots: u64,
    /// Occupied-slot visits over the run.
    pub occupied_visits: u64,
    /// Estimated frame deliveries sampled: listeners of every scheduled
    /// slot, every cycle.
    pub deliveries: u64,
    /// Estimated capsule runs: each replica computes at most once a cycle.
    pub vm_runs: u64,
    pub plant_steps: u64,
    /// Estimated queue push/pop pairs: plant steps, samples and one
    /// folded broadcast per occupied-slot visit.
    pub queue_ops: u64,
    /// Distances of the scheduled (owner, listener) pairs.
    pub link_distances: Vec<f64>,
}

impl SetupReplay {
    /// Replays the setup prefix of `Engine::try_new` on `s`.
    pub fn of(s: &Scenario) -> Self {
        let mut rng = SimRng::seed_from(s.seed);
        let mut channel = Channel::new(s.channel.clone(), rng.fork(1));
        let t0 = Instant::now();
        let (topology, vcs) = s
            .topology
            .try_resolve(&mut channel)
            .expect("workload topology resolves");
        let t1 = Instant::now();
        let epoch = Reconfigurator::compute(
            0,
            &topology,
            &[],
            &vcs,
            &s.rtlink,
            s.serial_schedule,
            s.transfer_slots,
        )
        .expect("workload flows route and schedule");
        let t2 = Instant::now();

        let mut occupied_slots = 0;
        let mut deliveries_per_cycle = 0;
        let mut link_distances = Vec::new();
        for slot in 0..epoch.schedule.slots_per_cycle() {
            let assigned = epoch.schedule.in_slot(slot);
            if slot == 0 || !assigned.is_empty() {
                occupied_slots += 1;
            }
            for a in assigned {
                deliveries_per_cycle += a.listeners.len() as u64;
                for &l in &a.listeners {
                    link_distances.push(topology.distance(a.owner, l));
                }
            }
        }
        if link_distances.len() > MAX_LINKS {
            let stride = link_distances.len().div_ceil(MAX_LINKS);
            link_distances = link_distances.into_iter().step_by(stride).collect();
        }
        let links: usize = topology
            .nodes()
            .iter()
            .map(|n| topology.neighbors(n.id).len())
            .sum();
        let cycles = s.duration / s.rtlink.cycle_duration();
        let controllers = vcs.all_controllers().count() as u64;
        let plant_steps = s.duration / s.plant_dt;
        SetupReplay {
            resolve_s: secs(t0, t1),
            compute_s: secs(t1, t2),
            nodes: topology.len() as u64,
            links: links as u64 / 2,
            flows: epoch.flow_kinds.len() as u64,
            vcs: vcs.n_vcs() as u64,
            controllers,
            occupied_slots,
            slots: s.duration / s.rtlink.slot_duration,
            occupied_visits: occupied_slots * cycles,
            deliveries: deliveries_per_cycle * cycles,
            vm_runs: controllers * cycles,
            plant_steps,
            queue_ops: plant_steps + s.duration / s.sample_every + occupied_slots * cycles,
            link_distances,
        }
    }

    /// Adds another scenario's replay (a sweep pass sums its cells).
    pub fn absorb(&mut self, o: &SetupReplay) {
        self.resolve_s += o.resolve_s;
        self.compute_s += o.compute_s;
        self.nodes += o.nodes;
        self.links += o.links;
        self.flows += o.flows;
        self.vcs += o.vcs;
        self.controllers += o.controllers;
        self.occupied_slots += o.occupied_slots;
        self.slots += o.slots;
        self.occupied_visits += o.occupied_visits;
        self.deliveries += o.deliveries;
        self.vm_runs += o.vm_runs;
        self.plant_steps += o.plant_steps;
        self.queue_ops += o.queue_ops;
        self.link_distances.extend_from_slice(&o.link_distances);
    }
}

/// Median nanoseconds per call of `op`, over `reps` batches of `calls`
/// calls after one warm-up batch.
fn ns_per_call(reps: usize, calls: u32, mut op: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for r in 0..=reps {
        let t = Instant::now();
        for _ in 0..calls {
            op();
        }
        if r > 0 {
            samples.push(t.elapsed().as_nanos() as f64 / f64::from(calls));
        }
    }
    median(&samples)
}

/// `Vm::run` per tier on the workload's compiled control laws, weighted
/// by how many VCs host each law: `[interp, fused, compiled]` ns per run,
/// and gas per run.
pub fn vm_probe(scenarios: &[&Scenario]) -> ([f64; 3], f64) {
    let mut laws: Vec<(ControlLawSpec, f64, u64)> = Vec::new();
    for s in scenarios {
        for vc in 0..s.n_vcs() {
            let spec = s.vc_loop(vc as evm_core::VcId);
            let law = ControlLawSpec::from_loop(spec);
            match laws.iter_mut().find(|(l, _, _)| *l == law) {
                Some(entry) => entry.2 += 1,
                None => laws.push((law, spec.setpoint, 1)),
            }
        }
    }
    let total: u64 = laws.iter().map(|l| l.2).sum();
    let mut ns = [0.0; 3];
    let mut gas = 0.0;
    for (law, setpoint, weight) in &laws {
        let w = *weight as f64 / total as f64;
        let program = compile_control_law(law);
        for (k, tier) in [Tier::Interp, Tier::Fused, Tier::Compiled]
            .into_iter()
            .enumerate()
        {
            let mut vm = Vm::with_tier(control_law_gas_budget(&program), tier);
            let mut env = NullEnv {
                sensor_value: setpoint * 0.98,
                ..NullEnv::default()
            };
            ns[k] += w * ns_per_call(5, 20_000, || {
                env.writes.clear();
                env.emissions.clear();
                black_box(vm.run(black_box(&program), &mut env).ok());
            });
            if k == 0 {
                gas += w * vm.gas_used() as f64;
            }
        }
    }
    (ns, gas)
}

/// `Plant::step` at `plant_dt`, µs per step.
pub fn plant_probe(plant_dt: SimDuration) -> f64 {
    let mut plant = GasPlant::default();
    let dt = plant_dt.as_secs_f64();
    1e-3 * ns_per_call(5, 400, || plant.step(black_box(dt)))
}

/// `Channel::sample_delivery` over `distances`, ns per call; and the
/// budgeted path the engine's cycle plans take for the same links
/// (`Channel::sample_delivery_budget`), or `None` when the channel's
/// shadowing leaves links unbudgeted.
pub fn channel_probe(s: &Scenario, distances: &[f64]) -> (f64, Option<f64>) {
    assert!(!distances.is_empty(), "every workload schedules a link");
    let mut rng = SimRng::seed_from(s.seed);
    let mut channel = Channel::new(s.channel.clone(), rng.fork(1));
    let frame = Frame::new(NodeId(0), FrameKind::Broadcast, SENSOR_PAYLOAD_BYTES, 0);
    let links: Vec<((NodeId, NodeId), f64)> = distances
        .iter()
        .enumerate()
        .map(|(k, &d)| ((frame.src, NodeId(1 + (k % 64) as u16)), d))
        .collect();
    let calls = 50_000u32.div_ceil(links.len() as u32) * links.len() as u32;
    let mut k = 0usize;
    let plain = ns_per_call(5, calls, || {
        let ((_, dst), d) = links[k % links.len()];
        black_box(channel.sample_delivery(&frame, dst, black_box(d)));
        k += 1;
    });
    let budgets: Option<Vec<_>> = links
        .iter()
        .map(|&(link, d)| Some((channel.burst_slot(link), channel.link_budget(link, d)?)))
        .collect();
    let budgeted = budgets.map(|budgets| {
        let air = frame.air_bytes();
        ns_per_call(5, calls, || {
            let (slot, budget) = budgets[k % budgets.len()];
            black_box(channel.sample_delivery_budget(slot, budget, air));
            k += 1;
        })
    });
    (plain, budgeted)
}

/// `EventQueue::push` + `pop` at a steady `depth`, ns per pair.
pub fn queue_probe(depth: usize) -> f64 {
    let mut queue: EventQueue<[u64; 3]> = EventQueue::new();
    let step = SimDuration::from_micros(977);
    let mut t = SimTime::ZERO;
    for k in 0..depth.max(1) {
        queue.push(t + step * (k as u64 % 97), [k as u64; 3]);
    }
    ns_per_call(5, 200_000, || {
        let (at, ev) = queue.pop().expect("queue stays at depth");
        t = at;
        queue.push(at + step * (1 + ev[0] % 97), black_box(ev));
    })
}

/// `try_resolve` on the 10k- and 5k-VC fleet topologies: the ratio of
/// their medians over `reps` replays (≈ 4 means quadratic, ≈ 2 linear).
pub fn resolve_ratio(seed: u64, reps: usize) -> f64 {
    let time = |n: usize| {
        let s = Scenario::builder().fleet(n).seed(seed).build();
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let mut rng = SimRng::seed_from(s.seed);
                let mut channel = Channel::new(s.channel.clone(), rng.fork(1));
                let t = Instant::now();
                black_box(s.topology.try_resolve(&mut channel).ok());
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    let small = time(5_000);
    time(10_000) / small
}
