//! The epoch-compiled cycle plan.
//!
//! An RT-Link cycle is a static program per epoch: which slot carries
//! which flow, who transmits, who listens, and at what cost never change
//! between epoch commits. [`CyclePlan`] is the engine's one per-epoch
//! slot table. It is built straight from the schedule and the flow
//! semantics at setup and at every epoch commit, with every
//! slot-invariant term pre-resolved: dense indices, per-link distances
//! and channel budgets, the cycle-start hook list and bound plant tags.
//! It also carries the occupancy index the slot cursor reads to jump
//! over empty stretches. The hot path is reduced to behavior dispatch
//! and the RNG draws.
//!
//! **The RNG-draw-order invariant.** Per delivered listener, a slot
//! draws the channel PER chance, the link's burst process, then the
//! engine's `extra_loss` chance, in listener order. Building the plan
//! draws nothing. Links with log-normal shadowing enabled get no
//! [`LinkBudget`]: their shadowing realization is drawn lazily from the
//! channel RNG on first use, so pre-resolving it would reorder draws;
//! those listeners fall back to the unbudgeted sampler per delivery.
//!
//! **The build order.** Entries are laid out in slot order, and within
//! a slot in schedule order; listeners in assignment order. The build
//! interns each link's burst state through `Channel::burst_slot` in
//! exactly that order, so it is part of the output.
//!
//! **The rebuild rule.** The plan is rebuilt at engine setup and at
//! epoch commit (`apply_epoch`), both strictly at cycle boundaries. One
//! previous generation is kept so a folded broadcast pushed in the last
//! slots before a commit can still resolve its listener set; deliveries
//! land within their own slot (guard + airtime < slot), so one
//! generation is strictly enough.

use std::collections::HashMap;
use std::mem;

use evm_netsim::{BurstSlot, LinkBudget, NodeId};
use evm_plant::BoundTag;
use evm_sim::SimDuration;

use crate::runtime::driver::Engine;
use crate::runtime::reconfig::ReroutePolicy;
use crate::runtime::topo::FlowKind;

/// One pre-resolved listener of a scheduled transmission.
#[derive(Debug)]
pub(super) struct PlanListener {
    /// The listening node.
    pub(super) id: NodeId,
    /// Its dense topology index (meters / relay cores).
    pub(super) ix: u32,
    /// Fixed owner→listener distance, meters.
    pub(super) distance: f64,
    /// Precomputed deterministic channel terms; `None` when shadowing is
    /// enabled (fall back to the unbudgeted sampler — see module docs).
    pub(super) budget: Option<LinkBudget>,
    /// Interned handle to the link's burst-process state, so the budgeted
    /// sampler skips the per-delivery link-pair hash. Interning draws no
    /// RNG and creates exactly the state lazy first use would.
    pub(super) burst: BurstSlot,
}

/// One scheduled transmission with its slot-invariant terms resolved.
#[derive(Debug)]
pub(super) struct PlanEntry {
    /// The transmitting node.
    pub(super) owner: NodeId,
    /// Its dense topology index.
    pub(super) owner_ix: u32,
    /// The flow semantic served, if any.
    pub(super) kind: Option<FlowKind>,
    /// `true` if an empty slot is keepalive-filled (heartbeat reroute
    /// policy and a relay / control-plane flow).
    pub(super) keepalive_eligible: bool,
    /// Listener range in [`CyclePlan::listeners`].
    pub(super) lo: u32,
    /// Exclusive end of the listener range.
    pub(super) hi: u32,
}

/// The compiled cycle: everything slot-invariant, resolved once per
/// epoch. See the module docs for the invariants.
#[derive(Debug, Default)]
pub(super) struct CyclePlan {
    /// [`CyclePlan::entries`] range per slot (`slots_per_cycle` rows).
    pub(super) per_slot: Vec<(u32, u32)>,
    /// `next_occ[s]` = smallest occupied slot `>= s`, or
    /// `slots_per_cycle` if none; `slots_per_cycle + 1` rows so the
    /// lookup from `s + 1` stays in bounds.
    pub(super) next_occ: Vec<u32>,
    pub(super) entries: Vec<PlanEntry>,
    pub(super) listeners: Vec<PlanListener>,
    /// Listener cost of an empty occupied slot: guard + PHY-header
    /// airtime.
    pub(super) detect: SimDuration,
    /// `true` under the heartbeat reroute policy: transmissions stamp
    /// the liveness ledger and eligible empty slots are keepalive-filled.
    pub(super) keepalives: bool,
    /// Dense indices (ascending) of nodes whose `on_cycle_start` hook
    /// does work — the others are provably no-ops and skipped.
    pub(super) hooks: Vec<u32>,
    /// Pre-bound plant-tag handle per `err_series` row (`None` when the
    /// tag is unpublished: that row is never sampled).
    pub(super) err_tags: Vec<Option<BoundTag>>,
    /// Monotone plan identity; folded broadcasts carry it so delivery
    /// resolves against the generation that scheduled the transmission.
    pub(super) generation: u64,
}

impl CyclePlan {
    /// `true` if some transmission is scheduled in `slot`.
    pub(super) fn is_occupied(&self, slot: usize) -> bool {
        self.per_slot[slot].0 != self.per_slot[slot].1
    }

    /// Virtual-slot distance from unoccupied `slot` to the next stop:
    /// the next occupied slot in this cycle, else the cycle boundary
    /// (slot 0 always fires — sync plus cycle-start housekeeping).
    pub(super) fn slots_until_stop(&self, slot: usize) -> u64 {
        let spc = self.per_slot.len() as u64;
        let next = u64::from(self.next_occ[slot + 1]).min(spc);
        next - slot as u64
    }
}

impl Engine {
    /// Compiles the current `schedule` + `flow_kinds` (plus the
    /// cycle-boundary state) into a fresh [`CyclePlan`], retiring the
    /// previous plan to `plan_prev`. One pass over the placed slots, in
    /// slot order; the empty stretches between and after them are filled
    /// without probing the schedule. Draws no RNG; called at setup and at
    /// epoch commit.
    pub(super) fn rebuild_plan(&mut self) {
        let generation = self.plan.generation + 1;
        let keepalives = self.scenario.reroute == ReroutePolicy::Heartbeat;
        let as_u32 = |n: usize| u32::try_from(n).expect("plan fits u32");
        let spc = self.schedule.slots_per_cycle();
        let mut placed: Vec<_> = self.schedule.placed_slots().collect();
        placed.sort_unstable_by_key(|&(slot, _)| slot);
        let mut per_slot = Vec::with_capacity(spc);
        let mut next_occ = Vec::with_capacity(spc + 1);
        let mut entries = Vec::with_capacity(placed.iter().map(|(_, a)| a.len()).sum());
        let n_listeners = placed
            .iter()
            .flat_map(|&(_, a)| a)
            .map(|a| a.listeners.len());
        let mut listeners = Vec::with_capacity(n_listeners.sum());
        // A link budget depends on the link only through its distance
        // (without shadowing), or is `None` without drawing (with it):
        // fleets repeat a handful of distances, so evaluate each once.
        let mut budgets: HashMap<u64, Option<LinkBudget>> = HashMap::new();
        for (slot, assignments) in placed {
            let slot_lo = as_u32(entries.len());
            // The empty slots before this one stop at it.
            per_slot.resize(slot, (slot_lo, slot_lo));
            next_occ.resize(slot + 1, as_u32(slot));
            for a in assignments {
                let owner = a.owner;
                let owner_ix = self.dense_ix(owner).expect("scheduled owner is deployed");
                let lo = as_u32(listeners.len());
                for &l in &a.listeners {
                    let ix = self.dense_ix(l).expect("scheduled listener is deployed");
                    let distance = self.topology.distance(owner, l);
                    let budget = *budgets
                        .entry(distance.to_bits())
                        .or_insert_with(|| self.channel.link_budget((owner, l), distance));
                    listeners.push(PlanListener {
                        id: l,
                        ix: as_u32(ix),
                        distance,
                        budget,
                        burst: self.channel.burst_slot((owner, l)),
                    });
                }
                let kind = self.flow_kinds.get(&(slot, owner)).copied();
                entries.push(PlanEntry {
                    owner,
                    owner_ix: as_u32(owner_ix),
                    kind,
                    keepalive_eligible: keepalives
                        && matches!(
                            kind,
                            Some(FlowKind::Relay { .. } | FlowKind::ControlPlane { .. })
                        ),
                    lo,
                    hi: as_u32(listeners.len()),
                });
            }
            per_slot.push((slot_lo, as_u32(entries.len())));
        }
        let end = as_u32(entries.len());
        per_slot.resize(spc, (end, end));
        next_occ.resize(spc + 1, as_u32(spc));
        let hooks = self
            .node_ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| self.registry.get(id).is_some_and(|b| b.has_cycle_hook()))
            .map(|(ix, _)| as_u32(ix))
            .collect();
        let err_tags = self
            .err_series
            .iter()
            .map(|(tag, _, _)| self.plant.bind_tag(tag))
            .collect();
        let detect = self.scenario.rtlink.guard
            + evm_netsim::frame::airtime_for_bytes(evm_netsim::PHY_HEADER_BYTES);
        let plan = CyclePlan {
            per_slot,
            next_occ,
            entries,
            listeners,
            detect,
            keepalives,
            hooks,
            err_tags,
            generation,
        };
        self.plan_prev = mem::replace(&mut self.plan, plan);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use evm_mac::rtlink::{SlotAssignment, SlotSchedule};

    use crate::runtime::topo::FlowKind;
    use crate::runtime::{Engine, ScenarioBuilder};

    /// The one-pass build over the placed slots equals probing every slot
    /// of the cycle: same entry ranges, owners, kinds, listeners and
    /// next-occupied index, across gaps, a shared (spatial-reuse) slot,
    /// an empty listener set and the cycle's last slot.
    #[test]
    fn cycle_plan_matches_a_per_slot_probe() {
        const SPC: usize = 40;
        let mut e = Engine::new(ScenarioBuilder::star().head(true).build());
        let id = |k: usize| e.node_ids[k];
        let mut schedule = SlotSchedule::new(SPC);
        for (slot, owner, listeners) in [
            (3, 1, vec![2, 3]),
            (3, 4, vec![5]),
            (4, 2, vec![1]),
            (9, 6, vec![]),
            (17, 1, vec![2]),
            (39, 3, vec![4, 5, 6]),
        ] {
            schedule.assign(SlotAssignment {
                slot,
                owner: id(owner),
                listeners: listeners.into_iter().map(id).collect(),
            });
        }
        let flow_kinds = HashMap::from([
            ((4, id(2)), FlowKind::ControlPublish { vc: 0 }),
            ((39, id(3)), FlowKind::ControlPlane { vc: 1 }),
        ]);
        e.schedule = schedule;
        e.flow_kinds = flow_kinds;
        e.rebuild_plan();
        let (p, schedule) = (&e.plan, &e.schedule);
        assert_eq!(p.per_slot.len(), SPC);
        assert_eq!(p.next_occ.len(), SPC + 1);
        let mut next_entry = 0;
        for slot in 0..SPC {
            let placed = schedule.in_slot(slot);
            let (lo, hi) = p.per_slot[slot];
            assert_eq!(
                (lo, hi as usize),
                (next_entry, next_entry as usize + placed.len())
            );
            for (pe, a) in p.entries[lo as usize..hi as usize].iter().zip(placed) {
                assert_eq!(pe.owner, a.owner);
                assert_eq!(e.node_ids[pe.owner_ix as usize], a.owner);
                assert_eq!(pe.kind, e.flow_kinds.get(&(slot, a.owner)).copied());
                let ls = &p.listeners[pe.lo as usize..pe.hi as usize];
                assert!(ls.iter().map(|l| l.id).eq(a.listeners.iter().copied()));
                assert!(ls.iter().all(|l| e.node_ids[l.ix as usize] == l.id));
            }
            next_entry = hi;
            let next_occ = (slot..SPC)
                .find(|&s| !schedule.in_slot(s).is_empty())
                .unwrap_or(SPC);
            assert_eq!(p.next_occ[slot] as usize, next_occ, "slot {slot}");
            assert_eq!(p.is_occupied(slot), !placed.is_empty());
        }
        assert_eq!(p.entries.len(), 6);
        assert_eq!(p.next_occ[SPC] as usize, SPC);
        assert_eq!(p.slots_until_stop(5), 4);
        assert_eq!(p.slots_until_stop(18), 21);
    }

    /// Link budgets are memoized by distance while the plan is built:
    /// every listener must still carry exactly the budget its own link
    /// gives. The two-hop line has links at several distances with
    /// distinct non-zero error rates, so a wrong memo key shows.
    #[test]
    fn memoized_link_budgets_match_per_link_evaluation() {
        let mut e = Engine::new(
            ScenarioBuilder::star()
                .line(2)
                .sensors(1)
                .controllers(2)
                .actuators(1)
                .head(true)
                .build(),
        );
        let mut distinct = Vec::new();
        for entry in &e.plan.entries {
            for l in &e.plan.listeners[entry.lo as usize..entry.hi as usize] {
                let fresh = e.channel.link_budget((entry.owner, l.id), l.distance);
                assert_eq!(l.budget, fresh, "{} -> {}", entry.owner, l.id);
                if !distinct.contains(&fresh) {
                    distinct.push(fresh);
                }
            }
        }
        assert!(
            distinct.len() >= 3,
            "the line must exercise several distinct budgets"
        );
    }
}
