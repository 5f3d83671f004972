//! The epoch-compiled cycle plan.
//!
//! An RT-Link cycle is a static program per epoch: which slot carries
//! which flow, who transmits, who listens, and at what cost never change
//! between epoch commits. The direct slot body nevertheless re-resolves
//! all of it every slot — dense-index lookups, `topology.distance` per
//! listener per delivery, the O-QPSK BER series per delivery, airtime
//! arithmetic per frame, two full-registry scans per cycle boundary and a
//! string-keyed plant-tag read per VC per cycle. [`CyclePlan`] applies
//! the same compile-don't-interpret move the capsule tiers applied to
//! bytecode one layer down: at setup and at every epoch commit the
//! [`super::driver::SlotTable`] is lowered into flat records with every
//! slot-invariant term pre-resolved, and the hot path is reduced to the
//! RNG draws.
//!
//! **The RNG-draw-order invariant.** The planned path must consume the
//! engine and channel RNG streams draw-for-draw like the direct path:
//! per delivered listener, the channel PER chance, the link's burst
//! process, then the engine's `extra_loss` chance — in listener order.
//! Plan compilation itself draws nothing (it is built unconditionally in
//! both modes). Links with log-normal shadowing enabled get no
//! [`LinkBudget`] — their shadowing realization is drawn lazily from the
//! channel RNG on first use, so pre-resolving it would reorder draws;
//! those listeners fall back to the unbudgeted sampler per delivery.
//!
//! **The rebuild rule.** The plan is rebuilt exactly where the slot
//! table is: at engine setup and at epoch commit (`apply_epoch`), both
//! strictly at cycle boundaries. One previous generation is kept so a
//! folded broadcast pushed in the last slots before a commit can still
//! resolve its listener set; deliveries land within their own slot
//! (guard + airtime < slot), so one generation is strictly enough.

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
    /// [`CyclePlan::entries`] range per slot.
    pub(super) per_slot: Vec<(u32, u32)>,
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
    /// tag is unpublished, mirroring the direct path's silent skip).
    pub(super) err_tags: Vec<Option<BoundTag>>,
    /// Monotone plan identity; folded broadcasts carry it so delivery
    /// resolves against the generation that scheduled the transmission.
    pub(super) generation: u64,
}

impl Engine {
    /// Lowers the current slot table (plus the cycle-boundary state) into
    /// a fresh [`CyclePlan`], retiring the previous plan to
    /// `plan_prev`. Draws no RNG; called at setup and at epoch commit in
    /// both plan modes so engine state stays uniform.
    pub(super) fn rebuild_plan(&mut self) {
        let generation = self.plan.generation + 1;
        let keepalives = self.scenario.reroute == ReroutePolicy::Heartbeat;
        // Lift the table out so the channel can be borrowed mutably while
        // walking it; nothing below touches the table's owner.
        let table = mem::take(&mut self.slot_table);
        let mut entries = Vec::with_capacity(table.entries.len());
        let mut listeners = Vec::with_capacity(table.listeners.len());
        // A link budget depends on the link only through its distance
        // (without shadowing), or is `None` without drawing (with it):
        // fleets repeat a handful of distances, so evaluate each once.
        let mut budgets: HashMap<u64, Option<LinkBudget>> = HashMap::new();
        for e in &table.entries {
            let owner_ix = self.dense_ix(e.owner).expect("scheduled owner is deployed");
            let lo = u32::try_from(listeners.len()).expect("listener count fits u32");
            for &l in table.listeners_of(e) {
                let ix = self.dense_ix(l).expect("scheduled listener is deployed");
                let distance = self.topology.distance(e.owner, l);
                let budget = *budgets
                    .entry(distance.to_bits())
                    .or_insert_with(|| self.channel.link_budget((e.owner, l), distance));
                listeners.push(PlanListener {
                    id: l,
                    ix: u32::try_from(ix).expect("dense index fits u32"),
                    distance,
                    budget,
                    burst: self.channel.burst_slot((e.owner, l)),
                });
            }
            let hi = u32::try_from(listeners.len()).expect("listener count fits u32");
            entries.push(PlanEntry {
                owner: e.owner,
                owner_ix: u32::try_from(owner_ix).expect("dense index fits u32"),
                kind: e.kind,
                keepalive_eligible: keepalives
                    && matches!(
                        e.kind,
                        Some(FlowKind::Relay { .. } | FlowKind::ControlPlane { .. })
                    ),
                lo,
                hi,
            });
        }
        let per_slot = table.per_slot.clone();
        self.slot_table = table;
        let hooks = self
            .node_ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| self.registry.get(id).is_some_and(|b| b.has_cycle_hook()))
            .map(|(ix, _)| u32::try_from(ix).expect("dense index fits u32"))
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
    use crate::runtime::{Engine, ScenarioBuilder};

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
