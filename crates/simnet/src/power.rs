//! Finite energy on a shard: battery drain projection and node death.
//!
//! Dying is a two-phase affair in the sharded world. The *kill* —
//! silencing the radios, freezing the ledgers, cancelling the corpse's
//! timers — is entirely local to the owning shard and happens at the
//! exact depletion instant. The *announcement* — route repair, shortcut
//! invalidation, the shared liveness snapshot — is a [`GlobalEv::NodeDied`]
//! that reaches the coordinator one link latency later, exactly like any
//! other cross-node signal, so it can never land inside the conservative
//! window that produced it. Survivors therefore route around a corpse
//! one link latency after the battery empties, identically for every
//! shard count.

use crate::channel::Local;
use crate::events::{Ev, GlobalEv};
use crate::shard::{ShardCtx, ShardState};
use bcp_power::BatteryModel;
use bcp_sim::trace::TraceEvent;

impl ShardState {
    /// Syncs `node`'s battery against its energy meters and (re)schedules
    /// the projected depletion instant. Call after anything that changes a
    /// radio's power draw; no-op for mains-powered or already-dead nodes.
    ///
    /// Radio draw is piecewise constant between events, so the projection
    /// is exact: the node dies *at* the scheduled `PowerCheck`, not within
    /// some polling window, and death times are seed-reproducible.
    pub(crate) fn power_touch(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        let now = ctx.now();
        let (node, ix) = (at.id, at.ix());
        let (metered, draw) = {
            let n = &self.nodes[ix];
            if n.supply.is_none() || !n.is_alive() {
                return;
            }
            (n.metered_total(now), n.current_draw())
        };
        let (depleted, remaining_j) = {
            let supply = self.nodes[ix].supply.as_mut().expect("checked above");
            supply.sync_to(metered);
            (
                supply.is_depleted_at(draw),
                supply.battery().remaining().as_joules(),
            )
        };
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::PowerStep {
            node: node.0,
            remaining_j,
        });
        if depleted {
            self.kill_node(ctx, at);
            return;
        }
        let supply = self.nodes[ix].supply.as_ref().expect("checked above");
        match supply.time_to_depletion(draw) {
            Some(d) => self.arm(ctx, at, d, Ev::PowerCheck { node }),
            None => self.disarm(ctx, at, Ev::PowerCheck { node }),
        }
    }

    /// The battery emptied: cut power, silence the corpse, and let the
    /// survivors know — one link latency later — via
    /// [`GlobalEv::NodeDied`].
    fn kill_node(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        let now = ctx.now();
        let node = at.id;
        {
            let n = &mut self.nodes[at.ix()];
            debug_assert!(n.is_alive(), "{node} died twice");
            // Close the meters at the instant of death, then cut power so
            // the ledgers freeze (a dead node's ledger stops accumulating).
            let metered = n.metered_total(now);
            if let Some(s) = n.supply.as_mut() {
                s.sync_to(metered);
            }
            n.low_radio.force_off(now);
            if let Some(hr) = n.high_radio.as_mut() {
                hr.force_off(now);
            }
            n.died_at = Some(now);
        }
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::NodeDeath { node: node.0 });
        // Stale events are alive-guarded anyway; cancelling keeps the
        // queue small. The LPL wake-sample chain goes with the rest (its
        // doze draw is gone too: force_off already cut the radio).
        for (_, id) in std::mem::take(&mut self.timers[at.ix()]) {
            ctx.cancel(id);
        }
        self.lpl_audible.remove(&node.0);
        ctx.global(
            now + self.death_latency,
            GlobalEv::NodeDied { node, at: now },
        );
    }
}
