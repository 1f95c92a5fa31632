//! Moving KV state: preemption (eviction + recompute), the pressure-relief
//! policy of [`IterCtx::append_with_pressure`], and live migration between
//! shards — a migration *is* an eviction whose replay chain re-admits on
//! another shard — with the scheduler's own trigger, the headroom rebalance.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;

use hidet_trace::SpanKind;

use super::config::DecodeError;
use super::registry::def_key;
use super::schedule::{IterCtx, SlotState};
use super::session::Sequence;
use super::shard::{refresh_shard_kv_gauge, ShardRt, Shared};
use crate::kv::{KvAllocator, KvError, KvSlot};

/// Pressure-relief migrations one sequence may take before it must stay put
/// and requeue locally — two overloaded shards cannot ping-pong a session
/// between them forever.
const PRESSURE_MOVE_LIMIT: u32 = 3;

/// KV in-use fraction of the fullest shard above which the rebalancer
/// considers moving a session off it at all.
const REBALANCE_HOT_FRACTION: f64 = 0.75;

/// KV in-use fraction gap between the fullest and emptiest shard above
/// which one session migrates hot → cold.
const REBALANCE_SKEW: f64 = 0.5;

/// Outer scheduler iterations between rebalance moves, so each move lands
/// and shows up in the gauges before the next is considered.
pub(super) const REBALANCE_COOLDOWN_ITERS: u64 = 8;

/// The pool's KV headroom as one scheduler pass sees it: `(free, capacity)`
/// blocks per `(shard, model)` arena, debited as migration targets are
/// chosen within the pass so two victims cannot both claim the same free
/// blocks. Arenas that do not exist yet count as full free arenas.
pub(super) struct ClusterView {
    free: Vec<HashMap<usize, (usize, usize)>>,
    default_blocks: usize,
}

impl ClusterView {
    pub(super) fn collect(shards: &[ShardRt], default_blocks: usize) -> ClusterView {
        ClusterView {
            free: shards.iter().map(ShardRt::kv_headroom).collect(),
            default_blocks,
        }
    }

    fn entry(&self, shard: usize, model: usize) -> (usize, usize) {
        self.free[shard]
            .get(&model)
            .copied()
            .unwrap_or((self.default_blocks, self.default_blocks))
    }

    /// The shard (≠ `from`) with the most free blocks, if any has `needed`
    /// free right now; ties to the lowest id.
    fn headroom_target(&self, from: usize, model: usize, needed: usize) -> Option<usize> {
        (0..self.free.len())
            .filter(|&s| s != from && self.entry(s, model).0 >= needed)
            .max_by_key(|&s| (self.entry(s, model).0, std::cmp::Reverse(s)))
    }

    fn debit(&mut self, shard: usize, model: usize, needed: usize) {
        let (free, cap) = self.entry(shard, model);
        self.free[shard].insert(model, (free.saturating_sub(needed), cap));
    }
}

/// Preempts `seq` under KV pressure: releases its blocks and rebuilds its
/// feed chain so that — once re-admitted — every cached token is re-fed
/// (outputs ignored), then the pending one, then whatever was already
/// forced. Recompute is invisible to the client: tokens already emitted are
/// never re-emitted, and determinism makes the replayed cache identical.
fn preempt(shared: &Shared, kv: &mut KvAllocator, seq: &mut Sequence) {
    hidet_trace::global().instant(SpanKind::KvEvict, seq.trace_id);
    kv.release(&mut seq.kv);
    shared.stats.kv_evictions.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .recomputed_tokens
        .fetch_add(seq.fed.len(), Ordering::Relaxed);
    let mut chain: VecDeque<u32> = seq.fed.drain(..).collect();
    chain.push_back(seq.pending);
    chain.extend(seq.forced.drain(..));
    seq.pending = chain.pop_front().expect("fed chain non-empty");
    seq.forced = chain;
}

/// Moves a preempted sequence onto shard `to`'s queue front: rebases its
/// time anchors onto the target clock and books the migration counters.
/// The caller has already released its KV blocks and rebuilt its replay
/// chain ([`preempt`]) — re-admission replays it on the target, where
/// order-stable schedules make the rebuilt KV bytes (and every downstream
/// token) identical.
pub(super) fn migrate_sequence(shared: &Shared, mut seq: Sequence, from: usize, to: usize) {
    hidet_trace::global().instant(SpanKind::KvMigrate, seq.trace_id);
    seq.rebase(shared.stats.shard_clock(to) - shared.stats.shard_clock(from));
    shared.stats.shards[from]
        .migrations_out
        .fetch_add(1, Ordering::Relaxed);
    shared.stats.shards[to]
        .migrations_in
        .fetch_add(1, Ordering::Relaxed);
    let mut waiting = shared.waiting.lock().expect("waiting poisoned");
    waiting.shards[to].push_front(seq.priority, seq);
    drop(waiting);
    shared.cv.notify_all();
}

/// Preempt-and-relocate on the active set — the one primitive behind every
/// migration that starts outside a forward pass (the headroom rebalance, a
/// [`Stepper::relocate`](super::stepper::Stepper::relocate) policy): takes
/// `shard.active[i]` off shard `from`, frees its KV blocks and rebuilds its
/// replay chain ([`preempt`]), refreshes the shard's occupancy gauge and
/// re-admits the sequence on shard `to` ([`migrate_sequence`]).
pub(super) fn relocate(shared: &Shared, shard: &mut ShardRt, from: usize, i: usize, to: usize) {
    let mut seq = shard.active.remove(i);
    if let Some(rt) = shard.rts.get_mut(&def_key(&seq.def)) {
        preempt(shared, &mut rt.kv, &mut seq);
    }
    refresh_shard_kv_gauge(&shard.rts, shared, from);
    migrate_sequence(shared, seq, from, to);
}

/// `(hot, cold)` shard pair when KV occupancy skews: the fullest shard is
/// above [`REBALANCE_HOT_FRACTION`] and leads the emptiest by more than
/// [`REBALANCE_SKEW`].
fn kv_skew(shards: &[ShardRt]) -> Option<(usize, usize)> {
    let frac: Vec<f64> = shards
        .iter()
        .map(|sh| {
            let cap: usize = sh.rts.values().map(|rt| rt.kv.capacity()).sum();
            let used: usize = sh.rts.values().map(|rt| rt.kv.blocks_in_use()).sum();
            if cap == 0 {
                0.0
            } else {
                used as f64 / cap as f64
            }
        })
        .collect();
    let mut hot = 0usize;
    let mut cold = 0usize;
    for s in 1..frac.len() {
        if frac[s] > frac[hot] {
            hot = s;
        }
        if frac[s] < frac[cold] {
            cold = s;
        }
    }
    (frac[hot] >= REBALANCE_HOT_FRACTION && frac[hot] - frac[cold] > REBALANCE_SKEW)
        .then_some((hot, cold))
}

/// Headroom rebalance: when KV occupancy skews ([`kv_skew`]), relocates the
/// lowest-ranked hot-shard session whose worst-case block need fits the cold
/// shard's free blocks right now. Returns whether a session moved (the step
/// loop then holds off for [`REBALANCE_COOLDOWN_ITERS`]).
pub(super) fn rebalance(shared: &Shared, shards: &mut [ShardRt]) -> bool {
    let Some((hot, cold)) = kv_skew(shards) else {
        return false;
    };
    let config = &shared.config;
    let cold_free = shards[cold].kv_headroom();
    let shard = &mut shards[hot];
    let pick = (0..shard.active.len())
        .filter(|&i| {
            let seq = &shard.active[i];
            let model = def_key(&seq.def);
            let needed = seq.cache_need.div_ceil(config.block_tokens);
            // An arena that does not exist yet is a full free arena.
            let free = cold_free.get(&model).map_or(config.kv_blocks, |e| e.0);
            needed <= free && shard.rts.contains_key(&model)
        })
        .max_by_key(|&i| shard.active[i].key());
    let Some(i) = pick else {
        return false;
    };
    relocate(shared, shard, hot, i, cold);
    true
}

/// Selects the eviction victim for `requester`: the strictly lower-ranked
/// (greatest `(priority, rank)` key) live sequence still holding blocks.
/// `None` when no such victim exists — the requester itself must fail.
fn pick_victim(batch: &[Sequence], state: &[SlotState], requester: usize) -> Option<usize> {
    let req_key = batch[requester].key();
    (0..batch.len())
        .filter(|&i| i != requester && state[i] == SlotState::Live)
        .filter(|&i| batch[i].kv.blocks() > 0)
        .filter(|&i| batch[i].key() > req_key)
        .max_by_key(|&i| batch[i].key())
}

impl IterCtx<'_> {
    /// Reserves one KV token slot for `batch[slot]`, evicting under
    /// pressure. The strictly lower-ranked victim is preempted first —
    /// landing on the pool's roomiest other shard ([`SlotState::Migrated`])
    /// when one has the headroom, locally otherwise. With no victim the
    /// requester yields itself: to a shard with free blocks, else locally
    /// when an arena could hold it alone. [`DecodeError::KvExhausted`]
    /// surfaces only when none could — every arena in the pool has the same
    /// `kv_blocks` capacity, so this arena's answers for all of them.
    /// Returns `None` when the slot itself was preempted, migrated or
    /// dropped — `state` and `terminal` already reflect it.
    pub(super) fn append_with_pressure(
        &mut self,
        kv: &mut KvAllocator,
        slot: usize,
    ) -> Option<KvSlot> {
        loop {
            match kv.append(&mut self.batch[slot].kv) {
                Ok(kvslot) => {
                    hidet_trace::global().instant(SpanKind::KvAlloc, self.batch[slot].trace_id);
                    return Some(kvslot);
                }
                Err(KvError::Exhausted) => {
                    // Yield the victim if there is one and retry, else the
                    // requester itself — which ends this append (`victim?`).
                    let victim = pick_victim(&self.batch, &self.state, slot);
                    let i = victim.unwrap_or(slot);
                    let needed = kv.layout().blocks_for(self.batch[i].cache_need);
                    if victim.is_none() && needed > kv.capacity() {
                        self.fail_slot(kv, slot, DecodeError::KvExhausted);
                    } else {
                        let target = self.relief_target(i, needed);
                        self.displace(kv, i, target, needed);
                    }
                    victim?;
                }
            }
        }
    }

    /// The pressure-relief destination for `batch[i]`: the pool's roomiest
    /// other shard with `needed` blocks free right now. Each grant counts
    /// against the sequence's [`PRESSURE_MOVE_LIMIT`]; past the cap it
    /// behaves single-shard.
    fn relief_target(&mut self, i: usize, needed: usize) -> Option<usize> {
        let seq = &mut self.batch[i];
        if seq.pressure_moves >= PRESSURE_MOVE_LIMIT {
            return None;
        }
        let target = self
            .view
            .headroom_target(self.shard, def_key(&seq.def), needed)?;
        seq.pressure_moves += 1;
        Some(target)
    }

    /// The one preempt/debit/mark step of pressure relief: frees
    /// `batch[i]`'s blocks and rebuilds its replay chain, then books it onto
    /// shard `target` — debiting the pass's headroom view so a later victim
    /// cannot claim the same free blocks — or, with no target, back onto
    /// this shard's queue.
    fn displace(&mut self, kv: &mut KvAllocator, i: usize, target: Option<usize>, needed: usize) {
        preempt(self.shared, kv, &mut self.batch[i]);
        self.state[i] = match target {
            Some(t) => {
                self.view.debit(t, def_key(&self.batch[i].def), needed);
                SlotState::Migrated(t)
            }
            None => SlotState::Evicted,
        };
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};

    use hidet_runtime::Priority;

    use super::super::registry::{validate_spec, DecodeModelSpec};
    use super::super::session::GenerateRequest;
    use super::*;
    use crate::kv::KvLayout;

    #[test]
    fn eviction_order_is_total_and_priority_first() {
        let (tx, _rx) = mpsc::channel();
        let def = Arc::new(
            validate_spec(&DecodeModelSpec::transformer("m", 1, 16, 2, 8, 8), 2, &[]).unwrap(),
        );
        let seq = |priority: Priority, rank: u64, blocks: usize| {
            let request = GenerateRequest::new(vec![0], 4).with_priority(priority);
            let mut seq = Sequence::new(Arc::clone(&def), request, tx.clone());
            seq.rank = rank;
            // Fake block ownership via a real allocator.
            let mut alloc = KvAllocator::new(
                KvLayout {
                    layers: 1,
                    hidden: 16,
                    block_tokens: 1,
                },
                4,
            );
            for _ in 0..blocks {
                alloc.append(&mut seq.kv).unwrap();
            }
            seq
        };
        let batch = vec![
            seq(Priority::High, 1, 1),
            seq(Priority::Normal, 2, 1),
            seq(Priority::BestEffort, 3, 1),
            seq(Priority::BestEffort, 4, 0), // no blocks: never a victim
        ];
        let state = vec![SlotState::Live; 4];
        // High evicts the youngest best-effort holder.
        assert_eq!(pick_victim(&batch, &state, 0), Some(2));
        // Best-effort rank 3 can only evict strictly lower-ranked peers —
        // none here hold blocks.
        assert_eq!(pick_victim(&batch, &state, 2), None);
        // Normal evicts best-effort but never High.
        assert_eq!(pick_victim(&batch, &state, 1), Some(2));
    }
}
