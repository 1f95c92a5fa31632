//! The iteration-level scheduler: the [`Scheduler`] core (admission,
//! deadlines, one pass per shard, the rebalance trigger, gauge publish), its
//! thread driver ([`step_loop`]), and the iteration the core runs per shard ×
//! model — a prefill phase, then one decode step — both through the one
//! forward-pass routine ([`IterCtx::forward`]).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, MutexGuard};
use std::time::Instant;

use hidet::CompilerOptions;
use hidet_runtime::CompiledCache;
use hidet_sim::Gpu;
use hidet_trace::SpanKind;

use super::config::DecodeError;
use super::migrate::{migrate_sequence, rebalance, ClusterView, REBALANCE_COOLDOWN_ITERS};
use super::registry::def_key;
use super::session::{Event, Sequence, TokenEvent, Waiting};
use super::shard::{refresh_shard_kv_gauge, ModelRt, ShardRt, Shared};
use crate::kv::KvAllocator;

/// Additive mask value for non-attendable positions: large enough that
/// `exp(score + MASK)` underflows to exactly `0.0` after the row-max shift,
/// making padded positions bit-transparent to softmax.
const MASK_NEG: f32 = -1.0e9;

/// The compiler options every decode and prefill graph is built with.
/// **Compact schedules** ([`hidet::MatmulChoice::Compact`]): decode-step
/// GEMMs are skinny — M is a handful of tokens — so the mid-size default tile
/// wastes almost the whole block on predicated-out work, and the compiler
/// gives every matmul the smallest-footprint tile of the space with zero
/// trials. And order-stable reductions: the chunked-prefill
/// contract — token streams and KV contents bit-identical to token-wise
/// absorption — holds only when every reduction in *both* graph families
/// accumulates in pure element-index order, so the same real terms sum in
/// the same order regardless of how many padded positions surround them (see
/// `CompilerOptions::order_stable_reductions`).
fn decode_options() -> CompilerOptions {
    CompilerOptions::compact().order_stable()
}

/// The iteration-level scheduler core: everything the engine's schedule
/// depends on besides [`Shared`]. Host time enters only as the `now` a
/// driver passes to [`Scheduler::iterate`] — the background thread
/// ([`step_loop`]) reads the wall clock, a
/// [`Stepper`](super::stepper::Stepper) is handed it — so the same calls in
/// the same order produce the same schedule on either.
pub(super) struct Scheduler {
    /// One per device; within a shard, per-`ModelDef` runtimes are keyed by
    /// definition identity — a re-registered name gets fresh state while
    /// in-flight sessions keep theirs.
    pub(super) shards: Vec<ShardRt>,
    cache: CompiledCache,
    options: CompilerOptions,
    /// Iterations left before [`rebalance`] may move another session.
    rebalance_cooldown: u64,
}

/// The thread driver: runs scheduler iterations on the wall clock, sleeping
/// on the waiting condvar while nothing is active, until the engine is shut
/// down and drained. The [`Scheduler`] is built here, on the step thread, so
/// `DecodeEngine::new` returns without paying for it.
pub(super) fn step_loop(shared: &Shared) {
    let mut scheduler = Scheduler::new(shared);
    let mut waiting = shared.waiting.lock().expect("waiting poisoned");
    loop {
        waiting = match scheduler.iterate(shared, waiting, Instant::now()) {
            None => shared.waiting.lock().expect("waiting poisoned"),
            Some(idle) => {
                if shared.closed.load(Ordering::SeqCst) && idle.is_empty() {
                    return;
                }
                shared.cv.wait(idle).expect("waiting poisoned")
            }
        };
    }
}

impl Scheduler {
    pub(super) fn new(shared: &Shared) -> Scheduler {
        Scheduler {
            shards: shared
                .config
                .devices
                .iter()
                .map(|spec| ShardRt {
                    gpu: Gpu::new(spec.clone()),
                    rts: Default::default(),
                    active: Vec::new(),
                })
                .collect(),
            cache: CompiledCache::new(),
            options: decode_options(),
            rebalance_cooldown: 0,
        }
    }

    /// One scheduler iteration at host instant `now` — the only routine that
    /// runs one, called by both drivers: admission under the waiting lock,
    /// then, with the lock released, one pass per shard. When nothing is
    /// active after admission no pass runs and the lock is handed back
    /// instead, still held, so the thread driver can test its exit condition
    /// and sleep on the condvar without a window in which a wake-up is lost.
    pub(super) fn iterate<'w>(
        &mut self,
        shared: &Shared,
        mut waiting: MutexGuard<'w, Waiting>,
        now: Instant,
    ) -> Option<MutexGuard<'w, Waiting>> {
        if !self.admit(shared, &mut waiting, now) {
            return Some(waiting);
        }
        drop(waiting);
        self.advance(shared, now);
        None
    }

    /// Everything done under the waiting lock: deadline and shutdown purges
    /// of the queues, admission into free slots, and the sweep of departed
    /// model definitions. Returns whether any shard has an active sequence.
    fn admit(&mut self, shared: &Shared, waiting: &mut Waiting, now: Instant) -> bool {
        let closed = shared.closed.load(Ordering::SeqCst);
        // Expired sessions fail; on shutdown so do those that never started
        // (rank 0 — assigned at first admission), while in-flight ones —
        // active or KV-preempted back into a queue — drain to completion,
        // honoring the shutdown contract.
        for queue in &mut waiting.shards {
            queue.settle(
                |seq| seq.expired(now),
                |seq| fail(shared, &seq, DecodeError::DeadlineExceeded),
            );
            if closed {
                queue.settle(
                    |seq| seq.rank == 0,
                    |seq| fail(shared, &seq, DecodeError::Closed),
                );
            }
        }
        // A paused engine admits nothing; shutdown overrides the pause so a
        // never-resumed engine still drains and exits.
        if closed || !shared.paused.load(Ordering::SeqCst) {
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let clock = shared.stats.shard_clock(s);
                while shard.active.len() < shared.config.max_batch {
                    let Some(mut seq) = waiting.shards[s].pop_highest() else {
                        break;
                    };
                    seq.rank = shared.next_rank.fetch_add(1, Ordering::Relaxed);
                    if seq.admitted_sim.is_none() {
                        seq.admitted_sim = Some(clock);
                        if seq.forced.is_empty() {
                            // Single-token prompt: there is nothing to
                            // prefill, the whole TTFT is first-decode.
                            seq.prompt_done_sim = Some(clock);
                        }
                    }
                    shard.active.push(seq);
                }
            }
        }
        if self.shards.iter().all(|sh| sh.active.is_empty()) {
            return false;
        }

        // Drop runtime state of departed model definitions: a
        // re-registration replaces the `ModelDef` identity, and once no
        // registry entry, active sequence or waiting sequence reaches the
        // old one, its workspace and KV arena can never be used again —
        // keeping them would leak an arena per re-registration. (`generate`
        // never holds the registry and waiting locks at once, so taking
        // registry inside waiting cannot deadlock.)
        if self.shards.iter().any(|sh| !sh.rts.is_empty()) {
            let mut live: HashSet<usize> = self
                .shards
                .iter()
                .flat_map(|sh| sh.active.iter().map(|s| def_key(&s.def)))
                .collect();
            for queue in &waiting.shards {
                live.extend(queue.iter().map(|s| def_key(&s.def)));
            }
            {
                let registry = shared.registry.lock().expect("registry poisoned");
                live.extend(registry.values().map(def_key));
            }
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let before = shard.rts.len();
                shard.rts.retain(|key, rt| {
                    let keep = live.contains(key);
                    if !keep {
                        shared.stats.shards[s]
                            .kv_capacity
                            .fetch_sub(rt.kv.capacity(), Ordering::Relaxed);
                    }
                    keep
                });
                if shard.rts.len() != before {
                    refresh_shard_kv_gauge(&shard.rts, shared, s);
                }
            }
        }
        true
    }

    /// Everything done with the waiting lock released: the deadline check of
    /// active sequences, one pass per shard × model, the headroom rebalance
    /// and the placement-gauge publish.
    fn advance(&mut self, shared: &Shared, now: Instant) {
        let config = &shared.config;
        let shards = &mut self.shards;
        let nshards = shards.len();

        // --- deadline check for active sequences -------------------------
        for (s, shard) in shards.iter_mut().enumerate() {
            let mut i = 0;
            let mut removed = false;
            while i < shard.active.len() {
                if shard.active[i].expired(now) {
                    let mut seq = shard.active.swap_remove(i);
                    if let Some(rt) = shard.rts.get_mut(&def_key(&seq.def)) {
                        rt.kv.release(&mut seq.kv);
                    }
                    removed = true;
                    fail(shared, &seq, DecodeError::DeadlineExceeded);
                } else {
                    i += 1;
                }
            }
            if removed {
                refresh_shard_kv_gauge(&shard.rts, shared, s);
            }
        }

        // --- one pass per shard: a step per model with active sequences ---
        for s in 0..nshards {
            if shards[s].active.is_empty() {
                continue;
            }
            // The headroom view migration targets are chosen against,
            // debited as targets are picked within the pass. Entries for
            // shards processed earlier this iteration are fresh; later ones
            // may be one pass stale — safe, because a migrated-to shard
            // re-resolves pressure itself at admission.
            let mut view = ClusterView::collect(shards, config.kv_blocks);
            let shard = &mut shards[s];
            let mut model_keys: Vec<usize> = Vec::new();
            for seq in &shard.active {
                let key = def_key(&seq.def);
                if !model_keys.contains(&key) {
                    model_keys.push(key);
                }
            }
            for key in model_keys {
                // Extract this model's batch (slot order = active order).
                let (batch, rest): (Vec<Sequence>, Vec<Sequence>) =
                    std::mem::take(&mut shard.active)
                        .into_iter()
                        .partition(|seq| def_key(&seq.def) == key);
                shard.active = rest;
                let def = Arc::clone(&batch[0].def);
                let ctx = IterCtx {
                    shared,
                    gpu: &shard.gpu,
                    cache: &self.cache,
                    options: &self.options,
                    shard: s,
                    view: &mut view,
                    state: vec![SlotState::Live; batch.len()],
                    batch,
                    terminal: Vec::new(),
                };
                let rt = match ctx.ensure_rt(&mut shard.rts, &def) {
                    Ok(rt) => rt,
                    Err(err) => {
                        for seq in &ctx.batch {
                            fail(shared, seq, err.clone());
                        }
                        continue;
                    }
                };
                let outcome = ctx.run_iteration(rt);
                shard.active.extend(outcome.survivors);
                refresh_shard_kv_gauge(&shard.rts, shared, s);
                // Terminal events go out only after the gauges are current,
                // so a client that observed `Done` sees post-release
                // occupancy.
                for (tx, event) in outcome.terminal {
                    let _ = tx.send(event);
                }
            }
        }

        // --- scheduler-initiated migration: headroom rebalance ------------
        if nshards > 1 {
            if self.rebalance_cooldown > 0 {
                self.rebalance_cooldown -= 1;
            } else if rebalance(shared, shards) {
                self.rebalance_cooldown = REBALANCE_COOLDOWN_ITERS;
            }
        }

        // --- placement gauge publish --------------------------------------
        for (s, shard) in shards.iter().enumerate() {
            let est = shard
                .rts
                .values()
                .map(|rt| rt.step.estimate)
                .fold(0.0f64, f64::max);
            let mut gauges = shared.stats.shards[s]
                .gauges
                .lock()
                .expect("stats poisoned");
            gauges.step_estimate = est;
            gauges.active_remaining = shard
                .active
                .iter()
                .map(|seq| {
                    let e = shard
                        .rts
                        .get(&def_key(&seq.def))
                        .map_or(if est > 0.0 { est } else { 1.0 }, |rt| rt.step.estimate);
                    seq.remaining_work() as f64 * e
                })
                .collect();
            gauges.kv_free = shard.kv_headroom();
        }
    }
}

/// Fails one sequence with `err`: counted, and the error sent down its
/// session channel (a client that already hung up is not an error).
fn fail(shared: &Shared, seq: &Sequence, err: DecodeError) {
    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    let _ = seq.tx.send(Event::Failed(err));
}

/// Everything one scheduler iteration — one shard × one model — reads and
/// writes: the engine-wide pieces it compiles and books against, the shard
/// it runs on, the pool's headroom view, and the iteration's own batch with
/// its per-slot outcomes and deferred terminal events.
pub(super) struct IterCtx<'a> {
    pub(super) shared: &'a Shared,
    pub(super) gpu: &'a Gpu,
    pub(super) cache: &'a CompiledCache,
    pub(super) options: &'a CompilerOptions,
    /// The shard this iteration runs on.
    pub(super) shard: usize,
    pub(super) view: &'a mut ClusterView,
    /// The model's active sequences on this shard (slot order = extraction
    /// order).
    pub(super) batch: Vec<Sequence>,
    /// Per-slot outcome so far, parallel to `batch`.
    pub(super) state: Vec<SlotState>,
    /// `Done`/`Failed` events to deliver *after* the iteration's gauges are
    /// refreshed.
    pub(super) terminal: Vec<(mpsc::Sender<Event>, Event)>,
}

/// What one [`IterCtx::run_iteration`] hands back to the loop: sequences
/// staying active, and terminal `Done`/`Failed` events to deliver *after*
/// the step's gauges are refreshed.
pub(super) struct StepOutcome {
    survivors: Vec<Sequence>,
    terminal: Vec<(mpsc::Sender<Event>, Event)>,
}

/// Per-slot outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SlotState {
    /// Still generating: stays active.
    Live,
    /// Preempted by KV pressure: cache freed, replay chain built, requeued
    /// on the same shard.
    Evicted,
    /// Live-migrated: cache freed, replay chain built, re-admitted at the
    /// front of the target shard's queue.
    Migrated(usize),
    /// Finished or failed: response sent, cache freed.
    Dropped,
}

/// Chunk-size election: the largest compiled chunk that fits both the
/// remaining feed chain and the iteration's leftover token budget. `None`
/// sends the sequence down the token-wise path (tail smaller than the
/// smallest chunk, budget exhausted, or chunking disabled).
fn elect_chunk(remaining: usize, menu: &[usize], budget: usize) -> Option<usize> {
    menu.iter()
        .copied()
        .filter(|&c| c <= remaining && c <= budget)
        .max()
}

impl IterCtx<'_> {
    /// One scheduler iteration for the batch (all sequences share `rt`'s
    /// model): a prefill phase — chunked prompt absorption under the
    /// iteration token budget, in `(priority, rank)` order — followed by one
    /// decode step for every live sequence that did not prefill. A sequence
    /// advances through exactly one forward pass per iteration, so decodes
    /// never observe more than one prefill-chunk bubble between tokens.
    pub(super) fn run_iteration(mut self, rt: &mut ModelRt) -> StepOutcome {
        // Iteration spans are shard-scoped (many sequences), so they carry
        // trace id 0; the nested prefill/decode spans attribute per-sequence.
        let _span = hidet_trace::global().span(SpanKind::DecodeIteration, 0);
        let shared = self.shared;
        let config = &shared.config;
        let n = self.batch.len();
        let mut prefilled = vec![false; n];

        // --- prefill phase -------------------------------------------------
        if !rt.def.prefill.is_empty() && config.prefill_token_budget > 0 {
            let mut budget = config.prefill_token_budget;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| self.batch[i].key());
            for i in order {
                if self.state[i] != SlotState::Live || self.batch[i].forced.is_empty() {
                    // Plain decode, or the final chain token: token-wise path.
                    continue;
                }
                let menu: Vec<usize> = rt
                    .def
                    .prefill
                    .iter()
                    .map(|p| p.chunk)
                    .filter(|c| !rt.dead_chunks.contains(c))
                    .collect();
                let remaining = 1 + self.batch[i].forced.len();
                let Some(chunk) = elect_chunk(remaining, &menu, budget) else {
                    continue;
                };
                if self.run_prefill(rt, i, chunk) {
                    budget -= chunk;
                    prefilled[i] = true;
                }
            }
        }

        // --- decode step for everything that did not prefill ---------------
        let decode_slots: Vec<usize> = (0..n)
            .filter(|&i| self.state[i] == SlotState::Live && !prefilled[i])
            .collect();
        if !decode_slots.is_empty() {
            // A decode step covers the whole batch; attribute it to the
            // first slot's trace so at least one request's timeline shows
            // the step.
            let _span = hidet_trace::global()
                .span(SpanKind::DecodeStep, self.batch[decode_slots[0]].trace_id);
            self.forward(rt, &decode_slots, None);
        }
        if prefilled.contains(&true) {
            shared
                .stats
                .prefill_iterations
                .fetch_add(1, Ordering::Relaxed);
            if !decode_slots.is_empty() {
                shared
                    .stats
                    .interleaved_iterations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }

        // Reassemble: live sequences stay active; evicted ones rejoin the
        // head of their class queue (they re-admit before newcomers of their
        // class, but with a fresh — higher — rank, so the total eviction
        // order can never cycle); migrated ones rejoin the *target shard's*
        // queue head with their time anchors rebased. Finished/failed
        // sequences drop here; their channels already carried Done/Failed.
        let mut survivors = Vec::with_capacity(n);
        let mut requeue: Vec<Sequence> = Vec::new();
        let mut migrations: Vec<(Sequence, usize)> = Vec::new();
        for (seq, state) in self.batch.into_iter().zip(self.state) {
            match state {
                SlotState::Live => survivors.push(seq),
                SlotState::Evicted => requeue.push(seq),
                SlotState::Migrated(target) => migrations.push((seq, target)),
                SlotState::Dropped => {}
            }
        }
        if !requeue.is_empty() {
            let mut waiting = shared.waiting.lock().expect("waiting poisoned");
            for seq in requeue.into_iter().rev() {
                waiting.shards[self.shard].push_front(seq.priority, seq);
            }
            drop(waiting);
            shared.cv.notify_all();
        }
        for (seq, target) in migrations {
            migrate_sequence(shared, seq, self.shard, target);
        }
        StepOutcome {
            survivors,
            terminal: self.terminal,
        }
    }

    /// Absorbs one `chunk`-token slice of `batch[slot]`'s feed chain through
    /// the chunk's prefill graph, compiling it on first use. Returns whether
    /// the pass ran (and thus consumed budget); `false` means the chunk's
    /// graph failed to compile — it is retired to `dead_chunks` and the
    /// sequence falls through to the token-wise path, untouched.
    fn run_prefill(&mut self, rt: &mut ModelRt, slot: usize, chunk: usize) -> bool {
        let _span = hidet_trace::global().span(SpanKind::PrefillChunk, self.batch[slot].trace_id);
        if !rt.prefill_rts.contains_key(&chunk) {
            match self.compile_pass(rt.def.prefill_pass(chunk)) {
                Ok(prt) => rt.prefill_rts.insert(chunk, prt),
                Err(_) => {
                    rt.dead_chunks.insert(chunk);
                    return false;
                }
            };
        }
        self.forward(rt, &[slot], Some(chunk));
        true
    }

    /// The one forward-pass routine: stage embeddings, mask and KV past for
    /// `slots` → run the graph → append KV (with eviction + recompute under
    /// pressure) and harvest the fresh rows → advance each feed chain, and
    /// emit/retire where a chain ran out. `prefill_chunk` picks the graph
    /// and with it the row layout: `None` is the decode step — chunk 1 ×
    /// many sequences, buffer row `pos` belonging to `slots[pos]` (rows of
    /// sequences that prefilled this iteration simply stay staged to zero) —
    /// and `Some(c)` the `c`-token prefill pass of the single sequence in
    /// `slots`. When a pass consumes a sequence's whole chain, its last
    /// logits row yields the next token — so a chunk ending a prompt emits
    /// the first generated token in the same pass.
    fn forward(&mut self, rt: &mut ModelRt, slots: &[usize], prefill_chunk: Option<usize>) {
        let ModelRt {
            def,
            step,
            kv,
            prefill_rts,
            ..
        } = rt;
        let (pass, prt) = match prefill_chunk {
            None => (&def.step, step),
            Some(c) => (
                def.prefill_pass(c),
                prefill_rts.get_mut(&c).expect("compiled above"),
            ),
        };
        let plan = prt.compiled.plan();
        let chunk = pass.chunk;
        let (hidden, heads, head_dim) = (def.hidden, def.heads, def.head_dim);
        let mc = def.max_context;
        let vocab = def.vocab as usize;
        // Every sequence owns `heads` rows of `chunk` positions over
        // `mc + chunk` attendable columns: the cached past, then the chunk.
        let span = mc + chunk;

        // --- stage inputs (in place: zero steady-state allocations) -------
        let x = prt
            .ws
            .input_mut(plan, pass.x_id)
            .expect("x id validated at registration");
        x.fill(0.0);
        for (pos, &i) in slots.iter().enumerate() {
            let seq = &self.batch[i];
            let chain = std::iter::once(seq.pending).chain(seq.forced.iter().copied());
            for (j, token) in chain.take(chunk).enumerate() {
                let (row, t) = ((pos * chunk + j) * hidden, token as usize * hidden);
                x[row..row + hidden].copy_from_slice(&def.embed[t..t + hidden]);
            }
        }
        // Causal mask: chunk position `j` of a sequence with `p` cached
        // tokens attends them (columns `0..p`) and chunk positions `0..=j`
        // (columns `mc..=mc + j`) — for a decode step, just "the current
        // token is always attendable". Padded cache slots and intra-chunk
        // future positions stay at MASK_NEG, bit-transparent to softmax.
        let mask = prt
            .ws
            .input_mut(plan, pass.mask_id)
            .expect("mask id validated at registration");
        mask.fill(MASK_NEG);
        for (r, row) in mask.chunks_exact_mut(span).enumerate() {
            row[mc..=mc + r % chunk].fill(0.0);
        }
        for (pos, &i) in slots.iter().enumerate() {
            let p = self.batch[i].kv.tokens();
            for r in pos * heads * chunk..(pos + 1) * heads * chunk {
                mask[r * span..r * span + p].fill(0.0);
            }
        }
        // The gather re-stages every sequence's full cache each pass. An
        // incremental variant (resident past buffers, appending only the new
        // token's rows) would save O(tokens) copies per slot, but needs
        // stable slot assignment across steps — today slots are re-derived
        // from the active order, which shifts as sequences retire. Host cost
        // is dominated by kernel interpretation, not these copies, so stable
        // slots are left as future work.
        for (l, &(pk_id, pv_id)) in pass.past_ids.iter().enumerate() {
            for (stream, id) in [(0usize, pk_id), (1usize, pv_id)] {
                let buf = prt
                    .ws
                    .input_mut(plan, id)
                    .expect("cache ids validated at registration");
                buf.fill(0.0);
                for (pos, &i) in slots.iter().enumerate() {
                    let seq = &self.batch[i];
                    for t in 0..seq.kv.tokens() {
                        let lane = kv.lane(&seq.kv, t, l, stream);
                        for h in 0..heads {
                            let dst = ((pos * heads + h) * mc + t) * head_dim;
                            buf[dst..dst + head_dim]
                                .copy_from_slice(&lane[h * head_dim..(h + 1) * head_dim]);
                        }
                    }
                }
            }
        }

        // --- forward pass --------------------------------------------------
        let stats = &self.shared.stats;
        if let Err(err) = prt.ws.run_prepared(plan, self.gpu) {
            let err = DecodeError::Execution(match prefill_chunk {
                None => format!("{}: {err}", def.name),
                Some(c) => format!("{} prefill[{c}]: {err}", def.name),
            });
            for &i in slots {
                self.fail_slot(kv, i, err.clone());
            }
            return;
        }
        if prefill_chunk.is_some() {
            stats.prefill_passes.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.shards[self.shard]
                .steps
                .fetch_add(1, Ordering::Relaxed);
            stats
                .occupied_slots
                .fetch_add(slots.len(), Ordering::Relaxed);
        }
        let now = stats.advance_shard_clock(self.shard, prt.estimate, prefill_chunk.is_some());

        // --- append + harvest KV, advance chains, emit/retire --------------
        for (pos, &i) in slots.iter().enumerate() {
            if self.state[i] != SlotState::Live {
                continue; // preempted by an earlier slot's append this pass
            }
            let remaining = 1 + self.batch[i].forced.len();
            let mut absorbed = 0usize;
            for j in 0..chunk {
                let Some(kvslot) = self.append_with_pressure(kv, i) else {
                    // Self-preempted (replay chain rebuilt from what was
                    // harvested) or dropped — either way this pass is over.
                    break;
                };
                // Harvest the new K/V rows: the concat outputs hold the chunk
                // at sequence positions `mc..mc + chunk` of each of the
                // sequence's per-head rows.
                for (l, &(nk_id, nv_id)) in pass.cache_out_ids.iter().enumerate() {
                    for (stream, id) in [(0usize, nk_id), (1usize, nv_id)] {
                        let out = prt
                            .ws
                            .output(id)
                            .expect("cache ids validated at registration");
                        let lane = kv.lane_mut(kvslot, l, stream);
                        for (h, dst) in lane.chunks_exact_mut(head_dim).enumerate() {
                            let src = ((pos * heads + h) * span + mc + j) * head_dim;
                            dst.copy_from_slice(&out[src..src + head_dim]);
                        }
                    }
                }
                let seq = &mut self.batch[i];
                seq.fed.push(seq.pending);
                absorbed += 1;
                if let Some(next) = seq.forced.pop_front() {
                    seq.pending = next;
                }
            }
            if prefill_chunk.is_some() && absorbed > 0 {
                stats.prefill_tokens.fetch_add(absorbed, Ordering::Relaxed);
            }
            if self.state[i] != SlotState::Live {
                continue;
            }
            let seq = &mut self.batch[i];
            if absorbed < remaining {
                // Mid-chain — prompt absorption or post-eviction replay: the
                // model's output is already known; keep feeding the chain.
                stats.prompt_tokens.fetch_add(absorbed, Ordering::Relaxed);
                if seq.forced.is_empty() && seq.emitted == 0 && seq.prompt_done_sim.is_none() {
                    seq.prompt_done_sim = Some(now);
                }
                continue;
            }
            // The pass consumed the whole chain: the last row's logits are
            // this sequence's next token. For a first-time prompt ending in
            // a prefill chunk that token is the first emission — TTFT lands
            // here, a whole chunk earlier than token-wise absorption would
            // have allowed.
            stats
                .prompt_tokens
                .fetch_add(absorbed - 1, Ordering::Relaxed);
            if seq.emitted == 0 && seq.prompt_done_sim.is_none() {
                seq.prompt_done_sim = Some(now);
            }
            let logits = prt
                .ws
                .output(pass.logits_id)
                .expect("logits are a graph output");
            let row = (pos + 1) * chunk - 1;
            let token = argmax(&logits[row * vocab..(row + 1) * vocab]);
            self.state[i] = self.emit_token(kv, i, token, now);
        }
    }

    /// Drops `batch[slot]` with `err`: its blocks released, the failure
    /// counted, the error queued as the slot's terminal event.
    pub(super) fn fail_slot(&mut self, kv: &mut KvAllocator, slot: usize, err: DecodeError) {
        let seq = &mut self.batch[slot];
        kv.release(&mut seq.kv);
        self.shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        self.terminal.push((seq.tx.clone(), Event::Failed(err)));
        self.state[slot] = SlotState::Dropped;
    }

    /// Emits a freshly decoded token for `batch[slot]` — TTFT on first
    /// emission (with its queue/prefill/first-decode decomposition), ITL
    /// afterwards — and retires the sequence when it finished. Returns the
    /// slot's next state.
    fn emit_token(&mut self, kv: &mut KvAllocator, slot: usize, token: u32, now: f64) -> SlotState {
        let stats = &self.shared.stats;
        let seq = &mut self.batch[slot];
        let index = seq.emitted;
        seq.emitted += 1;
        if seq.ttft.is_none() {
            let submitted = seq.submitted_sim;
            let admitted = seq.admitted_sim.unwrap_or(submitted);
            let prompt_done = seq.prompt_done_sim.unwrap_or(admitted);
            seq.ttft = Some(now - submitted);
            seq.ttft_admission = Some(now - admitted);
            stats.record_first_token(submitted, admitted, prompt_done, now);
        } else {
            stats.record_itl(now - seq.last_token_sim);
        }
        seq.last_token_sim = now;
        stats.shards[self.shard]
            .tokens
            .fetch_add(1, Ordering::Relaxed);
        let delivered = seq
            .tx
            .send(Event::Token(TokenEvent {
                token,
                index,
                sim_time_seconds: now,
            }))
            .is_ok();
        let finished = seq.emitted >= seq.max_tokens || seq.eos == Some(token) || !delivered;
        if finished {
            kv.release(&mut seq.kv);
            self.terminal.push((
                seq.tx.clone(),
                Event::Done {
                    ttft_from_submit_seconds: seq.ttft.expect("at least one token emitted"),
                    ttft_from_admission_seconds: seq.ttft_admission.expect("set alongside ttft"),
                    completion_sim_seconds: now,
                },
            ));
            stats.completed.fetch_add(1, Ordering::Relaxed);
            SlotState::Dropped
        } else {
            seq.pending = token;
            SlotState::Live
        }
    }
}

/// Greedy decode: index of the row maximum (ties break to the lowest
/// index, so decoding is fully deterministic).
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > row[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[0.5]), 0);
        assert_eq!(argmax(&[-2.0, -1.0, -1.5]), 1);
    }

    #[test]
    fn chunk_election_boundaries() {
        let menu = [16, 64, 256];
        // Exact multiple of the largest chunk.
        assert_eq!(elect_chunk(512, &menu, 256), Some(256));
        assert_eq!(elect_chunk(256, &menu, 256), Some(256));
        // One short of a chunk boundary drops to the next size down.
        assert_eq!(elect_chunk(255, &menu, 256), Some(64));
        assert_eq!(elect_chunk(17, &menu, 256), Some(16));
        assert_eq!(elect_chunk(16, &menu, 256), Some(16));
        // Tails smaller than the smallest chunk go token-wise.
        assert_eq!(elect_chunk(15, &menu, 256), None);
        assert_eq!(elect_chunk(1, &menu, 256), None);
        // The iteration budget caps the chunk, then disables election.
        assert_eq!(elect_chunk(512, &menu, 100), Some(64));
        assert_eq!(elect_chunk(512, &menu, 15), None);
        // No compiled chunks: chunking is off.
        assert_eq!(elect_chunk(512, &[], 256), None);
    }

    #[test]
    fn decode_kernels_are_pinned() {
        // The decode step (4 slots) and the 16-token prefill chunk of the
        // `decode_mixed` benchmark model — 2 layers, hidden 32, 2 heads, a
        // 32-token vocabulary, a 48-token context — compiled with the
        // engine's options: kernel count, CUDA length and digest, all with
        // zero tuning trials. A change meant to move the kernels the engine
        // runs re-pins these and says so.
        let gpu = Gpu::default();
        for ((seqs, chunk), kernels, len, digest) in [
            ((4, 1), 28, 54_064, 0x9715_10ee_a363_8eb8),
            ((1, 16), 28, 55_133, 0x7063_d645_b0a2_f54d),
        ] {
            let graph = hidet_graph::models::transformer_pass(
                "bench_decode",
                seqs,
                chunk,
                48,
                2,
                32,
                2,
                32,
            );
            let compiled = hidet::compile(&graph, &gpu, &decode_options()).unwrap();
            let source = compiled.cuda_source();
            let mut hasher = hidet_graph::StableHasher::new();
            hasher.write(source.as_bytes());
            assert_eq!(
                (compiled.num_kernels(), source.len(), hasher.finish()),
                (kernels, len, digest),
                "{seqs} x {chunk}"
            );
            assert_eq!(compiled.tuning_trials(), 0);
        }
    }
}
