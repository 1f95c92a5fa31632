//! Integration tests of the decode subsystem: continuous batching
//! correctness (bit-identity against solo runs), KV eviction + recompute,
//! priority/deadline handling, and the serving-engine stats hook.
//!
//! Tests whose claim depends on *when* something happens — arrival order, a
//! deadline, a migration — run on a stepped engine
//! ([`DecodeEngine::stepped`]) and say so in iterations; the rest use the
//! thread driver, as a deployment does.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use hidet_decode::{
    DecodeConfig, DecodeEngine, DecodeError, DecodeModelSpec, DecodeSession, GenerateRequest,
    Generation, SessionPoll, Stepper,
};
use hidet_runtime::{DecodeStatsSnapshot, Priority};
use hidet_sim::GpuSpec;
use proptest::prelude::*;

/// A tiny decode model the interpreter chews through quickly: 1 layer,
/// hidden 16, 2 heads, vocabulary 16, context window 12.
fn tiny_spec() -> DecodeModelSpec {
    DecodeModelSpec::transformer("tiny", 1, 16, 2, 16, 12)
}

fn engine(max_batch: usize, kv_blocks: usize, block_tokens: usize) -> DecodeEngine {
    DecodeEngine::new(DecodeConfig {
        max_batch,
        kv_blocks,
        block_tokens,
        ..DecodeConfig::default()
    })
}

/// Queues `work` against a paused engine, resumes it and collects every
/// session. The whole workload is queued before the first admission, so the
/// schedule — and every simulated-clock number in the returned stats — is
/// exact: the same on any host, in any build profile.
fn run_paused(
    config: DecodeConfig,
    spec: DecodeModelSpec,
    work: Vec<GenerateRequest>,
) -> (Vec<Generation>, DecodeStatsSnapshot) {
    let engine = DecodeEngine::new(DecodeConfig {
        start_paused: true,
        ..config
    });
    let model = engine.register(spec).unwrap();
    let sessions: Vec<_> = work.into_iter().map(|r| model.generate(r)).collect();
    engine.resume();
    let generations = sessions.into_iter().map(|s| s.collect().unwrap()).collect();
    (generations, engine.stats())
}

/// The stepped twin of [`run_paused`]: the whole workload queued, then
/// stepped to idle at one host instant.
fn run_stepped(
    config: DecodeConfig,
    spec: DecodeModelSpec,
    work: Vec<GenerateRequest>,
) -> (Vec<Generation>, DecodeStatsSnapshot) {
    let (engine, mut stepper) = DecodeEngine::stepped(config);
    let model = engine.register(spec).unwrap();
    let sessions: Vec<_> = work.into_iter().map(|r| model.generate(r)).collect();
    stepper.run_until_idle(Instant::now());
    let generations = sessions.into_iter().map(|s| s.collect().unwrap()).collect();
    (generations, idle_stats(&engine))
}

/// The stats of a stepped engine at idle, checked against the conservation
/// laws that hold whenever nothing is queued or active: every placed session
/// completed or failed, every migration out of a shard landed on another,
/// and no shard holds a KV block. (For workloads with no request rejected at
/// `generate` — those fail without ever being placed.)
fn idle_stats(engine: &DecodeEngine) -> DecodeStatsSnapshot {
    let stats = engine.stats();
    let sum = |f: fn(&hidet_runtime::DecodeShardSnapshot) -> usize| -> usize {
        stats.shards.iter().map(f).sum()
    };
    assert_eq!(
        sum(|s| s.sessions_placed),
        stats.sequences_completed + stats.sequences_failed,
        "placed = completed + failed: {stats:?}"
    );
    assert_eq!(sum(|s| s.migrations_in), sum(|s| s.migrations_out));
    assert_eq!(sum(|s| s.migrations_out), stats.sessions_migrated);
    for shard in &stats.shards {
        assert_eq!(shard.kv_blocks_in_use, 0, "shard leaked: {shard:?}");
    }
    stats
}

/// The forced-migration policy of the multi-device tests, stated on a
/// stepped engine: after every iteration, each session that has emitted
/// `after` tokens moves to the next shard (round-robin) — once. Sessions are
/// told apart by trace id, so the workload must give each a distinct one.
struct ForcedMigration {
    after: usize,
    shards: usize,
    now: Instant,
    moved: HashSet<u64>,
}

impl ForcedMigration {
    fn new(after: usize, shards: usize) -> ForcedMigration {
        ForcedMigration {
            after,
            shards,
            now: Instant::now(),
            moved: HashSet::new(),
        }
    }

    fn step(&mut self, stepper: &mut Stepper) -> bool {
        let busy = stepper.step(self.now);
        stepper.relocate(|s| {
            (s.emitted >= self.after && self.moved.insert(s.trace_id))
                .then_some((s.shard + 1) % self.shards)
        });
        busy
    }

    fn run_until_idle(&mut self, stepper: &mut Stepper) {
        while self.step(stepper) {}
    }
}

/// Moves what `session` has streamed so far into `tokens` without blocking;
/// `true` once the generation finished.
fn drain(session: &mut DecodeSession, tokens: &mut Vec<u32>) -> bool {
    loop {
        match session.next_timeout(Duration::ZERO).unwrap() {
            SessionPoll::Token(event) => tokens.push(event.token),
            SessionPoll::Finished => return true,
            SessionPoll::Pending => return false,
        }
    }
}

fn tokens(generations: &[Generation]) -> Vec<&[u32]> {
    generations.iter().map(|g| g.tokens.as_slice()).collect()
}

/// The model of the mixed-length workload: context window 24 holds the
/// 20-token completions.
fn mix_spec() -> DecodeModelSpec {
    DecodeModelSpec::transformer("tiny-mix", 1, 8, 2, 12, 24)
}

/// The mixed-length workload the throughput claims are stated on: per group
/// three short chats (2 tokens) and one long completion (20 tokens, at
/// priority `long`).
fn mix(groups: u32, long: Priority) -> Vec<GenerateRequest> {
    (0..groups)
        .flat_map(|g| {
            [
                GenerateRequest::new(vec![g % 12], 2),
                GenerateRequest::new(vec![(g + 7) % 12], 2),
                GenerateRequest::new(vec![(g + 5) % 12], 2),
                GenerateRequest::new(vec![(g + 3) % 12, 3], 20).with_priority(long),
            ]
        })
        .collect()
}

#[test]
fn single_session_generates_and_frees_blocks() {
    let engine = engine(2, 16, 4);
    let model = engine.register(tiny_spec()).unwrap();
    let generation = model
        .generate(GenerateRequest::new(vec![1, 2, 3], 6))
        .collect()
        .unwrap();
    assert_eq!(generation.tokens.len(), 6);
    assert!(generation.tokens.iter().all(|&t| t < 16));
    assert!(generation.ttft_from_submit_seconds > 0.0);
    assert!(generation.ttft_from_admission_seconds <= generation.ttft_from_submit_seconds);
    assert!(generation.completion_sim_seconds >= generation.ttft_from_submit_seconds);
    let stats = engine.stats();
    assert_eq!(stats.sequences_completed, 1);
    assert_eq!(stats.tokens_generated, 6);
    assert_eq!(
        stats.prompt_tokens, 2,
        "prompt tail fed with outputs ignored"
    );
    assert_eq!(
        stats.kv_blocks_in_use, 0,
        "no block leaked after session end"
    );
    assert!(
        stats.kv_blocks_peak >= 2,
        "8 cached tokens need two 4-blocks"
    );
    assert!(stats.tokens_per_second > 0.0);
}

#[test]
fn next_timeout_streams_tokens_and_reports_finish() {
    let engine = engine(2, 16, 4);
    let model = engine.register(tiny_spec()).unwrap();
    let mut session = model.generate(GenerateRequest::new(vec![1, 2], 4));
    let mut tokens = Vec::new();
    let mut pending_seen = false;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "generation stalled");
        match session.next_timeout(Duration::from_micros(200)).unwrap() {
            SessionPoll::Token(event) => {
                assert_eq!(event.index, tokens.len());
                tokens.push(event.token);
            }
            SessionPoll::Pending => pending_seen = true,
            SessionPoll::Finished => break,
        }
    }
    assert_eq!(tokens.len(), 4);
    assert!(pending_seen, "a 200us poll should observe at least one gap");
    // Past the end the poll keeps reporting Finished instead of blocking.
    assert_eq!(
        session.next_timeout(Duration::from_millis(1)).unwrap(),
        SessionPoll::Finished
    );
}

/// The dead-client path of a streaming front-end: the bridge sees the socket
/// is gone and drops the session. The engine must cancel the generation at
/// the next emission attempt and release every KV block.
///
/// Deterministic ordering via a paused engine: the session is dropped before
/// the step loop starts, so the very first token send fails and the engine
/// cancels mid-generation — it can never outrun the drop.
#[test]
fn dropping_a_session_cancels_generation_and_frees_kv_blocks() {
    let engine = DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 64,
        block_tokens: 4,
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = engine
        .register(DecodeModelSpec::transformer("tiny-long", 1, 16, 2, 16, 256))
        .unwrap();
    let session = model.generate(GenerateRequest::new(vec![7], 200));
    drop(session);
    engine.resume();
    // The engine admits the sequence, allocates blocks, emits one token into
    // a dead channel, and releases. Poll until the step ran and nothing is
    // held. (`kv_blocks_peak` stays 0 here: the gauge samples after the
    // step, when the cancelled session's blocks are already back.)
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = engine.stats();
        // `steps` is bumped when the pass ran, `tokens_generated` only once
        // its rows are harvested — wait for both, or a poll landing between
        // the two sees a step without its token.
        if stats.steps > 0 && stats.tokens_generated >= 1 && stats.kv_blocks_in_use == 0 {
            assert!(
                stats.tokens_generated < 200,
                "cancellation should land mid-generation, got all {} tokens",
                stats.tokens_generated
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no token decoded, or KV blocks leaked, after the drop: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn generation_is_deterministic_across_engines() {
    let run = || {
        let engine = engine(2, 16, 4);
        let model = engine.register(tiny_spec()).unwrap();
        model
            .generate(GenerateRequest::new(vec![5, 9], 8))
            .collect()
            .unwrap()
            .tokens
    };
    assert_eq!(run(), run());
}

#[test]
fn streaming_iterator_yields_ordered_token_events() {
    let engine = engine(2, 16, 4);
    let model = engine.register(tiny_spec()).unwrap();
    let session = model.generate(GenerateRequest::new(vec![4], 5));
    let mut last_time = 0.0;
    let mut count = 0usize;
    for (i, event) in session.enumerate() {
        let event = event.unwrap();
        assert_eq!(event.index, i);
        assert!(event.sim_time_seconds >= last_time);
        last_time = event.sim_time_seconds;
        count += 1;
    }
    assert_eq!(count, 5);
}

#[test]
fn eos_token_stops_generation_early() {
    // Find the first emitted token of an unconstrained run, then rerun with
    // it as EOS: the rerun must stop right there.
    let engine = engine(2, 16, 4);
    let model = engine.register(tiny_spec()).unwrap();
    let free = model
        .generate(GenerateRequest::new(vec![7], 8))
        .collect()
        .unwrap();
    let eos = free.tokens[0];
    let stopped = model
        .generate(GenerateRequest::new(vec![7], 8).with_eos(eos))
        .collect()
        .unwrap();
    assert_eq!(stopped.tokens, vec![eos]);
}

#[test]
fn bad_prompts_are_rejected() {
    let engine = engine(2, 16, 4);
    let model = engine.register(tiny_spec()).unwrap();
    let err = |req: GenerateRequest| model.generate(req).collect().unwrap_err();
    assert!(matches!(
        err(GenerateRequest::new(vec![], 4)),
        DecodeError::BadPrompt(_)
    ));
    assert!(matches!(
        err(GenerateRequest::new(vec![99], 4)), // vocab is 16
        DecodeError::BadPrompt(_)
    ));
    assert!(matches!(
        err(GenerateRequest::new(vec![1], 0)),
        DecodeError::BadPrompt(_)
    ));
    // Context window is 12: prompt 5 + 9 generated needs 13 cache slots.
    assert!(matches!(
        err(GenerateRequest::new(vec![1, 2, 3, 4, 5], 9)),
        DecodeError::BadPrompt(_)
    ));
    // The exact fit (5 + 8 - 1 = 12) is accepted.
    let generation = model
        .generate(GenerateRequest::new(vec![1, 2, 3, 4, 5], 8))
        .collect()
        .unwrap();
    assert_eq!(generation.tokens.len(), 8);
}

#[test]
fn expired_deadline_fails_the_session() {
    let engine = engine(2, 16, 4);
    let model = engine.register(tiny_spec()).unwrap();
    let err = model
        .generate(
            GenerateRequest::new(vec![1], 4)
                .with_deadline(Instant::now() - Duration::from_millis(1)),
        )
        .collect()
        .unwrap_err();
    assert_eq!(err, DecodeError::DeadlineExceeded);
    assert_eq!(engine.stats().sequences_failed, 1);
    assert_eq!(engine.stats().kv_blocks_in_use, 0);
}

#[test]
fn unknown_model_and_closed_engine_fail_fast() {
    let engine = engine(2, 16, 4);
    let model = engine.register(tiny_spec()).unwrap();
    // A handle addresses by name: re-registration under another name does
    // not disturb it, but an unknown name fails.
    drop(model);
    let other = DecodeEngine::new(DecodeConfig::default());
    let handle = other.register(tiny_spec()).unwrap();
    other.shutdown();
    let err = handle
        .generate(GenerateRequest::new(vec![1], 2))
        .collect()
        .unwrap_err();
    assert_eq!(err, DecodeError::Closed);
}

/// The tentpole correctness property: continuous batching must be a pure
/// scheduling optimization. Every sequence's token stream is bit-identical
/// to running it alone, because the fixed-shape step graph computes each
/// batch row independently.
#[test]
fn batched_decode_matches_solo_decode_exactly() {
    let prompts: Vec<(Vec<u32>, usize)> = vec![
        (vec![3], 7),
        (vec![1, 2, 3, 4], 2),
        (vec![15, 0], 9),
        (vec![8, 8, 8], 5),
        (vec![2, 14], 3),
        (vec![11, 5, 7, 1, 9], 6),
    ];
    // Solo: one slot, generous memory — sequences run strictly alone.
    let solo_engine = engine(1, 32, 4);
    let solo_model = solo_engine.register(tiny_spec()).unwrap();
    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .map(|(p, n)| {
            solo_model
                .generate(GenerateRequest::new(p.clone(), *n))
                .collect()
                .unwrap()
                .tokens
        })
        .collect();
    // Batched: three slots, all submitted at once — sequences of different
    // lengths join and leave the running batch mid-flight.
    let batched_engine = engine(3, 32, 4);
    let batched_model = batched_engine.register(tiny_spec()).unwrap();
    let sessions: Vec<_> = prompts
        .iter()
        .map(|(p, n)| batched_model.generate(GenerateRequest::new(p.clone(), *n)))
        .collect();
    let batched: Vec<Vec<u32>> = sessions
        .into_iter()
        .map(|s| s.collect().unwrap().tokens)
        .collect();
    assert_eq!(solo, batched);
    // The batched run actually packed sequences (occupancy above one slot's
    // worth) — otherwise this test proves nothing.
    let stats = batched_engine.stats();
    assert!(
        stats.mean_step_occupancy > 1.0 / 3.0,
        "occupancy {:.2} means no packing happened",
        stats.mean_step_occupancy
    );
}

/// Same property under KV pressure: evictions + recompute must not change
/// any token, only cost extra steps.
#[test]
fn eviction_and_recompute_preserve_token_streams() {
    let prompts: Vec<(Vec<u32>, usize)> = vec![(vec![3, 1], 8), (vec![7], 9), (vec![12, 2, 4], 7)];
    let ample_engine = engine(3, 32, 2);
    let ample_model = ample_engine.register(tiny_spec()).unwrap();
    let ample: Vec<Vec<u32>> = prompts
        .iter()
        .map(|(p, n)| {
            ample_model
                .generate(GenerateRequest::new(p.clone(), *n))
                .collect()
                .unwrap()
                .tokens
        })
        .collect();

    // 8 blocks × 2 tokens = 16 cached tokens across three sequences needing
    // up to 10 each — pressure guaranteed.
    let tight_engine = engine(3, 8, 2);
    let tight_model = tight_engine.register(tiny_spec()).unwrap();
    let sessions: Vec<_> = prompts
        .iter()
        .map(|(p, n)| tight_model.generate(GenerateRequest::new(p.clone(), *n)))
        .collect();
    let tight: Vec<Vec<u32>> = sessions
        .into_iter()
        .map(|s| s.collect().unwrap().tokens)
        .collect();
    assert_eq!(ample, tight, "eviction/recompute must be invisible");
    let stats = tight_engine.stats();
    assert!(stats.kv_evictions > 0, "pressure must actually evict");
    assert!(stats.recomputed_tokens > 0);
    assert_eq!(stats.kv_blocks_in_use, 0, "no block leaked");
}

#[test]
fn kv_exhaustion_without_victims_fails_only_the_oversized_session() {
    // 3 blocks × 2 tokens = 6 cached tokens; one sequence needing 9 cannot
    // fit even with the arena to itself.
    let engine = engine(2, 3, 2);
    let model = engine.register(tiny_spec()).unwrap();
    let err = model
        .generate(GenerateRequest::new(vec![1, 2, 3, 4, 5], 6))
        .collect()
        .unwrap_err();
    assert_eq!(err, DecodeError::KvExhausted);
    // The engine remains healthy for right-sized work.
    let ok = model
        .generate(GenerateRequest::new(vec![1], 4))
        .collect()
        .unwrap();
    assert_eq!(ok.tokens.len(), 4);
    assert_eq!(engine.stats().kv_blocks_in_use, 0);
}

#[test]
fn high_priority_sessions_preempt_best_effort_kv() {
    // Arena: 4 blocks × 2 tokens. A best-effort hog takes the arena; a
    // high-priority arrival must evict it, finish first, and the hog must
    // still complete correctly afterwards.
    let solo_engine = engine(2, 32, 2);
    let solo = solo_engine.register(tiny_spec()).unwrap();
    let hog_expected = solo
        .generate(GenerateRequest::new(vec![6, 2], 7))
        .collect()
        .unwrap()
        .tokens;

    let tight = engine(2, 4, 2);
    let model = tight.register(tiny_spec()).unwrap();
    let hog =
        model.generate(GenerateRequest::new(vec![6, 2], 7).with_priority(Priority::BestEffort));
    let urgent =
        model.generate(GenerateRequest::new(vec![9, 9, 9], 5).with_priority(Priority::High));
    let urgent_done = urgent.collect().unwrap();
    let hog_done = hog.collect().unwrap();
    assert_eq!(urgent_done.tokens.len(), 5);
    assert_eq!(hog_done.tokens, hog_expected, "preempted session is exact");
    let stats = tight.stats();
    assert!(stats.kv_evictions > 0, "the hog must have been preempted");
    assert_eq!(stats.sequences_completed, 2);
    assert_eq!(stats.kv_blocks_in_use, 0);
}

#[test]
fn static_mode_serves_correctly_but_occupies_fewer_slots() {
    let config = |max_batch: usize| DecodeConfig {
        max_batch,
        kv_blocks: 64,
        block_tokens: 4,
        ..DecodeConfig::default()
    };
    let run = |max_batch: usize, spec, work| run_paused(config(max_batch), spec, work);
    // Static pad-to-max batching — the baseline — is a client policy, not an
    // engine mode: submit `max_batch` sessions, wait until every one of them
    // has drained, submit the next `max_batch`.
    let run_static = |max_batch: usize, spec: DecodeModelSpec, work: Vec<GenerateRequest>| {
        let (engine, mut stepper) = DecodeEngine::stepped(config(max_batch));
        let model = engine.register(spec).unwrap();
        let now = Instant::now();
        let mut generations = Vec::new();
        for batch in work.chunks(max_batch) {
            let sessions: Vec<_> = batch.iter().map(|r| model.generate(r.clone())).collect();
            stepper.run_until_idle(now);
            generations.extend(sessions.into_iter().map(|s| s.collect().unwrap()));
        }
        (generations, idle_stats(&engine))
    };

    // The long sequence leads: its batch-mates retire early, and continuous
    // scheduling backfills their slots (static leaves them idle until the
    // long one drains) — continuous: 10 steps, static: 12.
    let work = || -> Vec<GenerateRequest> {
        [(3, 10), (1, 2), (2, 2), (4, 2)]
            .map(|(p, n)| GenerateRequest::new(vec![p], n))
            .into()
    };
    let (cont_gens, cont) = run(2, tiny_spec(), work());
    let (stat_gens, stat) = run_static(2, tiny_spec(), work());
    assert_eq!(
        tokens(&cont_gens),
        tokens(&stat_gens),
        "scheduling must not change tokens"
    );
    // Static pad-to-max burns steps on drained slots; continuous refills
    // them the moment a sequence retires.
    assert!(
        cont.steps < stat.steps,
        "continuous {} steps vs static {}",
        cont.steps,
        stat.steps
    );
    assert!(cont.tokens_per_second > stat.tokens_per_second);

    // The headline claim, on the 3-short : 1-long mix over four slots:
    // every static batch runs as long as its one long member (4 x 21 steps)
    // while continuous keeps the slots full (35 steps) — at least twice the
    // simulated tokens per second, with nothing leaked.
    let work = || mix(4, Priority::Normal);
    let (cont_gens, cont) = run(4, mix_spec(), work());
    let (stat_gens, stat) = run_static(4, mix_spec(), work());
    assert_eq!(tokens(&cont_gens), tokens(&stat_gens));
    let speedup = cont.tokens_per_second / stat.tokens_per_second;
    assert!(
        speedup >= 2.0,
        "continuous batching must sustain >= 2x static tokens/sec on the mix, got {speedup:.2}x \
         ({} vs {} steps)",
        cont.steps,
        stat.steps
    );
    for stats in [&cont, &stat] {
        assert_eq!(stats.sequences_completed, 16);
        assert_eq!(stats.kv_blocks_in_use, 0);
    }
}

/// One core, two drivers: the thread driver and a stepper run the same
/// scheduler, so the same workload queued before the first admission yields
/// the same token streams and the same books — steps, per-shard clocks,
/// TTFT/ITL percentiles, bit for bit — and a stepped run replays exactly.
#[test]
fn thread_and_stepped_drivers_run_the_same_schedule() {
    let config = || DecodeConfig {
        max_batch: 4,
        kv_blocks: 64,
        block_tokens: 4,
        devices: vec![GpuSpec::rtx3090(); 2],
        ..DecodeConfig::default()
    };
    let work = || mix(4, Priority::Normal);
    let (threaded_gens, threaded) = run_paused(config(), mix_spec(), work());
    let (stepped_gens, stepped) = run_stepped(config(), mix_spec(), work());
    let (replay_gens, replay) = run_stepped(config(), mix_spec(), work());
    assert_eq!(threaded.sequences_completed, 16);
    assert!(threaded.shards.iter().all(|s| s.steps > 0), "{threaded:?}");
    assert_eq!(stepped_gens, threaded_gens);
    assert_eq!(stepped, threaded);
    assert_eq!(replay_gens, stepped_gens);
    assert_eq!(replay, stepped);
}

/// A deadline that falls *between* two iterations of a running session: the
/// session fails `DeadlineExceeded` with the tokens it had streamed, its KV
/// blocks return at that iteration, and its batch-mate never notices.
#[test]
fn deadline_passing_mid_generation_fails_only_that_session() {
    let config = || DecodeConfig {
        max_batch: 2,
        kv_blocks: 16,
        block_tokens: 4,
        ..DecodeConfig::default()
    };
    let t0 = Instant::now();
    let late = t0 + Duration::from_millis(20);
    let mate_request = || GenerateRequest::new(vec![2, 3], 6);

    // Reference: the batch-mate alone, stepped the same number of times.
    let (solo, mut solo_stepper) = DecodeEngine::stepped(config());
    let solo_mate = solo.register(tiny_spec()).unwrap().generate(mate_request());
    for _ in 0..4 {
        assert!(solo_stepper.step(t0));
    }
    let mate_blocks_after_four = solo.stats().kv_blocks_in_use;
    solo_stepper.run_until_idle(t0);
    let mate_expected = solo_mate.collect().unwrap();

    let (engine, mut stepper) = DecodeEngine::stepped(config());
    let model = engine.register(tiny_spec()).unwrap();
    let doomed = model
        .generate(GenerateRequest::new(vec![1], 8).with_deadline(t0 + Duration::from_millis(10)));
    let mate = model.generate(mate_request());
    for _ in 0..3 {
        assert!(stepper.step(t0));
    }
    assert!(engine.stats().kv_blocks_in_use > mate_blocks_after_four);
    assert_eq!(engine.stats().sequences_failed, 0, "deadline not reached");
    // The fourth iteration runs past the deadline.
    assert!(stepper.step(late));
    let stats = engine.stats();
    assert_eq!(stats.sequences_failed, 1);
    assert_eq!(
        stats.kv_blocks_in_use, mate_blocks_after_four,
        "the expired session's blocks must return at once"
    );
    stepper.run_until_idle(late);

    // A single-token prompt emits from its first step: three tokens, then
    // the error.
    let events: Vec<_> = Iterator::collect(doomed);
    assert_eq!(events.len(), 4, "{events:?}");
    assert!(events[..3].iter().all(Result::is_ok));
    assert_eq!(events[3], Err(DecodeError::DeadlineExceeded));
    assert_eq!(mate.collect().unwrap(), mate_expected);
    let stats = idle_stats(&engine);
    assert_eq!(stats.sequences_completed, 1);
    assert_eq!(stats.sequences_failed, 1);
}

/// `DecodeConfig::artifact_store`: a second engine against the same
/// directory rebuilds every pass from the first engine's artifacts — same
/// streams, no file rewritten.
#[test]
fn artifact_store_warm_starts_a_second_engine() {
    let dir = std::env::temp_dir().join(format!("hidet-decode-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let config = DecodeConfig {
            artifact_store: Some(dir.clone()),
            ..chunked_config(vec![4, 16], 16, 32)
        };
        // A 17-token prompt: one 16-chunk prefill pass, then decode steps —
        // two distinct compiled passes (the 4-chunk is never needed).
        let prompt: Vec<u32> = (0..17).map(|i| i * 5 % 12).collect();
        let work = vec![
            GenerateRequest::new(prompt, 4),
            GenerateRequest::new(vec![7, 11], 5),
        ];
        let (generations, stats) = run_stepped(config, prefill_spec(), work);
        assert_eq!(stats.prefill_passes, 1);
        generations
    };
    let artifacts = || {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("the store directory exists after a compile")
            .map(|entry| entry.unwrap().path())
            .collect();
        files.sort();
        files
    };

    let cold = run();
    let files = artifacts();
    assert_eq!(files.len(), 2, "one artifact per compiled pass: {files:?}");
    // Backdate the files, so that a rewrite cannot hide in the granularity
    // of the file system's clock.
    let stamp = std::time::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
    let contents: Vec<Vec<u8>> = files
        .iter()
        .map(|path| {
            let file = std::fs::File::options().write(true).open(path).unwrap();
            file.set_modified(stamp).unwrap();
            std::fs::read(path).unwrap()
        })
        .collect();

    let warm = run();
    assert_eq!(warm, cold, "an artifact load must not change a token");
    assert_eq!(artifacts(), files, "the warm engine must add no artifact");
    for (path, bytes) in files.iter().zip(&contents) {
        assert_eq!(
            std::fs::metadata(path).unwrap().modified().unwrap(),
            stamp,
            "{path:?} was rewritten: the warm engine did not load it"
        );
        assert_eq!(&std::fs::read(path).unwrap(), bytes);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paused_engine_admits_nothing_until_resume_and_drains_on_shutdown() {
    // Sessions queue against a paused engine; resume releases them all at
    // once. A paused engine that is shut down without resume still fails
    // queued sessions instead of hanging.
    let engine = DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 16,
        block_tokens: 4,
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = engine.register(tiny_spec()).unwrap();
    let session = model.generate(GenerateRequest::new(vec![1], 3));
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(engine.stats().steps, 0, "paused engine must not step");
    engine.resume();
    assert_eq!(session.collect().unwrap().tokens.len(), 3);

    let paused = DecodeEngine::new(DecodeConfig {
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = paused.register(tiny_spec()).unwrap();
    let stuck = model.generate(GenerateRequest::new(vec![1], 3));
    paused.shutdown(); // never resumed
    assert_eq!(stuck.collect().unwrap_err(), DecodeError::Closed);
}

#[test]
fn re_registration_releases_the_old_arena() {
    // Re-registering a name replaces the model definition; once the old
    // definition's sessions drain, its KV arena must be dropped — the
    // capacity gauge stays at one arena, not one per registration.
    let engine = engine(2, 16, 4);
    for round in 0..3 {
        let model = engine.register(tiny_spec()).unwrap();
        let generation = model
            .generate(GenerateRequest::new(vec![round as u32 + 1], 3))
            .collect()
            .unwrap();
        assert_eq!(generation.tokens.len(), 3);
    }
    let stats = engine.stats();
    assert_eq!(
        stats.kv_blocks_capacity, 16,
        "departed registrations must release their arenas"
    );
    assert_eq!(stats.kv_blocks_in_use, 0);
}

#[test]
fn decode_stats_attach_to_the_serving_engine_snapshot() {
    let decode = engine(2, 16, 4);
    let model = decode.register(tiny_spec()).unwrap();
    model
        .generate(GenerateRequest::new(vec![2, 3], 4))
        .collect()
        .unwrap();
    let serving = hidet_runtime::Engine::new(hidet_runtime::EngineConfig::quick()).unwrap();
    assert!(serving.stats().decode.is_none(), "nothing attached yet");
    serving.attach_decode_stats(decode.stats_source());
    let snap = serving.stats().decode.expect("decode stats attached");
    assert_eq!(snap.tokens_generated, 4);
    assert_eq!(snap.sequences_completed, 1);
    assert!(!snap.summary().is_empty());
    serving.shutdown().unwrap();
}

/// KV pressure on a shard pool migrates sessions instead of failing them:
/// with one shard's arena full, a competing session lands on (or moves to)
/// the empty shard and completes. `KvExhausted` surfaces only when *no*
/// shard in the pool could hold the sequence even alone.
#[test]
fn kv_exhausted_only_when_no_shard_in_the_pool_fits() {
    // Reference streams from an ample single-device engine.
    let ample = engine(2, 32, 2);
    let ample_model = ample.register(tiny_spec()).unwrap();
    let reference = |prompt: Vec<u32>, n: usize| {
        ample_model
            .generate(GenerateRequest::new(prompt, n))
            .collect()
            .unwrap()
            .tokens
    };
    let hog_expected = reference(vec![1, 2], 7);
    let other_expected = reference(vec![3, 4], 6);

    // Two shards, each a 4-block × 2-token arena (8 cached tokens). The hog
    // (2 + 7 - 1 = 8 tokens) and the other session (7 tokens) each need a
    // full arena — they cannot share one, but the pool holds both.
    let pool = DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 4,
        block_tokens: 2,
        devices: vec![GpuSpec::rtx3090(), GpuSpec::rtx3090()],
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = pool.register(tiny_spec()).unwrap();
    let hog = model.generate(
        GenerateRequest::new(vec![1, 2], 7)
            .with_shard(0)
            .with_priority(Priority::High),
    );
    let other = model.generate(GenerateRequest::new(vec![3, 4], 6).with_shard(0));
    pool.resume();
    assert_eq!(other.collect().unwrap().tokens, other_expected);
    assert_eq!(hog.collect().unwrap().tokens, hog_expected);
    let stats = pool.stats();
    assert!(
        stats.sessions_migrated >= 1,
        "pressure must relocate, not evict in place: {stats:?}"
    );
    assert_eq!(stats.sequences_failed, 0, "no KvExhausted with headroom");

    // 5 + 6 - 1 = 10 cached tokens = 5 blocks: bigger than EVERY arena
    // alone — only now does the pool refuse.
    let err = model
        .generate(GenerateRequest::new(vec![1, 2, 3, 4, 5], 6))
        .collect()
        .unwrap_err();
    assert_eq!(err, DecodeError::KvExhausted);
    let stats = pool.stats();
    assert_eq!(stats.kv_blocks_in_use, 0, "no block leaked");
    for shard in &stats.shards {
        assert_eq!(shard.kv_blocks_in_use, 0, "shard leaked: {shard:?}");
    }
}

/// Per-shard rows telescope to the aggregates — tokens, steps and placements
/// sum up, and every migration out of one shard lands in another.
fn assert_shards_telescope(stats: &DecodeStatsSnapshot, placed: usize) {
    let sum = |f: fn(&hidet_runtime::DecodeShardSnapshot) -> usize| -> usize {
        stats.shards.iter().map(f).sum()
    };
    assert_eq!(sum(|s| s.tokens_generated), stats.tokens_generated);
    assert_eq!(sum(|s| s.steps), stats.steps);
    assert_eq!(sum(|s| s.sessions_placed), placed);
    assert_eq!(
        sum(|s| s.migrations_out),
        sum(|s| s.migrations_in),
        "every migration out must land somewhere"
    );
    assert_eq!(sum(|s| s.migrations_out), stats.sessions_migrated);
    assert!(stats.sessions_migrated > 0, "the policy must force moves");
    assert!(stats.cluster_tokens_per_second > 0.0);
    assert!(
        stats.cluster_tokens_per_second >= stats.tokens_per_second,
        "parallel shards: makespan throughput can only beat summed-work"
    );
    for shard in &stats.shards {
        assert_eq!(shard.device, GpuSpec::rtx3090().name);
        assert_eq!(shard.kv_blocks_in_use, 0);
    }
}

/// Satellite invariant of the multi-device stats, and the pool's scaling
/// claim on the same books: four shards sustain at least three times one
/// shard's cluster tokens per second while every long session is
/// force-migrated mid-generation.
#[test]
fn per_shard_stats_telescope_to_the_aggregates() {
    let (pool, mut stepper) = DecodeEngine::stepped(DecodeConfig {
        max_batch: 2,
        kv_blocks: 16,
        block_tokens: 4,
        devices: vec![GpuSpec::rtx3090(), GpuSpec::rtx3090()],
        ..DecodeConfig::default()
    });
    let model = pool.register(tiny_spec()).unwrap();
    let sessions: Vec<_> = (1..)
        .zip(workload(7, 4))
        .map(|(id, (p, n))| model.generate(GenerateRequest::new(p, n.max(3)).with_trace(id)))
        .collect();
    ForcedMigration::new(2, 2).run_until_idle(&mut stepper);
    for session in sessions {
        session.collect().unwrap();
    }
    let stats = idle_stats(&pool);
    assert_eq!(stats.shards.len(), 2);
    assert_shards_telescope(&stats, 4);

    // Sixteen groups of the mix, so throughput — not one long session's
    // critical path — bounds the cluster. The replay chain of every
    // migrated session is paid for inside the 4-shard number.
    let run = |devices: usize| {
        let (engine, mut stepper) = DecodeEngine::stepped(DecodeConfig {
            max_batch: 4,
            kv_blocks: 64,
            block_tokens: 4,
            devices: vec![GpuSpec::rtx3090(); devices],
            ..DecodeConfig::default()
        });
        let model = engine.register(mix_spec()).unwrap();
        let sessions: Vec<_> = (1..)
            .zip(mix(16, Priority::High))
            .map(|(id, request)| model.generate(request.with_trace(id)))
            .collect();
        // On one shard "the next shard" is the session's own: no moves.
        ForcedMigration::new(2, devices).run_until_idle(&mut stepper);
        let generations: Vec<Generation> =
            sessions.into_iter().map(|s| s.collect().unwrap()).collect();
        (generations, idle_stats(&engine))
    };
    let (solo_gens, solo) = run(1);
    let (pool_gens, pool) = run(4);
    assert_eq!(solo.sessions_migrated, 0);
    assert_eq!(
        tokens(&pool_gens),
        tokens(&solo_gens),
        "placement and migration must not change tokens"
    );
    assert_shards_telescope(&pool, 64);
    let scaling = pool.cluster_tokens_per_second / solo.cluster_tokens_per_second;
    assert!(
        scaling >= 3.0,
        "4 shards must sustain >= 3x one shard's cluster tokens/sec, got {scaling:.2}x \
         ({} migrations)",
        pool.sessions_migrated
    );
}

/// The headroom rebalancer — the one migration trigger with no pressure
/// behind it: two sessions pinned to shard 0 grow until its
/// arena passes the hot threshold while shard 1 sits empty, so one of them
/// must move hot → cold, invisibly to its token stream.
#[test]
fn headroom_rebalance_moves_a_session_off_the_hot_shard() {
    // Each session caches 3 + 6 - 1 = 8 tokens = 4 blocks; together they
    // fill shard 0's 8-block arena exactly, so KV pressure (the other
    // migration trigger) never fires — occupancy crosses 75 % on the way.
    let requests: Vec<(Vec<u32>, usize)> = vec![(vec![5, 1, 9], 6), (vec![2, 14, 7], 6)];
    let solo_engine = engine(1, 32, 4);
    let solo_model = solo_engine.register(tiny_spec()).unwrap();
    let solo: Vec<Vec<u32>> = requests
        .iter()
        .map(|(p, n)| {
            solo_model
                .generate(GenerateRequest::new(p.clone(), *n))
                .collect()
                .unwrap()
                .tokens
        })
        .collect();

    let pool = DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 8,
        block_tokens: 2,
        devices: vec![GpuSpec::rtx3090(), GpuSpec::rtx3090()],
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = pool.register(tiny_spec()).unwrap();
    let sessions: Vec<_> = requests
        .iter()
        .map(|(p, n)| model.generate(GenerateRequest::new(p.clone(), *n).with_shard(0)))
        .collect();
    pool.resume();
    let streams: Vec<Vec<u32>> = sessions
        .into_iter()
        .map(|s| s.collect().unwrap().tokens)
        .collect();
    assert_eq!(streams, solo, "a rebalance move must be stream-invisible");
    let stats = pool.stats();
    assert!(
        stats.shards[1].migrations_in >= 1,
        "skewed headroom must move a session hot -> cold: {stats:?}"
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.migrations_in).sum::<usize>(),
        stats.shards.iter().map(|s| s.migrations_out).sum::<usize>(),
    );
    assert_eq!(stats.kv_evictions, stats.sessions_migrated, "no pressure");
    for shard in &stats.shards {
        assert_eq!(shard.kv_blocks_in_use, 0, "shard leaked: {shard:?}");
    }
}

/// Deterministic PRNG (SplitMix64) deriving a random decode workload from
/// one proptest-supplied seed: prompt lengths, token values, generation
/// budgets and arrival order all vary per case.
fn workload(mut seed: u64, sequences: usize) -> Vec<(Vec<u32>, usize)> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..sequences)
        .map(|_| {
            let plen = 1 + (next() % 3) as usize;
            let prompt: Vec<u32> = (0..plen).map(|_| (next() % 16) as u32).collect();
            let max_tokens = 1 + (next() % 5) as usize;
            (prompt, max_tokens)
        })
        .collect()
}

/// A decode model sized for the chunked-prefill tests: context window 40
/// admits prompts that straddle every menu's chunk boundaries, and the
/// single tiny layer keeps the interpreter fast enough for proptest cases.
fn prefill_spec() -> DecodeModelSpec {
    DecodeModelSpec::transformer("tiny-prefill", 1, 8, 2, 12, 40)
}

fn chunked_config(menu: Vec<usize>, budget: usize, kv_blocks: usize) -> DecodeConfig {
    DecodeConfig {
        max_batch: 3,
        kv_blocks,
        block_tokens: 2,
        chunk_menu: menu,
        prefill_token_budget: budget,
        ..DecodeConfig::default()
    }
}

fn chunked_engine(menu: Vec<usize>, budget: usize, kv_blocks: usize) -> DecodeEngine {
    DecodeEngine::new(chunked_config(menu, budget, kv_blocks))
}

/// Deterministic eviction-pressure scenario: a best-effort session with a
/// 17-token prompt (long enough for a 16-chunk) is preempted by a
/// high-priority arrival, so its replay chain — prompt plus already-emitted
/// tokens — must be re-absorbed *chunked* after re-admission. The stream
/// must match an ample token-wise run exactly.
#[test]
fn chunked_replay_after_eviction_matches_tokenwise() {
    let hog_prompt: Vec<u32> = (0..17).map(|i| (i * 5 % 12) as u32).collect();
    let urgent_prompt = vec![3, 7, 1, 9];

    // Reference: ample KV, empty chunk menu — pure token-wise absorption.
    let ample = DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 64,
        block_tokens: 2,
        chunk_menu: vec![],
        ..DecodeConfig::default()
    });
    let model = ample.register(prefill_spec()).unwrap();
    let hog_expected = model
        .generate(GenerateRequest::new(hog_prompt.clone(), 6))
        .collect()
        .unwrap()
        .tokens;
    let urgent_expected = model
        .generate(GenerateRequest::new(urgent_prompt.clone(), 8))
        .collect()
        .unwrap()
        .tokens;

    // Tight arena: 12 blocks of 2 tokens. The hog needs 11 blocks
    // (17 + 6 - 1 = 22 tokens), the urgent session 6 — they cannot coexist,
    // but each fits alone, so preemption (not failure) must resolve it. The
    // urgent generation is long enough (8 tokens) that it still holds its
    // blocks when the hog's cache reaches the capacity wall.
    let tight = DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 12,
        block_tokens: 2,
        chunk_menu: vec![4, 16],
        prefill_token_budget: 16,
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = tight.register(prefill_spec()).unwrap();
    let hog =
        model.generate(GenerateRequest::new(hog_prompt, 6).with_priority(Priority::BestEffort));
    let urgent =
        model.generate(GenerateRequest::new(urgent_prompt, 8).with_priority(Priority::High));
    tight.resume();
    assert_eq!(urgent.collect().unwrap().tokens, urgent_expected);
    assert_eq!(
        hog.collect().unwrap().tokens,
        hog_expected,
        "chunked replay after eviction must be invisible"
    );
    let stats = tight.stats();
    assert!(stats.kv_evictions > 0, "the hog must have been preempted");
    assert!(stats.recomputed_tokens >= 17, "replay re-feeds the chain");
    assert!(
        stats.prefill_passes >= 2,
        "both first absorption and replay must go through chunked prefill, got {}",
        stats.prefill_passes
    );
    assert!(stats.prefill_tokens > 17);
    assert_eq!(stats.kv_blocks_in_use, 0, "no block leaked");
}

/// What chunked prefill buys and what it costs, on the simulated clock. A
/// 16-token prompt joins two sessions that are mid-generation (it waits for
/// the slot of a third, short one): absorbed as one 16-chunk its time to
/// first token is at most half the token-wise sixteen steps, and because
/// the per-iteration token budget bounds how many inter-token gaps of the
/// running sessions carry a prefill pass, their ITL p95 stays within 20%.
#[test]
fn chunked_prefill_halves_long_prompt_ttft() {
    let long_prompt: Vec<u32> = (0..16).map(|i| i * 7 % 12).collect();
    let run = |menu: Vec<usize>| {
        let work = vec![
            GenerateRequest::new(vec![1, 5], 4),
            GenerateRequest::new(vec![7, 11], 30),
            GenerateRequest::new(vec![2, 9], 30),
            GenerateRequest::new(long_prompt.clone(), 4),
        ];
        run_paused(chunked_config(menu, 16, 64), prefill_spec(), work)
    };
    let (chunked_gens, chunked) = run(vec![4, 16]);
    let (tokenwise_gens, tokenwise) = run(vec![]);
    assert_eq!(tokens(&chunked_gens), tokens(&tokenwise_gens));
    let (chunked_ttft, tokenwise_ttft) = (
        chunked_gens[3].ttft_from_admission_seconds,
        tokenwise_gens[3].ttft_from_admission_seconds,
    );
    assert!(
        chunked_ttft <= 0.5 * tokenwise_ttft,
        "chunked TTFT must be <= 0.5x token-wise, got {chunked_ttft:.6}s vs {tokenwise_ttft:.6}s"
    );
    let itl_ratio = chunked.itl_p95_seconds / tokenwise.itl_p95_seconds;
    assert!(
        itl_ratio < 1.2,
        "ITL p95 of the running sessions must grow < 20%, got {itl_ratio:.2}x"
    );
    assert_eq!(chunked.prefill_passes, 1);
    assert_eq!(
        chunked.prefill_interleave_occupancy, 1.0,
        "the chunk must land between decode steps of live sessions"
    );
    assert_eq!(chunked.kv_blocks_in_use, 0);
}

/// TTFT decomposition telescopes: queue + prefill + first-decode segments
/// must sum to the full submit-to-first-token time, and a chunk that
/// finishes a prompt books a zero first-decode segment (the first token
/// rides the prefill pass itself).
#[test]
fn ttft_decomposition_telescopes() {
    let engine = chunked_engine(vec![4, 16], 16, 32);
    let model = engine.register(prefill_spec()).unwrap();
    let prompt: Vec<u32> = (0..16).map(|i| (i % 12) as u32).collect();
    let generation = model
        .generate(GenerateRequest::new(prompt, 3))
        .collect()
        .unwrap();
    assert!(generation.ttft_from_admission_seconds <= generation.ttft_from_submit_seconds);
    let stats = engine.stats();
    assert!(
        stats.prefill_passes >= 1,
        "16-token prompt uses the 16-chunk"
    );
    let sum = stats.ttft_queue_p50_seconds
        + stats.ttft_prefill_p50_seconds
        + stats.ttft_first_decode_p50_seconds;
    assert!(
        (sum - stats.ttft_p50_seconds).abs() < 1e-9,
        "queue {} + prefill {} + first-decode {} != ttft {}",
        stats.ttft_queue_p50_seconds,
        stats.ttft_prefill_p50_seconds,
        stats.ttft_first_decode_p50_seconds,
        stats.ttft_p50_seconds
    );
    // A 16-chunk consumed the whole 16-token prompt, so the first token was
    // emitted by the prefill pass itself: zero first-decode segment.
    assert_eq!(stats.ttft_first_decode_p50_seconds, 0.0);
    assert!(stats.ttft_prefill_p50_seconds > 0.0);
}

/// Chunk menus the randomized bit-identity test draws from: mixed strides,
/// including menus whose smallest chunk forces token-wise tails.
const MENUS: [&[usize]; 4] = [&[4, 16], &[3, 8], &[2, 4, 16], &[5, 12]];

/// Prompt lengths that straddle the menu's chunk boundaries: exact
/// multiples, tails of one, sub-chunk prompts, and off-by-one around the
/// largest chunk.
fn straddling_lengths(menu: &[usize], mut seed: u64) -> Vec<usize> {
    let largest = *menu.last().unwrap();
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    vec![
        1,
        largest - 1,
        largest,
        largest + 1,
        2 * largest,
        2 * largest + 1,
        1 + (next() % (2 * largest as u64)) as usize,
    ]
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

    /// Randomized bit-identity: for random prompt lengths, token values,
    /// generation budgets and staggered arrivals, continuous-batched decode
    /// emits token streams bit-identical to running each sequence alone —
    /// with the batched engine's KV arena reused (and leak-free) across the
    /// whole case.
    #[test]
    fn continuous_batching_is_bit_identical_to_solo(
        seed in 0u64..1_000_000,
        sequences in 2usize..6,
        stagger in 0usize..3,
    ) {
        let requests = workload(seed, sequences);
        let solo_engine = engine(1, 32, 4);
        let solo_model = solo_engine.register(tiny_spec()).unwrap();
        let solo: Vec<Vec<u32>> = requests
            .iter()
            .map(|(p, n)| {
                solo_model
                    .generate(GenerateRequest::new(p.clone(), *n))
                    .collect()
                    .unwrap()
                    .tokens
            })
            .collect();
        let batched_engine = engine(3, 32, 4);
        let batched_model = batched_engine.register(tiny_spec()).unwrap();
        // Staggered arrival: the tail of the workload is submitted only
        // after the head's first session completes, so late sequences join
        // a batch that is already mid-flight.
        let split = stagger.min(requests.len() - 1);
        let head: Vec<_> = requests[..requests.len() - split]
            .iter()
            .map(|(p, n)| batched_model.generate(GenerateRequest::new(p.clone(), *n)))
            .collect();
        let mut batched: Vec<Vec<u32>> = Vec::new();
        let mut head_iter = head.into_iter();
        if let Some(first) = head_iter.next() {
            batched.push(first.collect().unwrap().tokens);
        }
        let tail: Vec<_> = requests[requests.len() - split..]
            .iter()
            .map(|(p, n)| batched_model.generate(GenerateRequest::new(p.clone(), *n)))
            .collect();
        for session in head_iter.chain(tail) {
            batched.push(session.collect().unwrap().tokens);
        }
        prop_assert_eq!(batched, solo);
        prop_assert_eq!(batched_engine.stats().kv_blocks_in_use, 0);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

    /// The chunked-prefill signature invariant: for random chunk menus,
    /// prompt lengths straddling every chunk boundary, staggered arrivals
    /// and random generation budgets, the chunked engine's token streams are
    /// bit-identical to token-wise absorption — the prompt path changes, the
    /// math must not.
    #[test]
    fn chunked_prefill_is_bit_identical_to_tokenwise(
        seed in 0u64..1_000_000,
        menu_idx in 0usize..MENUS.len(),
        budget in 4usize..24,
        stagger in 0usize..3,
    ) {
        let menu = MENUS[menu_idx];
        let mut lengths = straddling_lengths(menu, seed);
        // Three sequences per case keep the interpreter budget sane; rotate
        // through the boundary lengths so every case straddles differently.
        let rot = (seed % lengths.len() as u64) as usize;
        lengths.rotate_left(rot);
        let requests: Vec<(Vec<u32>, usize)> = lengths
            .into_iter()
            .take(3)
            .enumerate()
            .map(|(i, plen)| {
                let prompt: Vec<u32> = (0..plen)
                    .map(|j| ((seed as usize + i * 7 + j * 3) % 12) as u32)
                    .collect();
                (prompt, 1 + (seed as usize + i) % 3)
            })
            .collect();

        // Reference: same scheduler, chunking disabled. Sessions submit
        // together — batching is already proven stream-invisible, and one
        // batched pass costs max-chain iterations instead of sum-of-chains.
        let tokenwise = chunked_engine(vec![], 0, 32);
        let model = tokenwise.register(prefill_spec()).unwrap();
        let sessions: Vec<_> = requests
            .iter()
            .map(|(p, n)| model.generate(GenerateRequest::new(p.clone(), *n)))
            .collect();
        let expected: Vec<Vec<u32>> = sessions
            .into_iter()
            .map(|s| s.collect().unwrap().tokens)
            .collect();

        let chunked = chunked_engine(menu.to_vec(), budget, 32);
        let model = chunked.register(prefill_spec()).unwrap();
        // Staggered arrival: the tail submits only after the head's first
        // session completes, so late prompts chunk into a mid-flight batch.
        let split = stagger.min(requests.len() - 1);
        let head: Vec<_> = requests[..requests.len() - split]
            .iter()
            .map(|(p, n)| model.generate(GenerateRequest::new(p.clone(), *n)))
            .collect();
        let mut streams: Vec<Vec<u32>> = Vec::new();
        let mut head_iter = head.into_iter();
        if let Some(first) = head_iter.next() {
            streams.push(first.collect().unwrap().tokens);
        }
        let tail: Vec<_> = requests[requests.len() - split..]
            .iter()
            .map(|(p, n)| model.generate(GenerateRequest::new(p.clone(), *n)))
            .collect();
        for session in head_iter.chain(tail) {
            streams.push(session.collect().unwrap().tokens);
        }
        prop_assert_eq!(streams, expected);
        let stats = chunked.stats();
        // The boundary lengths guarantee at least one chunkable prompt
        // whenever the budget admits the smallest chunk.
        if budget >= menu[0] {
            prop_assert!(stats.prefill_passes > 0);
        }
        prop_assert_eq!(stats.kv_blocks_in_use, 0);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

    /// The multi-device signature invariant: live migration is a pure
    /// placement decision. For random prompts, budgets and staggered
    /// arrivals, a shard pool that *forcibly migrates every session
    /// mid-generation* emits token streams bit-identical to the same
    /// workload pinned to a single shard — and releases every KV block on
    /// every shard it touched (`idle_stats`).
    #[test]
    fn migrated_session_is_bit_identical_to_pinned(
        seed in 0u64..1_000_000,
        sequences in 2usize..5,
        stagger in 0usize..3,
    ) {
        let mut requests = workload(seed, sequences);
        // At least one session must survive past the policy's threshold, or
        // a degenerate draw (all budgets of 1) would see zero migrations.
        requests[0].1 = requests[0].1.max(3);
        // Pinned reference: one device, every session pinned to shard 0.
        let pinned_engine = engine(3, 32, 4);
        let pinned_model = pinned_engine.register(tiny_spec()).unwrap();
        let pinned: Vec<Vec<u32>> = requests
            .iter()
            .map(|(p, n)| {
                pinned_model
                    .generate(GenerateRequest::new(p.clone(), *n).with_shard(0))
                    .collect()
                    .unwrap()
                    .tokens
            })
            .collect();
        // Three-shard pool under the forced-migration policy: every session
        // moves to the next shard after its first emitted token, so the
        // replay chain crosses arenas mid-generation.
        let (pool, mut stepper) = DecodeEngine::stepped(DecodeConfig {
            max_batch: 3,
            kv_blocks: 32,
            block_tokens: 4,
            devices: vec![GpuSpec::rtx3090(), GpuSpec::rtx3090(), GpuSpec::rtx3090()],
            ..DecodeConfig::default()
        });
        let model = pool.register(tiny_spec()).unwrap();
        let submit = |i: usize| {
            let (p, n) = requests[i].clone();
            model.generate(GenerateRequest::new(p, n).with_trace(i as u64 + 1))
        };
        let mut policy = ForcedMigration::new(1, 3);
        // Staggered arrival, to the iteration: the tail submits when the
        // head's first session has completed, so it joins pools that are
        // mid-flight and mid-migration.
        let head = requests.len() - stagger.min(requests.len() - 1);
        let mut first = submit(0);
        let rest: Vec<_> = (1..head).map(submit).collect();
        let mut streams = vec![Vec::new()];
        while !drain(&mut first, &mut streams[0]) {
            prop_assert!(policy.step(&mut stepper), "idle before the first session finished");
        }
        let tail: Vec<_> = (head..requests.len()).map(submit).collect();
        policy.run_until_idle(&mut stepper);
        for session in rest.into_iter().chain(tail) {
            streams.push(session.collect().unwrap().tokens);
        }
        prop_assert_eq!(streams, pinned);
        let stats = idle_stats(&pool);
        prop_assert!(stats.sessions_migrated > 0, "the policy must fire");
        prop_assert_eq!(stats.kv_blocks_in_use, 0);
    }
}
