//! `decode_mixed` — in-process `DecodeEngine`, one generator thread.
//!
//! Two RTX 3090 shards multiplexed by the engine's one host worker, four
//! decode slots each. Every repetition builds a fresh paused engine, submits
//! all 16 sessions (12 short chats, 3 long high-priority completions, one
//! 32-token prompt that goes through chunked prefill), then calls `resume()`
//! — so scheduling, and with it every simulated statistic, is replayed
//! exactly. Token generation is where the host time goes (the interpreter),
//! and this is the two-shards-on-one-worker configuration a per-shard host
//! thread has to speed up.

use std::time::{Duration, Instant};

use hidet::CompilerOptions;
use hidet_decode::{
    DecodeConfig, DecodeEngine, DecodeModel, DecodeModelSpec, DecodeSession, GenerateRequest,
    KvAllocator, KvCache, KvLayout, SessionPoll,
};
use hidet_runtime::{DecodeStatsSnapshot, Priority};
use hidet_sim::{Gpu, GpuSpec};

use crate::gen::{self, SessionSpec};
use crate::harness::{self, probe_batched, Ctx, EndToEnd, Segments, TracedWalls};
use crate::oracle;
use crate::outcome::{Checks, Outcome};
use crate::probes;
use crate::spans::SpanCollector;
use crate::stats::Summary;
use crate::workloads::zoo_compile::kernel_nodes;

const LAYERS: usize = 2;
const HIDDEN: i64 = 32;
const HEADS: i64 = 2;
const MAX_CONTEXT: i64 = 48;
const MAX_BATCH: usize = 4;
const KV_BLOCKS: usize = 64;
const BLOCK_TOKENS: usize = 8;
/// Sessions replayed alone for the bit-identity check (the long prompt is
/// always one of them).
const SOLO_SAMPLES: usize = 4;

fn model_spec() -> DecodeModelSpec {
    DecodeModelSpec::transformer(
        "bench_decode",
        LAYERS,
        HIDDEN,
        HEADS,
        i64::from(gen::DECODE_VOCAB),
        MAX_CONTEXT,
    )
}

/// The engine under test. `start_paused` is what makes the simulated clock
/// exact: nothing is admitted until the whole workload is queued.
fn config() -> DecodeConfig {
    DecodeConfig {
        devices: vec![GpuSpec::rtx3090(); 2],
        max_batch: MAX_BATCH,
        kv_blocks: KV_BLOCKS,
        block_tokens: BLOCK_TOKENS,
        start_paused: true,
        ..DecodeConfig::default()
    }
}

fn setup() -> (DecodeEngine, DecodeModel) {
    let engine = DecodeEngine::new(config());
    let model = engine
        .register(model_spec())
        .expect("bench_decode registers");
    (engine, model)
}

/// One body's observations.
struct Rep {
    wall_s: f64,
    /// Per session: its tokens, or how it failed.
    streams: Vec<Result<Vec<u32>, String>>,
    /// Per session: host seconds from body start to each of its tokens.
    token_s: Vec<Vec<f64>>,
    stats: DecodeStatsSnapshot,
}

impl Rep {
    /// Host milliseconds between consecutive tokens of one session, over all
    /// sessions: the stream cadence a client sees.
    fn inter_token_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_s
            .iter()
            .flat_map(|times| times.windows(2).map(|w| (w[1] - w[0]) * 1e3))
    }
}

/// How long the generator blocks on one stream before sweeping the others
/// and the engine's counters: the resolution of every host timestamp taken
/// here (a decode step takes hundreds of milliseconds), at a couple of
/// hundred cheap wake-ups a second.
const POLL: Duration = Duration::from_millis(5);

/// Submits every session, resumes the engine and follows all streams from
/// one thread — a bounded wait on the oldest live stream, then whatever the
/// others have ready — until the last one ends. Between sweeps it reads the
/// engine's public counters: each time `steps` or `prefill_passes` advances,
/// the interval since the previous advance is one piece of the body (class
/// `step` or `prefill`; every decode step runs the same fixed-shape graph).
fn body(
    engine: DecodeEngine,
    model: &DecodeModel,
    sessions: &[SessionSpec],
    pieces: &mut Segments,
) -> Rep {
    let start = Instant::now();
    let mut live: Vec<(usize, DecodeSession)> = sessions
        .iter()
        .map(|s| {
            let priority = if s.high {
                Priority::High
            } else {
                Priority::Normal
            };
            GenerateRequest::new(s.prompt.clone(), s.max_tokens).with_priority(priority)
        })
        .map(|request| model.generate(request))
        .enumerate()
        .collect();
    engine.resume();
    let mut streams: Vec<Result<Vec<u32>, String>> = vec![Ok(Vec::new()); sessions.len()];
    let mut token_s: Vec<Vec<f64>> = vec![Vec::new(); sessions.len()];
    let (mut steps, mut prefills, mut last_advance) = (0, 0, 0.0);
    while !live.is_empty() {
        let mut wait = POLL;
        live.retain_mut(|(i, session)| loop {
            match session.next_timeout(std::mem::take(&mut wait)) {
                Ok(SessionPoll::Pending) => return true,
                Ok(SessionPoll::Token(event)) => {
                    if let Ok(tokens) = &mut streams[*i] {
                        tokens.push(event.token);
                        token_s[*i].push(start.elapsed().as_secs_f64());
                    }
                }
                Ok(SessionPoll::Finished) => return false,
                Err(e) => {
                    streams[*i] = Err(e.to_string());
                    return false;
                }
            }
        });
        let now = engine.stats();
        if (now.steps, now.prefill_passes) != (steps, prefills) {
            let at = start.elapsed().as_secs_f64();
            let class = match (now.steps > steps, now.prefill_passes > prefills) {
                (true, false) => "step",
                (false, _) => "prefill",
                (true, true) => "prefill+step",
            };
            pieces.push(class, at - last_advance);
            (steps, prefills, last_advance) = (now.steps, now.prefill_passes, at);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    pieces.end_rep();
    let stats = engine.stats();
    engine.shutdown();
    Rep {
        wall_s,
        streams,
        token_s,
        stats,
    }
}

/// The simulated-clock and counter values of a snapshot that must repeat
/// exactly from one repetition to the next.
fn exact_fingerprint(s: &DecodeStatsSnapshot) -> Vec<u64> {
    let mut out = vec![
        s.tokens_generated as u64,
        s.steps as u64,
        s.prefill_passes as u64,
        s.prefill_tokens as u64,
        s.kv_blocks_peak as u64,
        s.kv_evictions as u64,
        s.recomputed_tokens as u64,
        s.sessions_migrated as u64,
        s.cluster_tokens_per_second.to_bits(),
        s.ttft_p50_seconds.to_bits(),
        s.ttft_p95_seconds.to_bits(),
        s.itl_p95_seconds.to_bits(),
    ];
    out.extend(s.shards.iter().map(|shard| shard.tokens_generated as u64));
    out
}

fn check_rep(rep: &Rep, sessions: &[SessionSpec], checks: &mut Checks) {
    for (i, (stream, spec)) in rep.streams.iter().zip(sessions).enumerate() {
        let ok = stream.as_ref().is_ok_and(|t| t.len() == spec.max_tokens);
        checks.check(ok, || match stream {
            Ok(tokens) => format!(
                "session {i}: {} tokens, wanted {}",
                tokens.len(),
                spec.max_tokens
            ),
            Err(e) => format!("session {i}: {e}"),
        });
    }
    let s = &rep.stats;
    checks.check(
        s.sequences_completed == sessions.len()
            && s.sequences_failed == 0
            && s.kv_blocks_in_use == 0,
        || format!("engine did not drain cleanly: {}", s.summary()),
    );
}

/// Replays sampled sessions alone on a one-shard, one-slot engine: batching,
/// placement across two shards and chunked prefill must not change a token.
fn check_against_solo(rep: &Rep, sessions: &[SessionSpec], seed: u64, checks: &mut Checks) {
    let mut picks: Vec<usize> = (0..sessions.len() - 1).collect();
    gen::shuffle(&mut picks, &mut gen::rng(seed, 5));
    picks.truncate(SOLO_SAMPLES - 1);
    picks.push(sessions.len() - 1);
    let sampled: Vec<&SessionSpec> = picks.iter().map(|&i| &sessions[i]).collect();
    let solo = oracle::solo_streams(
        DecodeConfig {
            max_batch: 1,
            kv_blocks: KV_BLOCKS,
            block_tokens: BLOCK_TOKENS,
            ..DecodeConfig::default()
        },
        model_spec(),
        &sampled,
    );
    for (&i, solo) in picks.iter().zip(solo) {
        let same = solo.is_ok() && solo == rep.streams[i];
        checks.check(same, || {
            format!(
                "session {i}: batched stream {:?} differs from solo stream {:?}",
                rep.streams[i], solo
            )
        });
    }
}

fn set_snapshot_metrics(outcome: &mut Outcome, s: &DecodeStatsSnapshot) {
    outcome.set_value("sim_tokens_per_s", s.cluster_tokens_per_second);
    outcome.set_value("sim_ttft_p50_us", s.ttft_p50_seconds * 1e6);
    outcome.set_value("sim_itl_p95_us", s.itl_p95_seconds * 1e6);
    outcome.set_value("decode.sim_ttft_p95_us", s.ttft_p95_seconds * 1e6);
    outcome.set_value(
        "decode.sim_ttft_queue_p50_us",
        s.ttft_queue_p50_seconds * 1e6,
    );
    outcome.set_value(
        "decode.sim_ttft_prefill_p50_us",
        s.ttft_prefill_p50_seconds * 1e6,
    );
    set_decode_counts(outcome, s);
}

/// The decode engine's counters (source **S**), shared with `wire_mixed`.
pub fn set_decode_counts(outcome: &mut Outcome, s: &DecodeStatsSnapshot) {
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    outcome.set_value("decode.steps", s.steps as f64);
    outcome.set_value("decode.mean_step_occupancy", s.mean_step_occupancy);
    outcome.set_value("decode.prefill_passes", s.prefill_passes as f64);
    outcome.set_value("decode.prefill_tokens", s.prefill_tokens as f64);
    outcome.set_value(
        "decode.kv_peak_share",
        ratio(s.kv_blocks_peak, s.kv_blocks_capacity),
    );
    outcome.set_value("decode.kv_evictions", s.kv_evictions as f64);
    outcome.set_value(
        "decode.recomputed_share",
        ratio(s.recomputed_tokens, s.tokens_generated),
    );
    outcome.set_value("decode.sessions_migrated", s.sessions_migrated as f64);
    // Busiest shard's share of generated tokens over the even share, minus
    // one: 0 is perfectly balanced, 1 means one of two shards did it all.
    let busiest = s
        .shards
        .iter()
        .map(|sh| sh.tokens_generated)
        .max()
        .unwrap_or(0);
    let even = ratio(s.tokens_generated, s.shards.len());
    outcome.set_value(
        "decode.shard_token_imbalance",
        if even == 0.0 {
            0.0
        } else {
            busiest as f64 / even - 1.0
        },
    );
}

/// Probes: the interpreter on the step graph (compiled through the public
/// compiler the way the engine compiles it, minus the engine's private
/// compact-tile seeding — see the README) and the KV allocator's hot pair.
fn set_probe_metrics(outcome: &mut Outcome, seed: u64) {
    let gpu = Gpu::new(GpuSpec::rtx3090());
    let step = hidet_graph::models::transformer_decode_step(
        "bench_decode",
        MAX_BATCH as i64,
        MAX_CONTEXT,
        LAYERS,
        HIDDEN,
        HEADS,
        i64::from(gen::DECODE_VOCAB),
    );
    let compiled = hidet::compile(&step, &gpu, &CompilerOptions::quick().order_stable())
        .expect("step graph compiles");
    let interp = probes::interp_probe(compiled.plan(), &gpu, seed);
    probes::set_interp_metrics(outcome, &[interp]);
    outcome.set_value("ir.kernel_nodes", kernel_nodes(&compiled) as f64);
    outcome.set_value("core.kernels", compiled.num_kernels() as f64);

    let layout = KvLayout {
        layers: LAYERS,
        hidden: HIDDEN as usize,
        block_tokens: BLOCK_TOKENS,
    };
    let mut allocator = KvAllocator::new(layout, KV_BLOCKS);
    let mut cache = KvCache::new();
    let tokens = 4 * BLOCK_TOKENS;
    let per_cycle = probe_batched(64, || {
        for _ in 0..tokens {
            allocator
                .append(&mut cache)
                .expect("arena holds one sequence");
        }
        allocator.release(&mut cache);
    });
    outcome.set(
        "decode.kv_append_release_ns",
        per_cycle.scaled(1e9 / (tokens + 1) as f64),
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = ctx.outcome("decode_mixed");
    let sessions = gen::decode_sessions(ctx.seed);
    let tokens: usize = sessions.iter().map(|s| s.max_tokens).sum();
    outcome.note(
        "model",
        format!(
        "transformer layers={LAYERS} hidden={HIDDEN} heads={HEADS} vocab={} context={MAX_CONTEXT}",
        gen::DECODE_VOCAB
    ),
    );
    outcome.note("engine", format!(
        "devices=2x rtx3090, max_batch={MAX_BATCH}, kv_blocks={KV_BLOCKS}, block_tokens={BLOCK_TOKENS}, start_paused"
    ));
    outcome.note("sessions", format!(
        "{} chats (2-token prompt, 4-7 new) + {} long completions (1-token prompt, 20 new, high) + 1 prompt of {} tokens (4 new)",
        gen::DECODE_CHATS, gen::DECODE_LONG_COMPLETIONS, gen::DECODE_LONG_PROMPT
    ));
    outcome.note("generated_tokens", tokens);
    outcome.note("work_item", "one generated token");
    outcome.note("latency_sample", "one inter-token gap of one session");
    outcome.note(
        "pieces",
        "body: step, prefill (engine counter advances); set-up: setup",
    );
    outcome.note("solo_oracle_sessions", SOLO_SAMPLES);
    let mut checks = Checks::default();

    let mut setup_pieces = Segments::default();
    let mut pieces = Segments::default();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || ctx.wants_more(reps.iter().map(|r| r.wall_s).sum()) {
        let (engine, model) = setup_pieces.time("setup", setup);
        setup_pieces.end_rep();
        let rep = body(engine, &model, &sessions, &mut pieces);
        check_rep(&rep, &sessions, &mut checks);
        reps.push(rep);
    }
    harness::top_up_setups(&mut setup_pieces, 5, |pieces| {
        drop(pieces.time("setup", setup));
    });

    let gaps: Vec<f64> = reps.iter().flat_map(Rep::inter_token_ms).collect();
    harness::set_end_to_end(
        &mut outcome,
        EndToEnd {
            reps: reps.len(),
            work_items: tokens as f64,
            body_s: pieces.undisturbed(),
            latency_ms: &gaps,
            setup_s: setup_pieces.undisturbed(),
        },
    );
    // As measured, beside the undisturbed numbers.
    let rates: Vec<f64> = reps.iter().map(|r| tokens as f64 / r.wall_s).collect();
    outcome.set("host_tokens_per_s", Summary::of(&rates));
    outcome.set("host_latency_p50_ms", Summary::of(&gaps));
    let first_tokens: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.token_s.iter().filter_map(|t| t.first()).map(|s| s * 1e3))
        .collect();
    outcome.set("host_ttft_p50_ms", Summary::of(&first_tokens));
    outcome.set(
        "decode.host_ms_per_step",
        Summary::of(pieces.class("step")).scaled(1e3),
    );
    set_snapshot_metrics(&mut outcome, &reps[0].stats);

    // Simulated time and every counter must not depend on the host: each
    // repetition (traced or not) replays the same schedule.
    let first = exact_fingerprint(&reps[0].stats);
    let mut replayed = reps.iter().all(|r| exact_fingerprint(&r.stats) == first);

    if ctx.traced {
        let (engine, model) = setup();
        let mut traced_pieces = Segments::default();
        let collector = SpanCollector::start();
        let traced = body(engine, &model, &sessions, &mut traced_pieces);
        let trace = collector.finish();
        check_rep(&traced, &sessions, &mut checks);
        replayed &= exact_fingerprint(&traced.stats) == first;
        harness::set_trace_metrics(
            &mut outcome,
            &trace,
            TracedWalls {
                traced_s: traced.wall_s,
                traced_undisturbed_s: traced_pieces.undisturbed(),
                untraced_undisturbed_s: pieces.undisturbed(),
            },
            Some("sim.interp_ms_per_launch.decode"),
        );
        harness::write_chrome_trace("decode_mixed", &trace);
        set_probe_metrics(&mut outcome, ctx.seed);
    }
    checks.check(replayed, || {
        "simulated statistics differ between repetitions of one seed".to_string()
    });

    check_against_solo(&reps[0], &sessions, ctx.seed, &mut checks);
    outcome.checks = checks;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seed, two fresh engines: the same sessions go in, and the token
    /// streams, the simulated clock and every counter come out identical. (A
    /// cut of the workload — three chats, one long completion shortened to
    /// six tokens, and the chunked-prefill prompt — keeps the test short.)
    #[test]
    fn one_seed_replays_streams_and_simulated_statistics() {
        let cut = |seed: u64| -> Vec<SessionSpec> {
            let all = gen::decode_sessions(seed);
            [0, 1, 2, gen::DECODE_CHATS, all.len() - 1]
                .into_iter()
                .map(|i| SessionSpec {
                    max_tokens: all[i].max_tokens.min(6),
                    ..all[i].clone()
                })
                .collect()
        };
        assert_eq!(cut(9), cut(9), "inputs differ");
        let run = || {
            let (engine, model) = setup();
            body(engine, &model, &cut(9), &mut Segments::default())
        };
        let (first, second) = (run(), run());
        assert!(
            first.streams.iter().all(Result::is_ok),
            "{:?}",
            first.streams
        );
        assert_eq!(first.streams, second.streams);
        assert_eq!(
            exact_fingerprint(&first.stats),
            exact_fingerprint(&second.stats)
        );
        assert_eq!(first.stats.prefill_passes, 2, "the long prompt is chunked");
        assert_eq!(first.stats.kv_blocks_in_use, 0);
    }
}
