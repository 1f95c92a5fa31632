//! Seeded input generation. The seed is the only thing that varies between
//! runs of one workload; the programs under test see only what is generated
//! here. Counts and shapes are fixed (so the *amount* of work, and with it
//! host time, does not depend on the seed) — the seed draws token ids,
//! tensor values and the order in which the wire clients issue their requests.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// An independent generator per (seed, stream): workloads and clients never
/// share a stream, so adding a draw in one place moves nothing elsewhere.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Uniform `f32` in `[-1, 1)`.
pub fn unit_f32(rng: &mut StdRng) -> f32 {
    ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

/// `len` uniform values in `[-1, 1)`.
pub fn tensor(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| unit_f32(rng)).collect()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

// ---- decode_mixed ------------------------------------------------------

/// Vocabulary of the `decode_mixed` model.
pub const DECODE_VOCAB: u32 = 32;
/// Short chats: 2-token prompt, 4–7 new tokens (each length three times).
pub const DECODE_CHATS: usize = 12;
/// Long completions: 1-token prompt, 20 new tokens, high priority.
pub const DECODE_LONG_COMPLETIONS: usize = 3;
/// Tokens of the one long prompt (absorbed through chunked prefill).
pub const DECODE_LONG_PROMPT: usize = 32;

/// One generation session of `decode_mixed`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_tokens: usize,
    /// Submitted at `Priority::High`.
    pub high: bool,
}

/// The 16 sessions of `decode_mixed`, in submission order. Lengths are
/// fixed (130 generated tokens in all); the seed draws the token ids.
pub fn decode_sessions(seed: u64) -> Vec<SessionSpec> {
    let mut rng = rng(seed, 1);
    let mut prompt =
        |len: usize| -> Vec<u32> { (0..len).map(|_| rng.gen_range(0..DECODE_VOCAB)).collect() };
    let mut sessions = Vec::new();
    for i in 0..DECODE_CHATS {
        sessions.push(SessionSpec {
            prompt: prompt(2),
            max_tokens: 4 + i % 4,
            high: false,
        });
    }
    for _ in 0..DECODE_LONG_COMPLETIONS {
        sessions.push(SessionSpec {
            prompt: prompt(1),
            max_tokens: 20,
            high: true,
        });
    }
    sessions.push(SessionSpec {
        prompt: prompt(DECODE_LONG_PROMPT),
        max_tokens: 4,
        high: false,
    });
    sessions
}

// ---- oneshot_batched ---------------------------------------------------

/// `head` requests per body (input `[1, 64]`).
pub const ONESHOT_HEAD_REQUESTS: usize = 256;
/// `cnn_block` requests per body (input `[1, 4, 12, 12]`).
pub const ONESHOT_CNN_REQUESTS: usize = 32;
/// Input elements of one `head` request.
pub const HEAD_INPUT: usize = 64;
/// Input elements of one `cnn_block` request.
pub const CNN_INPUT: usize = 4 * 12 * 12;

/// The request tensors of `oneshot_batched`: `head` inputs, then
/// `cnn_block` inputs.
pub fn oneshot_inputs(seed: u64) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut rng = rng(seed, 2);
    let head = (0..ONESHOT_HEAD_REQUESTS)
        .map(|_| tensor(&mut rng, HEAD_INPUT))
        .collect();
    let cnn = (0..ONESHOT_CNN_REQUESTS)
        .map(|_| tensor(&mut rng, CNN_INPUT))
        .collect();
    (head, cnn)
}

// ---- wire_mixed --------------------------------------------------------

/// Wire clients (one connection per request each). Client 0 is the closed
/// loop that carries the load: every infer, generate and must-be-refused
/// request, one at a time. Client 1 is a monitoring agent scraping
/// `/v2/stats` and `/v2/metrics` beside it on a fixed cadence. Only one
/// CPU-heavy request is ever in flight: with two, every latency would depend
/// on how much of a core the sandbox's second vCPU delivers at that minute
/// (between nothing and all of it), and on the two closed loops' phase
/// against each other at the engine's single worker.
pub const WIRE_CLIENTS: usize = 2;
/// `POST /v2/infer` per body, half of them on the priority listener as
/// `high`.
pub const WIRE_INFERS: usize = 24;
/// `POST /v2/generate` per body.
pub const WIRE_GENERATES: usize = 2;
/// Prompt tokens of each generate.
pub const WIRE_PROMPT_TOKENS: usize = 3;
/// New tokens of each generate.
pub const WIRE_NEW_TOKENS: usize = 8;
/// Scrapes per body, `/v2/stats` and `/v2/metrics` alternating.
pub const WIRE_SCRAPES: usize = 24;
/// The monitoring agent's pause between scrapes, milliseconds.
pub const WIRE_SCRAPE_EVERY_MS: u64 = 100;
/// Vocabulary of the wire `chat` model.
pub const WIRE_VOCAB: u32 = 32;

/// A request the server must refuse with a typed 4xx.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// `/v2/infer` naming a model nobody registered: 404.
    UnknownModel,
    /// A body that is not JSON: 400.
    MalformedJson,
    /// `Content-Length` larger than the bytes sent before half-close: 400.
    LyingContentLength,
}

/// One operation of a wire client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// One-shot inference on `head`.
    Infer {
        /// The `[1, 64]` input row.
        input: Vec<f32>,
        /// Sent to the priority listener with `"priority":"high"`.
        high: bool,
    },
    /// Streamed generation on `chat`.
    Generate {
        /// Prompt token ids.
        prompt: Vec<u32>,
    },
    /// `GET /v2/stats`.
    ScrapeStats,
    /// `GET /v2/metrics`.
    ScrapeMetrics,
    /// A request that must be refused.
    Refused(Refusal),
}

impl WireOp {
    /// The class of equal-work pieces this operation belongs to.
    pub fn class(&self) -> &'static str {
        match self {
            WireOp::Infer { high: true, .. } => "infer_high",
            WireOp::Infer { high: false, .. } => "infer_normal",
            WireOp::Generate { .. } => "generate",
            WireOp::ScrapeStats => "scrape_stats",
            WireOp::ScrapeMetrics => "scrape_metrics",
            WireOp::Refused(Refusal::UnknownModel) => "refused_unknown_model",
            WireOp::Refused(Refusal::MalformedJson) => "refused_malformed_json",
            WireOp::Refused(Refusal::LyingContentLength) => "refused_content_length",
        }
    }
}

/// One client's operations for one body, in the order it issues them.
/// Client 0: the infers, the generates and the three refusals, shuffled by
/// the seed (which also draws inputs and prompts). Client 1: the scrapes,
/// alternating, the seed choosing which endpoint goes first.
pub fn wire_ops(seed: u64, client: usize) -> Vec<WireOp> {
    let mut rng = rng(seed, 16 + client as u64);
    if client == 0 {
        let mut ops: Vec<WireOp> = (0..WIRE_INFERS)
            .map(|i| WireOp::Infer {
                input: tensor(&mut rng, HEAD_INPUT),
                high: i % 2 == 0,
            })
            .collect();
        ops.extend((0..WIRE_GENERATES).map(|_| {
            WireOp::Generate {
                prompt: (0..WIRE_PROMPT_TOKENS)
                    .map(|_| rng.gen_range(0..WIRE_VOCAB))
                    .collect(),
            }
        }));
        ops.extend(
            [
                Refusal::UnknownModel,
                Refusal::MalformedJson,
                Refusal::LyingContentLength,
            ]
            .map(WireOp::Refused),
        );
        shuffle(&mut ops, &mut rng);
        ops
    } else {
        let stats_first = rng.gen_bool(0.5);
        (0..WIRE_SCRAPES)
            .map(|i| {
                if (i % 2 == 0) == stats_first {
                    WireOp::ScrapeStats
                } else {
                    WireOp::ScrapeMetrics
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(decode_sessions(5), decode_sessions(5));
        assert_ne!(decode_sessions(5), decode_sessions(6));
        assert_eq!(oneshot_inputs(5), oneshot_inputs(5));
        assert_ne!(oneshot_inputs(5).0, oneshot_inputs(6).0);
        assert_eq!(wire_ops(5, 0), wire_ops(5, 0));
        assert_ne!(wire_ops(5, 0), wire_ops(5, 1));
        assert_ne!(wire_ops(5, 0), wire_ops(6, 0));
    }

    #[test]
    fn decode_mix_has_the_stated_shape_for_any_seed() {
        for seed in [0, 1, 99] {
            let sessions = decode_sessions(seed);
            assert_eq!(sessions.len(), 16);
            let tokens: usize = sessions.iter().map(|s| s.max_tokens).sum();
            assert_eq!(tokens, 130);
            assert_eq!(sessions.iter().filter(|s| s.high).count(), 3);
            assert_eq!(sessions.last().unwrap().prompt.len(), DECODE_LONG_PROMPT);
            assert!(sessions
                .iter()
                .flat_map(|s| &s.prompt)
                .all(|&t| t < DECODE_VOCAB));
        }
    }

    #[test]
    fn wire_mix_counts_do_not_depend_on_the_seed() {
        for seed in [0, 3] {
            let ops: Vec<WireOp> = (0..WIRE_CLIENTS).flat_map(|c| wire_ops(seed, c)).collect();
            let count = |class: &str| ops.iter().filter(|op| op.class() == class).count();
            assert_eq!(count("infer_high"), WIRE_INFERS / 2);
            assert_eq!(count("infer_normal"), WIRE_INFERS / 2);
            assert_eq!(count("generate"), WIRE_GENERATES);
            assert_eq!(
                count("scrape_stats") + count("scrape_metrics"),
                WIRE_SCRAPES
            );
            assert_eq!(
                ops.iter()
                    .filter(|op| matches!(op, WireOp::Refused(_)))
                    .count(),
                3
            );
            // Roles: client 1 only scrapes.
            assert!(wire_ops(seed, 1)
                .iter()
                .all(|op| matches!(op, WireOp::ScrapeStats | WireOp::ScrapeMetrics)));
        }
    }

    #[test]
    fn tensors_stay_in_the_unit_range() {
        let mut r = rng(1, 0);
        assert!(tensor(&mut r, 1000).iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
