//! The span taxonomy: typed span kinds, the token an open span is held by,
//! and the RAII guard that closes it on every return path.
//!
//! Opening a span pushes nothing: the [`SpanToken`] carries what the span
//! will record, and closing it pushes the whole span through the ring as
//! one small `Copy` struct — a handful of word writes. Everything
//! human-readable (names, categories) is derived at export time, never
//! carried on the hot path.

use crate::tracer::Tracer;

/// Every instrumented operation in the stack, one variant per span name.
///
/// The catalog spans four layers (DESIGN.md §12): the HTTP front-end
/// (`Http*`), the batching engine (`Engine*`/`Batch*` and compile/tune),
/// the decode subsystem (placement, iterations, prefill chunks, steps, KV
/// events), and the simulated device (`KernelSim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Server: parsing one HTTP request off the socket.
    HttpParse,
    /// Server: time a connection waited in the ingress ring before a lane
    /// picked it up (emitted retroactively as a closed span).
    HttpQueue,
    /// Server: handling one parsed request, route dispatch to response.
    HttpHandle,
    /// Server: serializing and writing the response bytes.
    HttpRespond,
    /// Engine: admission of one request into the priority queues.
    EngineSubmit,
    /// Engine: forming one batch from the queues (coalescing window).
    BatchForm,
    /// Engine: executing one formed batch on a shard worker.
    BatchExecute,
    /// Compiler: one compile of a fused graph, cold or from an artifact.
    Compile,
    /// Compiler: tuning one distinct matmul problem of a compile.
    Tune,
    /// Decode: placing one new session onto a shard.
    ShardPlace,
    /// Decode: one scheduler iteration on a shard (admission + step).
    DecodeIteration,
    /// Decode: one elected prefill chunk absorbed through the chunk graph.
    PrefillChunk,
    /// Decode: one batched decode step (forward pass + emission).
    DecodeStep,
    /// Decode: one KV block-table append (instant).
    KvAlloc,
    /// Decode: one KV preemption/eviction under pressure (instant).
    KvEvict,
    /// Decode: one live migration of a session to another shard (instant).
    KvMigrate,
    /// Sim: one kernel interpreted on the simulated device.
    KernelSim,
}

impl SpanKind {
    /// Every kind, for iteration in exporters and tests.
    pub const ALL: &'static [SpanKind] = &[
        SpanKind::HttpParse,
        SpanKind::HttpQueue,
        SpanKind::HttpHandle,
        SpanKind::HttpRespond,
        SpanKind::EngineSubmit,
        SpanKind::BatchForm,
        SpanKind::BatchExecute,
        SpanKind::Compile,
        SpanKind::Tune,
        SpanKind::ShardPlace,
        SpanKind::DecodeIteration,
        SpanKind::PrefillChunk,
        SpanKind::DecodeStep,
        SpanKind::KvAlloc,
        SpanKind::KvEvict,
        SpanKind::KvMigrate,
        SpanKind::KernelSim,
    ];

    /// Stable snake_case span name: the Chrome `name` field and the
    /// Prometheus `kind` label value.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::HttpParse => "http_parse",
            SpanKind::HttpQueue => "http_queue",
            SpanKind::HttpHandle => "http_handle",
            SpanKind::HttpRespond => "http_respond",
            SpanKind::EngineSubmit => "engine_submit",
            SpanKind::BatchForm => "batch_form",
            SpanKind::BatchExecute => "batch_execute",
            SpanKind::Compile => "compile",
            SpanKind::Tune => "tune",
            SpanKind::ShardPlace => "shard_place",
            SpanKind::DecodeIteration => "decode_iteration",
            SpanKind::PrefillChunk => "prefill_chunk",
            SpanKind::DecodeStep => "decode_step",
            SpanKind::KvAlloc => "kv_alloc",
            SpanKind::KvEvict => "kv_evict",
            SpanKind::KvMigrate => "kv_migrate",
            SpanKind::KernelSim => "kernel_sim",
        }
    }

    /// The layer that emits the span: the Chrome `cat` field.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::HttpParse
            | SpanKind::HttpQueue
            | SpanKind::HttpHandle
            | SpanKind::HttpRespond => "server",
            SpanKind::EngineSubmit
            | SpanKind::BatchForm
            | SpanKind::BatchExecute
            | SpanKind::Compile
            | SpanKind::Tune => "engine",
            SpanKind::ShardPlace
            | SpanKind::DecodeIteration
            | SpanKind::PrefillChunk
            | SpanKind::DecodeStep
            | SpanKind::KvAlloc
            | SpanKind::KvEvict
            | SpanKind::KvMigrate => "decode",
            SpanKind::KernelSim => "sim",
        }
    }
}

/// An open span, returned by [`Tracer::span_start`] and redeemed by
/// [`Tracer::span_end`], which pushes the span whole. Until then nothing is
/// recorded. `Copy` so it can be threaded through closures.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    pub(crate) kind: SpanKind,
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
    pub(crate) start_nanos: u64,
}

/// RAII span: pushes the span when dropped, so every return path — early
/// returns, `?`, panics unwinding — records the span it opened. This is the
/// mechanism HA104 assumes when it checks `span_start`/`span_end` pairing:
/// guards pair structurally, raw token calls must pair textually.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    token: SpanToken,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn new(tracer: &'a Tracer, token: SpanToken) -> SpanGuard<'a> {
        SpanGuard { tracer, token }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.span_end(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_categories_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &kind in SpanKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
            assert!(
                ["server", "engine", "decode", "sim"].contains(&kind.category()),
                "unknown category {}",
                kind.category()
            );
            // Prometheus label values: snake_case, no escaping needed.
            assert!(kind
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert_eq!(seen.len(), SpanKind::ALL.len());
    }
}
