//! The per-shard worker pool: each lane drains its shard's job channel and
//! executes one batch at a time on the shard's device, through the
//! [`process_batch`] a [`Stepper`](super::Stepper) runs on its caller's thread.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

use super::dispatch::BatchJob;
use super::registry::lookup_entry;
use super::request::{answer_expired, PendingRequest};
use super::{EngineError, InferenceResult, Shared};
use crate::cache::CacheOutcome;

/// Worker: executes one shard's batch jobs until the dispatcher hangs up.
/// Each lane owns a [`hidet::Workspace`], so steady-state execution of a
/// model reuses one memory-planned arena instead of allocating fresh
/// buffers per request.
pub(super) fn worker_loop(
    shared: &Shared,
    shard_idx: usize,
    jobs: &Mutex<mpsc::Receiver<BatchJob>>,
) {
    let mut workspace = hidet::Workspace::new();
    loop {
        let job = {
            let rx = jobs.lock().expect("job channel poisoned");
            rx.recv()
        };
        match job {
            Ok(job) => {
                let token = job.token;
                process_batch(shared, shard_idx, job, &mut workspace, Instant::now());
                shared.shards[shard_idx].release(token);
            }
            Err(_) => return,
        }
    }
}

fn fail_all(shared: &Shared, requests: Vec<PendingRequest>, err: EngineError) {
    shared
        .stats
        .failures
        .fetch_add(requests.len(), Ordering::Relaxed);
    for request in requests {
        request.respond(shared, Err(err.clone()));
    }
}

/// Tuning-side stats for a fresh compile or an artifact rebuild (cache
/// hit/miss/artifact counts live in the compiled cache itself — see
/// `CompiledCache::counters`). An artifact rebuild runs zero trials and
/// reports the artifact's embodied tuning cost as saved.
pub(super) fn record_compile(
    shared: &Shared,
    compiled: &hidet::CompiledGraph,
    outcome: CacheOutcome,
) {
    if !outcome.is_hit() {
        shared
            .stats
            .add_tuning_run(compiled.tuning_trials(), compiled.tuning_seconds());
        shared.stats.add_tuning_saved(
            compiled.record_trials_saved(),
            compiled.record_seconds_saved(),
        );
        shared
            .stats
            .record_planned_peak(compiled.planned_peak_bytes());
    }
}

/// Checks one request's inputs against the model's batch-1 element counts.
fn validate(request: &PendingRequest, expected: &[usize]) -> Result<(), String> {
    if request.inputs.len() != expected.len() {
        return Err(format!(
            "expected {} input tensors, got {}",
            expected.len(),
            request.inputs.len()
        ));
    }
    match (0..expected.len()).find(|&i| request.inputs[i].len() != expected[i]) {
        Some(pos) => Err(format!(
            "input {} has {} elements, expected {}",
            pos,
            request.inputs[pos].len(),
            expected[pos]
        )),
        None => Ok(()),
    }
}

/// Executes one batch job on `shard_idx`'s device, accounting served
/// requests and busy time on the shard before any response is sent. The
/// caller's `workspace` provides the memory-planned arena (reused across
/// batches of the same compiled model); requests whose deadline has passed
/// at `now` are answered instead of executed.
pub(super) fn process_batch(
    shared: &Shared,
    shard_idx: usize,
    job: BatchJob,
    workspace: &mut hidet::Workspace,
    now: Instant,
) {
    let _span = hidet_trace::global().span(
        hidet_trace::SpanKind::BatchExecute,
        job.requests.first().map_or(0, |r| r.trace_id),
    );
    let shard = &shared.shards[shard_idx];
    let entry = match lookup_entry(shared, &job.model) {
        Ok(entry) => entry,
        Err(unknown) => {
            fail_all(shared, job.requests, unknown);
            return;
        }
    };

    // Last-line deadline check: a request whose deadline passed while the
    // job sat in the shard channel is answered, not executed.
    let live = answer_expired(shared, job.requests, now);
    if live.is_empty() {
        return;
    }

    // Validate each request against the batch-1 shapes; reject misfits
    // individually so one bad client cannot poison a batch.
    let base = entry.variant(1);
    let expected: Vec<usize> = base
        .graph
        .inputs()
        .iter()
        .map(|&t| base.graph.tensor(t).numel() as usize)
        .collect();
    let mut valid = Vec::with_capacity(live.len());
    for request in live {
        match validate(&request, &expected) {
            Ok(()) => valid.push(request),
            Err(msg) => {
                shared.stats.failures.fetch_add(1, Ordering::Relaxed);
                request.respond(shared, Err(EngineError::BadInput(msg)));
            }
        }
    }
    if valid.is_empty() {
        return;
    }

    let batch = valid.len() as i64;
    let variant = entry.variant(batch);
    // The builder contract: inputs scale linearly with the batch size.
    let scales = variant
        .graph
        .inputs()
        .iter()
        .zip(&expected)
        .all(|(&t, &per)| variant.graph.tensor(t).numel() as usize == per * batch as usize);
    if !scales {
        fail_all(
            shared,
            valid,
            EngineError::BadInput(format!(
                "model builder does not scale inputs with the batch dimension at batch {batch}"
            )),
        );
        return;
    }

    let compiled = shared.compiled.get_or_compile_hashed(
        &variant.graph,
        variant.hash,
        &shard.gpu,
        &shared.config.options,
        entry.artifact_store.as_deref(),
    );
    let (compiled, outcome) = match compiled {
        Ok(result) => result,
        Err(e) => {
            fail_all(shared, valid, EngineError::Compile(e));
            return;
        }
    };
    record_compile(shared, &compiled, outcome);

    // Coalesce: requests are laid out contiguously along dim 0.
    let mut input_map = HashMap::new();
    for (pos, &tid) in variant.graph.inputs().iter().enumerate() {
        let mut buffer = Vec::with_capacity(expected[pos] * valid.len());
        for request in &valid {
            buffer.extend_from_slice(&request.inputs[pos]);
        }
        input_map.insert(tid, buffer);
    }

    let outputs = match compiled.run_with(&input_map, &shard.gpu, workspace) {
        Ok(outputs) => outputs,
        Err(e) => {
            fail_all(shared, valid, EngineError::Execution(e.to_string()));
            return;
        }
    };
    let latency = compiled.estimate(&shard.gpu);
    // Refine the placement scheduler's estimate for this shape on this shard.
    shared
        .latency_model
        .record(shard_idx, &job.model, batch, latency);
    shared.stats.record_batch(
        job.priority,
        valid.len(),
        latency,
        job.queue_delay + latency,
    );
    shard.account(valid.len(), latency);

    // Scatter each output back to its request.
    let out_ids: Vec<_> = variant.graph.outputs().to_vec();
    let per_request: Vec<usize> = out_ids
        .iter()
        .map(|&t| variant.graph.tensor(t).numel() as usize / valid.len())
        .collect();
    for (i, request) in valid.into_iter().enumerate() {
        let slices: Vec<Vec<f32>> = out_ids
            .iter()
            .zip(&per_request)
            .map(|(&t, &len)| outputs[&t][i * len..(i + 1) * len].to_vec())
            .collect();
        request.respond(
            shared,
            Ok(InferenceResult {
                outputs: slices,
                batch_size: batch as usize,
                simulated_latency_seconds: latency,
                queue_delay_seconds: job.queue_delay,
                priority: job.priority,
                compile_cache_hit: outcome.is_hit(),
            }),
        );
    }
}
