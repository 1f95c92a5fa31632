//! The model registry: what [`Engine::register`] takes ([`ModelSpec`]) and
//! returns ([`ModelHandle`]), the per-model entry with its memoized graph
//! variants, and the engine side of warm-up and unload.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use hidet_graph::Graph;

use super::request::submit_request;
use super::worker::record_compile;
use super::{EngineError, InferenceResult, Request, Shared, Ticket};
use crate::store::ArtifactStore;

#[cfg(doc)]
use super::{Engine, EngineConfig};
#[cfg(doc)]
use crate::StatsSnapshot;

/// A model family: `builder(b)` must yield the model at batch size `b`, with
/// the leading dimension of every graph input scaling linearly in `b`.
type ModelBuilder = Box<dyn Fn(i64) -> Graph + Send + Sync>;

/// Everything [`Engine::register`] needs to know about a model: its name,
/// graph-builder family and batching mode.
///
/// `builder(b)` must return the model at batch size `b`. By default the
/// model is **batchable**: dim 0 must be an independent-sample axis (every
/// graph input's leading dimension scales with `b`, and each output row
/// depends only on the corresponding input row — true for the CNN zoo
/// models). Models where that does not hold (the zoo's transformers fold
/// batch into the sequence axis) must be registered [`ModelSpec::unbatched`],
/// so their requests are never coalesced.
pub struct ModelSpec {
    pub(super) name: String,
    pub(super) builder: ModelBuilder,
    pub(super) batchable: bool,
}

impl ModelSpec {
    /// A batchable model family named `name`.
    pub fn new(
        name: impl Into<String>,
        builder: impl Fn(i64) -> Graph + Send + Sync + 'static,
    ) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            builder: Box::new(builder),
            batchable: true,
        }
    }

    /// Marks the model's requests as never coalescible — for models where
    /// dim 0 is not an independent-sample axis or builders that ignore their
    /// batch argument. Requests always dispatch one at a time, regardless of
    /// [`EngineConfig::max_batch`].
    pub fn unbatched(mut self) -> ModelSpec {
        self.batchable = false;
        self
    }

    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSpec")
            .field("name", &self.name)
            .field("batchable", &self.batchable)
            .finish_non_exhaustive()
    }
}

pub(super) struct Variant {
    pub(super) graph: Arc<Graph>,
    /// Memoized `Graph::structural_hash` — O(operators) to compute (it reads
    /// constant digests, not elements), taken once here instead of on every
    /// request batch.
    pub(super) hash: u64,
}

pub(super) struct ModelEntry {
    pub(super) builder: ModelBuilder,
    /// Whether requests may be coalesced along dim 0 (see [`ModelSpec`]).
    pub(super) batchable: bool,
    pub(super) variants: Mutex<HashMap<i64, Arc<Variant>>>,
}

impl ModelEntry {
    /// The cached graph at batch size `batch` (built on first use).
    pub(super) fn variant(&self, batch: i64) -> Arc<Variant> {
        let mut variants = self.variants.lock().expect("registry poisoned");
        Arc::clone(variants.entry(batch).or_insert_with(|| {
            let graph = (self.builder)(batch);
            let hash = graph.structural_hash();
            Arc::new(Variant {
                graph: Arc::new(graph),
                hash,
            })
        }))
    }
}

/// A registered model's session: the v2 surface for everything scoped to one
/// model. Cheap to clone; handles address the model **by name**, so they
/// survive (and follow) re-registration under the same name, and resolve to
/// [`EngineError::UnknownModel`] after [`ModelHandle::unload`].
///
/// A handle holds the engine's shared state alive but not its threads: after
/// the [`Engine`] shuts down, submissions answer [`EngineError::Closed`].
#[derive(Clone)]
pub struct ModelHandle {
    pub(super) name: Arc<str>,
    pub(super) shared: Arc<Shared>,
}

impl fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelHandle")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ModelHandle {
    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueues one inference, returning immediately with a [`Ticket`]. The
    /// ticket resolves to [`EngineError::QueueFull`] if the admission
    /// controller sheds the request, and to
    /// [`EngineError::DeadlineExceeded`] if the request's deadline/timeout
    /// passes before a worker executes it.
    pub fn submit(&self, request: Request) -> Ticket {
        submit_request(&self.shared, &self.name, request)
    }

    /// Blocking single inference: [`ModelHandle::submit`] + [`Ticket::wait`].
    pub fn infer(&self, request: Request) -> Result<InferenceResult, EngineError> {
        self.submit(request).wait()
    }

    /// Submits a burst of requests and waits for all of them — the pattern
    /// that gives the dispatcher something to coalesce. Failures are
    /// **per-request**: one shed or expired request reports its own error
    /// without masking its siblings' results.
    pub fn infer_many(&self, requests: Vec<Request>) -> Vec<Result<InferenceResult, EngineError>> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Pre-compiles the model at `batch` for **every** shard, off the
    /// request path, and primes the placement scheduler's latency model with
    /// the analytic estimate per device. Returns whether every per-device
    /// compile was already cached in memory (homogeneous shards share one
    /// entry; an artifact-store rebuild counts as *not* cached).
    pub fn warmup(&self, batch: i64) -> Result<bool, EngineError> {
        warmup_model(&self.shared, &self.name, batch)
    }

    /// Unregisters the model, evicts its compiled graphs (counted under
    /// [`StatsSnapshot::compiled_evicted_unload`]) and placement estimates,
    /// and garbage-collects its on-disk artifacts (counted under
    /// [`StatsSnapshot::artifact_gc_removed`]) — an unloaded model's files
    /// can never be looked up again, so keeping them would only accrete
    /// orphans. Files whose structure is still reachable through another
    /// live registration (artifacts are keyed structurally) are spared, and
    /// a re-registration of the unloaded model compiles afresh. A store
    /// directory shared with *other processes*
    /// is outside this engine's view — point concurrent engines at
    /// separate stores if their model sets differ. Requests already queued
    /// are answered [`EngineError::UnknownModel`]; so are later submissions
    /// through this (or any) handle. Idempotent: returns whether the model
    /// was loaded.
    pub fn unload(&self) -> bool {
        unload_model(&self.shared, &self.name)
    }
}

pub(super) fn lookup_entry(shared: &Shared, model: &str) -> Result<Arc<ModelEntry>, EngineError> {
    shared
        .registry
        .lock()
        .expect("registry poisoned")
        .get(model)
        .cloned()
        .ok_or_else(|| EngineError::UnknownModel(model.to_string()))
}

/// [`ModelHandle::warmup`]'s engine-side implementation.
fn warmup_model(shared: &Shared, model: &str, batch: i64) -> Result<bool, EngineError> {
    let entry = lookup_entry(shared, model)?;
    let variant = entry.variant(batch);
    let mut all_hit = true;
    for shard in &shared.shards {
        let (compiled, outcome) = shared.compiled.get_or_compile_hashed(
            &variant.graph,
            variant.hash,
            &shard.gpu,
            &shared.config.options,
            shared.config.artifact_store.as_deref(),
        )?;
        record_compile(shared, &compiled, outcome);
        shared
            .latency_model
            .record(shard.id, model, batch, compiled.estimate(&shard.gpu));
        all_hit &= outcome.is_hit();
    }
    Ok(all_hit)
}

/// [`ModelHandle::unload`]'s engine-side implementation.
fn unload_model(shared: &Shared, model: &str) -> bool {
    let entry = shared
        .registry
        .lock()
        .expect("registry poisoned")
        .remove(model);
    let Some(entry) = entry else {
        return false;
    };
    let hashes: Vec<u64> = entry
        .variants
        .lock()
        .expect("registry poisoned")
        .values()
        .map(|v| v.hash)
        .collect();
    shared.compiled.evict_model(&hashes);
    shared.latency_model.forget_model(model);
    // Garbage-collect the unloaded model's on-disk artifacts: with the
    // registration gone they can never be looked up again (a later
    // re-registration recompiles, persisting fresh files), so keeping them
    // would only accrete orphans in a long-lived store. Artifacts are keyed
    // *structurally*, though, and handles address models by name — another
    // live registration can share the structure (same builder, different
    // name) and still warm-start from these files, so hashes reachable
    // through any surviving registration are spared.
    if let Some(dir) = &shared.config.artifact_store {
        let still_live: std::collections::HashSet<u64> = shared
            .registry
            .lock()
            .expect("registry poisoned")
            .values()
            .flat_map(|e| {
                e.variants
                    .lock()
                    .expect("registry poisoned")
                    .values()
                    .map(|v| v.hash)
                    .collect::<Vec<u64>>()
            })
            .collect();
        let doomed: Vec<u64> = hashes
            .into_iter()
            .filter(|h| !still_live.contains(h))
            .collect();
        let removed = ArtifactStore::new(dir).remove_model(&doomed);
        shared.stats.count_artifact_gc(removed);
    }
    true
}
