//! The compiled-graph cache: repeat requests skip compilation entirely, and
//! a warm artifact store makes that hold **across process restarts**.
//!
//! Keys combine [`Graph::structural_hash`] (the computation itself, invariant
//! under tensor-id renumbering and model names), the device fingerprint
//! ([`hidet_sim::GpuSpec::fingerprint`] — compiled kernels embed
//! device-specific schedules), and the compilation-relevant option bits
//! ([`CompilerOptions::cache_key_bits`]). Two sessions loading the same model
//! at the same batch therefore share one compile, even across registrations
//! under different names.
//!
//! Three layers answer a lookup, cheapest first:
//!
//! 1. **memory** — a completed entry under the key ([`CacheOutcome::Hit`]);
//! 2. **disk** — a [`hidet::CompiledArtifact`] in the caller's artifact
//!    store, rebuilt into a plan with zero tuning trials
//!    ([`CacheOutcome::ArtifactLoad`]); corrupted, truncated or mismatched
//!    files are rejected (counted, never panicking) and fall through;
//! 3. **fresh compile** ([`CacheOutcome::Compiled`]), whose artifact is then
//!    written back to the store for the next process.
//!
//! The one eviction is [`CompiledCache::evict_model`] (the engine's
//! `unload`), which drops a model's entries outright; a key evicted that way
//! recompiles (or re-loads its artifact) on next use.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hidet::{
    compile_from_artifact_hashed, compile_hashed, ArtifactError, CompileError, CompiledArtifact,
    CompiledGraph, CompilerOptions,
};
use hidet_graph::Graph;
use hidet_sim::Gpu;

/// Cache key: computation × device × options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Graph::structural_hash`] of the model (at its concrete batch size).
    pub graph_hash: u64,
    /// [`hidet_sim::GpuSpec::fingerprint`] of the target device.
    pub device: String,
    /// [`CompilerOptions::cache_key_bits`] of the options.
    pub options: u64,
}

impl CacheKey {
    /// The key under which the graph with [`Graph::structural_hash`]
    /// `graph_hash`, compiled for `gpu` with `options`, lives.
    pub fn from_graph_hash(graph_hash: u64, gpu: &Gpu, options: &CompilerOptions) -> CacheKey {
        CacheKey {
            graph_hash,
            device: gpu.spec().fingerprint(),
            options: options.cache_key_bits(),
        }
    }

    /// The file this key's artifact lives under inside a store directory.
    /// The device fingerprint is folded through the workspace's stable hash
    /// ([`hidet_graph::StableHasher`] — it contains spaces and separators
    /// unfit for file names).
    pub fn artifact_path(&self, store: &Path) -> PathBuf {
        let mut hasher = hidet_graph::StableHasher::new();
        hasher.write(self.device.as_bytes());
        store.join(format!(
            "artifact-{:016x}-{:x}-{:016x}.json",
            self.graph_hash,
            self.options,
            hasher.finish()
        ))
    }
}

/// How a [`CompiledCache`] lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from memory (or by waiting on another thread's in-flight
    /// compile of the same key).
    Hit,
    /// Rebuilt from a disk artifact — graph passes and codegen ran, tuning
    /// did not.
    ArtifactLoad,
    /// Compiled from scratch.
    Compiled,
}

impl CacheOutcome {
    /// Whether the lookup avoided a fresh compile.
    pub fn is_hit(self) -> bool {
        self == CacheOutcome::Hit
    }
}

/// Counter snapshot of a [`CompiledCache`] — the single source of truth for
/// the engine's compile/eviction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from memory.
    pub hits: usize,
    /// Lookups that compiled from scratch.
    pub misses: usize,
    /// Lookups rebuilt from a disk artifact (zero tuning trials).
    pub artifact_loads: usize,
    /// Artifact files rejected: corrupted, truncated, version- or
    /// key-mismatched, or ill-fitting schedules. Each fell back to a fresh
    /// compile.
    pub artifact_rejects: usize,
    /// Entries evicted by an explicit model unload.
    pub evicted_unload: usize,
}

type Slot = Arc<OnceLock<Result<Arc<CompiledGraph>, CompileError>>>;

/// Thread-safe compiled-graph cache with in-flight coalescing and an
/// optional disk-backed artifact store. See the [module docs](self).
#[derive(Debug, Default)]
pub struct CompiledCache {
    entries: Mutex<HashMap<CacheKey, Slot>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    artifact_loads: AtomicUsize,
    artifact_rejects: AtomicUsize,
    evicted_unload: AtomicUsize,
}

impl CompiledCache {
    /// An empty cache.
    pub fn new() -> CompiledCache {
        CompiledCache::default()
    }

    /// The compiled form of `graph`, whose [`Graph::structural_hash`] is
    /// `graph_hash`, compiling at most once per key.
    ///
    /// Returns the shared compiled graph and how the lookup was answered.
    /// Each key owns a `OnceLock` slot, so concurrent requests for the same
    /// key run **one** compile (the others block on the slot — a tuned
    /// compile is expensive enough that waiting beats duplicating it), while
    /// different keys compile fully in parallel. A compile error is sticky
    /// for its key: compilation is deterministic, so retrying cannot succeed.
    ///
    /// The caller passes the hash so that a hot path memoizes it rather than
    /// rehashing the graph's weights per call. `store`, when set, is an
    /// artifact store directory consulted on a memory miss and written back
    /// to as soon as a fresh compile returns.
    pub fn get_or_compile_hashed(
        &self,
        graph: &Graph,
        graph_hash: u64,
        gpu: &Gpu,
        options: &CompilerOptions,
        store: Option<&Path>,
    ) -> Result<(Arc<CompiledGraph>, CacheOutcome), CompileError> {
        let key = CacheKey::from_graph_hash(graph_hash, gpu, options);
        let slot: Slot = {
            let mut entries = self.entries.lock().expect("cache poisoned");
            Arc::clone(entries.entry(key.clone()).or_default())
        };

        let mut outcome = CacheOutcome::Hit;
        let result = slot.get_or_init(|| {
            // Without a usable artifact, fall through to a fresh compile.
            if let Some(compiled) =
                store.and_then(|dir| self.try_artifact(&key, graph, gpu, options, dir))
            {
                outcome = CacheOutcome::ArtifactLoad;
                return Ok(Arc::new(compiled));
            }
            outcome = CacheOutcome::Compiled;
            let compiled = compile_hashed(graph, graph_hash, gpu, options).map(Arc::new);
            if let (Ok(compiled), Some(dir)) = (&compiled, store) {
                // Best-effort write-back: a full disk must not fail the
                // request the compile just served.
                let _ = std::fs::create_dir_all(dir);
                let _ = compiled.artifact().save(&key.artifact_path(dir));
            }
            compiled
        });
        match outcome {
            CacheOutcome::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::ArtifactLoad => self.artifact_loads.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::Compiled => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        match result {
            Ok(compiled) => Ok((Arc::clone(compiled), outcome)),
            Err(e) => Err(e.clone()),
        }
    }

    /// Attempts to serve `key` from the artifact store. Any failure short of
    /// "file simply absent" counts one artifact reject; none panic.
    fn try_artifact(
        &self,
        key: &CacheKey,
        graph: &Graph,
        gpu: &Gpu,
        options: &CompilerOptions,
        dir: &Path,
    ) -> Option<CompiledGraph> {
        let artifact = match CompiledArtifact::load(&key.artifact_path(dir)) {
            Ok(artifact) => artifact,
            Err(ArtifactError::Io(e)) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.artifact_rejects.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match compile_from_artifact_hashed(graph, key.graph_hash, gpu, options, artifact) {
            Ok(compiled) => Some(compiled),
            Err(_) => {
                self.artifact_rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Evicts every entry whose structural hash is in `graph_hashes` — the
    /// engine's `unload`. Removes in-flight entries too (waiters on the
    /// orphaned slot still receive their result). Returns how many entries
    /// were dropped.
    pub fn evict_model(&self, graph_hashes: &[u64]) -> usize {
        let mut entries = self.entries.lock().expect("cache poisoned");
        let victims: Vec<CacheKey> = entries
            .keys()
            .filter(|k| graph_hashes.contains(&k.graph_hash))
            .cloned()
            .collect();
        let n = victims.len();
        for k in victims {
            entries.remove(&k);
        }
        self.evicted_unload.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Number of successfully compiled graphs held (in-flight and failed
    /// slots excluded).
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("cache poisoned")
            .values()
            .filter(|slot| matches!(slot.get(), Some(Ok(_))))
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            artifact_loads: self.artifact_loads.load(Ordering::Relaxed),
            artifact_rejects: self.artifact_rejects.load(Ordering::Relaxed),
            evicted_unload: self.evicted_unload.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_graph::{GraphBuilder, Tensor};

    fn model(hidden: i64, name: &str) -> Graph {
        let mut g = GraphBuilder::new(name);
        let x = g.input("x", &[4, 8]);
        let w = g.constant(Tensor::randn(&[8, hidden], 1));
        let y = g.matmul(x, w);
        let y = g.relu(y);
        g.output(y).build()
    }

    /// A lookup with no artifact store.
    fn compile(
        cache: &CompiledCache,
        graph: &Graph,
        gpu: &Gpu,
        options: &CompilerOptions,
    ) -> (Arc<CompiledGraph>, CacheOutcome) {
        cache
            .get_or_compile_hashed(graph, graph.structural_hash(), gpu, options, None)
            .unwrap()
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hidet-cache-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_compile_is_a_hit() {
        let cache = CompiledCache::new();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let (a, first) = compile(&cache, &model(16, "m"), &gpu, &opts);
        let (b, second) = compile(&cache, &model(16, "m"), &gpu, &opts);
        assert_eq!(first, CacheOutcome::Compiled);
        assert_eq!(second, CacheOutcome::Hit);
        assert!(second.is_hit());
        assert!(Arc::ptr_eq(&a, &b));
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn same_structure_different_name_shares_entry() {
        let cache = CompiledCache::new();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        compile(&cache, &model(16, "alpha"), &gpu, &opts);
        let (_, outcome) = compile(&cache, &model(16, "beta"), &gpu, &opts);
        assert!(outcome.is_hit(), "names are not structure");
    }

    #[test]
    fn different_structure_or_options_miss() {
        let cache = CompiledCache::new();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        compile(&cache, &model(16, "m"), &gpu, &opts);
        let (_, outcome) = compile(&cache, &model(32, "m"), &gpu, &opts);
        assert!(!outcome.is_hit(), "different hidden width must recompile");
        let stable = CompilerOptions::quick().order_stable();
        let (_, outcome) = compile(&cache, &model(16, "m"), &gpu, &stable);
        assert!(!outcome.is_hit(), "different options must recompile");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn different_device_misses() {
        let cache = CompiledCache::new();
        let opts = CompilerOptions::quick();
        compile(&cache, &model(16, "m"), &Gpu::default(), &opts);
        let tiny = Gpu::new(hidet_sim::GpuSpec::tiny());
        let (_, outcome) = compile(&cache, &model(16, "m"), &tiny, &opts);
        assert!(!outcome.is_hit(), "kernels are device-specific");
    }

    #[test]
    fn artifact_store_round_trips_across_cache_instances() {
        let store = temp_store("roundtrip");
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let graph = model(16, "m");
        let hash = graph.structural_hash();

        // "Process" 1 compiles fresh and writes the artifact.
        let first = CompiledCache::new();
        let (_, outcome) = first
            .get_or_compile_hashed(&graph, hash, &gpu, &opts, Some(&store))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Compiled);
        assert_eq!(std::fs::read_dir(&store).unwrap().count(), 1);

        // "Process" 2 (a fresh cache) rebuilds from disk: no fresh compile.
        let second = CompiledCache::new();
        let (compiled, outcome) = second
            .get_or_compile_hashed(&graph, hash, &gpu, &opts, Some(&store))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::ArtifactLoad);
        assert!(compiled.from_artifact());
        assert_eq!(compiled.tuning_trials(), 0);
        let counters = second.counters();
        assert_eq!(counters.misses, 0, "warm store must avoid fresh compiles");
        assert_eq!(counters.artifact_loads, 1);
        assert_eq!(counters.artifact_rejects, 0);

        // Third lookup in the same cache is a plain memory hit.
        let (_, outcome) = second
            .get_or_compile_hashed(&graph, hash, &gpu, &opts, Some(&store))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn corrupted_artifact_falls_back_to_fresh_compile() {
        let store = temp_store("corrupt");
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let graph = model(16, "m");
        let hash = graph.structural_hash();
        let key = CacheKey::from_graph_hash(hash, &gpu, &opts);

        std::fs::create_dir_all(&store).unwrap();
        for garbage in ["", "not json", "{\"version\": 99}"] {
            std::fs::write(key.artifact_path(&store), garbage).unwrap();
            let cache = CompiledCache::new();
            let (_, outcome) = cache
                .get_or_compile_hashed(&graph, hash, &gpu, &opts, Some(&store))
                .unwrap();
            assert_eq!(outcome, CacheOutcome::Compiled, "{garbage:?}");
            assert_eq!(cache.counters().artifact_rejects, 1, "{garbage:?}");
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn concurrent_compiles_of_one_graph_coalesce_to_a_single_compile() {
        // Many threads race the same key and exactly one fresh compile may
        // run; everyone else must block on the in-flight slot and share the
        // result.
        let cache = Arc::new(CompiledCache::new());
        let gpu = Gpu::default();
        // Tuned options run the tuner inside the single coalesced compile.
        let opts = CompilerOptions::tuned();
        let graph = Arc::new(model(16, "m"));
        let hash = graph.structural_hash();
        let compiled: Vec<Arc<CompiledGraph>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let graph = Arc::clone(&graph);
                    let gpu = gpu.clone();
                    let opts = opts.clone();
                    scope.spawn(move || {
                        let (compiled, _) = cache
                            .get_or_compile_hashed(&graph, hash, &gpu, &opts, None)
                            .unwrap();
                        compiled
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let counters = cache.counters();
        assert_eq!(counters.misses, 1, "exactly one thread compiles");
        assert_eq!(counters.hits, 7, "everyone else coalesces");
        for c in &compiled {
            assert!(Arc::ptr_eq(c, &compiled[0]), "all threads share one graph");
        }
    }

    #[test]
    fn unload_evicts_by_graph_hash() {
        let cache = CompiledCache::new();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let a = model(16, "a");
        let b = model(32, "b");
        compile(&cache, &a, &gpu, &opts);
        compile(&cache, &b, &gpu, &opts);
        assert_eq!(cache.evict_model(&[a.structural_hash()]), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().evicted_unload, 1);
        let (_, outcome) = compile(&cache, &b, &gpu, &opts);
        assert!(outcome.is_hit(), "other models must be untouched");
    }
}
