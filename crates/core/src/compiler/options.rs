//! What a compile is asked for ([`CompilerOptions`]) and how it fails
//! ([`CompileError`]).

use std::fmt;
use std::sync::{Arc, Mutex};

use hidet_analysis::VerifyLevel;
use hidet_sched::{TunerPolicy, TuningCache};
use hidet_sim::SimError;

#[cfg(doc)]
use crate::artifact::CompiledArtifact;

/// Errors from compilation or compiled-graph execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A fused group could not be scheduled.
    Schedule(String),
    /// Simulation failed while executing a compiled graph.
    Sim(SimError),
    /// A runtime input was missing or missized.
    BadInput(String),
    /// A [`CompiledArtifact`] could not be applied to the graph/device it was
    /// offered for (wrong key, wrong group count, ill-fitting schedule).
    /// Callers should fall back to a fresh compile.
    Artifact(String),
    /// The in-pipeline verifier (`hidet-analysis`) found the graph, a
    /// schedule, or the memory plan ill-formed after a pass — a compiler
    /// bug surfaced as a diagnostic instead of a miscompile. The message
    /// carries the rendered `HAxxx` findings.
    Verify(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Schedule(msg) => write!(f, "scheduling failed: {msg}"),
            CompileError::Sim(e) => write!(f, "simulation failed: {e}"),
            CompileError::BadInput(msg) => write!(f, "bad input: {msg}"),
            CompileError::Artifact(msg) => write!(f, "artifact rejected: {msg}"),
            CompileError::Verify(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SimError> for CompileError {
    fn from(e: SimError) -> Self {
        CompileError::Sim(e)
    }
}

/// Default [`CompilerOptions::measure_top_k`]: generous enough that the
/// exhaustive search's winner always survives the cut on the evaluated
/// problem shapes (`hidet_sched::tuner` pins this with
/// `pruned_tuning_matches_exhaustive_choice`), ~7× fewer trials than the
/// full space.
pub const DEFAULT_MEASURE_TOP_K: usize = 48;

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompilerOptions {
    /// Tune matmul anchors over the hardware-centric space. When `false`,
    /// the default configuration is used everywhere (fast compiles, e.g. in
    /// tests).
    pub tune: bool,
    /// Force every reduction onto schedules whose floating-point
    /// accumulation order depends only on element *indices*, never on the
    /// reduced length: row reductions (softmax, layer norm, pooling) run
    /// sequentially per row (`threads_per_row = 1`) and matmul split-K is
    /// clamped to 1. Slower for long rows, but two graphs that compute the
    /// same values over different paddings produce **bit-identical** results
    /// — the property the decode engine's chunked-prefill path is built on
    /// (a cooperative tree reduction regroups terms by row length, so the
    /// same mathematical sum can round differently between a decode-step row
    /// and a prefill-chunk row).
    pub order_stable_reductions: bool,
    /// Shared tuning-record store. When set (and `tune` is on), previously
    /// tuned problems are scheduled from their records with **zero** trials,
    /// and fresh tuning results are written back — the hook the serving
    /// runtime uses to amortize tuning across compilations and process
    /// restarts (see `hidet_sched::records`).
    pub tuning_cache: Option<Arc<Mutex<TuningCache>>>,
    /// Cost-model pruning of the tuner's measurement set: rank candidates by
    /// the closed-form [`hidet_sched::quick_score`] and measure only the top
    /// `K`. `None` enumerates exhaustively (the paper's configuration;
    /// [`CompilerOptions::exhaustive`]).
    pub measure_top_k: Option<usize>,
    /// How much of the in-pipeline verifier runs (see
    /// [`hidet_analysis::VerifyLevel`]). [`VerifyLevel::Cheap`] (the
    /// default) re-proves structural graph invariants after each rewriting
    /// pass plus schedule/plan legality; [`VerifyLevel::Deep`] adds full
    /// shape re-inference and the KV-cache family rules;
    /// [`VerifyLevel::Off`] runs none of it (the artifact rebuild lowers
    /// at that level and re-proves the recorded schedules and the plan
    /// instead). Verification never changes *what gets compiled* — only
    /// whether a broken pipeline aborts with [`CompileError::Verify`] or
    /// miscompiles — so it takes no part in
    /// [`CompilerOptions::cache_key_bits`] or equality.
    pub verify_level: VerifyLevel,
    /// Worker threads fanning the per-fused-group compile+tune loop out
    /// (`0` = one per available core, `1` = sequential). Does **not**
    /// change what gets compiled — group order, tuning decisions and
    /// accounting are deterministic regardless — so it takes no part in
    /// [`CompilerOptions::cache_key_bits`].
    pub compile_workers: usize,
}

impl CompilerOptions {
    /// Full tuning with cost-model pruning and parallel group compilation —
    /// the serving default.
    pub fn tuned() -> CompilerOptions {
        CompilerOptions {
            tune: true,
            order_stable_reductions: false,
            tuning_cache: None,
            measure_top_k: Some(DEFAULT_MEASURE_TOP_K),
            verify_level: VerifyLevel::Cheap,
            compile_workers: 0,
        }
    }

    /// Full tuning with the exhaustive (unpruned) schedule search — the
    /// paper's configuration, for the figure-reproduction benches.
    pub fn exhaustive() -> CompilerOptions {
        CompilerOptions {
            measure_top_k: None,
            ..CompilerOptions::tuned()
        }
    }

    /// No tuning: default schedules only.
    pub fn quick() -> CompilerOptions {
        CompilerOptions {
            tune: false,
            ..CompilerOptions::tuned()
        }
    }

    /// Turns on [`CompilerOptions::order_stable_reductions`]: every
    /// reduction accumulates in pure index order, so differently padded
    /// graphs computing the same values produce bit-identical outputs.
    pub fn order_stable(mut self) -> CompilerOptions {
        self.order_stable_reductions = true;
        self
    }

    /// Attaches a shared tuning-record store.
    pub fn with_tuning_cache(mut self, cache: Arc<Mutex<TuningCache>>) -> CompilerOptions {
        self.tuning_cache = Some(cache);
        self
    }

    /// Forces the per-group compile loop sequential (profiling; the
    /// `zoo_compile` benchmark workload times this path).
    pub fn sequential(mut self) -> CompilerOptions {
        self.compile_workers = 1;
        self
    }

    /// Turns on deep verification (shape re-inference, KV-family rules)
    /// after every rewriting pass.
    pub fn verify_deep(mut self) -> CompilerOptions {
        self.verify_level = VerifyLevel::Deep;
        self
    }

    /// The worker count the per-group fan-out will actually use.
    pub fn effective_compile_workers(&self) -> usize {
        if self.compile_workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.compile_workers
        }
    }

    /// A stable fingerprint of every option that changes *what gets
    /// compiled*. The tuning cache and the worker count deliberately do not
    /// participate: they only change where tuned configs come from and how
    /// many threads search for them, not which config wins, so compiled
    /// graphs remain interchangeable across cache attachments and machine
    /// sizes. The pruning depth **does** participate — a different
    /// measurement set can crown a different schedule. The verify level
    /// does not: it gates whether bugs abort, never what is produced.
    /// Used by the runtime's compiled-graph cache key and artifact file
    /// names. Bits 1 and 2 are unused: closing the gap would rename every
    /// stored artifact.
    pub fn cache_key_bits(&self) -> u64 {
        (self.tune as u64)
            | (self.order_stable_reductions as u64) << 3
            | (self.measure_top_k.map_or(0, |k| k as u64 + 1) & 0xffff_ffff) << 8
    }

    /// The tuner policy these options select.
    pub(super) fn tuner_policy(&self) -> TunerPolicy {
        TunerPolicy {
            measure_top_k: self.measure_top_k,
        }
    }
}

impl PartialEq for CompilerOptions {
    /// Equality over the compilation-relevant flags plus *identity* of the
    /// attached tuning cache (two handles to the same store compare equal).
    /// `compile_workers` and `verify_level` are execution strategy, not
    /// compilation input, and do not participate.
    fn eq(&self, other: &CompilerOptions) -> bool {
        let caches_match = match (&self.tuning_cache, &other.tuning_cache) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.tune == other.tune
            && self.order_stable_reductions == other.order_stable_reductions
            && self.measure_top_k == other.measure_top_k
            && caches_match
    }
}

impl Default for CompilerOptions {
    fn default() -> CompilerOptions {
        CompilerOptions::tuned()
    }
}
