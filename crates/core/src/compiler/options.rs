//! What a compile is asked for ([`CompilerOptions`]) and how it fails
//! ([`CompileError`]).

use std::fmt;

use hidet_sched::TunerPolicy;
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

/// How a compile picks each matmul anchor's tile configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulChoice {
    /// [`MatmulConfig::default`](hidet_sched::MatmulConfig)'s mid-size tile
    /// everywhere: no search, fast compiles (tests, examples).
    Default,
    /// One warp on a 16×32 tile
    /// ([`hidet_sched::compact_matmul_config`]) everywhere, with no search:
    /// what skinny GEMMs want, such as a decode step's, whose M is a handful
    /// of tokens.
    Compact,
    /// Tune each distinct problem over the hardware-centric space.
    Tuned,
}

/// Compiler options.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// How matmul anchors are scheduled.
    pub matmul: MatmulChoice,
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
    /// Cost-model pruning of the tuner's measurement set: rank candidates by
    /// the closed-form [`hidet_sched::quick_score`] and measure only the top
    /// `K`. `None` enumerates exhaustively (the paper's configuration;
    /// [`CompilerOptions::exhaustive`]).
    pub measure_top_k: Option<usize>,
}

impl CompilerOptions {
    /// Full tuning with cost-model pruning — the serving default.
    pub fn tuned() -> CompilerOptions {
        CompilerOptions {
            matmul: MatmulChoice::Tuned,
            order_stable_reductions: false,
            measure_top_k: Some(DEFAULT_MEASURE_TOP_K),
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
            matmul: MatmulChoice::Default,
            ..CompilerOptions::tuned()
        }
    }

    /// No tuning: the compact tile for every matmul
    /// ([`MatmulChoice::Compact`]).
    pub fn compact() -> CompilerOptions {
        CompilerOptions {
            matmul: MatmulChoice::Compact,
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

    /// A no-op: every compile runs on the thread that calls it. Kept for
    /// the benchmark harness (`benchmark/`), whose `zoo_compile` workload
    /// calls it.
    pub fn sequential(self) -> CompilerOptions {
        self
    }

    /// A stable fingerprint of every option that changes *what gets
    /// compiled*. The pruning depth participates — a different measurement
    /// set can crown a different schedule. Used by the runtime's
    /// compiled-graph cache key and artifact file names. Bit 0 is
    /// [`MatmulChoice::Tuned`], bit 1 [`MatmulChoice::Compact`]; bit 2 is
    /// unused: closing the gap would rename every stored artifact.
    pub fn cache_key_bits(&self) -> u64 {
        let matmul = match self.matmul {
            MatmulChoice::Default => 0,
            MatmulChoice::Tuned => 1,
            MatmulChoice::Compact => 2,
        };
        matmul
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

impl Default for CompilerOptions {
    fn default() -> CompilerOptions {
        CompilerOptions::tuned()
    }
}
