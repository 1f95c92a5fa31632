//! The Hidet compilation pipeline (paper Fig. 10).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hidet_analysis::{self as analysis, VerifyLevel};
use hidet_graph::passes::FusedGroup;
use hidet_graph::passes::{constant_fold, lower_convs, partition};
use hidet_graph::{Graph, OpKind, TensorId};
use hidet_sched::fusion::{compile_group, CompiledGroup, GroupSchedule};
use hidet_sched::{
    pick_reduce_config, try_tune_matmul_with, MatmulConfig, MatmulProblem, ReduceConfig,
    TunerPolicy, TuningCache, TuningRecord,
};
use hidet_sim::{DeviceMemory, Gpu, Program, SimError};

use crate::artifact::{CompiledArtifact, TunedEntry};
use crate::plan::{MemoryPlan, Workspace};

/// Per-kernel dispatch overhead of Hidet's lean graph executor, seconds.
pub const HIDET_DISPATCH_S: f64 = 2.0e-6;

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
    /// Force double buffering off (ablation studies).
    pub disable_double_buffering: bool,
    /// Force parallel-k off (ablation studies).
    pub disable_parallel_k: bool,
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
            disable_double_buffering: false,
            disable_parallel_k: false,
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
    /// Used by the runtime's compiled-graph cache key.
    pub fn cache_key_bits(&self) -> u64 {
        (self.tune as u64)
            | (self.disable_double_buffering as u64) << 1
            | (self.disable_parallel_k as u64) << 2
            | (self.order_stable_reductions as u64) << 3
            | (self.measure_top_k.map_or(0, |k| k as u64 + 1) & 0xffff_ffff) << 8
    }

    /// The tuner policy these options select.
    fn tuner_policy(&self) -> TunerPolicy {
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
            && self.disable_double_buffering == other.disable_double_buffering
            && self.disable_parallel_k == other.disable_parallel_k
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

/// The device-executable half of a compiled model: the optimized graph and
/// its generated kernels, in execution order.
///
/// A plan is what actually *runs*; it is rebuilt cheaply from a
/// [`CompiledArtifact`] (the serializable half holding the expensive schedule
/// decisions) by [`compile_from_artifact`]. See the [`crate::artifact`]
/// module docs for the split rationale.
#[derive(Debug, Clone)]
pub struct CompilePlan {
    graph: Graph,
    groups: Vec<CompiledGroup>,
    /// Liveness-planned arena placement of every intermediate buffer.
    memory_plan: MemoryPlan,
    /// The kernels lowered for the interpreter, in launch order — built by
    /// the first launch (compiling, saving and loading a plan never pay for
    /// it) and shared by every clone of the plan.
    programs: Arc<OnceLock<Vec<Program>>>,
}

/// A compiled model: an executable [`CompilePlan`] plus the serializable
/// [`CompiledArtifact`] that records what the tuner decided, and provenance
/// counters for what *this* compilation cost.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    plan: CompilePlan,
    artifact: CompiledArtifact,
    /// Tuning cost *this* compilation paid (zero when rebuilt from an
    /// artifact or fully served by tuning records).
    tuning_seconds: f64,
    tuning_trials: usize,
    from_artifact: bool,
    record_hits: usize,
    record_trials_saved: usize,
    record_seconds_saved: f64,
}

/// Compiles a model for the given device (paper Fig. 10, steps 2–5).
///
/// Computes `graph.structural_hash()` — O(model weights) — to stamp the
/// artifact key; callers that already hold the hash (the runtime's compiled
/// cache memoizes it per model variant) should use [`compile_hashed`].
///
/// # Errors
/// [`CompileError::Schedule`] if a fused group has no applicable template.
pub fn compile(
    graph: &Graph,
    gpu: &Gpu,
    options: &CompilerOptions,
) -> Result<CompiledGraph, CompileError> {
    compile_hashed(graph, graph.structural_hash(), gpu, options)
}

/// [`compile`] with a precomputed [`Graph::structural_hash`], skipping the
/// O(model-weights) rehash. `graph_hash` becomes the artifact's cache key —
/// passing a hash that is not `graph`'s produces artifacts that will never
/// validate against the graph again.
pub fn compile_hashed(
    graph: &Graph,
    graph_hash: u64,
    gpu: &Gpu,
    options: &CompilerOptions,
) -> Result<CompiledGraph, CompileError> {
    // The whole cold compile is one span; the tuning stage inside each
    // group nests its own `Tune` spans under it. Compiles are not tied to
    // a single request, so the span is unattributed (trace id 0).
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::Compile, 0);
    let level = options.verify_level;
    let (g, groups) = lower_and_partition(graph, level)?;

    let device = gpu.spec().fingerprint();
    // Shared per-problem tuning slots: identical matmul problems across
    // groups coalesce onto one tuning task, whichever worker claims it first
    // (the others block on the slot — tuning dominates group compilation).
    let tuning = TuningSlots::default();
    let want = options.effective_compile_workers().min(groups.len()).max(1);
    // Concurrent compiles (several engine lanes cold-starting distinct
    // models) share one process-wide CPU budget instead of each spawning a
    // full complement — claiming only what is free degrades gracefully to
    // one worker per compile rather than oversubscribing multiplicatively.
    let budget = WorkerBudget::claim(want);
    let workers = budget.granted();

    let outcomes: Vec<Result<GroupOutcome, CompileError>> = if workers <= 1 {
        groups
            .iter()
            .map(|group| compile_one_group(&g, group, gpu, options, &device, &tuning))
            .collect()
    } else {
        // Fan the per-group compile+tune loop out over scoped workers; the
        // slot vector keeps results in deterministic group order no matter
        // which worker finishes first.
        let slots: Vec<OnceLock<Result<GroupOutcome, CompileError>>> =
            (0..groups.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(idx) else { return };
                    let outcome = compile_one_group(&g, group, gpu, options, &device, &tuning);
                    let _ = slots[idx].set(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                // Workers drain the index counter before exiting, so every
                // slot is filled; an empty one means a worker died mid-group.
                slot.into_inner().unwrap_or_else(|| {
                    Err(CompileError::Schedule(
                        "internal: a compile worker exited without filling its group slot".into(),
                    ))
                })
            })
            .collect()
    };

    // Reduce in group order: the first failing group's error is returned
    // (matching the sequential pipeline), and tuning accounting sums
    // deterministically.
    let mut tuning_seconds = 0.0;
    let mut tuning_trials = 0usize;
    let mut record_hits = 0usize;
    let mut record_trials_saved = 0usize;
    let mut record_seconds_saved = 0.0;
    let mut schedules = Vec::with_capacity(groups.len());
    let mut compiled_groups = Vec::with_capacity(groups.len());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let outcome = outcome?;
        if level > VerifyLevel::Off {
            // Re-prove the elected schedule against the device — the tuner
            // and the ablation clamps must never hand kernel generation an
            // illegal config.
            verify_stage(
                check_group_schedule(&g, &groups[i], &outcome.schedule, gpu, options, i),
                "tuning",
            )?;
        }
        match outcome.cost {
            TuneCost::None => {}
            TuneCost::Fresh { trials, seconds } => {
                tuning_trials += trials;
                tuning_seconds += seconds;
            }
            TuneCost::Record {
                trials_saved,
                seconds_saved,
            } => {
                record_hits += 1;
                record_trials_saved += trials_saved;
                record_seconds_saved += seconds_saved;
            }
        }
        schedules.push(outcome.schedule);
        compiled_groups.push(outcome.compiled);
    }
    // The artifact records the *embodied* tuning cost of its schedules —
    // trials run here plus trials that persisted records already paid for —
    // so "what a warm artifact load saves" is stable across re-compiles.
    let tuned_entries = tuning.entries();
    let verify_as = (level > VerifyLevel::Off).then_some("memory planning");
    let plan = plan_memory(g, compiled_groups, verify_as)?;
    let artifact = CompiledArtifact {
        graph_hash,
        device,
        option_bits: options.cache_key_bits(),
        schedules,
        tuned: tuned_entries,
        tuning_trials: tuning_trials + record_trials_saved,
        tuning_seconds: tuning_seconds + record_seconds_saved,
        planned_peak_bytes: plan.memory_plan.peak_bytes(),
    };
    Ok(CompiledGraph {
        plan,
        artifact,
        tuning_seconds,
        tuning_trials,
        from_artifact: false,
        record_hits,
        record_trials_saved,
        record_seconds_saved,
    })
}

/// The front end both compile paths share: clone, lower convolutions, fold
/// constants, partition into fused groups. Each rewriting pass rebuilds the
/// op/tensor tables, so at `level` above `Off` the IR invariants are
/// re-proved behind it — structural checks after every pass, the deep (shape
/// re-inference + KV family) sweep once, after the last rewrite.
fn lower_and_partition(
    graph: &Graph,
    level: VerifyLevel,
) -> Result<(Graph, Vec<FusedGroup>), CompileError> {
    let mut g = graph.clone();
    lower_convs(&mut g);
    verify_stage(
        analysis::verify_graph(&g, level.min(VerifyLevel::Cheap)),
        "lower_convs",
    )?;
    constant_fold(&mut g);
    verify_stage(analysis::verify_graph(&g, level), "constant_fold")?;
    let groups = partition(&g);
    if level > VerifyLevel::Off {
        verify_stage(analysis::verify_partition(&g, &groups), "partition")?;
    }
    Ok((g, groups))
}

/// The back end both compile paths share: plan the intermediates' arena and,
/// when `verify_as` names the stage, re-prove the plan before anything runs
/// on it.
fn plan_memory(
    graph: Graph,
    groups: Vec<CompiledGroup>,
    verify_as: Option<&str>,
) -> Result<CompilePlan, CompileError> {
    let memory_plan = MemoryPlan::build(&graph, &groups);
    if let Some(stage) = verify_as {
        verify_stage(memory_plan.verify(graph.name()), stage)?;
    }
    Ok(CompilePlan {
        graph,
        groups,
        memory_plan,
        programs: Arc::default(),
    })
}

/// Compile workers currently *spawned* across every in-flight
/// [`compile_hashed`] in the process. The thread that called the compiler is
/// never counted: with a grant above one it only parks in `thread::scope`,
/// and with a grant of one it compiles on itself and spawns nobody.
static ACTIVE_COMPILE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// An RAII claim on the process-wide compile-worker budget.
///
/// Invariant: the ledger — the sum of every live claim's booked workers —
/// never exceeds the core count. A claim books `min(want, free)` workers in
/// one compare-exchange loop, so concurrent claimants cannot both take the
/// same free cores. When fewer than two are free (or wanted) the claim books
/// nothing and grants the caller's own thread only: that compile runs
/// sequentially on the thread that asked, which is not an extra worker, so a
/// compile arriving while others saturate the budget degrades to one thread
/// instead of piling on or blocking.
struct WorkerBudget<'a> {
    ledger: &'a AtomicUsize,
    booked: usize,
}

impl WorkerBudget<'static> {
    fn claim(want: usize) -> WorkerBudget<'static> {
        // Sequential compiles skip the core-count query (it reads cgroup
        // files on Linux): they book nothing whatever it says.
        let cores = if want <= 1 {
            1
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        WorkerBudget::claim_with(&ACTIVE_COMPILE_WORKERS, cores, want)
    }
}

impl<'a> WorkerBudget<'a> {
    /// [`WorkerBudget::claim`] against an explicit ledger and core count —
    /// the seam the tests simulate small hosts through.
    fn claim_with(ledger: &'a AtomicUsize, cores: usize, want: usize) -> WorkerBudget<'a> {
        // `fetch_update` is the compare-exchange loop: the claim is decided
        // against the value it replaces. Relaxed: the ledger publishes no
        // other data.
        let mut booked = 0;
        let _ = ledger.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |active| {
            booked = want.min(cores.saturating_sub(active));
            (booked > 1).then_some(active + booked)
        });
        booked = if booked > 1 { booked } else { 0 };
        WorkerBudget { ledger, booked }
    }

    /// Workers the compile may run: the booked ones, or the caller's own
    /// thread when nothing was booked.
    fn granted(&self) -> usize {
        self.booked.max(1)
    }
}

impl Drop for WorkerBudget<'_> {
    fn drop(&mut self) {
        if self.booked > 0 {
            self.ledger.fetch_sub(self.booked, Ordering::Relaxed);
        }
    }
}

/// How one group's schedule decision was paid for, for the compile's
/// provenance counters. Duplicate problems resolve to [`TuneCost::None`] on
/// every group but the one that actually tuned (or hit a record).
#[derive(Debug, Clone, Copy)]
enum TuneCost {
    /// Nothing new: default schedule, reduce heuristic, or a problem another
    /// group already resolved.
    None,
    /// Freshly tuned here.
    Fresh { trials: usize, seconds: f64 },
    /// Served by a persisted tuning record.
    Record {
        trials_saved: usize,
        seconds_saved: f64,
    },
}

/// One group's compiled result plus its schedule and tuning provenance.
struct GroupOutcome {
    schedule: GroupSchedule,
    compiled: CompiledGroup,
    cost: TuneCost,
}

/// The per-compilation tuning state shared by every worker: one
/// [`OnceLock`] slot per distinct matmul problem, so concurrent groups with
/// the same problem run **one** tuning task.
type TuneSlot = Arc<OnceLock<Result<(MatmulConfig, TuneCost), CompileError>>>;

#[derive(Default)]
struct TuningSlots {
    slots: Mutex<HashMap<(i64, i64, i64, i64), TuneSlot>>,
}

impl TuningSlots {
    fn slot(&self, key: (i64, i64, i64, i64)) -> TuneSlot {
        // The map is insert-only (never torn by a panicking writer), so a
        // poisoned lock is safe to enter rather than propagate.
        Arc::clone(
            self.slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .entry(key)
                .or_default(),
        )
    }

    /// Every successfully resolved problem's winning config, sorted by
    /// problem key (deterministic regardless of which worker tuned what).
    fn entries(&self) -> Vec<TunedEntry> {
        let slots = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut entries: Vec<TunedEntry> = slots
            .iter()
            .filter_map(|(&(batch, m, n, k), slot)| match slot.get() {
                Some(Ok((config, _))) => Some(TunedEntry {
                    problem: MatmulProblem { batch, m, n, k },
                    config: *config,
                }),
                _ => None,
            })
            .collect();
        entries.sort_by_key(|e| (e.problem.batch, e.problem.m, e.problem.n, e.problem.k));
        entries
    }
}

/// Resolves the tuned config for one matmul problem, coalescing duplicates:
/// the first caller per problem tunes (or consults records) and pays the
/// cost; everyone else gets the config at [`TuneCost::None`].
fn resolve_matmul_config(
    problem: MatmulProblem,
    gpu: &Gpu,
    options: &CompilerOptions,
    device: &str,
    tuning: &TuningSlots,
) -> Result<(MatmulConfig, TuneCost), CompileError> {
    let key = (problem.batch, problem.m, problem.n, problem.k);
    let slot = tuning.slot(key);
    let mut first = false;
    let result = slot.get_or_init(|| {
        first = true;
        if let Some(record) = lookup_record(options, gpu, device, problem) {
            // Warm start: a persisted record schedules this problem with
            // zero trials.
            return Ok((
                record.config,
                TuneCost::Record {
                    trials_saved: record.trials,
                    seconds_saved: record.tuning_seconds,
                },
            ));
        }
        let report =
            try_tune_matmul_with(problem, gpu, options.tuner_policy()).ok_or_else(|| {
                CompileError::Schedule(format!(
                    "no matmul schedule for {}x{}x{} (batch {}) fits device \"{}\"",
                    problem.m,
                    problem.n,
                    problem.k,
                    problem.batch,
                    gpu.spec().name
                ))
            })?;
        store_record(options, device, problem, &report);
        Ok((
            report.best,
            TuneCost::Fresh {
                trials: report.trials,
                seconds: report.tuning_seconds,
            },
        ))
    });
    match result {
        Ok((config, cost)) => Ok((*config, if first { *cost } else { TuneCost::None })),
        Err(e) => Err(e.clone()),
    }
}

/// Schedules and compiles one fused group (steps 3–4 of Fig. 10 for one
/// sub-graph) — the unit of work the parallel pipeline fans out.
fn compile_one_group(
    g: &Graph,
    group: &FusedGroup,
    gpu: &Gpu,
    options: &CompilerOptions,
    device: &str,
    tuning: &TuningSlots,
) -> Result<GroupOutcome, CompileError> {
    let mut schedule = GroupSchedule::default();
    let mut cost = TuneCost::None;
    // Order-stable mode overrides the row-reduce heuristic: a sequential
    // per-row pass accumulates in pure index order, so the result is
    // independent of how much masked padding the row carries.
    let reduce_for = |rows: i64, len: i64| {
        if options.order_stable_reductions {
            ReduceConfig {
                threads_per_row: 1,
                block_threads: 256,
            }
        } else {
            pick_reduce_config(rows, len, gpu)
        }
    };
    if let Some(anchor) = group.anchor {
        let op = g.op(anchor);
        match &op.kind {
            OpKind::Matmul | OpKind::BatchMatmul => {
                let config = if options.tune {
                    let problem = matmul_problem(g, anchor)?;
                    let _tune = hidet_trace::global().span(hidet_trace::SpanKind::Tune, 0);
                    let (config, c) = resolve_matmul_config(problem, gpu, options, device, tuning)?;
                    cost = c;
                    config
                } else {
                    MatmulConfig::default()
                };
                schedule.matmul = apply_ablations(config, options);
            }
            OpKind::Softmax { axis } => {
                let shape = g.tensor(op.inputs[0]).shape();
                let len = shape[*axis];
                let rows: i64 = shape.iter().product::<i64>() / len;
                schedule.reduce = reduce_for(rows, len);
            }
            OpKind::LayerNorm => {
                let shape = g.tensor(op.inputs[0]).shape();
                let Some(&len) = shape.last() else {
                    return Err(CompileError::Schedule(format!(
                        "layernorm anchor {} has a rank-0 input",
                        op.name
                    )));
                };
                let rows: i64 = shape.iter().product::<i64>() / len;
                schedule.reduce = reduce_for(rows, len);
            }
            OpKind::GlobalAvgPool => {
                let shape = g.tensor(op.inputs[0]).shape();
                let rows = shape[0] * shape[1];
                let len = shape[2] * shape[3];
                schedule.reduce = reduce_for(rows, len);
            }
            _ => {}
        }
    }
    let compiled = compile_group(g, group, &schedule).map_err(CompileError::Schedule)?;
    Ok(GroupOutcome {
        schedule,
        compiled,
        cost,
    })
}

/// Lifts a verifier stage's findings into [`CompileError::Verify`]:
/// gating findings abort the compile with the rendered diagnostics.
fn verify_stage(diags: Vec<analysis::Diagnostic>, stage: &str) -> Result<(), CompileError> {
    if analysis::has_errors(&diags) {
        Err(CompileError::Verify(format!(
            "after {stage}: {}",
            analysis::render_text(&diags).trim_end()
        )))
    } else {
        Ok(())
    }
}

/// Re-proves one group's elected schedule against the device spec
/// (`hidet_analysis::check_schedule` with this group's anchor kind and the
/// compile's determinism contract).
fn check_group_schedule(
    g: &Graph,
    group: &FusedGroup,
    schedule: &GroupSchedule,
    gpu: &Gpu,
    options: &CompilerOptions,
    index: usize,
) -> Vec<analysis::Diagnostic> {
    let matmul_anchor = group
        .anchor
        .is_some_and(|a| matches!(g.op(a).kind, OpKind::Matmul | OpKind::BatchMatmul));
    analysis::check_schedule(
        schedule,
        gpu.spec(),
        matmul_anchor,
        options.order_stable_reductions,
        &format!("{}::group {index}", g.name()),
    )
}

/// Rebuilds a [`CompiledGraph`] from a previously saved [`CompiledArtifact`]
/// with **zero tuning trials**: the graph passes and kernel generation run as
/// usual, but every schedule decision comes from the artifact.
///
/// The artifact must match the `(graph, device, options)` key exactly and its
/// schedules must fit the target device — an artifact produced for a larger
/// GPU (or a corrupted file that slipped past the parser) is rejected, never
/// fed to kernel generation.
///
/// # Errors
/// [`CompileError::Artifact`] on any key/shape/fit mismatch — the caller
/// should fall back to [`compile`]; [`CompileError::Schedule`] if a group
/// cannot be compiled at all.
pub fn compile_from_artifact(
    graph: &Graph,
    gpu: &Gpu,
    options: &CompilerOptions,
    artifact: CompiledArtifact,
) -> Result<CompiledGraph, CompileError> {
    compile_from_artifact_hashed(graph, graph.structural_hash(), gpu, options, artifact)
}

/// [`compile_from_artifact`] with a precomputed [`Graph::structural_hash`]
/// (the hash the artifact is validated against), skipping the
/// O(model-weights) rehash on the cache's warm path.
pub fn compile_from_artifact_hashed(
    graph: &Graph,
    graph_hash: u64,
    gpu: &Gpu,
    options: &CompilerOptions,
    artifact: CompiledArtifact,
) -> Result<CompiledGraph, CompileError> {
    // Unattributed (trace id 0), like the cold compile's span.
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::Compile, 0);
    artifact
        .validate_key(
            graph_hash,
            &gpu.spec().fingerprint(),
            options.cache_key_bits(),
        )
        .map_err(|e| CompileError::Artifact(e.to_string()))?;
    // The artifact key pins the graph the cold compile already verified, so
    // the graph-stage verifiers stay off the warm path.
    let (g, groups) = lower_and_partition(graph, VerifyLevel::Off)?;
    if groups.len() != artifact.schedules.len() {
        return Err(CompileError::Artifact(format!(
            "artifact has {} group schedules, graph partitions into {} groups",
            artifact.schedules.len(),
            groups.len()
        )));
    }
    let mut compiled_groups = Vec::with_capacity(groups.len());
    for (i, (group, schedule)) in groups.iter().zip(&artifact.schedules).enumerate() {
        // Recorded schedules crossed a serialization boundary (possibly a
        // hand-edited file): re-prove full legality, not just "fits" — a
        // corrupted/oversized config is rejected with its diagnostics,
        // never fed to kernel generation.
        let diags = check_group_schedule(&g, group, schedule, gpu, options, i);
        if analysis::has_errors(&diags) {
            return Err(CompileError::Artifact(format!(
                "recorded schedule rejected: {}",
                analysis::render_text(&diags).trim_end()
            )));
        }
        let compiled = compile_group(&g, group, schedule).map_err(CompileError::Schedule)?;
        compiled_groups.push(compiled);
    }
    let verify_as = Some("memory planning (artifact load)");
    Ok(CompiledGraph {
        plan: plan_memory(g, compiled_groups, verify_as)?,
        tuning_seconds: 0.0,
        tuning_trials: 0,
        from_artifact: true,
        record_hits: artifact.tuned.len(),
        record_trials_saved: artifact.tuning_trials,
        record_seconds_saved: artifact.tuning_seconds,
        artifact,
    })
}

/// Consults the attached tuning-record store, if any. A record whose config
/// does not actually fit the target device (a corrupted or hand-edited file;
/// the JSON loader only guarantees positive fields) is ignored rather than
/// fed to kernel generation — the problem simply re-tunes.
fn lookup_record(
    options: &CompilerOptions,
    gpu: &Gpu,
    device: &str,
    problem: MatmulProblem,
) -> Option<TuningRecord> {
    let cache = options.tuning_cache.as_ref()?;
    // Tuning records are monotone (insert/overwrite whole entries); a
    // poisoned store still serves consistent records.
    let cache = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    cache
        .lookup(device, problem)
        .filter(|record| record.config.fits(gpu.spec()))
        .copied()
}

/// Persists a fresh tuning result into the attached store, if any.
fn store_record(
    options: &CompilerOptions,
    device: &str,
    problem: MatmulProblem,
    report: &hidet_sched::TuneReport,
) {
    if let Some(cache) = &options.tuning_cache {
        let mut cache = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cache.insert(
            device,
            TuningRecord {
                problem,
                config: report.best,
                trials: report.trials,
                tuning_seconds: report.tuning_seconds,
                best_latency_us: report.best_latency.micros(),
            },
        );
    }
}

fn matmul_problem(g: &Graph, anchor: hidet_graph::OpId) -> Result<MatmulProblem, CompileError> {
    let op = g.op(anchor);
    let a = g.tensor(op.inputs[0]).shape();
    let b = g.tensor(op.inputs[1]).shape();
    match op.kind {
        OpKind::Matmul => Ok(MatmulProblem::new(a[0], b[1], a[1])),
        OpKind::BatchMatmul => Ok(MatmulProblem {
            batch: a[0],
            m: a[1],
            n: b[2],
            k: a[2],
        }),
        _ => Err(CompileError::Schedule(format!(
            "internal: tuning requested for non-matmul anchor {}",
            op.name
        ))),
    }
}

fn apply_ablations(mut cfg: MatmulConfig, options: &CompilerOptions) -> MatmulConfig {
    if options.disable_double_buffering {
        cfg.stages = 1;
    }
    if options.disable_parallel_k || options.order_stable_reductions {
        // Split-K sums per-split partials in a second kernel — a different
        // association of the same terms — so order-stable mode forbids it.
        cfg.split_k = 1;
    }
    cfg
}

impl CompilePlan {
    /// The optimized graph (after conv lowering and constant folding).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Compiled fused groups, in execution order.
    pub fn groups(&self) -> &[CompiledGroup] {
        &self.groups
    }

    /// The liveness-based arena placement of this plan's intermediates —
    /// see [`crate::plan`].
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.memory_plan
    }

    /// Total kernels launched per inference.
    pub fn num_kernels(&self) -> usize {
        self.groups.iter().map(|g| g.kernels.len()).sum()
    }

    /// Every kernel of [`CompilePlan::groups`] lowered to its interpreter
    /// [`Program`], flattened in launch order. Lowered on first use, once
    /// for this plan and all its clones.
    pub fn programs(&self) -> &[Program] {
        self.programs.get_or_init(|| {
            let kernels = self.groups.iter().flat_map(|g| &g.kernels);
            kernels.map(Program::lower).collect()
        })
    }

    /// Estimated end-to-end latency on `gpu` in seconds (kernel estimates +
    /// dispatch overhead).
    pub fn estimate(&self, gpu: &Gpu) -> f64 {
        let mut total = 0.0;
        for group in &self.groups {
            for kernel in &group.kernels {
                total += gpu
                    .estimate(kernel)
                    .map(|e| e.seconds)
                    .unwrap_or(f64::INFINITY)
                    + HIDET_DISPATCH_S;
            }
        }
        total
    }

    /// Functionally executes the plan on the simulated device.
    ///
    /// `inputs` maps each graph input tensor to its flat `f32` data. Returns
    /// the value of every graph output tensor.
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        let mut mem = DeviceMemory::new();
        for &t in self.graph.inputs() {
            let data = inputs
                .get(&t)
                .ok_or_else(|| CompileError::BadInput(format!("missing input tensor t{}", t.0)))?;
            let expect = self.graph.tensor(t).numel() as usize;
            if data.len() != expect {
                return Err(CompileError::BadInput(format!(
                    "input t{} has {} elements, expected {expect}",
                    t.0,
                    data.len()
                )));
            }
            mem.alloc(&format!("t{}", t.0), data);
        }
        // Upload constants.
        for idx in 0..self.graph.num_tensors() {
            let t = TensorId(idx);
            if let Some(data) = self.graph.tensor(t).data() {
                mem.alloc(&format!("t{idx}"), data);
            }
        }
        let mut programs = self.programs().iter();
        for group in &self.groups {
            mem.alloc_zeroed(
                &format!("t{}", group.output.0),
                self.graph.tensor(group.output).numel() as usize,
            );
            for (name, len) in &group.scratch {
                mem.alloc_zeroed(name, *len);
            }
            for program in programs.by_ref().take(group.kernels.len()) {
                gpu.launch(program, &program.resolve(&mem), &mut mem)?;
            }
        }
        let mut out = HashMap::new();
        for &t in self.graph.outputs() {
            out.insert(t, mem.read(&format!("t{}", t.0)).to_vec());
        }
        Ok(out)
    }

    /// [`CompilePlan::run`] through a reusable [`Workspace`]: intermediates
    /// live at their planned arena offsets, constants upload once per
    /// (workspace, plan) binding, and a steady stream of requests for the
    /// same plan performs **zero heap allocations** for intermediates.
    /// Results are bit-identical to the unplanned [`CompilePlan::run`].
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run_with(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
        workspace: &mut Workspace,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        workspace.execute(self, inputs, gpu)
    }

    /// The full CUDA C source of every kernel, concatenated — what a real
    /// deployment would compile with `nvcc`.
    pub fn cuda_source(&self) -> String {
        let mut out = String::new();
        for group in &self.groups {
            for kernel in &group.kernels {
                out.push_str(&hidet_ir::cuda::to_cuda(kernel));
                out.push('\n');
            }
        }
        out
    }
}

impl CompiledGraph {
    /// The executable half: optimized graph + generated kernels.
    pub fn plan(&self) -> &CompilePlan {
        &self.plan
    }

    /// The serializable half: the schedule decisions and their embodied
    /// tuning cost, ready for [`CompiledArtifact::save`].
    pub fn artifact(&self) -> &CompiledArtifact {
        &self.artifact
    }

    /// Whether this compilation was rebuilt from a saved artifact
    /// ([`compile_from_artifact`]) rather than scheduled from scratch.
    pub fn from_artifact(&self) -> bool {
        self.from_artifact
    }

    /// The optimized graph (after conv lowering and constant folding).
    pub fn graph(&self) -> &Graph {
        self.plan.graph()
    }

    /// Compiled fused groups, in execution order.
    pub fn groups(&self) -> &[CompiledGroup] {
        self.plan.groups()
    }

    /// Total kernels launched per inference.
    pub fn num_kernels(&self) -> usize {
        self.plan.num_kernels()
    }

    /// Simulated tuning wall-clock cost *this compilation* paid. Problems
    /// served from tuning records or an artifact cost nothing here.
    pub fn tuning_seconds(&self) -> f64 {
        self.tuning_seconds
    }

    /// Tuning trials *this compilation* actually executed.
    pub fn tuning_trials(&self) -> usize {
        self.tuning_trials
    }

    /// Matmul problems scheduled from persisted tuning records or a loaded
    /// artifact (zero trials).
    pub fn record_hits(&self) -> usize {
        self.record_hits
    }

    /// Trials that records/artifacts saved (what the problems originally
    /// cost).
    pub fn record_trials_saved(&self) -> usize {
        self.record_trials_saved
    }

    /// Simulated tuning seconds that records/artifacts saved.
    pub fn record_seconds_saved(&self) -> f64 {
        self.record_seconds_saved
    }

    /// Tuned matmul configurations, keyed by `(batch, m, n, k)` — derived
    /// from the artifact (the single copy of the tuner's decisions).
    pub fn tuned_configs(&self) -> HashMap<(i64, i64, i64, i64), MatmulConfig> {
        self.artifact.tuned_map()
    }

    /// Estimated end-to-end latency on `gpu` in seconds (kernel estimates +
    /// dispatch overhead).
    pub fn estimate(&self, gpu: &Gpu) -> f64 {
        self.plan.estimate(gpu)
    }

    /// Functionally executes the compiled model on the simulated device —
    /// see [`CompilePlan::run`].
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        self.plan.run(inputs, gpu)
    }

    /// Memory-planned execution through a reusable [`Workspace`] — see
    /// [`CompilePlan::run_with`].
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run_with(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
        workspace: &mut Workspace,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        self.plan.run_with(inputs, gpu, workspace)
    }

    /// Planned peak bytes of this model's intermediates — the arena one
    /// inference needs (also recorded in the artifact).
    pub fn planned_peak_bytes(&self) -> usize {
        self.plan.memory_plan().peak_bytes()
    }

    /// The full CUDA C source of every kernel, concatenated.
    pub fn cuda_source(&self) -> String {
        self.plan.cuda_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_graph::reference::{execute, ValueMap};
    use hidet_graph::{GraphBuilder, Tensor};

    fn toy_graph() -> (Graph, TensorId, TensorId) {
        let mut g = GraphBuilder::new("toy");
        let x = g.input("x", &[8, 16]);
        let w = g.constant(Tensor::randn(&[16, 12], 1));
        let b = g.constant(Tensor::randn(&[12], 2));
        let y = g.matmul(x, w);
        let y = g.add(y, b);
        let y = g.relu(y);
        (g.output(y).build(), x, y)
    }

    #[test]
    fn worker_budget_never_exceeds_cores_and_releases_on_drop() {
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        for cores in [1, 2, host.max(3)] {
            let ledger = AtomicUsize::new(0);
            let booked = || ledger.load(Ordering::Relaxed);
            // The first claimant takes every core it can use: all of them,
            // or — on one core — just its own thread, booking nothing.
            let a = WorkerBudget::claim_with(&ledger, cores, usize::MAX);
            assert_eq!(a.granted(), cores);
            assert_eq!(booked(), if cores > 1 { cores } else { 0 });
            // With the budget held, a second claimant gets its own thread
            // only and the ledger does not move.
            let b = WorkerBudget::claim_with(&ledger, cores, usize::MAX);
            assert_eq!(b.granted(), 1, "{cores} cores");
            assert!(booked() <= cores, "{} booked on {cores} cores", booked());
            drop(a);
            // A partial claim leaves the rest for the next claimant.
            let c = WorkerBudget::claim_with(&ledger, cores, 2);
            let d = WorkerBudget::claim_with(&ledger, cores, usize::MAX);
            assert!(booked() <= cores, "{} booked on {cores} cores", booked());
            if cores >= 4 {
                assert_eq!((c.granted(), d.granted()), (2, cores - 2));
            }
            // Sequential requests never touch the ledger.
            let before = booked();
            assert_eq!(WorkerBudget::claim_with(&ledger, cores, 1).granted(), 1);
            assert_eq!(booked(), before);
            drop((b, c, d));
            assert_eq!(booked(), 0, "every claim releases on drop");
        }
    }

    #[test]
    fn racing_claims_never_overbook_the_ledger() {
        const CORES: usize = 4;
        let ledger = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..20_000 {
                        let claim = WorkerBudget::claim_with(&ledger, CORES, 3);
                        let seen = ledger.load(Ordering::Relaxed);
                        assert!(seen <= CORES, "ledger {seen} on {CORES} cores");
                        assert!((1..=3).contains(&claim.granted()));
                    }
                });
            }
        });
        assert_eq!(ledger.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn compile_fuses_to_single_kernel() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        assert_eq!(compiled.num_kernels(), 1);
        assert_eq!(compiled.tuning_seconds(), 0.0);
    }

    #[test]
    fn compiled_graph_matches_reference() {
        let (graph, x, y) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let data: Vec<f32> = Tensor::randn(&[8, 16], 3).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data.clone());
        let got = compiled.run(&inputs, &gpu).unwrap();
        let mut ref_inputs = ValueMap::new();
        ref_inputs.insert(x, data);
        let expect = execute(&graph, &ref_inputs);
        for (a, b) in got[&y].iter().zip(&expect[&y]) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn tuned_compile_records_cost_and_configs() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::tuned()).unwrap();
        assert!(compiled.tuning_seconds() > 0.0);
        assert_eq!(compiled.tuned_configs().len(), 1);
    }

    #[test]
    fn tuning_cache_warm_start_costs_zero() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let cache = Arc::new(Mutex::new(TuningCache::new()));
        let opts = CompilerOptions::tuned().with_tuning_cache(cache.clone());
        let cold = compile(&graph, &gpu, &opts).unwrap();
        assert!(cold.tuning_seconds() > 0.0);
        assert!(cold.tuning_trials() > 0);
        assert_eq!(cold.record_hits(), 0);
        assert_eq!(cache.lock().unwrap().len(), 1);

        let warm = compile(&graph, &gpu, &opts).unwrap();
        assert_eq!(warm.tuning_seconds(), 0.0);
        assert_eq!(warm.tuning_trials(), 0);
        assert_eq!(warm.record_hits(), 1);
        assert_eq!(warm.record_trials_saved(), cold.tuning_trials());
        assert_eq!(cold.tuned_configs(), warm.tuned_configs());
    }

    #[test]
    fn ill_fitting_record_is_ignored_not_executed() {
        // A record whose config exceeds the device (e.g. from a hand-edited
        // file) must fall back to tuning, not reach kernel generation.
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let cache = Arc::new(Mutex::new(TuningCache::new()));
        let bogus = hidet_sched::MatmulConfig {
            block_m: 1 << 20, // absurd tile: fails `fits` on any device
            ..hidet_sched::MatmulConfig::default()
        };
        cache.lock().unwrap().insert(
            &gpu.spec().fingerprint(),
            hidet_sched::TuningRecord {
                problem: MatmulProblem::new(8, 12, 16),
                config: bogus,
                trials: 1,
                tuning_seconds: 0.2,
                best_latency_us: 1.0,
            },
        );
        let opts = CompilerOptions::tuned().with_tuning_cache(cache);
        let compiled = compile(&graph, &gpu, &opts).unwrap();
        assert_eq!(compiled.record_hits(), 0, "bogus record must not be used");
        assert!(compiled.tuning_trials() > 0, "problem must re-tune");
    }

    #[test]
    fn tuning_cache_is_device_scoped() {
        let (graph, _, _) = toy_graph();
        let cache = Arc::new(Mutex::new(TuningCache::new()));
        let opts = CompilerOptions::tuned().with_tuning_cache(cache);
        let big = Gpu::default();
        let small = Gpu::new(hidet_sim::GpuSpec::tiny());
        let _ = compile(&graph, &big, &opts).unwrap();
        // Records tuned for the 3090 must not be served to the tiny device.
        let other = compile(&graph, &small, &opts).unwrap();
        assert_eq!(other.record_hits(), 0);
        assert!(other.tuning_trials() > 0);
    }

    #[test]
    fn tuning_cost_deduplicates_identical_problems() {
        // Two identical matmuls: one tuning task.
        let mut g = GraphBuilder::new("twin");
        let x = g.input("x", &[64, 64]);
        let w1 = g.constant(Tensor::randn(&[64, 64], 1));
        let w2 = g.constant(Tensor::randn(&[64, 64], 2));
        let a = g.matmul(x, w1);
        let b = g.matmul(x, w2);
        let y = g.add(a, b);
        let graph = g.output(y).build();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::tuned()).unwrap();
        assert_eq!(compiled.tuned_configs().len(), 1);
    }

    #[test]
    fn parallel_compile_elects_the_sequential_schedules() {
        // A tower of distinct matmul problems, so every compile worker has a
        // tuning task of its own. (On a one-core host both sides run
        // sequentially and the test is trivially true.)
        let widths = [64i64, 96, 80, 112, 48, 72, 32];
        let mut g = GraphBuilder::new("tower");
        let mut t = g.input("x", &[4, widths[0]]);
        for (i, pair) in widths.windows(2).enumerate() {
            let w = g.constant(Tensor::randn(&[pair[0], pair[1]], i as u64 + 1));
            t = g.matmul(t, w);
            t = g.relu(t);
        }
        let graph = g.output(t).build();
        let gpu = Gpu::default();
        let parallel = compile(&graph, &gpu, &CompilerOptions::tuned()).unwrap();
        let sequential = compile(&graph, &gpu, &CompilerOptions::tuned().sequential()).unwrap();
        assert_eq!(parallel.tuned_configs().len(), widths.len() - 1);
        assert_eq!(parallel.tuned_configs(), sequential.tuned_configs());
        assert_eq!(parallel.tuning_trials(), sequential.tuning_trials());
        assert_eq!(parallel.cuda_source(), sequential.cuda_source());
    }

    #[test]
    fn ablation_flags_apply() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let opts = CompilerOptions {
            tune: false,
            disable_double_buffering: true,
            ..CompilerOptions::tuned()
        };
        let compiled = compile(&graph, &gpu, &opts).unwrap();
        for group in compiled.groups() {
            for kernel in &group.kernels {
                assert_eq!(kernel.meta().pipeline_stages, 1);
            }
        }
    }

    #[test]
    fn artifact_round_trip_rebuilds_identical_plan_with_zero_trials() {
        let (graph, x, y) = toy_graph();
        let gpu = Gpu::default();
        let opts = CompilerOptions::tuned();
        let fresh = compile(&graph, &gpu, &opts).unwrap();
        assert!(!fresh.from_artifact());
        assert!(fresh.tuning_trials() > 0);

        let artifact = fresh.artifact().clone();
        let json = artifact.to_json();
        let reloaded = crate::artifact::CompiledArtifact::from_json(&json).unwrap();
        let rebuilt = compile_from_artifact(&graph, &gpu, &opts, reloaded).unwrap();
        assert!(rebuilt.from_artifact());
        assert_eq!(rebuilt.tuning_trials(), 0, "artifact rebuild must not tune");
        assert_eq!(rebuilt.tuning_seconds(), 0.0);
        assert_eq!(rebuilt.record_trials_saved(), artifact.tuning_trials);
        assert_eq!(rebuilt.tuned_configs(), fresh.tuned_configs());
        assert_eq!(rebuilt.num_kernels(), fresh.num_kernels());
        assert_eq!(rebuilt.cuda_source(), fresh.cuda_source());

        // The rebuilt plan computes the same function.
        let data: Vec<f32> = Tensor::randn(&[8, 16], 9).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data);
        let a = fresh.run(&inputs, &gpu).unwrap();
        let b = rebuilt.run(&inputs, &gpu).unwrap();
        assert_eq!(a[&y], b[&y]);
    }

    #[test]
    fn artifact_for_wrong_key_or_device_is_rejected() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let artifact = compile(&graph, &gpu, &opts).unwrap().artifact().clone();

        // Different options bits.
        let ablated = CompilerOptions {
            disable_double_buffering: true,
            ..CompilerOptions::quick()
        };
        let err = compile_from_artifact(&graph, &gpu, &ablated, artifact.clone()).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");

        // Different device.
        let tiny = Gpu::new(hidet_sim::GpuSpec::tiny());
        let err = compile_from_artifact(&graph, &tiny, &opts, artifact.clone()).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");

        // Different graph structure.
        let mut g = GraphBuilder::new("other");
        let x = g.input("x", &[8, 16]);
        let w = g.constant(Tensor::randn(&[16, 4], 7));
        let y = g.matmul(x, w);
        let other = g.output(y).build();
        let err = compile_from_artifact(&other, &gpu, &opts, artifact).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");
    }

    #[test]
    fn ill_fitting_artifact_schedule_is_rejected_not_executed() {
        // An artifact whose matmul tile exceeds the device must be rejected
        // by the fit check, not reach kernel generation.
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let mut artifact = compile(&graph, &gpu, &opts).unwrap().artifact().clone();
        for schedule in &mut artifact.schedules {
            schedule.matmul.block_m = 1 << 20;
        }
        let err = compile_from_artifact(&graph, &gpu, &opts, artifact).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn missing_input_reported() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let err = compiled.run(&HashMap::new(), &gpu).unwrap_err();
        assert!(matches!(err, CompileError::BadInput(_)), "{err}");
    }

    #[test]
    fn cuda_source_contains_all_kernels() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let src = compiled.cuda_source();
        assert!(src.contains("__global__ void"));
        assert!(src.contains("__shared__ float SmemA"));
    }

    #[test]
    fn small_cnn_end_to_end() {
        let mut g = GraphBuilder::new("cnn");
        let x = g.input("x", &[1, 3, 16, 16]);
        let y = g.conv_bn_relu(x, 8, 3, 2, 1);
        let p = g.global_avg_pool(y);
        let out = g.linear(p, 4);
        let graph = g.output(out).build();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let data: Vec<f32> = Tensor::randn(&[1, 3, 16, 16], 5).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data.clone());
        let got = compiled.run(&inputs, &gpu).unwrap();
        let mut ref_inputs = ValueMap::new();
        ref_inputs.insert(x, data);
        let expect = execute(&graph, &ref_inputs);
        for (a, b) in got[&out].iter().zip(&expect[&out]) {
            assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Conv-bn-relu fused into the implicit-GEMM matmul: far fewer kernels
        // than operators.
        assert!(compiled.num_kernels() <= 4, "{}", compiled.num_kernels());
    }

    #[test]
    fn programs_are_lowered_once_and_shared_by_clones() {
        let (graph, x, y) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        // Nothing is lowered by compiling, and a clone taken before the
        // first launch shares what either of them lowers later.
        assert!(compiled.plan().programs.get().is_none());
        let clone = compiled.plan().clone();
        assert!(clone.programs.get().is_none());
        let programs = clone.programs();
        assert_eq!(programs.len(), compiled.num_kernels());
        assert!(std::ptr::eq(programs, compiled.plan().programs()));
        assert!(std::ptr::eq(programs, compiled.clone().plan().programs()));

        let mut inputs = HashMap::new();
        inputs.insert(x, Tensor::randn(&[8, 16], 3).data().unwrap().to_vec());
        let a = compiled.run(&inputs, &gpu).unwrap();
        let b = clone.run(&inputs, &gpu).unwrap();
        assert_eq!(a[&y], b[&y]);
    }
}
