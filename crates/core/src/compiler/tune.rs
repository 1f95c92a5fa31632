//! One fused group's compile: the schedule decision (tuned, read from a
//! record, or a default), coalesced across duplicate matmul problems, then
//! code generation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hidet_graph::passes::FusedGroup;
use hidet_graph::{Graph, OpKind};
use hidet_sched::fusion::{compile_group, CompiledGroup, GroupSchedule};
use hidet_sched::{
    anchor_problem, pick_reduce_config, try_tune_matmul_with, AnchorProblem, MatmulConfig,
    MatmulProblem, ReduceConfig, TuningRecord,
};
use hidet_sim::Gpu;

use super::{CompileError, CompilerOptions};
use crate::artifact::TunedEntry;

/// How one group's schedule decision was paid for, for the compile's
/// provenance counters. Duplicate problems resolve to [`TuneCost::None`] on
/// every group but the one that actually tuned (or hit a record).
#[derive(Debug, Clone, Copy)]
pub(super) enum TuneCost {
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
pub(super) struct GroupOutcome {
    pub(super) schedule: GroupSchedule,
    pub(super) compiled: CompiledGroup,
    pub(super) cost: TuneCost,
}

/// The per-compilation tuning state shared by every worker: one
/// [`OnceLock`] slot per distinct matmul problem, so concurrent groups with
/// the same problem run **one** tuning task.
type TuneSlot = Arc<OnceLock<Result<(MatmulConfig, TuneCost), CompileError>>>;

#[derive(Default)]
pub(super) struct TuningSlots {
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
    pub(super) fn entries(&self) -> Vec<TunedEntry> {
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
pub(super) fn compile_one_group(
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
        match anchor_problem(g, op) {
            Some(AnchorProblem::Matmul(problem)) => {
                let config = if options.tune {
                    let _tune = hidet_trace::global().span(hidet_trace::SpanKind::Tune, 0);
                    let (config, c) = resolve_matmul_config(problem, gpu, options, device, tuning)?;
                    cost = c;
                    config
                } else {
                    MatmulConfig::default()
                };
                schedule.matmul = config;
                if options.order_stable_reductions {
                    // Split-K sums per-split partials in a second kernel — a
                    // different association of the same terms — so
                    // order-stable mode forbids it.
                    schedule.matmul.split_k = 1;
                }
            }
            Some(AnchorProblem::RowReduce { rows, len, .. }) => {
                schedule.reduce = reduce_for(rows, len);
            }
            None if op.kind == OpKind::LayerNorm => {
                return Err(CompileError::Schedule(format!(
                    "layernorm anchor {} has a rank-0 input",
                    op.name
                )));
            }
            None => {}
        }
    }
    let compiled = compile_group(g, group, &schedule).map_err(CompileError::Schedule)?;
    Ok(GroupOutcome {
        schedule,
        compiled,
        cost,
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
