//! One fused group's schedule decision (tuned, compact, or a default), with
//! tuning coalesced across duplicate matmul problems.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hidet_graph::passes::FusedGroup;
use hidet_graph::{Graph, OpKind};
use hidet_sched::fusion::GroupSchedule;
use hidet_sched::{
    anchor_problem, compact_matmul_config, pick_reduce_config, try_tune_matmul_with, AnchorProblem,
    MatmulConfig, MatmulProblem, ReduceConfig,
};
use hidet_sim::Gpu;

use super::{CompileError, CompilerOptions, MatmulChoice};
use crate::artifact::TunedEntry;

/// What one group's schedule decision cost, for the compile's provenance
/// counters: zero for a default or compact schedule, the reduce heuristic,
/// and a problem another group already tuned.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TuneCost {
    pub(super) trials: usize,
    pub(super) seconds: f64,
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
/// the first caller per problem tunes and pays the cost; everyone else gets
/// the config at zero cost.
fn resolve_matmul_config(
    problem: MatmulProblem,
    gpu: &Gpu,
    options: &CompilerOptions,
    tuning: &TuningSlots,
) -> Result<(MatmulConfig, TuneCost), CompileError> {
    let key = (problem.batch, problem.m, problem.n, problem.k);
    let slot = tuning.slot(key);
    let mut first = false;
    let result = slot.get_or_init(|| {
        first = true;
        let report = try_tune_matmul_with(problem, gpu, options.tuner_policy())
            .ok_or_else(|| no_schedule(problem, gpu))?;
        let cost = TuneCost {
            trials: report.trials,
            seconds: report.tuning_seconds,
        };
        Ok((report.best, cost))
    });
    match result {
        Ok((config, cost)) => Ok((*config, if first { *cost } else { TuneCost::default() })),
        Err(e) => Err(e.clone()),
    }
}

/// The error for a problem no configuration of the space fits.
fn no_schedule(problem: MatmulProblem, gpu: &Gpu) -> CompileError {
    CompileError::Schedule(format!(
        "no matmul schedule for {}x{}x{} (batch {}) fits device \"{}\"",
        problem.m,
        problem.n,
        problem.k,
        problem.batch,
        gpu.spec().name
    ))
}

/// Schedules one fused group (step 3 of Fig. 10 for one sub-graph) — the
/// unit of work the parallel pipeline fans out before kernel generation.
pub(super) fn schedule_group(
    g: &Graph,
    group: &FusedGroup,
    gpu: &Gpu,
    options: &CompilerOptions,
    tuning: &TuningSlots,
) -> Result<(GroupSchedule, TuneCost), CompileError> {
    let mut schedule = GroupSchedule::default();
    let mut cost = TuneCost::default();
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
                schedule.matmul = match options.matmul {
                    MatmulChoice::Default => MatmulConfig::default(),
                    MatmulChoice::Compact => compact_matmul_config(gpu.spec())
                        .ok_or_else(|| no_schedule(problem, gpu))?,
                    MatmulChoice::Tuned => {
                        let _tune = hidet_trace::global().span(hidet_trace::SpanKind::Tune, 0);
                        let (config, c) = resolve_matmul_config(problem, gpu, options, tuning)?;
                        cost = c;
                        config
                    }
                };
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
    Ok((schedule, cost))
}
