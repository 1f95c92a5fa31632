//! Tuning and the per-group schedule decision: each distinct matmul problem
//! of a compile is tuned once, up front, and every fused group's schedule
//! (tuned, compact, or a default) then looks its problem up.

use std::collections::HashSet;

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

/// What one compile's tuning found and what finding it cost.
#[derive(Default)]
pub(super) struct Tuned {
    /// Every problem some configuration fits, with the tuner's pick, sorted
    /// by `(batch, m, n, k)`: the artifact's `tuned` list.
    pub(super) entries: Vec<TunedEntry>,
    pub(super) trials: usize,
    pub(super) seconds: f64,
}

fn key(p: MatmulProblem) -> (i64, i64, i64, i64) {
    (p.batch, p.m, p.n, p.k)
}

impl Tuned {
    fn config(&self, problem: MatmulProblem) -> Option<MatmulConfig> {
        let at = (self.entries).binary_search_by_key(&key(problem), |e| key(e.problem));
        at.ok().map(|i| self.entries[i].config)
    }
}

/// Tunes each distinct matmul problem of `groups` once, in first-use (group)
/// order (step 3 of Fig. 10), when `options` asks for tuned tiles.
pub(super) fn tune_problems(
    g: &Graph,
    groups: &[FusedGroup],
    gpu: &Gpu,
    options: &CompilerOptions,
) -> Tuned {
    let mut tuned = Tuned::default();
    if options.matmul != MatmulChoice::Tuned {
        return tuned;
    }
    let mut seen = HashSet::new();
    let problems = (groups.iter())
        .filter_map(|group| {
            let op = g.op(group.anchor?);
            match anchor_problem(&op.kind, &g.input_shapes(op)) {
                Some(AnchorProblem::Matmul(problem)) => Some(problem),
                _ => None,
            }
        })
        .filter(|&problem| seen.insert(problem));
    for problem in problems {
        let _tune = hidet_trace::global().span(hidet_trace::SpanKind::Tune, 0);
        // A problem nothing fits stays out: its groups fail to schedule.
        if let Some(report) = try_tune_matmul_with(problem, gpu, options.tuner_policy()) {
            tuned.trials += report.trials;
            tuned.seconds += report.tuning_seconds;
            let config = report.best;
            tuned.entries.push(TunedEntry { problem, config });
        }
    }
    tuned.entries.sort_by_key(|e| key(e.problem));
    tuned
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

/// Decides one fused group's schedule, a matmul anchor's from what
/// [`tune_problems`] found for its problem.
pub(super) fn schedule_group(
    g: &Graph,
    group: &FusedGroup,
    gpu: &Gpu,
    options: &CompilerOptions,
    tuned: &Tuned,
) -> Result<GroupSchedule, CompileError> {
    let mut schedule = GroupSchedule::default();
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
        match anchor_problem(&op.kind, &g.input_shapes(op)) {
            Some(AnchorProblem::Matmul(problem)) => {
                schedule.matmul = match options.matmul {
                    MatmulChoice::Default => MatmulConfig::default(),
                    MatmulChoice::Compact => compact_matmul_config(gpu.spec())
                        .ok_or_else(|| no_schedule(problem, gpu))?,
                    MatmulChoice::Tuned => tuned
                        .config(problem)
                        .ok_or_else(|| no_schedule(problem, gpu))?,
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
    Ok(schedule)
}
