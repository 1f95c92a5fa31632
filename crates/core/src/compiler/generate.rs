//! Kernel generation for one compile: each group's [`GroupSpec`], kernels
//! generated once per distinct [`GroupDef`] and bound to the names of every
//! group of it, sharing their kernel definitions; and the fan-out both the
//! tuning and the generation step run on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use hidet_graph::passes::FusedGroup;
use hidet_graph::Graph;
use hidet_sched::fusion::{CompiledGroup, GroupDef, GroupSchedule, GroupSpec};

use super::CompileError;

/// Runs `job` on every index of `0..n` over up to `workers` scoped threads
/// and returns the results in index order, whichever worker ran which.
pub(super) fn fan_out<T: Send>(
    n: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n)).map(|_| scope.spawn(worker)).collect();
        (handles.into_iter())
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Generates the kernels of `groups[..schedules.len()]`: each distinct
/// [`GroupDef`] generates once — those fanned out over `workers` — and
/// every group binds its definition's kernels to its own names.
///
/// # Errors
/// The first failing group's error, in group order.
pub(super) fn generate(
    g: &Graph,
    groups: &[FusedGroup],
    schedules: &[GroupSchedule],
    workers: usize,
) -> Result<Vec<CompiledGroup>, CompileError> {
    let specs: Vec<GroupSpec> = (groups.iter().zip(schedules))
        .map(|(group, schedule)| GroupSpec::of(g, group, schedule))
        .collect();
    let mut first: HashMap<&GroupDef, usize> = HashMap::with_capacity(specs.len());
    let mut distinct: Vec<&GroupDef> = Vec::new();
    let source: Vec<usize> = (specs.iter())
        .map(|spec| {
            *first.entry(&spec.def).or_insert_with(|| {
                distinct.push(&spec.def);
                distinct.len() - 1
            })
        })
        .collect();
    let generated = fan_out(distinct.len(), workers, |d| distinct[d].generate());
    (specs.iter().zip(source))
        .map(|(spec, d)| match &generated[d] {
            Ok(kernels) => Ok(kernels.bind(&spec.names)),
            Err(e) => Err(CompileError::Schedule(format!(
                "{}: {e}",
                spec.names.kernel
            ))),
        })
        .collect()
}
