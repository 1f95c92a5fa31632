//! Kernel generation for one compile: [`compile_group`] once per distinct
//! [`GroupKey`], the same kernel definitions under other names for every
//! other group of the key, and the fan-out both the tuning and the
//! generation step run on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use hidet_graph::passes::FusedGroup;
use hidet_graph::Graph;
use hidet_sched::fusion::{compile_group, CompiledGroup, GroupKey, GroupSchedule};

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

/// Generates the kernels of `groups[..schedules.len()]`: [`compile_group`]
/// runs on the first group of each distinct [`GroupKey`] — those fanned out
/// over `workers` — and every later group of a key takes its first group's
/// result renamed, sharing its kernel definitions.
///
/// # Errors
/// The first failing group's error, in group order.
pub(super) fn generate(
    g: &Graph,
    groups: &[FusedGroup],
    schedules: &[GroupSchedule],
    workers: usize,
) -> Result<Vec<CompiledGroup>, CompileError> {
    let mut first: HashMap<GroupKey, usize> = HashMap::with_capacity(schedules.len());
    let source: Vec<usize> = (groups.iter().zip(schedules).enumerate())
        .map(|(i, (group, schedule))| *first.entry(GroupKey::of(g, group, schedule)).or_insert(i))
        .collect();
    let distinct: Vec<usize> = (0..source.len()).filter(|&i| source[i] == i).collect();
    let mut fresh = fan_out(distinct.len(), workers, |d| {
        let i = distinct[d];
        compile_group(g, &groups[i], &schedules[i]).map_err(CompileError::Schedule)
    })
    .into_iter();
    let mut compiled: Vec<CompiledGroup> = Vec::with_capacity(source.len());
    for (i, &s) in source.iter().enumerate() {
        let group = if s == i {
            // `fan_out` returns one result per distinct group.
            fresh.next().unwrap_or_else(|| {
                Err(CompileError::Schedule(format!(
                    "internal: group {i} was not generated"
                )))
            })?
        } else {
            compiled[s].renamed_for(g, &groups[s], &groups[i])
        };
        compiled.push(group);
    }
    Ok(compiled)
}
