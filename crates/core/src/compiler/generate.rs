//! Kernel generation for one compile: each group's [`GroupSpec`], kernels
//! generated once per distinct [`GroupDef`] and bound to the names of every
//! group of it, sharing their kernel definitions.

use std::collections::HashMap;

use hidet_graph::passes::FusedGroup;
use hidet_graph::Graph;
use hidet_sched::fusion::{CompiledGroup, GroupDef, GroupSchedule, GroupSpec};

use super::CompileError;

/// Generates the kernels of `groups[..schedules.len()]`: each distinct
/// [`GroupDef`] generates once, and every group binds its definition's
/// kernels to its own names.
///
/// # Errors
/// The first failing group's error, in group order.
pub(super) fn generate(
    g: &Graph,
    groups: &[FusedGroup],
    schedules: &[GroupSchedule],
) -> Result<Vec<CompiledGroup>, CompileError> {
    let specs: Vec<GroupSpec> = (groups.iter().zip(schedules))
        .map(|(group, schedule)| GroupSpec::of(g, group, schedule))
        .collect();
    let mut first: HashMap<&GroupDef, usize> = HashMap::with_capacity(specs.len());
    let mut generated = Vec::new();
    let source: Vec<usize> = (specs.iter())
        .map(|spec| {
            *first.entry(&spec.def).or_insert_with(|| {
                generated.push(spec.def.generate());
                generated.len() - 1
            })
        })
        .collect();
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
