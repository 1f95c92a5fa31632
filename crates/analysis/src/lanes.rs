//! Lane commutativity: what [`hidet_sim::Program::lower`] proved about the
//! threads of every barrier interval, as diagnostics.
//!
//! A kernel the schedule templates emit is race-free by construction — a
//! `spatial` / `repeat` composition partitions its tile among the workers —
//! but that fact is dropped when the mapping is lowered to index arithmetic.
//! The interpreter's lowering re-establishes it per *range* (the thread
//! stream, a loop prologue, a barrier-free leaf) on the addresses
//! themselves, and runs a range once for the whole block only where it
//! holds (`DESIGN.md` §1). This module reads those verdicts back: nothing is
//! re-derived here, and nothing is launched.

use std::collections::BTreeMap;

use hidet_sim::{Kernel, Program, Reason, Verdict};

use crate::diag::{Diagnostic, Rule};

/// Why a range runs per thread, as the sweep's histogram names it.
fn reason_name(reason: &Reason) -> &'static str {
    match reason {
        Reason::CanFault => "can-fault",
        Reason::Untyped => "untyped",
        Reason::DivergentLoop => "divergent-loop",
        Reason::UnprovenFootprint => "unproven-footprint",
        Reason::Overlap { .. } => "overlap",
    }
}

/// `buffer`, as a [`Reason::Overlap`] names it, in `kernel`: the lowering
/// names a parameter by its position, `$<position>`.
fn name_in<'a>(kernel: &'a Kernel, buffer: &'a str) -> &'a str {
    let position = buffer
        .strip_prefix('$')
        .and_then(|i| i.parse::<usize>().ok());
    position
        .and_then(|i| kernel.params().get(i))
        .map_or(buffer, |param| param.name())
}

/// One finding per range of `program`, run as `kernel`, that does not run
/// wide: HA040 (an error) where two threads meet at an element one of them
/// stores, HA041 where the threads of a storing range could not be shown
/// apart, HA042 where the range can fault, is untyped or has a loop whose
/// trip count differs by thread.
pub fn check_lanes(kernel: &Kernel, program: &Program, location: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, range) in program.ranges().iter().enumerate() {
        let Verdict::PerThread(reason) = &range.verdict else {
            continue;
        };
        let at = format!("{location}::{}[range {i}: {:?}]", kernel.name(), range.kind);
        let n = range.instructions;
        diags.push(match reason {
            Reason::Overlap {
                buffer,
                element,
                threads: (a, b),
            } => Diagnostic::error(
                Rule::LaneOverlap,
                at,
                format!(
                    "threads {a} and {b} both touch {}[block base + {element}] and one \
                     stores it, within one barrier interval ({n} instructions)",
                    name_in(kernel, buffer)
                ),
            ),
            Reason::UnprovenFootprint => Diagnostic::warning(
                Rule::LaneFootprintUnproven,
                at,
                format!(
                    "stores to shared or global memory, and its threads could not be shown \
                     to stay apart ({n} instructions run per thread)"
                ),
            ),
            reason => Diagnostic::warning(
                Rule::LanePerThread,
                at,
                format!("{} ({n} instructions run per thread)", reason_name(reason)),
            ),
        });
    }
    diags
}

/// How much of what a block executes runs wide, counted statically: every
/// instruction of every range once per thread (loops and the iterations of
/// the skeleton are not multiplied out).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneSummary {
    /// Instructions × `block_dim` in wide ranges.
    pub wide: u64,
    /// Instructions × `block_dim` in per-thread ranges, by reason.
    pub per_thread: BTreeMap<&'static str, u64>,
}

impl LaneSummary {
    /// Adds the ranges of `program`.
    pub fn add(&mut self, program: &Program) {
        for range in program.ranges() {
            let weight = (range.instructions * program.block_dim()) as u64;
            match &range.verdict {
                Verdict::Wide => self.wide += weight,
                Verdict::PerThread(reason) => {
                    *self.per_thread.entry(reason_name(reason)).or_default() += weight;
                }
            }
        }
    }

    /// `wide` over everything counted (1 for nothing).
    pub fn wide_share(&self) -> f64 {
        let all = self.wide + self.per_thread.values().sum::<u64>();
        match all {
            0 => 1.0,
            all => self.wide as f64 / all as f64,
        }
    }
}
