//! The four workloads. Each module's `run` does set-up → timed body
//! repetitions → check, and in the traced pass one more body with the tracer
//! at `Full` plus the probes of the layers that workload exercises.

pub mod decode_mixed;
pub mod oneshot_batched;
pub mod wire_mixed;
pub mod zoo_compile;

use crate::harness::Ctx;
use crate::outcome::Outcome;

/// Runs the named workload, or `None` for a name the catalog does not have.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "zoo_compile" => zoo_compile::run(ctx),
        "decode_mixed" => decode_mixed::run(ctx),
        "oneshot_batched" => oneshot_batched::run(ctx),
        "wire_mixed" => wire_mixed::run(ctx),
        _ => return None,
    })
}
