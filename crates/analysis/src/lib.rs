//! `hidet-analysis`: the static-analysis layer of the stack.
//!
//! Four checker families over one structured-diagnostic core
//! ([`Diagnostic`], stable `HAxxx` codes, text/JSON rendering):
//!
//! * [`verify_graph`] / [`verify_partition`] — the graph IR verifier, run
//!   inside `hidet::compile` after each rewriting pass (cheap structural
//!   checks always on; shape re-inference and the KV-cache family rules
//!   behind the compiler's deep verify level);
//! * [`check_schedule`] / [`check_plan`] — schedule and memory-plan
//!   legality, re-proving elected matmul/reduce configs against the device
//!   spec and the planner's no-alias liveness invariant, at compile time
//!   and again on artifact load;
//! * [`check_lanes`] — what the interpreter's lowering decided about every
//!   barrier interval of a kernel: which run once for the whole block
//!   because their threads provably commute, which do not and why, and —
//!   as an error — which have two threads race for one element;
//! * [`lint`] — the `hidet-lint` source harness encoding repo invariants
//!   (lock-free ingress, no panics in hot loops, docs coverage) as named
//!   rules.
//!
//! The crate sits below `hidet` in the dependency DAG (it sees graphs,
//! schedules and plain plan slots — never the compiler), so the compiler
//! can call into it without a cycle. The rule catalog lives in
//! `DESIGN.md` §10.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod diag;
pub mod graph_verify;
pub mod lanes;
pub mod legality;
pub mod lint;

pub use diag::{has_errors, render_json, render_text, Diagnostic, Rule, Severity};
pub use graph_verify::{infer_shape_checked, verify_graph, verify_partition, VerifyLevel};
pub use lanes::{check_lanes, LaneSummary};
pub use legality::{check_plan, check_schedule, PlanSlot};
