//! Structured diagnostics: stable rule codes, severities, and text/JSON
//! rendering.
//!
//! Every checker in this crate reports through [`Diagnostic`]. Rule codes
//! (`HA0xx` for IR/legality rules, `HA1xx` for source-level lints) are
//! **stable**: tests, CI gates and allowlists key on them, so a rule is never
//! renumbered — retired rules leave a hole. The catalog lives in
//! `DESIGN.md` §10.

use std::fmt;

use hidet_sched::json::JsonWriter;

/// How bad a finding is. [`Severity::Error`] findings fail compilation /
/// CI; [`Severity::Warning`] findings are reported but do not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Reported, not gating.
    Warning,
    /// Gating: compilation or the lint run fails.
    Error,
}

impl Severity {
    /// Lowercase name, as rendered in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The stable rule catalog. Each variant maps to one immutable `HAxxx` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// HA001 — an operator reads a tensor produced by a later operator
    /// (def-before-use / topological order violated).
    TopologicalOrder,
    /// HA002 — a `TensorId`/`OpId` points outside the graph's tables.
    DanglingId,
    /// HA003 — a tensor is produced by more than one operator (graph
    /// outputs must be produced exactly once).
    DuplicateProducer,
    /// HA004 — re-running shape/arity inference disagrees with the recorded
    /// output tensor (or the operator's inputs are malformed).
    ShapeMismatch,
    /// HA005 — an operator consumes its own output (a self-cycle; together
    /// with HA001 this makes the op list acyclic).
    SelfCycle,
    /// HA006 — a graph output tensor is neither produced by any operator
    /// nor a graph input/constant.
    UnproducedOutput,
    /// HA007 — a decode/prefill graph's KV-cache streams do not pair up
    /// (odd stream count, inconsistent rows/past/chunk/head-dim).
    KvPairing,
    /// HA008 — a decode/prefill graph's additive mask does not have shape
    /// `[rows, chunk, past + chunk]`.
    MaskShape,
    /// HA009 — a graph input is a constant, duplicated, or produced by an
    /// operator.
    BadGraphInput,
    /// HA010 — the fusion partition does not cover every operator exactly
    /// once (or a group is malformed: empty, unsorted, anchor not a member).
    PartitionCoverage,
    /// HA020 — a matmul schedule fails the structural divisibility /
    /// thread-count constraints of the task-mapping composition.
    ScheduleStructure,
    /// HA021 — a matmul schedule's shared-memory tile does not fit the
    /// device's per-block limit.
    SharedMemOverflow,
    /// HA022 — a matmul schedule's register demand does not fit the
    /// device's per-SM register file.
    RegisterOverflow,
    /// HA023 — an illegal reduction split: `split_k < 1`, or `split_k != 1`
    /// under order-stable reductions.
    SplitKIllegal,
    /// HA024 — an invalid reduce-template config (non-power-of-two row
    /// threads, oversized block, or `threads_per_row != 1` under
    /// order-stable reductions).
    ReduceConfigInvalid,
    /// HA030 — two memory-plan slots with overlapping live intervals share
    /// arena bytes.
    PlanAlias,
    /// HA031 — a memory-plan slot extends past the arena.
    PlanOutOfArena,
    /// HA032 — a memory-plan slot has `birth > death`.
    PlanBadInterval,
    /// HA033 — two memory-plan slots bind the same buffer name.
    PlanDuplicateName,
    /// HA040 — two threads of one barrier interval touch one element of a
    /// shared or global buffer and one of them stores it: a race. The
    /// schedule templates partition their tiles, so one found is a bug in a
    /// template or in the proof.
    LaneOverlap,
    /// HA041 — a barrier interval stores to shared or global memory and its
    /// threads could not be shown to stay apart (it runs per thread).
    LaneFootprintUnproven,
    /// HA042 — a barrier interval runs per thread for what is in it: it can
    /// fault, holds a value whose type differs by path, or has a loop whose
    /// trip count differs by thread. (A branch the threads take differently
    /// runs wide under lane masks.)
    LanePerThread,
    /// HA101 — a blocking primitive (`Mutex`, `RwLock`, `Condvar`,
    /// `mpsc::`) is reachable from the server's lock-free ingress ring.
    LintBlockingPrimitive,
    /// HA102 — `unwrap()`/`expect()`/`panic!` in a runtime/decode hot loop
    /// without an allowlist entry.
    LintPanicInHotPath,
    /// HA103 — a public crate's `lib.rs` is missing
    /// `#![warn(missing_docs)]`.
    LintMissingDocsAttr,
    /// HA104 — unbalanced `span_start`/`span_end` call sites in an
    /// instrumented file (a bare start without an end records nothing on
    /// early-return paths: the span is pushed only when it closes; the RAII
    /// `span()` guard is the endorsed form).
    LintSpanPairing,
    /// HA105 — a source file under `crates/*/src` is longer than
    /// `lint::MAX_SOURCE_LINES`: split it along its seams.
    LintFileTooLong,
}

impl Rule {
    /// The stable `HAxxx` code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::TopologicalOrder => "HA001",
            Rule::DanglingId => "HA002",
            Rule::DuplicateProducer => "HA003",
            Rule::ShapeMismatch => "HA004",
            Rule::SelfCycle => "HA005",
            Rule::UnproducedOutput => "HA006",
            Rule::KvPairing => "HA007",
            Rule::MaskShape => "HA008",
            Rule::BadGraphInput => "HA009",
            Rule::PartitionCoverage => "HA010",
            Rule::ScheduleStructure => "HA020",
            Rule::SharedMemOverflow => "HA021",
            Rule::RegisterOverflow => "HA022",
            Rule::SplitKIllegal => "HA023",
            Rule::ReduceConfigInvalid => "HA024",
            Rule::PlanAlias => "HA030",
            Rule::PlanOutOfArena => "HA031",
            Rule::PlanBadInterval => "HA032",
            Rule::PlanDuplicateName => "HA033",
            Rule::LaneOverlap => "HA040",
            Rule::LaneFootprintUnproven => "HA041",
            Rule::LanePerThread => "HA042",
            Rule::LintBlockingPrimitive => "HA101",
            Rule::LintPanicInHotPath => "HA102",
            Rule::LintMissingDocsAttr => "HA103",
            Rule::LintSpanPairing => "HA104",
            Rule::LintFileTooLong => "HA105",
        }
    }

    /// One-line rule summary (the catalog entry).
    pub fn summary(self) -> &'static str {
        match self {
            Rule::TopologicalOrder => "operator reads a tensor produced later (def-before-use)",
            Rule::DanglingId => "tensor/operator id out of range",
            Rule::DuplicateProducer => "tensor produced by more than one operator",
            Rule::ShapeMismatch => "shape/arity re-inference disagrees with the graph",
            Rule::SelfCycle => "operator consumes its own output",
            Rule::UnproducedOutput => "graph output is never produced",
            Rule::KvPairing => "KV-cache streams do not pair up",
            Rule::MaskShape => "additive mask shape is not [rows, chunk, past+chunk]",
            Rule::BadGraphInput => "graph input is constant, duplicated, or produced",
            Rule::PartitionCoverage => "fusion partition does not cover ops exactly once",
            Rule::ScheduleStructure => "matmul schedule fails structural constraints",
            Rule::SharedMemOverflow => "matmul schedule overflows per-block shared memory",
            Rule::RegisterOverflow => "matmul schedule overflows the SM register file",
            Rule::SplitKIllegal => "illegal split-K reduction",
            Rule::ReduceConfigInvalid => "invalid reduce-template config",
            Rule::PlanAlias => "live memory-plan slots share arena bytes",
            Rule::PlanOutOfArena => "memory-plan slot extends past the arena",
            Rule::PlanBadInterval => "memory-plan slot has birth > death",
            Rule::PlanDuplicateName => "memory-plan slots share a buffer name",
            Rule::LaneOverlap => "two threads of a barrier interval meet at an element one stores",
            Rule::LaneFootprintUnproven => "threads of a storing barrier interval not shown apart",
            Rule::LanePerThread => "barrier interval can fault, is untyped or loops by thread",
            Rule::LintBlockingPrimitive => "blocking primitive in the lock-free ingress ring",
            Rule::LintPanicInHotPath => "panic-capable call in a runtime/decode hot loop",
            Rule::LintMissingDocsAttr => "public crate missing #![warn(missing_docs)]",
            Rule::LintSpanPairing => "unbalanced span_start/span_end in an instrumented file",
            Rule::LintFileTooLong => "source file under crates/*/src over 1,000 lines",
        }
    }
}

/// One finding: a rule violation at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which catalog rule fired.
    pub rule: Rule,
    /// Gating or advisory.
    pub severity: Severity,
    /// Where: `model::op`, `group 3`, or `path:line` for source lints.
    pub location: String,
    /// What, with the offending values spelled out.
    pub message: String,
}

impl Diagnostic {
    /// A gating finding.
    pub fn error(
        rule: Rule,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }

    /// An advisory finding.
    pub fn warning(
        rule: Rule,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity.as_str(),
            self.rule.code(),
            self.location,
            self.message
        )
    }
}

/// True if any finding is gating.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders findings one per line, `severity [code] location: message`.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Renders findings as a JSON array of
/// `{"rule_code", "severity", "location", "message"}` objects.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for d in diags {
        w.begin_object();
        w.key("rule_code").string(d.rule.code());
        w.key("severity").string(d.severity.as_str());
        w.key("location").string(&d.location);
        w.key("message").string(&d.message);
        w.end();
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_sched::json::Json;

    #[test]
    fn codes_are_unique_and_stable() {
        let rules = [
            Rule::TopologicalOrder,
            Rule::DanglingId,
            Rule::DuplicateProducer,
            Rule::ShapeMismatch,
            Rule::SelfCycle,
            Rule::UnproducedOutput,
            Rule::KvPairing,
            Rule::MaskShape,
            Rule::BadGraphInput,
            Rule::PartitionCoverage,
            Rule::ScheduleStructure,
            Rule::SharedMemOverflow,
            Rule::RegisterOverflow,
            Rule::SplitKIllegal,
            Rule::ReduceConfigInvalid,
            Rule::PlanAlias,
            Rule::PlanOutOfArena,
            Rule::PlanBadInterval,
            Rule::PlanDuplicateName,
            Rule::LaneOverlap,
            Rule::LaneFootprintUnproven,
            Rule::LanePerThread,
            Rule::LintBlockingPrimitive,
            Rule::LintPanicInHotPath,
            Rule::LintMissingDocsAttr,
            Rule::LintSpanPairing,
            Rule::LintFileTooLong,
        ];
        let mut seen = std::collections::HashSet::new();
        for r in rules {
            assert!(r.code().starts_with("HA"), "{}", r.code());
            assert!(seen.insert(r.code()), "duplicate code {}", r.code());
            assert!(!r.summary().is_empty());
        }
    }

    #[test]
    fn json_rendering_round_trips() {
        let diags = vec![
            Diagnostic::error(Rule::DanglingId, "m::op_1", "tensor t9 out of range"),
            Diagnostic::warning(Rule::PlanAlias, "plan", "slots \"a\"/\"b\" overlap"),
        ];
        let json = render_json(&diags);
        let parsed = Json::parse(&json).unwrap();
        let items = parsed.as_array("diags").unwrap();
        assert_eq!(items.len(), 2);
        let first = items[0].as_object("diag").unwrap();
        assert_eq!(
            hidet_sched::json::get(first, "rule_code")
                .unwrap()
                .as_str("code")
                .unwrap(),
            "HA002"
        );
        assert_eq!(
            hidet_sched::json::get(first, "severity")
                .unwrap()
                .as_str("sev")
                .unwrap(),
            "error"
        );
    }

    #[test]
    fn text_rendering_one_line_per_finding() {
        let diags = vec![Diagnostic::error(Rule::SelfCycle, "g::relu_0", "t3 -> t3")];
        let text = render_text(&diags);
        assert_eq!(text, "error [HA005] g::relu_0: t3 -> t3\n");
        assert!(has_errors(&diags));
        assert!(!has_errors(&[]));
    }
}
