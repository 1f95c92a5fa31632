//! Schedule and memory-plan legality: re-prove, don't trust.
//!
//! Tuning elects a [`GroupSchedule`] per fused group and the planner packs
//! intermediates into one arena — both under invariants (config fits the
//! device, live buffers never alias) that are easy to violate by a tuner
//! bug, a hand-edited artifact, or an artifact recorded for a different
//! device. [`check_schedule`] and [`check_plan`] re-prove those
//! invariants from the elected values alone, so they run both at compile
//! time and on [`CompiledArtifact`] load (where the values crossed a
//! serialization boundary and deserve zero trust).
//!
//! The checkers never panic on corrupted inputs: every field is
//! range-checked *before* it reaches arithmetic that would divide by it
//! (`MatmulConfig::is_structurally_valid` divides by `warps_*`, `thread_*`
//! and `block_k`, so a zeroed field must be reported as HA020, not abort
//! the verifier).
//!
//! [`CompiledArtifact`]: ../../hidet/artifact/struct.CompiledArtifact.html

use hidet_sched::fusion::GroupSchedule;
use hidet_sim::GpuSpec;

use crate::diag::{Diagnostic, Rule};

/// A memory-plan slot, as the checker sees it: a named arena window with a
/// live interval. Mirrors `hidet::plan::PlannedSlot` (re-declared here so
/// the checker stays below `hidet` in the crate DAG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSlot {
    /// Buffer name; must be unique within a plan.
    pub name: String,
    /// Start offset into the arena, in elements.
    pub offset: usize,
    /// Window length in elements.
    pub len: usize,
    /// Producing group index.
    pub birth: usize,
    /// Last reading group index (`groups.len()` for graph outputs).
    pub death: usize,
}

/// Re-proves one elected group schedule against a device spec.
///
/// `matmul_anchor` says whether the group actually uses the matmul config
/// (non-anchor groups carry a default config that is never launched — its
/// tile legality is irrelevant, but split-K legality is still checked
/// because the reduce template reads it). `order_stable` asserts the
/// deterministic-reduction contract: `split_k == 1` and
/// `threads_per_row == 1`, so every float add happens in program order.
pub fn check_schedule(
    schedule: &GroupSchedule,
    spec: &GpuSpec,
    matmul_anchor: bool,
    order_stable: bool,
    location: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let m = &schedule.matmul;

    // Split-K legality is independent of the tile geometry: report it on its
    // own rule so a corrupted split never masquerades as a structural issue.
    if m.split_k < 1 {
        diags.push(Diagnostic::error(
            Rule::SplitKIllegal,
            location,
            format!("split_k = {} must be >= 1", m.split_k),
        ));
    } else if order_stable && m.split_k != 1 {
        diags.push(Diagnostic::error(
            Rule::SplitKIllegal,
            location,
            format!(
                "split_k = {} under order-stable reductions (parallel K splits \
                 reorder float adds; split_k must be 1)",
                m.split_k
            ),
        ));
    }

    if matmul_anchor {
        let positive = [
            ("block_m", m.block_m),
            ("block_n", m.block_n),
            ("block_k", m.block_k),
            ("warps_m", m.warps_m),
            ("warps_n", m.warps_n),
            ("thread_m", m.thread_m),
            ("thread_n", m.thread_n),
            ("stages", m.stages as i64),
        ];
        if let Some((field, value)) = positive.iter().find(|&&(_, v)| v < 1) {
            diags.push(Diagnostic::error(
                Rule::ScheduleStructure,
                location,
                format!("matmul config {field} = {value} must be >= 1"),
            ));
        } else if !m.is_structurally_valid() {
            diags.push(Diagnostic::error(
                Rule::ScheduleStructure,
                location,
                format!(
                    "matmul config {} fails the task-mapping divisibility / \
                     thread-count constraints",
                    m.id()
                ),
            ));
        } else if m.shared_bytes() > spec.shared_mem_per_block {
            diags.push(Diagnostic::error(
                Rule::SharedMemOverflow,
                location,
                format!(
                    "matmul config {} does not fit: shared tile {} B exceeds the \
                     {} B per-block limit",
                    m.id(),
                    m.shared_bytes(),
                    spec.shared_mem_per_block
                ),
            ));
        } else if !m.fits(spec) {
            // Structural + shared-memory already proven; the only remaining
            // `fits` clause is the register file. Recompute it for the report.
            let (rm, rn) = m.warp_repeats();
            let acc = rm * rn * m.thread_m * m.thread_n;
            let regs = 32
                + acc
                + 2 * (m.block_m * m.block_k / m.threads())
                + 2 * (m.block_k * m.block_n / m.threads());
            diags.push(Diagnostic::error(
                Rule::RegisterOverflow,
                location,
                format!(
                    "matmul config {} does not fit: register demand {} regs x {} \
                     threads exceeds the {}-register SM file",
                    m.id(),
                    regs,
                    m.threads(),
                    spec.registers_per_sm
                ),
            ));
        }
    }

    let r = &schedule.reduce;
    if !r.is_valid() {
        diags.push(Diagnostic::error(
            Rule::ReduceConfigInvalid,
            location,
            format!(
                "reduce config (threads_per_row = {}, block_threads = {}) is \
                 invalid: threads_per_row must be a power of two dividing \
                 block_threads, block_threads <= 1024",
                r.threads_per_row, r.block_threads
            ),
        ));
    } else if order_stable && r.threads_per_row != 1 {
        diags.push(Diagnostic::error(
            Rule::ReduceConfigInvalid,
            location,
            format!(
                "threads_per_row = {} under order-stable reductions (tree \
                 reductions reorder float adds; threads_per_row must be 1)",
                r.threads_per_row
            ),
        ));
    }
    diags
}

/// Proves a memory plan sound: every slot a well-formed interval inside the
/// arena, names unique, and **no two slots with overlapping live intervals
/// sharing arena bytes** — the liveness proof; it reports every violation,
/// with rule codes.
pub fn check_plan(slots: &[PlanSlot], arena_len: usize, location: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for s in slots {
        if s.birth > s.death {
            diags.push(Diagnostic::error(
                Rule::PlanBadInterval,
                location,
                format!(
                    "slot \"{}\" has birth {} > death {}",
                    s.name, s.birth, s.death
                ),
            ));
        }
        match s.offset.checked_add(s.len) {
            Some(end) if end <= arena_len => {}
            _ => diags.push(Diagnostic::error(
                Rule::PlanOutOfArena,
                location,
                format!(
                    "slot \"{}\" [{}, {} + {}) extends past the {}-element arena",
                    s.name, s.offset, s.offset, s.len, arena_len
                ),
            )),
        }
    }
    for (i, a) in slots.iter().enumerate() {
        for b in &slots[i + 1..] {
            if a.name == b.name {
                diags.push(Diagnostic::error(
                    Rule::PlanDuplicateName,
                    location,
                    format!("two slots bind the buffer name \"{}\"", a.name),
                ));
            }
            let lifetimes_overlap = a.birth <= b.death && b.birth <= a.death;
            let bytes_overlap = a.offset < b.offset.saturating_add(b.len)
                && b.offset < a.offset.saturating_add(a.len);
            if lifetimes_overlap && bytes_overlap {
                diags.push(Diagnostic::error(
                    Rule::PlanAlias,
                    location,
                    format!(
                        "slots \"{}\" (groups {}..={}, bytes {}..{}) and \"{}\" \
                         (groups {}..={}, bytes {}..{}) are live together and alias",
                        a.name,
                        a.birth,
                        a.death,
                        a.offset,
                        a.offset + a.len,
                        b.name,
                        b.birth,
                        b.death,
                        b.offset,
                        b.offset + b.len
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_sched::space::{matmul_space, MatmulConfig, ReduceConfig};

    fn ok_schedule() -> GroupSchedule {
        GroupSchedule::default()
    }

    #[test]
    fn elected_space_configs_all_check_clean() {
        let spec = GpuSpec::rtx3090();
        for cfg in matmul_space(&spec) {
            let s = GroupSchedule {
                matmul: cfg,
                ..GroupSchedule::default()
            };
            assert_eq!(
                check_schedule(&s, &spec, true, false, "t"),
                vec![],
                "{}",
                cfg.id()
            );
        }
    }

    #[test]
    fn zeroed_fields_report_ha020_without_panicking() {
        let spec = GpuSpec::rtx3090();
        for field in 0..8 {
            let mut s = ok_schedule();
            match field {
                0 => s.matmul.block_m = 0,
                1 => s.matmul.block_n = 0,
                2 => s.matmul.block_k = 0,
                3 => s.matmul.warps_m = 0,
                4 => s.matmul.warps_n = -2,
                5 => s.matmul.thread_m = 0,
                6 => s.matmul.thread_n = 0,
                _ => s.matmul.stages = 0,
            }
            let diags = check_schedule(&s, &spec, true, false, "t");
            assert!(
                diags.iter().any(|d| d.rule == Rule::ScheduleStructure),
                "field {field}: {diags:?}"
            );
        }
    }

    #[test]
    fn overflow_rules_are_distinct() {
        let spec = GpuSpec::rtx3090();
        // Structurally valid, shared tile far past 99 KiB.
        let mut s = ok_schedule();
        s.matmul.block_m = 1 << 20;
        let diags = check_schedule(&s, &spec, true, false, "t");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::SharedMemOverflow);
        assert!(diags[0].message.contains("does not fit"));

        // Structurally valid, smem fits (16640 B), registers blow the file:
        // 2340 regs/thread x 32 threads = 74880 > 65536.
        let s = GroupSchedule {
            matmul: MatmulConfig {
                block_m: 2048,
                block_n: 32,
                block_k: 2,
                warps_m: 1,
                warps_n: 1,
                thread_m: 4,
                thread_n: 4,
                stages: 1,
                split_k: 1,
            },
            ..GroupSchedule::default()
        };
        assert!(s.matmul.is_structurally_valid());
        assert!(s.matmul.shared_bytes() <= spec.shared_mem_per_block);
        let diags = check_schedule(&s, &spec, true, false, "t");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::RegisterOverflow);
        assert!(diags[0].message.contains("does not fit"));
    }

    #[test]
    fn split_k_rules() {
        let spec = GpuSpec::rtx3090();
        let mut s = ok_schedule();
        s.matmul.split_k = 0;
        let diags = check_schedule(&s, &spec, true, false, "t");
        assert!(
            diags.iter().all(|d| d.rule == Rule::SplitKIllegal),
            "{diags:?}"
        );
        assert_eq!(diags.len(), 1);

        let mut s = ok_schedule();
        s.matmul.split_k = 4;
        assert_eq!(check_schedule(&s, &spec, true, false, "t"), vec![]);
        let diags = check_schedule(&s, &spec, true, true, "t");
        assert!(
            diags.iter().any(|d| d.rule == Rule::SplitKIllegal),
            "{diags:?}"
        );
    }

    #[test]
    fn reduce_rules() {
        let spec = GpuSpec::rtx3090();
        let mut s = ok_schedule();
        s.reduce = ReduceConfig {
            threads_per_row: 3,
            block_threads: 256,
        };
        let diags = check_schedule(&s, &spec, false, false, "t");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::ReduceConfigInvalid);

        let mut s = ok_schedule();
        s.reduce = ReduceConfig {
            threads_per_row: 32,
            block_threads: 256,
        };
        assert_eq!(check_schedule(&s, &spec, false, false, "t"), vec![]);
        let diags = check_schedule(&s, &spec, false, true, "t");
        assert!(
            diags.iter().any(|d| d.rule == Rule::ReduceConfigInvalid),
            "{diags:?}"
        );
    }

    #[test]
    fn non_anchor_groups_skip_tile_legality_but_not_split_k() {
        let spec = GpuSpec::tiny();
        let mut s = ok_schedule();
        s.matmul.block_m = 1 << 20; // ignored: no matmul launches
        assert_eq!(check_schedule(&s, &spec, false, false, "t"), vec![]);
        s.matmul.split_k = -1;
        let diags = check_schedule(&s, &spec, false, false, "t");
        assert!(
            diags.iter().any(|d| d.rule == Rule::SplitKIllegal),
            "{diags:?}"
        );
    }

    fn slot(name: &str, offset: usize, len: usize, birth: usize, death: usize) -> PlanSlot {
        PlanSlot {
            name: name.to_string(),
            offset,
            len,
            birth,
            death,
        }
    }

    #[test]
    fn sound_plans_check_clean() {
        // Disjoint lifetimes may share bytes; overlapping lifetimes are
        // disjoint in the arena.
        let slots = vec![
            slot("a", 0, 64, 0, 1),
            slot("b", 64, 64, 1, 2),
            slot("c", 0, 64, 2, 3), // reuses a's bytes after a died
        ];
        assert_eq!(check_plan(&slots, 128, "plan"), vec![]);
        assert_eq!(check_plan(&[], 0, "plan"), vec![]);
    }

    #[test]
    fn each_plan_rule_fires() {
        // HA030: live together, bytes overlap.
        let slots = vec![slot("a", 0, 64, 0, 2), slot("b", 32, 64, 1, 3)];
        let diags = check_plan(&slots, 128, "plan");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::PlanAlias);

        // HA031: past the arena (and usize overflow must not panic).
        let diags = check_plan(&[slot("a", 96, 64, 0, 1)], 128, "plan");
        assert!(
            diags.iter().any(|d| d.rule == Rule::PlanOutOfArena),
            "{diags:?}"
        );
        let diags = check_plan(&[slot("a", usize::MAX, 2, 0, 1)], 128, "plan");
        assert!(
            diags.iter().any(|d| d.rule == Rule::PlanOutOfArena),
            "{diags:?}"
        );

        // HA032: inverted interval.
        let diags = check_plan(&[slot("a", 0, 8, 3, 1)], 128, "plan");
        assert!(
            diags.iter().any(|d| d.rule == Rule::PlanBadInterval),
            "{diags:?}"
        );

        // HA033: duplicate name (disjoint everything else).
        let slots = vec![slot("a", 0, 8, 0, 0), slot("a", 64, 8, 2, 2)];
        let diags = check_plan(&slots, 128, "plan");
        assert!(
            diags.iter().any(|d| d.rule == Rule::PlanDuplicateName),
            "{diags:?}"
        );
    }
}
