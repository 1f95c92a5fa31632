//! Exhaustive tuning over the hardware-centric schedule space (paper §4.3,
//! §6.2 "Tuning Cost"), with optional cost-model pruning of the measurement
//! set.
//!
//! Because the space has <200 candidates, Hidet simply *enumerates* it,
//! evaluating each candidate with the simulator's latency model (standing in
//! for an on-device measurement) and keeping the best. A trial prices the
//! template's [`matmul_work`] — the model's inputs in closed form, bit-equal
//! to those of the built kernel — so no kernel is built until the elected
//! schedule is compiled. The tuner also reports the **simulated wall-clock
//! tuning cost**: each candidate costs one compile+measure round-trip, the
//! same per-trial overhead AutoTVM/Ansor pay — the difference in Fig. 17
//! comes entirely from the number of trials.
//!
//! Two cost reducers sit in front of the measurement loop:
//!
//! * **dedup** — a candidate configuration is measured at most once per
//!   problem, even when the split-K extension proposes a variant that
//!   collapses onto one already measured (split factors are clamped to the
//!   problem's available K tiles, so `split_k = 8` on a 4-tile reduction *is*
//!   the `split_k = 4` candidate);
//! * **pruning** ([`TunerPolicy::measure_top_k`]) — candidates are ranked by
//!   [`quick_score`], a rough per-SM compute and DRAM traffic estimate, each
//!   by the best score of itself and the split-K children it could parent,
//!   and only the best `K` pay for a real compile+measure trial (the PGO
//!   direction in PAPERS.md: spend measurement where the profile says it
//!   matters).

use std::collections::HashSet;

use hidet_sim::cost::estimate_from;
use hidet_sim::{Gpu, GpuSpec, LatencyEstimate};

use crate::space::{matmul_space, MatmulConfig, ReduceConfig};
use crate::templates::matmul::{matmul_work, MatmulProblem};

/// Simulated wall-clock cost of one Hidet compile+measure trial, in seconds.
///
/// Hidet's candidates share one template instantiation pipeline and are
/// measured back-to-back without RPC round-trips, so a trial is cheap
/// (paper §4.3: the whole space enumerates "within one minute of time" per
/// operator — candidates compile in one in-process batch and measure
/// back-to-back). The loop-oriented baselines pay 2 s (AutoTVM, full
/// codegen+RPC-measure loop per candidate) and 1 s (Ansor, batched
/// measurement) per trial — see `hidet-baselines`. These constants reproduce
/// Fig. 17's 20×/11× tuning-cost ratios through trial *counts*, not
/// hand-tuned totals.
pub const SECONDS_PER_TRIAL: f64 = 0.2;

/// Result of tuning one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneReport {
    /// Best configuration found.
    pub best: MatmulConfig,
    /// Predicted latency of the best configuration.
    pub best_latency: LatencyEstimate,
    /// Number of candidates evaluated.
    pub trials: usize,
    /// Simulated wall-clock tuning cost in seconds.
    pub tuning_seconds: f64,
}

/// Measurement policy for [`try_tune_matmul_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerPolicy {
    /// When set, only the `K` base-space candidates ranked best by
    /// [`quick_score`] — of the candidate or of its best split-K child —
    /// are measured (the split-K extension still derives from the measured
    /// ranking). `None` measures the whole space — the paper's exhaustive
    /// configuration.
    pub measure_top_k: Option<usize>,
}

impl TunerPolicy {
    /// Exhaustive enumeration (the paper's configuration).
    pub fn exhaustive() -> TunerPolicy {
        TunerPolicy {
            measure_top_k: None,
        }
    }

    /// Measure only the top `k` candidates by [`quick_score`].
    pub fn pruned(k: usize) -> TunerPolicy {
        TunerPolicy {
            measure_top_k: Some(k.max(1)),
        }
    }
}

/// Closed-form pre-measurement rank of a candidate: estimated seconds from
/// per-SM rounds, DRAM traffic and FP32 work, **without** instantiating the
/// template. Cheap enough to score the whole space, close enough to the full
/// cost model that the true optimum survives a generous top-K cut (see
/// `pruned_tuning_matches_exhaustive_choice`).
pub fn quick_score(problem: MatmulProblem, cfg: &MatmulConfig, spec: &GpuSpec) -> f64 {
    let tiles_m = (problem.m + cfg.block_m - 1) / cfg.block_m;
    let tiles_n = (problem.n + cfg.block_n - 1) / cfg.block_n;
    let blocks = (problem.batch * tiles_m * tiles_n * cfg.split_k) as f64;

    // Per-block work over the (possibly split) reduction range.
    let k_part = (problem.k + cfg.split_k - 1) / cfg.split_k;
    let loads_per_block = ((cfg.block_m + cfg.block_n) * k_part * 4) as f64;
    let flops_per_block = (2 * cfg.block_m * cfg.block_n * k_part) as f64;
    // A block's work runs on one SM: the busiest SM works through
    // `ceil(blocks / SMs)` of them one after another, however idle the
    // others are. DRAM traffic is shared by the whole device. Memory and
    // compute overlap under double buffering and serialize without it.
    let rounds = (blocks / spec.num_sms as f64).ceil().max(1.0);
    let compute = rounds * flops_per_block * spec.num_sms as f64 / spec.fp32_flops();
    let mem = blocks * loads_per_block / spec.dram_bytes_per_s();
    let body = if cfg.stages >= 2 {
        mem.max(compute)
    } else {
        mem + compute
    };
    // Split-K pays a finalization pass over the full output.
    let finalize = if cfg.split_k > 1 {
        (cfg.split_k as f64 + 1.0) * (problem.batch * problem.m * problem.n * 4) as f64
            / spec.dram_bytes_per_s()
            + spec.launch_overhead_s
    } else {
        0.0
    };
    body + finalize + spec.launch_overhead_s
}

/// Tunes a matmul problem over the hardware-centric space, exhaustively.
///
/// `split_k` candidates (1/2/4/8, clamped to the problem's K tiles) are
/// appended for problems whose natural grid underutilizes the device (few
/// output tiles, long K) — paper §6.3.4.
///
/// # Panics
/// Panics if no candidate in the space can be instantiated (cannot happen for
/// the built-in space on the built-in devices). Callers compiling for
/// arbitrary [`hidet_sim::GpuSpec`]s — the serving runtime — should use
/// [`try_tune_matmul`] and surface the failure as an error.
pub fn tune_matmul(problem: MatmulProblem, gpu: &Gpu) -> TuneReport {
    try_tune_matmul(problem, gpu).expect("schedule space exhausted without a valid candidate")
}

/// Fallible [`tune_matmul`]: `None` when no candidate in the space can be
/// instantiated on this device (e.g. a spec whose shared memory is below the
/// smallest tile).
pub fn try_tune_matmul(problem: MatmulProblem, gpu: &Gpu) -> Option<TuneReport> {
    try_tune_matmul_with(problem, gpu, TunerPolicy::exhaustive())
}

/// [`try_tune_matmul`] under an explicit [`TunerPolicy`]. Every candidate is
/// measured **at most once** regardless of policy.
pub fn try_tune_matmul_with(
    problem: MatmulProblem,
    gpu: &Gpu,
    policy: TunerPolicy,
) -> Option<TuneReport> {
    let mut base = matmul_space(gpu.spec());
    let mut trials = 0usize;
    let mut measured: HashSet<MatmulConfig> = HashSet::new();
    let mut measure = |cfg: MatmulConfig, trials: &mut usize| -> Option<LatencyEstimate> {
        if !measured.insert(cfg) {
            return None; // dedup: this exact candidate already ran
        }
        *trials += 1;
        let mut total = 0.0;
        let mut first: Option<LatencyEstimate> = None;
        for (facts, work) in matmul_work(problem, cfg) {
            let est = estimate_from(&facts, &work, gpu.spec()).ok()?;
            total += est.seconds;
            first.get_or_insert(est);
        }
        let mut est = first.expect("at least one kernel");
        est.seconds = total;
        Some(est)
    };

    // Phase 0: cost-model pruning — rank the space by the closed-form score
    // and keep only the most promising candidates for real measurement.
    // Phase 2 tries split-K only on measured parents, so a candidate ranks
    // by the best score of itself and its split-K children: on a long
    // reduction, a large tile that wins only when split is otherwise cut.
    // The sort is stable, so ties keep their order in the space.
    if let Some(k) = policy.measure_top_k {
        if k < base.len() {
            let mut ranked: Vec<(f64, MatmulConfig)> = (base.iter())
                .map(|cfg| {
                    let score = |split_k| {
                        quick_score(problem, &MatmulConfig { split_k, ..*cfg }, gpu.spec())
                    };
                    let splits = splitk_variants(problem, cfg).into_iter();
                    (splits.map(score).fold(score(1), f64::min), *cfg)
                })
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
            base = ranked.into_iter().take(k).map(|(_, cfg)| cfg).collect();
        }
    }

    // Phase 1: measure the (possibly pruned) base space.
    let mut scored: Vec<(MatmulConfig, LatencyEstimate)> = Vec::with_capacity(base.len());
    for cfg in &base {
        if let Some(est) = measure(*cfg, &mut trials) {
            scored.push((*cfg, est));
        }
    }
    scored.sort_by(|a, b| a.1.seconds.total_cmp(&b.1.seconds));

    // Phase 2: parallel-k variants (paper §6.3.4) for the most promising
    // configs — the global top-16 plus the best config of every block-tile
    // shape (split-K shifts the optimum toward larger tiles, so the best
    // *unsplit* config is not always the best parent).
    let mut best = scored.first().copied();
    let mut parents: Vec<MatmulConfig> = scored.iter().take(16).map(|(c, _)| *c).collect();
    let mut seen_tiles = HashSet::new();
    for (cfg, _) in &scored {
        if seen_tiles.insert((cfg.block_m, cfg.block_n)) && !parents.contains(cfg) {
            parents.push(*cfg);
        }
    }
    for cfg in parents {
        let tiles = ((problem.m + cfg.block_m - 1) / cfg.block_m)
            * ((problem.n + cfg.block_n - 1) / cfg.block_n)
            * problem.batch;
        if tiles >= gpu.spec().num_sms as i64 * 2 || problem.k < 8 * cfg.block_k {
            continue;
        }
        for split_k in splitk_variants(problem, &cfg) {
            let candidate = MatmulConfig { split_k, ..cfg };
            if let Some(est) = measure(candidate, &mut trials) {
                if best.is_none_or(|(_, b)| est.seconds < b.seconds) {
                    best = Some((candidate, est));
                }
            }
        }
    }
    let (best, best_latency) = best?;
    Some(TuneReport {
        best,
        best_latency,
        trials,
        tuning_seconds: trials as f64 * SECONDS_PER_TRIAL,
    })
}

/// Split-K factors worth trying for `cfg` on `problem`: the standard 2/4/8,
/// **clamped to the reduction's available K tiles** and deduplicated — a
/// split deeper than the tile count collapses onto the clamped variant and
/// must not be measured twice.
pub fn splitk_variants(problem: MatmulProblem, cfg: &MatmulConfig) -> Vec<i64> {
    let k_tiles = (problem.k + cfg.block_k - 1) / cfg.block_k;
    let mut out = Vec::new();
    for split_k in [2i64, 4, 8] {
        let clamped = split_k.min(k_tiles);
        if clamped <= 1 || problem.k / clamped < cfg.block_k {
            continue;
        }
        if !out.contains(&clamped) {
            out.push(clamped);
        }
    }
    out
}

/// Picks a reduce-template configuration for `rows` rows of length `len`:
/// thread-per-row when rows alone saturate the device, cooperative otherwise.
pub fn pick_reduce_config(rows: i64, len: i64, gpu: &Gpu) -> ReduceConfig {
    let needed = gpu.spec().num_sms as i64 * 256;
    if rows >= needed || len < 64 {
        ReduceConfig {
            threads_per_row: 1,
            block_threads: 256,
        }
    } else {
        ReduceConfig {
            threads_per_row: 32,
            block_threads: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::matmul::{matmul_kernel, MatmulIo};

    #[test]
    fn tuning_enumerates_whole_space_quickly() {
        let gpu = Gpu::default();
        let report = tune_matmul(MatmulProblem::new(1024, 1024, 1024), &gpu);
        // Paper: ~180 schedules, enumerable "within one minute".
        assert!(
            (120..500).contains(&report.trials),
            "{} trials",
            report.trials
        );
        assert!(report.best_latency.seconds > 0.0);
        assert_eq!(
            report.tuning_seconds,
            report.trials as f64 * SECONDS_PER_TRIAL
        );
    }

    #[test]
    fn prime_sizes_always_tune_successfully() {
        // Fig. 19: 2039 is prime; Hidet must still find a schedule.
        let gpu = Gpu::default();
        let report = tune_matmul(MatmulProblem::new(2039, 2039, 2039), &gpu);
        assert!(report.best_latency.seconds.is_finite());
    }

    #[test]
    fn large_problems_prefer_bigger_tiles_than_small_ones() {
        let gpu = Gpu::default();
        let small = tune_matmul(MatmulProblem::new(128, 128, 128), &gpu);
        let large = tune_matmul(MatmulProblem::new(4096, 4096, 4096), &gpu);
        let small_tile = small.best.block_m * small.best.block_n;
        let large_tile = large.best.block_m * large.best.block_n;
        assert!(
            large_tile >= small_tile,
            "small {} vs large {}",
            small.best.id(),
            large.best.id()
        );
    }

    #[test]
    fn skinny_problems_consider_split_k() {
        // Tiny output grid, huge K: split-K candidates must be generated.
        let gpu = Gpu::default();
        let report = tune_matmul(MatmulProblem::new(64, 64, 16384), &gpu);
        // Not asserting the winner uses split_k (model-dependent), but the
        // space must have been extended beyond the base.
        assert!(report.trials > crate::space::matmul_space(gpu.spec()).len());
    }

    #[test]
    fn best_config_beats_default_or_matches() {
        let gpu = Gpu::default();
        let problem = MatmulProblem::new(2048, 2048, 2048);
        let report = tune_matmul(problem, &gpu);
        let default_kernels = matmul_kernel(
            problem,
            MatmulConfig::default(),
            MatmulIo::direct("d", problem),
        );
        let default_latency = gpu.estimate(&default_kernels[0]).unwrap();
        assert!(report.best_latency.seconds <= default_latency.seconds * 1.0001);
    }

    #[test]
    fn splitk_variants_collapse_and_dedup() {
        // k = 32 with block_k = 8 has 4 K tiles: a split of 8 clamps to 4 and
        // must collapse onto the split-4 variant instead of being measured
        // again.
        let cfg = MatmulConfig::default(); // block_k = 8
        let variants = splitk_variants(MatmulProblem::new(64, 64, 32), &cfg);
        assert_eq!(variants, vec![2, 4], "8 collapses onto 4: {variants:?}");
        // A long reduction keeps all three factors distinct.
        let variants = splitk_variants(MatmulProblem::new(64, 64, 16384), &cfg);
        assert_eq!(variants, vec![2, 4, 8]);
        // No factor fits when even a 2-way split starves the K tile.
        let variants = splitk_variants(MatmulProblem::new(64, 64, 8), &cfg);
        assert!(variants.is_empty(), "{variants:?}");
    }

    #[test]
    fn no_candidate_is_measured_twice() {
        // The trial count must equal the number of *distinct* configurations:
        // the base space (all split_k = 1, pairwise distinct) plus distinct
        // split-k variants. Running the same tuning twice is deterministic.
        let gpu = Gpu::default();
        let problem = MatmulProblem::new(64, 64, 16384);
        let a = tune_matmul(problem, &gpu);
        let b = tune_matmul(problem, &gpu);
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.best, b.best);
        // Upper bound: base space + 3 split factors for every possible
        // parent (top-16 plus one per distinct tile shape).
        let space = crate::space::matmul_space(gpu.spec());
        let tile_shapes: HashSet<(i64, i64)> =
            space.iter().map(|c| (c.block_m, c.block_n)).collect();
        assert!(
            a.trials <= space.len() + 3 * (16 + tile_shapes.len()),
            "{} trials",
            a.trials
        );
    }

    #[test]
    fn pruned_tuning_runs_far_fewer_trials() {
        let gpu = Gpu::default();
        let problem = MatmulProblem::new(1024, 1024, 1024);
        let exhaustive = try_tune_matmul_with(problem, &gpu, TunerPolicy::exhaustive()).unwrap();
        let pruned = try_tune_matmul_with(problem, &gpu, TunerPolicy::pruned(48)).unwrap();
        assert!(
            pruned.trials * 2 < exhaustive.trials,
            "pruned {} vs exhaustive {}",
            pruned.trials,
            exhaustive.trials
        );
        assert!(pruned.tuning_seconds < exhaustive.tuning_seconds);
    }

    #[test]
    fn pruned_tuning_matches_exhaustive_choice() {
        // The serving bench's three matmul shapes (batch 1 and 8): pruning
        // must not change the winner the exhaustive search finds — the whole
        // point is fewer trials at the same schedule quality.
        let gpu = Gpu::default();
        for (m, n, k) in [
            (1, 512, 256),
            (1, 512, 512),
            (1, 64, 512),
            (8, 512, 256),
            (8, 512, 512),
            (8, 64, 512),
            (1024, 1024, 1024),
        ] {
            let problem = MatmulProblem::new(m, n, k);
            let exhaustive =
                try_tune_matmul_with(problem, &gpu, TunerPolicy::exhaustive()).unwrap();
            let pruned = try_tune_matmul_with(problem, &gpu, TunerPolicy::pruned(48)).unwrap();
            assert_eq!(
                pruned.best,
                exhaustive.best,
                "{m}x{n}x{k}: pruned {} vs exhaustive {}",
                pruned.best.id(),
                exhaustive.best.id()
            );
        }
    }

    #[test]
    fn quick_score_prefers_sane_configs() {
        // The pre-measurement score must at least order a pathological config
        // (1-warp block on a huge problem) behind a balanced one.
        let spec = GpuSpec::rtx3090();
        let problem = MatmulProblem::new(4096, 4096, 4096);
        let balanced = MatmulConfig::default();
        let tiny = MatmulConfig {
            block_m: 16,
            block_n: 32,
            warps_m: 1,
            warps_n: 1,
            thread_m: 2,
            thread_n: 2,
            ..MatmulConfig::default()
        };
        assert!(quick_score(problem, &balanced, &spec) < quick_score(problem, &tiny, &spec));
    }

    #[test]
    fn reduce_config_heuristic() {
        let gpu = Gpu::default();
        let many_rows = pick_reduce_config(1_000_000, 128, &gpu);
        assert_eq!(many_rows.threads_per_row, 1);
        let few_rows = pick_reduce_config(128, 4096, &gpu);
        assert!(few_rows.threads_per_row > 1);
    }
}
