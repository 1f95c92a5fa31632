//! Hardware-centric schedule space (paper §4.3).
//!
//! Tile sizes are chosen from hardware-aligned values (warp multiples, shared
//! memory capacities) instead of the factors of the input extents, and partial
//! tiles are handled by predicated loads. The space is therefore independent
//! of the problem size — the same few hundred candidates serve `M=N=K=2048`
//! and the prime `2039` alike (paper Fig. 19) — and small enough to enumerate
//! exhaustively within minutes (paper: "less than 200 schedules … 10^5×
//! smaller than AutoTVM's").

use hidet_sim::GpuSpec;

use crate::json::{self, Json};

/// One matmul schedule candidate: block tile, warp grid, thread tile,
/// pipelining depth and reduction split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulConfig {
    /// Block tile rows (M).
    pub block_m: i64,
    /// Block tile columns (N).
    pub block_n: i64,
    /// K-tile depth per main-loop iteration.
    pub block_k: i64,
    /// Warps along M within a block.
    pub warps_m: i64,
    /// Warps along N within a block.
    pub warps_n: i64,
    /// Elements each thread computes along M (per warp-tile repeat).
    pub thread_m: i64,
    /// Elements each thread computes along N.
    pub thread_n: i64,
    /// Software pipeline stages (1 = none, 2 = double buffering, 3 = async).
    pub stages: u32,
    /// Parallel reduction splits along K (1 = none), paper §6.3.4.
    pub split_k: i64,
}

impl MatmulConfig {
    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.warps_m * self.warps_n * 32
    }

    /// Warp tile size `(m, n)`.
    pub fn warp_tile(&self) -> (i64, i64) {
        (self.block_m / self.warps_m, self.block_n / self.warps_n)
    }

    /// Per-warp repeats `(rm, rn)` of the fixed 4×8 lane grid with the thread
    /// tile — the `repeat(rm, rn)` factor of the paper's §5.1.2 composition.
    pub fn warp_repeats(&self) -> (i64, i64) {
        let (wm, wn) = self.warp_tile();
        (wm / (4 * self.thread_m), wn / (8 * self.thread_n))
    }

    /// Shared memory bytes per block (A tile + B tile, × stages).
    pub fn shared_bytes(&self) -> u64 {
        let per_stage = (self.block_m * self.block_k + self.block_k * self.block_n) * 4;
        per_stage as u64 * self.stages.max(1) as u64
    }

    /// Structural validity: divisibility of the task-mapping composition and
    /// cooperative-load layouts.
    pub fn is_structurally_valid(&self) -> bool {
        let t = self.threads();
        let (wm, wn) = self.warp_tile();
        self.block_m % self.warps_m == 0
            && self.block_n % self.warps_n == 0
            && wm % (4 * self.thread_m) == 0
            && wn % (8 * self.thread_n) == 0
            && t % self.block_k == 0
            && self.block_m % (t / self.block_k) == 0
            && t % self.block_n == 0
            && self.block_k % (t / self.block_n).max(1) == 0
            && (32..=1024).contains(&t)
    }

    /// Validity against device limits (shared memory, registers).
    pub fn fits(&self, spec: &GpuSpec) -> bool {
        if !self.is_structurally_valid() {
            return false;
        }
        if self.shared_bytes() > spec.shared_mem_per_block {
            return false;
        }
        // Accumulator registers per thread: thread_m*thread_n per warp repeat.
        let (rm, rn) = self.warp_repeats();
        let acc = rm * rn * self.thread_m * self.thread_n;
        let regs = 32
            + acc
            + 2 * (self.block_m * self.block_k / self.threads())
            + 2 * (self.block_k * self.block_n / self.threads());
        (regs as u64) * (self.threads() as u64) <= spec.registers_per_sm
    }

    /// A readable identifier, e.g. `128x64x8_w2x2_t4x4_s2_k1`.
    pub fn id(&self) -> String {
        format!(
            "{}x{}x{}_w{}x{}_t{}x{}_s{}_k{}",
            self.block_m,
            self.block_n,
            self.block_k,
            self.warps_m,
            self.warps_n,
            self.thread_m,
            self.thread_n,
            self.stages,
            self.split_k
        )
    }
}

impl Default for MatmulConfig {
    /// A robust mid-size configuration (used before tuning).
    fn default() -> MatmulConfig {
        MatmulConfig {
            block_m: 64,
            block_n: 64,
            block_k: 8,
            warps_m: 2,
            warps_n: 2,
            thread_m: 4,
            thread_n: 4,
            stages: 2,
            split_k: 1,
        }
    }
}

impl MatmulConfig {
    /// The configuration as a JSON object — the one statement of the
    /// encoding, which `hidet`'s compiled artifacts embed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"block_m\": {}, \"block_n\": {}, \"block_k\": {}, \
             \"warps_m\": {}, \"warps_n\": {}, \"thread_m\": {}, \"thread_n\": {}, \
             \"stages\": {}, \"split_k\": {}}}",
            self.block_m,
            self.block_n,
            self.block_k,
            self.warps_m,
            self.warps_n,
            self.thread_m,
            self.thread_n,
            self.stages,
            self.split_k
        )
    }

    /// Parses [`MatmulConfig::to_json`]'s object, rejecting what a corrupted
    /// or hand-edited file could hold and the rest of the compiler could not
    /// survive: a tile size below 1, a `stages` that does not fit its `u32`.
    /// `ctx` names the enclosing element in errors.
    pub fn from_json(value: &Json, ctx: &str) -> Result<MatmulConfig, String> {
        let ctx = format!("{ctx}.config");
        let obj = value.as_object(&ctx)?;
        let positive = |field: &str| json::get_positive(obj, field, &ctx);
        let stages = positive("stages")?;
        Ok(MatmulConfig {
            block_m: positive("block_m")?,
            block_n: positive("block_n")?,
            block_k: positive("block_k")?,
            warps_m: positive("warps_m")?,
            warps_n: positive("warps_n")?,
            thread_m: positive("thread_m")?,
            thread_n: positive("thread_n")?,
            stages: u32::try_from(stages)
                .map_err(|_| format!("{ctx}: field \"stages\" out of range, got {stages}"))?,
            split_k: positive("split_k")?,
        })
    }
}

/// Enumerates the hardware-centric matmul schedule space for a device.
///
/// Tile candidates are hardware-aligned, filtered by the device's
/// shared-memory and register limits: mid-size block tiles from 16×32 to
/// 256×128 on 1–8 warps with 4×4 or 2×2 thread tiles, and below them the
/// warp-sized tiles — one warp, `block_m` 8–16 by `block_n` 8–32, 1×1 or 2×2
/// thread tiles — that a skinny problem fills instead of predicating most of
/// a larger tile away; each with K tiles 8–32 and pipeline depth 1–2.
/// `split_k` variants are added by the tuner per problem (they depend on how
/// much parallelism the grid needs), not here — keeping the space
/// problem-independent.
pub fn matmul_space(spec: &GpuSpec) -> Vec<MatmulConfig> {
    let mut out = Vec::new();
    push_candidates(
        &mut out,
        spec,
        &[
            (16, 32),
            (32, 32),
            (32, 64),
            (64, 32),
            (64, 64),
            (64, 128),
            (128, 64),
            (128, 128),
            (128, 256),
            (256, 128),
        ],
        &[(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2)],
        &[(4, 4), (2, 2)],
    );
    // One warp's 4×8 lane grid, twice or four times along M and up to four
    // times along N. The tiles start at 8 rows, not at the lane grid's 4: a
    // 4-row tile reads every B tile twice as often, and on the 8×128×64
    // GEMM of a batch-8 MLP it won the cost model by 1% while the
    // interpreter ran it 1.5× slower than the 8-row tile.
    push_candidates(
        &mut out,
        spec,
        &[(8, 8), (8, 16), (8, 32), (16, 8), (16, 16)],
        &[(1, 1)],
        &[(1, 1), (2, 2)],
    );
    out
}

/// Appends every candidate of `block_tiles` × K tile × `warps` ×
/// `thread_tiles` × stages that [`MatmulConfig::fits`] `spec`.
fn push_candidates(
    out: &mut Vec<MatmulConfig>,
    spec: &GpuSpec,
    block_tiles: &[(i64, i64)],
    warps: &[(i64, i64)],
    thread_tiles: &[(i64, i64)],
) {
    for &(block_m, block_n) in block_tiles {
        for block_k in [8, 16, 32] {
            for &(warps_m, warps_n) in warps {
                for &(thread_m, thread_n) in thread_tiles {
                    // Fine thread tiles only pay off on small block tiles.
                    if (thread_m, thread_n) == (2, 2) && block_m * block_n > 64 * 64 {
                        continue;
                    }
                    for stages in [1, 2] {
                        let cfg = MatmulConfig {
                            block_m,
                            block_n,
                            block_k,
                            warps_m,
                            warps_n,
                            thread_m,
                            thread_n,
                            stages,
                            split_k: 1,
                        };
                        if cfg.fits(spec) {
                            out.push(cfg);
                        }
                    }
                }
            }
        }
    }
}

/// The smallest-footprint configuration of [`matmul_space`] whose threads
/// each compute a 4×4 tile: fewest threads, then the smallest block tile,
/// the shortest K tile and the shallowest pipeline — one warp on 16×32. A
/// skinny problem — a decode step's GEMMs have a handful of rows — wastes
/// almost all of a mid-size tile on predicated-out work, and this tile both
/// estimates and interprets far cheaper. The warp-sized tiles below it are
/// left to the tuner, which fits them to each problem. `None` when nothing
/// in the space fits `spec`.
pub fn compact_matmul_config(spec: &GpuSpec) -> Option<MatmulConfig> {
    matmul_space(spec)
        .into_iter()
        .filter(|c| (c.thread_m, c.thread_n) == (4, 4))
        .min_by_key(|c| (c.threads(), c.block_m * c.block_n, c.block_k, c.stages))
}

/// Reduction schedule candidate (softmax / layernorm / global pooling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReduceConfig {
    /// Threads cooperating on one reduction row (1 = thread-per-row;
    /// otherwise a power of two up to the block size).
    pub threads_per_row: i64,
    /// Threads per block.
    pub block_threads: i64,
}

impl ReduceConfig {
    /// Rows processed concurrently per block.
    pub fn rows_per_block(&self) -> i64 {
        self.block_threads / self.threads_per_row
    }

    /// Validity.
    pub fn is_valid(&self) -> bool {
        self.threads_per_row >= 1
            && self.block_threads % self.threads_per_row == 0
            && self.block_threads <= 1024
            && self.threads_per_row.count_ones() == 1
    }
}

/// The reduction schedule space: a handful of candidates.
pub fn reduce_space() -> Vec<ReduceConfig> {
    let mut out = Vec::new();
    for &threads_per_row in &[1i64, 32, 128, 256] {
        for &block_threads in &[128i64, 256] {
            let cfg = ReduceConfig {
                threads_per_row,
                block_threads,
            };
            if cfg.is_valid() && cfg.rows_per_block() >= 1 {
                out.push(cfg);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::matmul::MatmulProblem;

    #[test]
    fn space_is_hardware_centric_and_small() {
        let spec = GpuSpec::rtx3090();
        let space = matmul_space(&spec);
        // Paper: "less than 200 schedules"; ours lands at ~350 because the
        // warp-layout axis carries two extra entries ((1,2)/(2,1)) and the
        // warp-sized tiles below 16×32 add 48 that the skinny serving
        // GEMMs need — same order of magnitude.
        assert!(
            (200..400).contains(&space.len()),
            "space has {} schedules",
            space.len()
        );
        // Every candidate respects device limits.
        for cfg in &space {
            assert!(
                cfg.shared_bytes() <= spec.shared_mem_per_block,
                "{}",
                cfg.id()
            );
            assert!(cfg.threads() <= 1024);
        }
    }

    #[test]
    fn compact_config_is_the_one_warp_16x32_tile() {
        let compact = compact_matmul_config(&GpuSpec::rtx3090()).unwrap();
        assert_eq!(compact.id(), "16x32x8_w1x1_t4x4_s1_k1");
    }

    #[test]
    fn space_is_input_size_independent() {
        // The space never inspects the problem, by construction: calling it
        // twice yields identical candidates.
        let spec = GpuSpec::rtx3090();
        assert_eq!(matmul_space(&spec), matmul_space(&spec));
    }

    #[test]
    fn structural_validity_checks_divisibility() {
        let bad = MatmulConfig {
            block_m: 48,
            ..MatmulConfig::default()
        };
        // 48 not divisible by warp layout 2*(4*4)=32.
        assert!(!bad.is_structurally_valid());
        assert!(MatmulConfig::default().is_structurally_valid());
    }

    #[test]
    fn shared_bytes_scales_with_stages() {
        let c1 = MatmulConfig {
            stages: 1,
            ..MatmulConfig::default()
        };
        let c2 = MatmulConfig {
            stages: 2,
            ..MatmulConfig::default()
        };
        assert_eq!(c2.shared_bytes(), 2 * c1.shared_bytes());
    }

    #[test]
    fn warp_repeats_match_composition() {
        // Paper §5.1.2 example: spatial(4,2)*repeat(2,2)*spatial(4,8)*repeat(4,4)
        // covers a 128x128 block with 8 warps.
        let cfg = MatmulConfig {
            block_m: 128,
            block_n: 128,
            block_k: 8,
            warps_m: 4,
            warps_n: 2,
            thread_m: 4,
            thread_n: 4,
            stages: 1,
            split_k: 1,
        };
        assert_eq!(cfg.warp_tile(), (32, 64));
        assert_eq!(cfg.warp_repeats(), (2, 2));
        assert_eq!(cfg.threads(), 256);
    }

    #[test]
    fn tiny_gpu_shrinks_space() {
        let big = matmul_space(&GpuSpec::rtx3090()).len();
        let small = matmul_space(&GpuSpec::tiny()).len();
        assert!(small < big);
    }

    #[test]
    fn reduce_space_valid() {
        let space = reduce_space();
        assert!(!space.is_empty());
        for cfg in space {
            assert!(cfg.is_valid());
            assert!(cfg.rows_per_block() >= 1);
        }
    }

    /// A tuned problem and its config as one JSON object.
    fn entry(problem: MatmulProblem, config: MatmulConfig) -> String {
        format!(
            "{{{}, \"config\": {}}}",
            problem.to_json_members(),
            config.to_json()
        )
    }

    /// Parses [`entry`]'s object back.
    fn parse_entry(text: &str) -> Result<(MatmulProblem, MatmulConfig), String> {
        let value = Json::parse(text)?;
        let obj = value.as_object("entry")?;
        let problem = MatmulProblem::from_json_members(obj, "entry")?;
        let config = MatmulConfig::from_json(json::get(obj, "config")?, "entry")?;
        Ok((problem, config))
    }

    #[test]
    fn config_and_problem_round_trip_through_json() {
        let tuned = MatmulConfig {
            block_m: 128,
            thread_n: 2,
            stages: 1,
            split_k: 4,
            ..MatmulConfig::default()
        };
        for (problem, config) in [
            (MatmulProblem::new(32, 64, 128), MatmulConfig::default()),
            (
                MatmulProblem {
                    batch: 3,
                    m: 1,
                    n: 50257,
                    k: 768,
                },
                tuned,
            ),
        ] {
            assert_eq!(
                parse_entry(&entry(problem, config)).unwrap(),
                (problem, config)
            );
        }
    }

    #[test]
    fn malformed_schedule_json_rejected() {
        for bad in ["", "{", "{\"batch\": 1", "[1,2", "{\"a\" 1}", "nope", "{}"] {
            assert!(parse_entry(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn corrupted_schedule_fields_rejected() {
        // A hand-edited artifact with a non-positive tile size must fail
        // the load, not reach kernel generation (where it would divide by
        // zero).
        let good = entry(MatmulProblem::new(32, 64, 128), MatmulConfig::default());
        let sabotaged = good.replace("\"block_k\": 8", "\"block_k\": 0");
        let err = parse_entry(&sabotaged).unwrap_err();
        assert!(err.contains("block_k"), "{err}");
        let negative = good.replace("\"m\": 32", "\"m\": -32");
        assert!(parse_entry(&negative).is_err());
        // 2^32 + 2 must not wrap into a plausible `stages: 2`.
        let overflow = good.replace("\"stages\": 2", "\"stages\": 4294967298");
        let err = parse_entry(&overflow).unwrap_err();
        assert!(err.contains("stages"), "{err}");
    }
}
