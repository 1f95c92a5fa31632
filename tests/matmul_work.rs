//! The matmul template's cost-model inputs in closed form against the tree:
//! for any problem and any structurally valid schedule, `matmul_work` must
//! hand the latency model exactly what the built, simplified kernels do —
//! the same facts, the same per-thread counts, the same estimate to the bit,
//! and the same error where a kernel cannot launch. The tuner prices every
//! trial through the closed form, so this is what keeps its elections those
//! of the kernels it compiles.

use hidet_sched::{
    matmul_kernel, matmul_space, matmul_work, MatmulConfig, MatmulIo, MatmulProblem,
};
use hidet_sim::cost::{count_work, estimate, estimate_from};
use hidet_sim::{GpuSpec, KernelFacts, LatencyEstimate, SimError, WorkCounts};
use proptest::prelude::*;

/// What the model reads of each built kernel.
fn tree(problem: MatmulProblem, config: MatmulConfig) -> Vec<(KernelFacts, WorkCounts)> {
    matmul_kernel(problem, config, MatmulIo::direct("tree", problem))
        .iter()
        .map(|k| {
            let counts = count_work(k.body()).expect("scheduled kernels have constant extents");
            (KernelFacts::of(k), counts)
        })
        .collect()
}

/// Every number of an estimate, by its bits.
fn bits(estimate: &LatencyEstimate) -> (Vec<u64>, &'static str) {
    let b = &estimate.breakdown;
    let numbers = [
        estimate.seconds,
        b.t_mem,
        b.t_comp,
        b.t_smem,
        b.t_sync,
        b.compute_efficiency,
        b.bandwidth_efficiency,
    ]
    .map(f64::to_bits);
    let mut all = numbers.to_vec();
    all.extend([b.waves, b.occupancy.blocks_per_sm, b.occupancy.warps_per_sm].map(u64::from));
    (all, b.occupancy.limited_by)
}

type Priced = Result<(Vec<u64>, &'static str), SimError>;

/// Closed form and tree agree on facts, counts, and — on each device —
/// every estimate bit or the error.
fn assert_agrees(problem: MatmulProblem, config: MatmulConfig) {
    let closed = matmul_work(problem, config);
    let kernels = matmul_kernel(problem, config, MatmulIo::direct("tree", problem));
    assert_eq!(closed, tree(problem, config), "{problem:?} {}", config.id());
    for spec in [GpuSpec::rtx3090(), GpuSpec::tiny()] {
        let from_tree: Vec<Priced> = (kernels.iter())
            .map(|k| estimate(k, &spec).map(|e| bits(&e)))
            .collect();
        let from_closed: Vec<Priced> = (closed.iter())
            .map(|(facts, work)| estimate_from(facts, work, &spec).map(|e| bits(&e)))
            .collect();
        assert_eq!(
            from_closed,
            from_tree,
            "{problem:?} {} on {}",
            config.id(),
            spec.name
        );
    }
}

/// An extent in `1..5000`, a prime one time in three.
fn extent() -> impl Strategy<Value = i64> {
    prop_oneof![
        1i64..5000,
        1i64..5000,
        prop::sample::select(vec![2i64, 3, 7, 31, 97, 127, 509, 1021, 2039, 4093, 4999]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn closed_form_equals_the_tree(
        batch in 1i64..=4,
        m in extent(),
        n in extent(),
        k in extent(),
        entry in 0usize..1000,
        stages in 1u32..=3,
        split_k in 1i64..=8,
    ) {
        let space = matmul_space(&GpuSpec::rtx3090());
        let config = MatmulConfig { stages, split_k, ..space[entry % space.len()] };
        assert_agrees(MatmulProblem { batch, m, n, k }, config);
    }
}

#[test]
fn a_single_k_tile_charges_no_prefetch() {
    // `k <= block_k` leaves one k-tile: `simplify` unwraps the `k0` loop and
    // folds `if in_flight` to false, so the pipelined kernel loads only its
    // preloaded tile. Charging the prefetch anyway would double the loads.
    let config = MatmulConfig {
        stages: 2,
        ..MatmulConfig::default()
    };
    for k in [1, 5, config.block_k] {
        let problem = MatmulProblem::new(64, 64, k);
        assert_agrees(problem, config);
        let tile_elems = (config.block_m + config.block_n) * config.block_k / config.threads();
        let gemm = matmul_work(problem, config)[0].1;
        assert_eq!(gemm.global_load_bytes, (4 * tile_elems) as f64);
    }
    // Two k-tiles under three stages: the guard stays (it is not constant),
    // so the prefetch is charged on both iterations.
    for stages in 1..=3 {
        let config = MatmulConfig {
            stages,
            ..MatmulConfig::default()
        };
        assert_agrees(MatmulProblem::new(33, 65, 2 * config.block_k), config);
    }
}

#[test]
fn split_k_reduce_and_unlaunchable_kernels_agree() {
    let space = matmul_space(&GpuSpec::rtx3090());
    // The largest tiles at three stages overflow shared memory on either
    // device: both sides must fail, with the same error.
    let big = *space
        .iter()
        .max_by_key(|c| c.shared_bytes())
        .expect("a non-empty space");
    let config = MatmulConfig { stages: 3, ..big };
    let problem = MatmulProblem::new(512, 512, 512);
    let (facts, work) = matmul_work(problem, config)[0];
    assert!(estimate_from(&facts, &work, &GpuSpec::rtx3090()).is_err());
    assert_agrees(problem, config);
    // Every split the tuner can propose, with a batch, on a prime size.
    for split_k in 2..=8 {
        assert_agrees(
            MatmulProblem {
                batch: 3,
                m: 97,
                n: 31,
                k: 2039,
            },
            MatmulConfig {
                split_k,
                ..MatmulConfig::default()
            },
        );
    }
}
