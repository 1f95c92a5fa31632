//! End-to-end validation that lowered task mappings, executed on the
//! simulator, cover exactly the task domain the algebra promises.
//!
//! Regression test for nested-composition loop-variable shadowing: deep
//! compositions like `spatial * repeat * spatial * repeat` must generate
//! distinct loop variables at every `repeat` level.

use hidet_ir::prelude::*;
use hidet_sim::{DeviceMemory, Gpu};
use hidet_taskmap::{repeat, spatial, MappingProperty, TaskMapping};
use proptest::prelude::*;

/// Lowers `tm` into a kernel where each worker increments its tasks' cells,
/// runs it, and checks every cell was written exactly once.
fn coverage_via_simulator(tm: &TaskMapping) {
    let shape = tm.task_shape().to_vec();
    assert_eq!(shape.len(), 2, "test helper handles 2-D mappings");
    let workers = tm.num_workers();
    let mut kb = KernelBuilder::new("cover", 1, workers);
    let out = kb.param("Out", DType::F32, &shape);
    let body = foreach_task(tm, thread_idx(), |coords| {
        store(&out, coords.clone(), load(&out, coords) + 1.0f32)
    });
    kb.push(hidet_ir::passes::simplify(body));
    let kernel = kb.build();
    let gpu = Gpu::default();
    let mut mem = DeviceMemory::new();
    mem.alloc_zeroed("Out", (shape[0] * shape[1]) as usize);
    gpu.run(&kernel, &mut mem).unwrap();
    for (i, v) in mem.read("Out").iter().enumerate() {
        assert!(
            (*v - 1.0).abs() < 1e-6,
            "{tm}: cell {i} written {v} times (expected exactly once)"
        );
    }
}

#[test]
fn four_level_matmul_composition_covers_block_tile() {
    // The paper's §5.1.2 composition (shrunk): 8 warps-worth of threads.
    let tm = spatial(&[2, 2]) * repeat(&[2, 1]) * spatial(&[4, 8]) * repeat(&[4, 4]);
    assert_eq!(tm.task_shape(), &[64, 64]);
    assert!(tm.check().satisfies(MappingProperty::Partition));
    coverage_via_simulator(&tm);
}

#[test]
fn repeat_spatial_repeat_shadowing_regression() {
    // Two repeat atoms at different composition depths: their lowered loop
    // variables must not shadow each other.
    let tm = repeat(&[2, 1]) * spatial(&[4, 4]) * repeat(&[3, 2]);
    coverage_via_simulator(&tm);
}

#[test]
fn fig8_cooperative_load_composition() {
    let tm = repeat(&[4, 1]) * spatial(&[16, 8]);
    coverage_via_simulator(&tm);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 2–4 atom compositions, lowered and executed, always partition
    /// the task domain.
    #[test]
    fn random_compositions_cover_domain(parts in prop::collection::vec(
        prop_oneof![
            (1i64..4, 1i64..4).prop_map(|(a, b)| (true, a, b)),
            (1i64..4, 1i64..4).prop_map(|(a, b)| (false, a, b)),
        ],
        2..4,
    )) {
        let mut tm: Option<TaskMapping> = None;
        for (is_repeat, a, b) in parts {
            let atom = if is_repeat { repeat(&[a, b]) } else { spatial(&[a, b]) };
            tm = Some(match tm {
                None => atom,
                Some(prev) => prev * atom,
            });
        }
        let tm = tm.expect("at least two parts");
        // Keep the simulated block size within CUDA limits.
        prop_assume!(tm.num_workers() <= 1024);
        coverage_via_simulator(&tm);
    }
}
