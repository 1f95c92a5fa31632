//! Property test: `hidet_ir::passes::simplify` preserves kernel semantics.
//!
//! Random integer expression trees over `threadIdx.x`/`blockIdx.x` and a loop
//! variable are evaluated by the interpreter before and after simplification;
//! the stored results must match exactly.

use hidet_ir::prelude::*;
use hidet_sim::{DeviceMemory, Gpu};
use proptest::prelude::*;

/// A strategy for random integer expressions of bounded depth. Divisors and
/// modulus operands are kept positive to avoid division by zero.
fn int_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0i64..16).prop_map(Expr::Int),
        Just(Expr::ThreadIdx),
        Just(Expr::BlockIdx),
        Just(Var::index("lv").expr()),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), 0i64..4).prop_map(|(a, k)| a * k),
            (inner.clone(), 1i64..8).prop_map(|(a, k)| a / k),
            (inner.clone(), 1i64..8).prop_map(|(a, k)| a % k),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.lt(b).select(1i64, 2i64)),
        ]
    })
    .boxed()
}

/// Runs a kernel that stores `expr` (cast to f32) at every (block, thread,
/// loop) point, returning the output buffer.
fn run_with(expr: &Expr) -> Vec<f32> {
    const GRID: i64 = 2;
    const BLOCK: i64 = 4;
    const LOOP: i64 = 3;
    let mut kb = KernelBuilder::new("probe", GRID, BLOCK);
    let out = kb.param("Out", DType::F32, &[GRID, BLOCK, LOOP]);
    let lv = Var::index("lv");
    kb.push(for_(lv, LOOP, |i| {
        store(
            &out,
            vec![block_idx(), thread_idx(), i],
            expr.clone().cast(DType::F32),
        )
    }));
    let kernel = kb.build();
    let gpu = Gpu::default();
    let mut mem = DeviceMemory::new();
    mem.alloc_zeroed("Out", (GRID * BLOCK * LOOP) as usize);
    gpu.run(&kernel, &mut mem).expect("probe kernel runs");
    mem.read("Out").to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn simplify_preserves_integer_semantics(e in int_expr(4)) {
        let simplified = hidet_ir::passes::simplify_expr(e.clone());
        let before = run_with(&e);
        let after = run_with(&simplified);
        prop_assert_eq!(before, after, "expr {} != simplified {}", e, simplified);
    }

    /// Simplification is idempotent: a second pass changes nothing.
    #[test]
    fn simplify_is_idempotent(e in int_expr(4)) {
        let once = hidet_ir::passes::simplify_expr(e);
        let twice = hidet_ir::passes::simplify_expr(once.clone());
        prop_assert_eq!(once, twice);
    }
}
