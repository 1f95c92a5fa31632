//! Cross-crate integration tests: graph frontend → scheduler → fusion →
//! simulator, validated against the CPU reference executor.

use std::collections::HashMap;

use hidet::prelude::*;
use hidet_graph::reference::{self, ValueMap};
use hidet_graph::GraphBuilder;

/// Compiles and runs `graph` on the simulator, compares every output tensor
/// against the reference executor with relative tolerance `tol`, and returns
/// the compiled graph.
fn check(
    graph: &hidet_graph::Graph,
    inputs: &HashMap<TensorId, Vec<f32>>,
    tol: f32,
) -> CompiledGraph {
    let gpu = Gpu::default();
    let compiled = hidet::compile(graph, &gpu, &CompilerOptions::quick()).expect("compiles");
    let got = compiled.run(inputs, &gpu).expect("runs");
    let mut ref_inputs = ValueMap::new();
    for (t, v) in inputs {
        ref_inputs.insert(*t, v.clone());
    }
    let expect = reference::execute(graph, &ref_inputs);
    for &out in graph.outputs() {
        let a = &got[&out];
        let b = &expect[&out];
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol * (1.0 + y.abs()),
                "{}: output t{} element {i}: {x} vs {y}",
                graph.name(),
                out.0
            );
        }
    }
    compiled
}

fn randn(shape: &[i64], seed: u64) -> Vec<f32> {
    Tensor::randn(shape, seed).data().unwrap().to_vec()
}

#[test]
fn mlp_with_gelu() {
    let mut g = GraphBuilder::new("mlp");
    let x = g.input("x", &[16, 32]);
    let w1 = g.constant(Tensor::randn(&[32, 64], 1));
    let w2 = g.constant(Tensor::randn(&[64, 8], 2));
    let h = g.matmul(x, w1);
    let h = g.gelu(h);
    let y = g.matmul(h, w2);
    let graph = g.output(y).build();
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[16, 32], 3));
    check(&graph, &inputs, 1e-2);
}

#[test]
fn conv_stack_via_implicit_gemm() {
    let mut g = GraphBuilder::new("convs");
    let x = g.input("x", &[1, 3, 20, 20]);
    let y = g.conv_bn_relu(x, 8, 3, 1, 1);
    let y = g.conv_bn_relu(y, 16, 3, 2, 1);
    let y = g.max_pool(y, 2, 2, 0);
    let graph = g.output(y).build();
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[1, 3, 20, 20], 4));
    check(&graph, &inputs, 2e-2);
}

#[test]
fn residual_block_with_projection() {
    let mut g = GraphBuilder::new("residual");
    let x = g.input("x", &[1, 8, 12, 12]);
    let a = g.conv_bn_relu(x, 16, 3, 2, 1);
    let wp = g.constant(Tensor::randn(&[16, 8, 1, 1], 5));
    let proj = g.conv2d(x, wp, 2, 0);
    let proj = g.batch_norm(proj);
    let sum = g.add(a, proj);
    let y = g.relu(sum);
    let graph = g.output(y).build();
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[1, 8, 12, 12], 6));
    check(&graph, &inputs, 2e-2);
}

#[test]
fn single_attention_head() {
    // A miniature attention block: the paper's reshape-matmul-transpose
    // pattern plus softmax, end to end.
    let seq = 16i64;
    let dk = 8i64;
    let mut g = GraphBuilder::new("attention");
    let q = g.input("q", &[seq, dk]);
    let kx = g.input("k", &[seq, dk]);
    let v = g.input("v", &[seq, dk]);
    let kt = g.transpose(kx, &[1, 0]);
    let scores = g.matmul(q, kt);
    let scale = g.constant(Tensor::full(&[1], 1.0 / (dk as f32).sqrt()));
    let scores = g.mul(scores, scale);
    let probs = g.softmax(scores, 1);
    let ctx = g.matmul(probs, v);
    let graph = g.output(ctx).build();
    let mut inputs = HashMap::new();
    inputs.insert(q, randn(&[seq, dk], 7));
    inputs.insert(kx, randn(&[seq, dk], 8));
    inputs.insert(v, randn(&[seq, dk], 9));
    check(&graph, &inputs, 1e-2);
}

#[test]
fn depthwise_separable_block() {
    let mut g = GraphBuilder::new("separable");
    let x = g.input("x", &[1, 8, 10, 10]);
    let wd = g.constant(Tensor::randn(&[8, 1, 3, 3], 10));
    let y = g.depthwise_conv2d(x, wd, 1, 1);
    let y = g.batch_norm(y);
    let y = g.relu6(y);
    let wp = g.constant(Tensor::randn(&[16, 8, 1, 1], 11));
    let y = g.conv2d(y, wp, 1, 0);
    let y = g.batch_norm(y);
    let graph = g.output(y).build();
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[1, 8, 10, 10], 12));
    check(&graph, &inputs, 2e-2);
}

#[test]
fn layer_norm_and_linear() {
    let mut g = GraphBuilder::new("ln");
    let x = g.input("x", &[12, 40]);
    let y = g.layer_norm(x);
    let y = g.linear(y, 20);
    let graph = g.output(y).build();
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[12, 40], 13));
    check(&graph, &inputs, 2e-2);
}

#[test]
fn transformer_layer_functional() {
    // One full (tiny) transformer block: 2 heads, hidden 16, seq 8.
    let (seq, hidden, heads) = (8i64, 16i64, 2i64);
    let head_dim = hidden / heads;
    let mut g = GraphBuilder::new("tiny_transformer");
    let x = g.input("x", &[seq, hidden]);
    let wq = g.constant(Tensor::randn(&[hidden, hidden], 1));
    let wk = g.constant(Tensor::randn(&[hidden, hidden], 2));
    let wv = g.constant(Tensor::randn(&[hidden, hidden], 3));
    let q = g.matmul(x, wq);
    let k = g.matmul(x, wk);
    let v = g.matmul(x, wv);
    let split = |g: &mut GraphBuilder, t| {
        let r = g.reshape(t, &[seq, heads, head_dim]);
        g.transpose(r, &[1, 0, 2])
    };
    let qh = split(&mut g, q);
    let kh = split(&mut g, k);
    let vh = split(&mut g, v);
    let kt = g.transpose(kh, &[0, 2, 1]);
    let scores = g.batch_matmul(qh, kt);
    let probs = g.softmax(scores, 2);
    let ctx = g.batch_matmul(probs, vh);
    let ctx = g.transpose(ctx, &[1, 0, 2]);
    let ctx = g.reshape(ctx, &[seq, hidden]);
    let out = g.add(ctx, x);
    let out = g.layer_norm(out);
    let graph = g.output(out).build();
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[seq, hidden], 4));
    check(&graph, &inputs, 2e-2);
}

#[test]
fn inception_style_concat() {
    let mut g = GraphBuilder::new("concat");
    let x = g.input("x", &[1, 4, 8, 8]);
    let a = g.conv_bn_relu(x, 4, 1, 1, 0);
    let b = g.conv_bn_relu(x, 6, 3, 1, 1);
    let y = g.concat(&[a, b], 1);
    let y = g.relu(y);
    let graph = g.output(y).build();
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[1, 4, 8, 8], 14));
    check(&graph, &inputs, 2e-2);
}

#[test]
fn tuned_compile_is_also_functionally_correct() {
    // Tuning changes schedules, never results.
    let mut g = GraphBuilder::new("tuned");
    let x = g.input("x", &[50, 37]);
    let w = g.constant(Tensor::randn(&[37, 29], 15));
    let y = g.matmul(x, w);
    let y = g.relu(y);
    let graph = g.output(y).build();
    let gpu = Gpu::default();
    let compiled = hidet::compile(&graph, &gpu, &CompilerOptions::tuned()).expect("compiles");
    let mut inputs = HashMap::new();
    inputs.insert(x, randn(&[50, 37], 16));
    let got = compiled.run(&inputs, &gpu).expect("runs");
    let mut ref_inputs = ValueMap::new();
    ref_inputs.insert(x, inputs[&x].clone());
    let expect = reference::execute(&graph, &ref_inputs);
    for (a, b) in got[&y].iter().zip(&expect[&y]) {
        assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()), "{a} vs {b}");
    }
}

#[test]
fn an_epilogue_may_read_the_running_tensor_twice() {
    // `y * y` and `y + y` after an anchor: both operands of the epilogue are
    // the value the anchor carries, never a second inlining of the anchor.
    for anchor in ["matmul", "softmax"] {
        for square in [true, false] {
            let mut g = GraphBuilder::new(&format!("{anchor}_self"));
            let x = g.input("x", &[9, 12]);
            let y = if anchor == "matmul" {
                let w = g.constant(Tensor::randn(&[12, 10], 17));
                g.matmul(x, w)
            } else {
                g.softmax(x, 1)
            };
            let y = if square { g.mul(y, y) } else { g.add(y, y) };
            let graph = g.output(y).build();
            let mut inputs = HashMap::new();
            inputs.insert(x, randn(&[9, 12], 18));
            let compiled = check(&graph, &inputs, 2e-2);
            assert_eq!(compiled.num_kernels(), 1, "{anchor}, square {square}");
        }
    }
}

#[test]
fn generated_kernels_are_pinned() {
    // Kernel count, CUDA length and the source's stable digest of seven
    // graphs: a refactor of scheduling or fusion must not move one byte.
    use hidet_graph::models;
    type Case = (fn() -> Graph, usize, usize, u64);
    let cases: [Case; 7] = [
        (|| models::resnet50(1), 56, 564_355, 0x2c06_5148_2672_1c39),
        (
            || models::inception_v3(1),
            111,
            880_679,
            0x3f79_71a4_fc7c_eaa1,
        ),
        (
            || models::mobilenet_v2(1),
            54,
            379_602,
            0xd36f_cd72_76a4_90c4,
        ),
        (
            || models::bert_base(1, 128),
            133,
            582_299,
            0x0c01_68cf_2dec_e12f,
        ),
        (|| models::gpt2(1, 128), 134, 585_130, 0x6f4d_1282_6f74_d122),
        (
            || models::gpt2_decode_step(2, 16),
            158,
            564_182,
            0x04a4_5d72_7686_5212,
        ),
        (
            || models::gpt2_prefill(8, 16),
            158,
            573_870,
            0x15ab_1df7_8b8b_03bc,
        ),
    ];
    let gpu = Gpu::default();
    for (build, kernels, bytes, digest) in cases {
        let graph = build();
        let compiled = hidet::compile(&graph, &gpu, &CompilerOptions::quick()).expect("compiles");
        let (len, digest_of) = source_digest(&compiled);
        assert_eq!(
            (compiled.num_kernels(), len, digest_of),
            (kernels, bytes, digest),
            "{}",
            graph.name()
        );
    }
}

#[test]
fn coalesced_groups_equal_a_fresh_compile_group() {
    // A compile generates each distinct group definition once and binds it
    // to the names of every group of it: every group of a compile and of its
    // artifact rebuild must be what `compile_group` makes of that group on
    // its own, field by field and in its CUDA text, and the groups of one
    // definition must run one shared kernel definition.
    use std::collections::HashMap;
    use std::sync::Arc;

    use hidet_graph::models;
    use hidet_graph::passes::partition;
    use hidet_ir::cuda::to_cuda;
    use hidet_sched::fusion::GroupDef;
    use hidet_sched::{compile_group, GroupSpec};
    let gpu = Gpu::default();
    let graphs = [
        models::resnet50(1),
        models::bert_base(1, 128),
        models::gpt2_decode_step(2, 16),
    ];
    let options = [
        CompilerOptions::tuned(),
        CompilerOptions::compact().order_stable(),
    ];
    for graph in &graphs {
        for options in &options {
            let compiled = hidet::compile(graph, &gpu, options).expect("compiles");
            let artifact = compiled.artifact().clone();
            let rebuilt =
                hidet::compile_from_artifact(graph, &gpu, options, artifact).expect("rebuilds");
            for plan in [&compiled, &rebuilt] {
                let g = plan.graph();
                let groups = partition(g);
                assert_eq!(groups.len(), plan.groups().len(), "{}", graph.name());
                let schedules = &plan.artifact().schedules;
                let mut first: HashMap<GroupDef, usize> = HashMap::new();
                for (i, (group, got)) in groups.iter().zip(plan.groups()).enumerate() {
                    let case = format!(
                        "{} group {i} under {options:?} (rebuilt: {})",
                        graph.name(),
                        plan.from_artifact()
                    );
                    let fresh = compile_group(g, group, &schedules[i]).expect("compiles");
                    assert_eq!(got.difference(&fresh), None, "{case}");
                    for (a, b) in got.kernels.iter().zip(&fresh.kernels) {
                        assert_eq!(to_cuda(a), to_cuda(b), "{case}");
                    }
                    let s = *first
                        .entry(GroupSpec::of(g, group, &schedules[i]).def)
                        .or_insert(i);
                    let source = &plan.groups()[s].kernels;
                    assert!(
                        (got.kernels.iter().zip(source))
                            .all(|(a, b)| Arc::ptr_eq(a.definition(), b.definition())),
                        "{case}: not the definition of group {s}"
                    );
                }
            }
        }
    }
}

/// Length and stable digest of a compiled graph's CUDA source.
fn source_digest(compiled: &CompiledGraph) -> (usize, u64) {
    let source = compiled.cuda_source();
    let mut hasher = hidet_graph::StableHasher::new();
    hasher.write(source.as_bytes());
    (source.len(), hasher.finish())
}

#[test]
fn tuned_schedules_are_pinned() {
    // What the tuner elects for the paper's five models, by its trial count
    // and the CUDA source of the elected schedules: a change to how a trial
    // is priced must not move one trial or one byte. (8,580 trials and
    // 2,736,978 bytes in all.)
    let cases: [(&str, usize, usize, u64); 5] = [
        ("resnet50", 2031, 504_694, 0x6842_b015_07b1_6f73),
        ("inception_v3", 3867, 699_884, 0x7e04_0364_1b23_92f3),
        ("mobilenet_v2", 1722, 307_400, 0x912f_8e81_a1db_ea59),
        ("bert", 480, 611_083, 0xd4ea_cdd8_c2ad_7066),
        ("gpt2", 480, 613_917, 0x407a_6694_0df9_8db5),
    ];
    let gpu = Gpu::default();
    let options = CompilerOptions::tuned();
    for (name, trials, bytes, digest) in cases {
        let graph = hidet_graph::models::by_name(name, 1).expect("a zoo model");
        let compiled = hidet::compile(&graph, &gpu, &options).expect("compiles");
        let (len, digest_of) = source_digest(&compiled);
        assert_eq!(
            (compiled.tuning_trials(), len, digest_of),
            (trials, bytes, digest),
            "{name}"
        );
    }
}
