//! Model zoo: the five networks of the paper's evaluation (§6.1).
//!
//! Architectures follow the torchvision / HuggingFace reference
//! implementations the paper exports to ONNX: ResNet-50 and Inception-V3
//! (CNNs), MobileNet-V2 (separable convolutions), Bert-base and GPT-2
//! (transformers, sequence length 128). Weights are deterministic random
//! tensors — the evaluation measures latency, not accuracy, and shapes are
//! what matter.
//!
//! Transformer models start from embedded hidden states (the embedding lookup
//! is a memory gather the paper's operator-level evaluation does not turn on).
//!
//! Beside the five, [`transformer_pass`] is the **KV-cache forward-pass
//! family** `hidet-decode` serves: `seqs` sequences × `chunk` tokens over
//! explicit per-layer caches, one block definition for every member.
//! [`transformer_decode_step`] (`chunk = 1`) and [`transformer_prefill`]
//! (`seqs = 1`) are its two wrappers; [`gpt2_decode_step`] / [`gpt2_prefill`]
//! instantiate them at GPT-2 small.

mod inception;
mod mobilenet;
mod resnet;
mod transformer;

pub use inception::inception_v3;
pub use mobilenet::mobilenet_v2;
pub use resnet::{resnet50, resnet50_conv_workloads, ConvWorkload};
pub use transformer::{
    bert_base, gpt2, gpt2_decode_step, gpt2_prefill, transformer_decode_step, transformer_pass,
    transformer_prefill,
};

use crate::graph::Graph;

/// The paper's five evaluation models at the given batch size.
pub fn all_models(batch: i64) -> Vec<Graph> {
    vec![
        resnet50(batch),
        inception_v3(batch),
        mobilenet_v2(batch),
        bert_base(batch, 128),
        gpt2(batch, 128),
    ]
}

/// A model by its evaluation name.
///
/// Accepted names: `resnet50`, `inception_v3`, `mobilenet_v2`, `bert`, `gpt2`.
pub fn by_name(name: &str, batch: i64) -> Option<Graph> {
    match name {
        "resnet50" => Some(resnet50(batch)),
        "inception_v3" => Some(inception_v3(batch)),
        "mobilenet_v2" => Some(mobilenet_v2(batch)),
        "bert" => Some(bert_base(batch, 128)),
        "gpt2" => Some(gpt2(batch, 128)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build() {
        for g in all_models(1) {
            assert!(!g.ops().is_empty(), "{} is empty", g.name());
            assert!(g.total_flops() > 1e8, "{} has too few FLOPs", g.name());
        }
    }

    #[test]
    fn zoo_keys_are_pinned() {
        // The `hidet-graph-v2` structural hash of each model as built: every
        // compiled-graph cache key and artifact file name of the zoo hangs
        // off these, so a change to the digest scheme must be a deliberate
        // key bump (a new domain string), not an accident.
        let golden: [(&str, u64); 5] = [
            ("resnet50", 0xe205f7b8acfd3fdb),
            ("inception_v3", 0xf4782f0c09cae299),
            ("mobilenet_v2", 0xb48c830648834c7c),
            ("bert", 0x820297b92679391b),
            ("gpt2", 0x438177d2308f47b9),
        ];
        for (name, want) in golden {
            let hash = by_name(name, 1).expect("a zoo model").structural_hash();
            assert_eq!(hash, want, "{name}: {hash:#018x}");
        }
    }

    #[test]
    fn by_name_roundtrip() {
        for name in ["resnet50", "inception_v3", "mobilenet_v2", "bert", "gpt2"] {
            assert_eq!(by_name(name, 1).unwrap().name(), name);
        }
        assert!(by_name("vgg", 1).is_none());
    }
}
