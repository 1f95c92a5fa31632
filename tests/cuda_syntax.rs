//! The CUDA the compiler prints parses: every kernel of the seven graphs the
//! static-analysis sweep checks (the five models, a decode step and a
//! prefill chunk), under `tuned()`, `quick()` and the decode engine's
//! `compact().order_stable()`, syntax-checked by the host C++ compiler
//! (`g++ -fsyntax-only -x c++`) against `tests/support/cuda_shim.h`, which
//! declares what the CUDA front end would.
//!
//! What this does not prove: the shim's templated `min`/`max` accept any
//! pair of operand types, which is more lenient than `nvcc`'s overloads —
//! whether `nvcc` resolves a mixed call such as `min(int64_t, int)` the same
//! way is not checked. Where no host C++ compiler is found, the test says on
//! stderr that it did not run.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

use hidet::prelude::*;
use hidet_graph::models;

/// The first host C++ compiler on the path.
fn host_compiler() -> Option<&'static str> {
    ["g++", "c++", "clang++"].into_iter().find(|cxx| {
        let probe = Command::new(cxx)
            .arg("--version")
            .stdout(Stdio::null())
            .status();
        probe.is_ok_and(|status| status.success())
    })
}

/// The compiler's complaints about `source`, or `None` when it parses.
fn syntax_errors(cxx: &str, shim: &Path, source: &str) -> Option<String> {
    let mut child = Command::new(cxx)
        .args(["-fsyntax-only", "-x", "c++", "-include"])
        .arg(shim)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the compiler starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(source.as_bytes())
        .expect("the compiler reads");
    drop(stdin);
    let out = child.wait_with_output().expect("the compiler finishes");
    (!out.status.success()).then(|| String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn emitted_cuda_parses_as_cpp() {
    let Some(cxx) = host_compiler() else {
        // Straight to stderr, past the harness's capture of passing tests.
        let _ = writeln!(
            std::io::stderr(),
            "emitted_cuda_parses_as_cpp: no host C++ compiler found; the emitted CUDA was NOT checked"
        );
        return;
    };
    let shim = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/support/cuda_shim.h");
    let mut graphs = models::all_models(1);
    graphs.push(models::gpt2_decode_step(2, 16));
    graphs.push(models::gpt2_prefill(8, 16));
    let gpu = Gpu::default();
    let option_sets = [
        ("tuned", CompilerOptions::tuned()),
        ("quick", CompilerOptions::quick()),
        (
            "compact, order-stable",
            CompilerOptions::compact().order_stable(),
        ),
    ];
    let mut failed = Vec::new();
    for graph in &graphs {
        for (label, options) in &option_sets {
            let compiled = hidet::compile(graph, &gpu, options).expect("compiles");
            if let Some(errors) = syntax_errors(cxx, &shim, &compiled.cuda_source()) {
                let head: String = errors.lines().take(10).collect::<Vec<_>>().join("\n");
                failed.push(format!("{} under {label}:\n{head}", graph.name()));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "{cxx} rejects the emitted CUDA:\n{}",
        failed.join("\n\n")
    );
}
