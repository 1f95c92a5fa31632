//! Acceptance: a multi-device decode run at `TraceConfig::Full` exports
//! Chrome `trace_event` JSON that Perfetto accepts — the object form with
//! `displayTimeUnit` and a `traceEvents` array whose members all carry
//! `name`/`ph`/`ts`/`pid`/`tid`.

use std::collections::HashSet;
use std::time::Instant;

use hidet_decode::{DecodeConfig, DecodeEngine, DecodeModelSpec, GenerateRequest};
use hidet_sched::json::{get, Json};
use hidet_sim::GpuSpec;
use hidet_trace::TraceConfig;

#[test]
fn multi_device_decode_exports_perfetto_loadable_chrome_trace() {
    let tracer = hidet_trace::global();
    tracer.set_config(TraceConfig::Full);

    // A small 2-shard run with forced mid-generation migration, so the
    // trace covers placement, iteration, prefill, decode-step and KV
    // alloc/migrate spans — the full decode taxonomy. The migration policy
    // is stated here, on a stepped engine: once a session has emitted two
    // tokens it moves to the other shard.
    let (engine, mut stepper) = DecodeEngine::stepped(DecodeConfig {
        max_batch: 2,
        kv_blocks: 64,
        block_tokens: 4,
        devices: vec![GpuSpec::rtx3090(); 2],
        ..DecodeConfig::default()
    });
    let model = engine
        .register(DecodeModelSpec::transformer("trace_mini", 1, 16, 2, 32, 16))
        .expect("decode model registers");
    let sessions: Vec<_> = (0..4u32)
        .map(|i| model.generate(GenerateRequest::new(vec![i % 32], 6).with_trace(u64::from(i) + 1)))
        .collect();
    let now = Instant::now();
    let mut moved = HashSet::new();
    while stepper.step(now) {
        stepper.relocate(|s| (s.emitted >= 2 && moved.insert(s.trace_id)).then_some(1 - s.shard));
    }
    assert_eq!(moved.len(), 4, "every session must migrate once");
    for session in sessions {
        session.collect().expect("session completes");
    }

    let json = tracer.chrome_trace_json();
    tracer.set_config(TraceConfig::MetricsOnly);

    let parsed = Json::parse(&json).expect("chrome trace parses as JSON");
    let trace = parsed.as_object("trace").expect("trace is an object");
    let unit = get(trace, "displayTimeUnit")
        .expect("displayTimeUnit")
        .as_str("displayTimeUnit")
        .expect("string");
    assert_eq!(unit, "ns");
    let events = get(trace, "traceEvents")
        .expect("traceEvents")
        .as_array("traceEvents")
        .expect("array");
    assert!(!events.is_empty(), "the run must export spans");

    let mut names = std::collections::HashSet::new();
    for event in events {
        let ev = event.as_object("event").expect("event is an object");
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(get(ev, key).is_ok(), "trace event missing {key}: {json}");
        }
        let ph = get(ev, "ph").unwrap().as_str("ph").unwrap();
        assert!(matches!(ph, "X" | "i"), "unexpected phase {ph}");
        if ph == "X" {
            assert!(get(ev, "dur").is_ok(), "complete event missing dur");
        }
        names.insert(get(ev, "name").unwrap().as_str("name").unwrap().to_string());
    }
    assert!(
        names.contains("decode_iteration"),
        "decode iterations must be traced, got {names:?}"
    );
    assert!(
        names.contains("decode_step") || names.contains("prefill_chunk"),
        "step/prefill spans must be traced, got {names:?}"
    );
    assert!(
        names.contains("kv_migrate"),
        "migrations must be traced, got {names:?}"
    );
}
