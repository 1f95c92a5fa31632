//! End-to-end tests over real TCP sockets: register → infer → streamed
//! generate, socket-level shedding, and error mapping.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hidet_decode::{DecodeConfig, DecodeEngine};
use hidet_runtime::stats::catalogue::{self, Metric};
use hidet_runtime::{AdmissionSignal, Engine, EngineConfig, IngressStatsSnapshot};
use hidet_sched::json::{get, Json};
use hidet_server::{HidetServer, ServerConfig};
use hidet_trace::TraceConfig;

fn engines() -> (Arc<Engine>, Arc<DecodeEngine>) {
    let engine = Arc::new(Engine::new(EngineConfig::quick()).unwrap());
    let decode = Arc::new(DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 64,
        block_tokens: 4,
        ..DecodeConfig::default()
    }));
    (engine, decode)
}

/// One round-trip request; returns (status, headers, body text).
fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    // Read until EOF, tolerating a reset after data arrived (a shed
    // response followed by an abortive close can race the client's read).
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(_) if !bytes.is_empty() => break,
            Err(e) => panic!("read failed before any data: {e}"),
        }
    }
    let response = String::from_utf8_lossy(&bytes).into_owned();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or((response.as_str(), ""));
    let status: u16 = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    (status, head.to_string(), body.to_string())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Polls the ingress counters until `settled` holds and returns that
/// snapshot. A lane books a response after writing it, so a client can see
/// the end of its answer before the counters do.
fn settled_ingress(
    server: &HidetServer,
    settled: impl Fn(&IngressStatsSnapshot) -> bool,
) -> IngressStatsSnapshot {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let ingress = server.ingress_stats();
        if settled(&ingress) {
            return ingress;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the books never balanced: {}",
            ingress.summary()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn json_body(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad json {body:?}: {e}"))
}

/// Reassembles a chunked body into its payload lines.
fn dechunk(body: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut rest = body;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        let payload = &tail[..size];
        lines.extend(payload.lines().map(str::to_string));
        rest = tail[size..].trim_start_matches("\r\n");
    }
    lines
}

#[test]
fn register_infer_and_generate_over_tcp() {
    let (engine, decode) = engines();
    let server = HidetServer::start(
        ServerConfig::default(),
        Arc::clone(&engine),
        Arc::clone(&decode),
    )
    .unwrap();
    let addr = server.public_addr();

    // Register a one-shot MLP and a decode transformer.
    let (status, _, body) = post(
        addr,
        "/v2/models",
        r#"{"name":"head","family":"mlp","input_dim":16,"hidden_dim":8,"output_dim":4}"#,
    );
    assert_eq!(status, 201, "{body}");
    let parsed = json_body(&body);
    let obj = parsed.as_object("register").unwrap();
    assert_eq!(get(obj, "kind").unwrap().as_str("kind").unwrap(), "infer");

    let (status, _, body) = post(
        addr,
        "/v2/models",
        r#"{"name":"chat","family":"transformer-decode","layers":1,"hidden":16,"heads":2,"vocab":16,"max_context":64}"#,
    );
    assert_eq!(status, 201, "{body}");

    // Infer: outputs come back with the right shape and priority.
    let inputs: Vec<String> = (0..16).map(|i| format!("{}.0", i % 3)).collect();
    let (status, _, body) = post(
        addr,
        "/v2/infer",
        &format!(
            r#"{{"model":"head","inputs":[[{}]],"priority":"high"}}"#,
            inputs.join(",")
        ),
    );
    assert_eq!(status, 200, "{body}");
    let parsed = json_body(&body);
    let obj = parsed.as_object("infer").unwrap();
    let outputs = get(obj, "outputs").unwrap().as_array("outputs").unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].as_array("row").unwrap().len(), 4);
    assert_eq!(get(obj, "priority").unwrap().as_str("p").unwrap(), "high");

    // Generate: a chunked ndjson stream, one token per line, then done.
    let (status, head, body) = post(
        addr,
        "/v2/generate",
        r#"{"model":"chat","prompt":[3,1,4],"max_tokens":5}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    let lines = dechunk(&body);
    assert_eq!(lines.len(), 6, "5 tokens + done line: {lines:?}");
    for (i, line) in lines[..5].iter().enumerate() {
        let parsed = json_body(line);
        let obj = parsed.as_object("token").unwrap();
        assert_eq!(get(obj, "index").unwrap().as_i64("i").unwrap(), i as i64);
    }
    let done = json_body(&lines[5]);
    let obj = done.as_object("done").unwrap();
    assert_eq!(get(obj, "tokens").unwrap().as_i64("t").unwrap(), 5);

    // Stats: ingress section reflects the traffic, and the engine snapshot
    // carries it too (the server attached its source).
    let (status, _, body) = roundtrip(addr, "GET /v2/stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    let parsed = json_body(&body);
    let obj = parsed.as_object("stats").unwrap();
    let ingress = get(obj, "ingress").unwrap().as_object("ingress").unwrap();
    assert!(get(ingress, "served").unwrap().as_i64("served").unwrap() >= 4);
    assert_eq!(
        get(ingress, "shed_at_socket")
            .unwrap()
            .as_i64("shed")
            .unwrap(),
        0
    );
    // The decode section carries the multi-device fields: a per-shard row
    // for the single default shard, and zero migrations on this workload.
    let dec = get(obj, "decode").unwrap().as_object("decode").unwrap();
    assert_eq!(
        get(dec, "sessions_migrated").unwrap().as_i64("m").unwrap(),
        0
    );
    let shards = get(dec, "shards").unwrap().as_array("shards").unwrap();
    assert_eq!(shards.len(), 1, "single-device engine: one shard row");
    let shard = shards[0].as_object("shard").unwrap();
    assert_eq!(
        get(shard, "tokens_generated").unwrap().as_i64("t").unwrap(),
        5
    );
    assert_eq!(
        get(shard, "kv_blocks_in_use").unwrap().as_i64("k").unwrap(),
        0
    );
    let snapshot = engine.stats();
    assert!(snapshot.ingress.is_some());
    assert!(snapshot.ingress.unwrap().wire_ttfb_p95_seconds > 0.0);
}

#[test]
fn error_paths_map_to_statuses() {
    let (engine, decode) = engines();
    let server = HidetServer::start(ServerConfig::default(), engine, decode).unwrap();
    let addr = server.public_addr();

    // Unknown route and wrong method.
    let (status, _, _) = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _, _) = roundtrip(addr, "GET /v2/infer HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    // Malformed JSON body.
    let (status, _, _) = post(addr, "/v2/infer", "not json");
    assert_eq!(status, 400);

    // Unknown model.
    let (status, _, body) = post(addr, "/v2/infer", r#"{"model":"ghost","inputs":[[1.0]]}"#);
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = post(
        addr,
        "/v2/generate",
        r#"{"model":"ghost","prompt":[1],"max_tokens":2}"#,
    );
    assert_eq!(status, 404, "{body}");

    // Unknown family and duplicate registration.
    let (status, _, _) = post(addr, "/v2/models", r#"{"name":"x","family":"nope"}"#);
    assert_eq!(status, 400);
    let (status, _, _) = post(
        addr,
        "/v2/models",
        r#"{"name":"m","family":"mlp","input_dim":4}"#,
    );
    assert_eq!(status, 201);
    let (status, _, body) = post(
        addr,
        "/v2/models",
        r#"{"name":"m","family":"mlp","input_dim":4}"#,
    );
    assert_eq!(status, 400, "{body}");

    // Wrong engine for the model.
    let (status, _, body) = post(
        addr,
        "/v2/generate",
        r#"{"model":"m","prompt":[1],"max_tokens":2}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("/v2/infer"), "{body}");

    // A decode request that violates the context window: 400, not a stream.
    let (status, _, _) = post(
        addr,
        "/v2/models",
        r#"{"name":"chat","family":"transformer-decode","max_context":8}"#,
    );
    assert_eq!(status, 201);
    let (status, _, body) = post(
        addr,
        "/v2/generate",
        r#"{"model":"chat","prompt":[1,2],"max_tokens":50}"#,
    );
    assert_eq!(status, 400, "{body}");

    // Body framing the parser cannot trust is refused with the reason, not
    // read as an empty body ...
    for (headers, why) in [
        ("Transfer-Encoding: chunked\r\n", "transfer-encoding"),
        ("Content-Length: +5\r\n", "bad content-length"),
        ("Content-Length: 5\r\nContent-Length: 6\r\n", "conflicting"),
    ] {
        let request = format!("POST /v2/infer HTTP/1.1\r\nHost: t\r\n{headers}\r\nhello");
        let (status, _, body) = roundtrip(addr, &request);
        assert_eq!(status, 400, "{headers}: {body}");
        assert!(body.contains(why), "{headers}: {body}");
    }
    // ... and every refusal above is on the books as served.
    settled_ingress(&server, |i| {
        i.accepted == i.served && i.closed_before_request == 0
    });
}

/// Sums every `*_ns` segment of a `timing` object and pins it against
/// `total_ns` — the telescoping contract of `?debug=timing`.
fn assert_timing_telescopes(timing: &[(String, Json)], expect: &[&str]) {
    let total = get(timing, "total_ns").unwrap().as_i64("total_ns").unwrap();
    let mut sum = 0i64;
    for (key, value) in timing {
        if key == "total_ns" {
            continue;
        }
        assert!(key.ends_with("_ns"), "unexpected timing field {key}");
        sum += value.as_i64(key).unwrap();
    }
    assert_eq!(
        sum, total,
        "segments must telescope to the total: {timing:?}"
    );
    for name in expect {
        assert!(
            timing.iter().any(|(k, _)| k == &format!("{name}_ns")),
            "missing segment {name}: {timing:?}"
        );
    }
}

#[test]
fn metrics_trace_and_timing_endpoints() {
    let (engine, decode) = engines();
    let server = HidetServer::start(
        ServerConfig {
            trace: TraceConfig::Full,
            ..ServerConfig::default()
        },
        Arc::clone(&engine),
        Arc::clone(&decode),
    )
    .unwrap();
    let addr = server.public_addr();

    let (status, _, _) = post(
        addr,
        "/v2/models",
        r#"{"name":"head","family":"mlp","input_dim":8,"hidden_dim":8,"output_dim":2}"#,
    );
    assert_eq!(status, 201);
    let (status, _, _) = post(
        addr,
        "/v2/models",
        r#"{"name":"chat","family":"transformer-decode","layers":1,"hidden":16,"heads":2,"vocab":16,"max_context":64}"#,
    );
    assert_eq!(status, 201);

    // Infer with ?debug=timing: the breakdown telescopes to the total.
    let inputs = ["1.0"; 8].join(",");
    let (status, _, body) = post(
        addr,
        "/v2/infer?debug=timing",
        &format!(r#"{{"model":"head","inputs":[[{inputs}]]}}"#),
    );
    assert_eq!(status, 200, "{body}");
    let parsed = json_body(&body);
    let obj = parsed.as_object("infer").unwrap();
    let timing = get(obj, "timing").unwrap().as_object("timing").unwrap();
    assert_timing_telescopes(timing, &["queue", "parse", "handle"]);

    // Without the flag, no timing object rides the response.
    let (status, _, body) = post(
        addr,
        "/v2/infer",
        &format!(r#"{{"model":"head","inputs":[[{inputs}]]}}"#),
    );
    assert_eq!(status, 200, "{body}");
    let parsed = json_body(&body);
    let obj = parsed.as_object("infer").unwrap();
    assert!(get(obj, "timing").is_err(), "{body}");

    // Generate with ?debug=timing: the done line carries the full
    // queue/placement/prefill/decode/serialize decomposition.
    let (status, _, body) = post(
        addr,
        "/v2/generate?debug=timing",
        r#"{"model":"chat","prompt":[3,1,4],"max_tokens":4}"#,
    );
    assert_eq!(status, 200, "{body}");
    let lines = dechunk(&body);
    let done = json_body(lines.last().unwrap());
    let obj = done.as_object("done").unwrap();
    let timing = get(obj, "timing").unwrap().as_object("timing").unwrap();
    assert_timing_telescopes(
        timing,
        &[
            "queue",
            "parse",
            "placement",
            "prefill",
            "decode",
            "serialize",
        ],
    );

    // /v2/metrics: well-formed Prometheus text exposition covering the
    // ingress, engine, decode and trace families.
    let (status, head, body) = roundtrip(addr, "GET /v2/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("text/plain"), "{head}");
    hidet_trace::validate_exposition(&body).unwrap_or_else(|e| panic!("{e}\n---\n{body}"));
    for family in
        catalogue::families().chain(["hidet_span_seconds", "hidet_trace_events_dropped_total"])
    {
        assert!(
            body.contains(&format!("# TYPE {family} ")),
            "missing {family} in:\n{body}"
        );
    }

    // /v2/trace: Chrome trace_event JSON that Perfetto loads. The global
    // tracer is process-wide and other tests may flip its mode, so re-arm
    // and retry a few times before declaring the export empty.
    let mut events_seen = 0usize;
    for _ in 0..3 {
        hidet_trace::global().set_config(TraceConfig::Full);
        let (status, _, _) = post(
            addr,
            "/v2/generate",
            r#"{"model":"chat","prompt":[2],"max_tokens":2}"#,
        );
        assert_eq!(status, 200);
        let (status, _, body) = roundtrip(addr, "GET /v2/trace HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        let parsed = json_body(&body);
        let obj = parsed.as_object("trace").unwrap();
        assert_eq!(
            get(obj, "displayTimeUnit").unwrap().as_str("u").unwrap(),
            "ns"
        );
        let events = get(obj, "traceEvents").unwrap().as_array("events").unwrap();
        events_seen = events.len();
        if events_seen > 0 {
            // Every event carries the Chrome schema's required fields.
            for event in events {
                let e = event.as_object("event").unwrap();
                get(e, "name").unwrap().as_str("name").unwrap();
                get(e, "ph").unwrap().as_str("ph").unwrap();
                get(e, "ts").unwrap().as_f64("ts").unwrap();
                get(e, "pid").unwrap().as_i64("pid").unwrap();
                get(e, "tid").unwrap().as_i64("tid").unwrap();
            }
            break;
        }
    }
    assert!(events_seen > 0, "trace export stayed empty after retries");
}

/// A fake admission signal the test flips between idle and overloaded.
struct FixedDelay(std::sync::atomic::AtomicU64);

impl AdmissionSignal for FixedDelay {
    fn estimated_queue_delay_seconds(&self) -> f64 {
        f64::from_bits(self.0.load(std::sync::atomic::Ordering::Relaxed))
    }
}

#[test]
fn overload_sheds_at_the_socket_with_retry_after_but_spares_priority() {
    let (engine, decode) = engines();
    let signal = Arc::new(FixedDelay(std::sync::atomic::AtomicU64::new(
        0f64.to_bits(),
    )));
    let server = HidetServer::start_with_signal(
        ServerConfig {
            shed_delay_bound: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        },
        Arc::clone(&engine),
        decode,
        Arc::clone(&signal) as Arc<dyn AdmissionSignal>,
    )
    .unwrap();

    // Idle: both listeners admit.
    let (status, _, _) = post(
        server.public_addr(),
        "/v2/models",
        r#"{"name":"m","family":"mlp","input_dim":4}"#,
    );
    assert_eq!(status, 201);

    // Overloaded past best-effort slack (1×bound) but inside high slack
    // (4×bound): the public listener sheds before parsing, the priority
    // listener still serves.
    signal
        .0
        .store(0.020f64.to_bits(), std::sync::atomic::Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(20)); // sampler refresh

    let (status, head, body) = post(
        server.public_addr(),
        "/v2/infer",
        r#"{"model":"m","inputs":[[1.0,1.0,1.0,1.0]]}"#,
    );
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(body.contains("overloaded"), "{body}");

    let (status, _, body) = post(
        server.priority_addr(),
        "/v2/infer",
        r#"{"model":"m","inputs":[[1.0,1.0,1.0,1.0]],"priority":"high"}"#,
    );
    assert_eq!(status, 200, "{body}");

    let stats = server.ingress_stats();
    assert!(stats.shed_at_socket >= 1, "{}", stats.summary());

    // Past even the high slack: the priority listener sheds too.
    signal
        .0
        .store(1.0f64.to_bits(), std::sync::atomic::Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(20));
    let (status, _, _) = post(
        server.priority_addr(),
        "/v2/infer",
        r#"{"model":"m","inputs":[[1.0,1.0,1.0,1.0]]}"#,
    );
    assert_eq!(status, 429);
}

#[test]
fn dropped_generate_connection_frees_kv_blocks() {
    let (engine, _) = engines();
    // Paused decode engine: the session queues, the client vanishes, and
    // only then does the engine run — the first token send fails, the
    // server drops the session, and its KV blocks come back.
    let decode = Arc::new(DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 64,
        block_tokens: 4,
        start_paused: true,
        ..DecodeConfig::default()
    }));
    let server = HidetServer::start(ServerConfig::default(), engine, Arc::clone(&decode)).unwrap();
    let addr = server.public_addr();

    let (status, _, _) = post(
        addr,
        "/v2/models",
        r#"{"name":"chat","family":"transformer-decode","max_context":64}"#,
    );
    assert_eq!(status, 201);

    // Open a generate request and slam the connection shut immediately.
    let body = r#"{"model":"chat","prompt":[3],"max_tokens":40}"#;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /v2/generate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Give the lane time to park the session on the paused engine, then
    // drop the socket before any token exists.
    std::thread::sleep(Duration::from_millis(100));
    drop(stream);
    std::thread::sleep(Duration::from_millis(50));
    decode.resume();

    // The server notices the dead socket (either at the pending probe or at
    // the first failed write) and drops the session; KV drains to zero well
    // before 40 tokens' worth of steps.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let stats = decode.stats();
        if stats.steps > 0 && stats.kv_blocks_in_use == 0 {
            assert!(
                stats.tokens_generated < 40,
                "generation should stop early, got {}",
                stats.tokens_generated
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "kv blocks never freed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let ingress = server.ingress_stats();
    assert!(ingress.streams_cancelled >= 1, "{}", ingress.summary());
}

fn get_path(addr: SocketAddr, path: &str) -> String {
    let (status, _, body) = roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"));
    assert_eq!(status, 200, "{body}");
    body
}

/// `series name (labels included, as rendered) -> value` of an exposition.
fn prometheus_samples(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            (series.to_string(), value.parse().expect("sample value"))
        })
        .collect()
}

/// Checks one catalogue table against one `/v2/stats` object, the
/// `/v2/metrics` series carrying `labels`, and the in-process snapshot
/// struct. `moved_by_a_scrape` names the rows a scrape itself advances:
/// those must be served by both endpoints and never run backwards.
fn assert_rows_agree<S>(
    table: &[Metric<S>],
    snapshot: &S,
    json: &[(String, Json)],
    metrics: &HashMap<String, f64>,
    labels: &str,
    moved_by_a_scrape: &[&str],
) {
    for m in table {
        let on_stats = get(json, m.key)
            .unwrap_or_else(|e| panic!("/v2/stats lacks {}: {e}", m.key))
            .as_f64(m.key)
            .unwrap();
        let series = format!("{}{labels}", m.family);
        let on_metrics = *metrics
            .get(&series)
            .unwrap_or_else(|| panic!("/v2/metrics lacks {series}"));
        if moved_by_a_scrape.contains(&m.key) {
            if m.kind == hidet_trace::MetricType::Counter {
                assert!(on_stats <= on_metrics, "{series} ran backwards");
                assert!(on_metrics <= m.value(snapshot), "{series} ran backwards");
            }
            continue;
        }
        assert_eq!(on_stats, on_metrics * m.json_scale, "{} vs {series}", m.key);
        assert_eq!(on_metrics, m.value(snapshot), "{series} vs Engine::stats()");
    }
}

#[test]
fn stats_and_metrics_agree_row_by_row_with_the_engine_snapshot() {
    let (engine, decode) = engines();
    let server = HidetServer::start(
        ServerConfig::default(),
        Arc::clone(&engine),
        Arc::clone(&decode),
    )
    .unwrap();
    let addr = server.public_addr();
    let (status, _, _) = post(
        addr,
        "/v2/models",
        r#"{"name":"head","family":"mlp","input_dim":8,"hidden_dim":8,"output_dim":2}"#,
    );
    assert_eq!(status, 201);
    let (status, _, _) = post(
        addr,
        "/v2/models",
        r#"{"name":"chat","family":"transformer-decode","layers":1,"hidden":16,"heads":2,"vocab":16,"max_context":64}"#,
    );
    assert_eq!(status, 201);
    let inputs = ["1.0"; 8].join(",");
    let (status, _, body) = post(
        addr,
        "/v2/infer",
        &format!(r#"{{"model":"head","inputs":[[{inputs}]],"priority":"high"}}"#),
    );
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = post(
        addr,
        "/v2/generate",
        r#"{"model":"chat","prompt":[3,1,4,1,5],"max_tokens":4}"#,
    );
    assert_eq!(status, 200, "{body}");
    // Quiescence: the finished stream is fully booked before the scrapes.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while decode.stats().sequences_completed < 1 || decode.stats().kv_blocks_in_use > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "decode never quiesced"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let stats_body = get_path(addr, "/v2/stats");
    let metrics_body = get_path(addr, "/v2/metrics");
    let snapshot = engine.stats();
    hidet_trace::validate_exposition(&metrics_body)
        .unwrap_or_else(|e| panic!("{e}\n---\n{metrics_body}"));
    let metrics = prometheus_samples(&metrics_body);
    let doc = json_body(&stats_body);
    let root = doc.as_object("stats").unwrap();

    assert!(snapshot.requests >= 1 && snapshot.p95_latency_seconds > 0.0);
    assert_rows_agree(catalogue::ENGINE, &snapshot, root, &metrics, "", &[]);
    let classes = get(root, "priorities").unwrap().as_array("p").unwrap();
    assert_eq!(classes.len(), snapshot.priorities.len());
    for (class, json) in snapshot.priorities.iter().zip(classes) {
        let json = json.as_object("class").unwrap();
        let label = class.priority.label();
        assert_eq!(get(json, "priority").unwrap().as_str("p").unwrap(), label);
        let labels = format!("{{priority=\"{label}\"}}");
        assert_rows_agree(catalogue::ENGINE_CLASS, class, json, &metrics, &labels, &[]);
    }
    let shards = get(root, "shards").unwrap().as_array("shards").unwrap();
    assert_eq!(shards.len(), snapshot.shards.len());
    for (shard, json) in snapshot.shards.iter().zip(shards) {
        let json = json.as_object("shard").unwrap();
        assert_eq!(
            get(json, "device").unwrap().as_str("d").unwrap(),
            shard.device
        );
        let labels = format!("{{shard=\"{}\"}}", shard.id);
        assert_rows_agree(catalogue::ENGINE_SHARD, shard, json, &metrics, &labels, &[]);
    }

    let decode_snapshot = snapshot.decode.as_ref().expect("decode attached");
    assert_eq!(decode_snapshot.tokens_generated, 4);
    assert!(decode_snapshot.itl_p95_seconds > 0.0);
    let decode_json = get(root, "decode").unwrap().as_object("decode").unwrap();
    assert_rows_agree(
        catalogue::DECODE,
        decode_snapshot,
        decode_json,
        &metrics,
        "",
        &[],
    );
    let shards = get(decode_json, "shards").unwrap().as_array("s").unwrap();
    assert_eq!(shards.len(), decode_snapshot.shards.len());
    for (i, (shard, json)) in decode_snapshot.shards.iter().zip(shards).enumerate() {
        let json = json.as_object("shard").unwrap();
        assert_eq!(
            get(json, "device").unwrap().as_str("d").unwrap(),
            shard.device
        );
        let labels = format!("{{shard=\"{i}\"}}");
        assert_rows_agree(catalogue::DECODE_SHARD, shard, json, &metrics, &labels, &[]);
    }

    // Each scrape is itself a connection: it is accepted, served and timed
    // after the body it returns was rendered.
    let ingress_snapshot = snapshot.ingress.as_ref().expect("ingress attached");
    let ingress_json = get(root, "ingress").unwrap().as_object("ingress").unwrap();
    assert_rows_agree(
        catalogue::INGRESS,
        ingress_snapshot,
        ingress_json,
        &metrics,
        "",
        &[
            "accepted",
            "served",
            "ring_depth",
            "enqueue_cas_retries",
            "wire_ttfb_p50_us",
            "wire_ttfb_p95_us",
        ],
    );
}

#[test]
fn every_accepted_connection_stays_on_the_books() {
    let (engine, decode) = engines();
    let server = HidetServer::start(ServerConfig::default(), engine, decode).unwrap();
    let addr = server.public_addr();
    let mut answered = 0usize;
    for body in [
        r#"{"name":"m","family":"mlp","input_dim":4}"#,
        r#"{"name":"chat","family":"transformer-decode","max_context":64}"#,
    ] {
        let (status, _, _) = post(addr, "/v2/models", body);
        assert_eq!(status, 201);
        answered += 1;
    }
    // N well-formed requests ...
    for _ in 0..5 {
        let (status, _, body) = post(
            addr,
            "/v2/infer",
            r#"{"model":"m","inputs":[[1.0,1.0,1.0,1.0]]}"#,
        );
        assert_eq!(status, 200, "{body}");
        answered += 1;
    }
    // ... M clients that connect, send nothing and close ...
    let silent = 3usize;
    for _ in 0..silent {
        drop(TcpStream::connect(addr).unwrap());
    }
    // ... and one that dies mid-stream: it reads the first token, then
    // vanishes with most of the generation still to come.
    let body = r#"{"model":"chat","prompt":[3],"max_tokens":48}"#;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /v2/generate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut seen = Vec::new();
    let mut chunk = [0u8; 256];
    while !String::from_utf8_lossy(&seen).contains("\"token\"") {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "stream ended before the first token");
        seen.extend_from_slice(&chunk[..n]);
    }
    drop(stream);

    // The generate path books the dead stream twice over: as `served` (the
    // lane did answer it) and as `streams_cancelled` (the answer was cut
    // short). With the silent clients counted, nothing accepted is missing.
    let ingress = settled_ingress(&server, |i| {
        i.streams_cancelled == 1
            && i.closed_before_request == silent
            && i.served == answered + 1
            && i.accepted == i.served + i.closed_before_request
    });
    assert_eq!(ingress.shed_at_socket + ingress.shed_ring_full, 0);
}
