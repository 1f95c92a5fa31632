//! Network-ingress benchmark: wire-to-first-byte latency under open-loop
//! load, and shed correctness at 2× overload.
//!
//! Acceptance criteria of the `hidet-server` front-end:
//!
//! 1. **end-to-end over a real TCP socket**: register → infer → streamed
//!    generate all through `hidet-server`'s listeners;
//! 2. at **2× overload**, best-effort requests are shed with `429` +
//!    `Retry-After` *at the socket* (the acceptor answers from the cached
//!    admission signal without parsing a byte), while every high-priority
//!    request is served and its wire TTFB p95 stays within the unloaded
//!    bound;
//! 3. the enqueue hot path takes **zero mutex acquisitions** — structural
//!    (`crates/server/tests/ring.rs` bans blocking primitives from the ring
//!    source); this bench reports the CAS-retry contention gauge instead;
//! 4. `GET /v2/metrics` serves a **well-formed Prometheus exposition** over
//!    the same socket path, and the default metrics-only tracing mode costs
//!    ≈0% of the wire path (`trace_overhead_pct`, gated < 5% for noise).
//!
//! Emits the `serving_ingress` section of `BENCH_serving.json`:
//! `ingress_rps` (higher-is-better) and `wire_ttfb_p95_us`
//! (lower-is-better) ride the trajectory gate's existing suffix classes;
//! overload-phase numbers are informational (host wall-clock under
//! deliberate saturation is not a trajectory).
//!
//! ```text
//! cargo run --release -p hidet-bench --bin serving_ingress -- --requests 40
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hidet_bench::report::{upsert_section, BenchSection};
use hidet_bench::{arg_str, arg_usize, print_table};
use hidet_decode::{DecodeConfig, DecodeEngine};
use hidet_runtime::stats::percentile;
use hidet_runtime::{Engine, EngineConfig};
use hidet_sched::json::{get, Json};
use hidet_server::{HidetServer, ServerConfig};

/// One HTTP request; returns (status, wire TTFB, full body).
fn timed_request(addr: SocketAddr, request: &str) -> (u16, Duration, String) {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("write");
    // First byte = wire TTFB, the metric the server also tracks.
    let mut first = [0u8; 1];
    stream.read_exact(&mut first).expect("first byte");
    let ttfb = start.elapsed();
    // Read to EOF, tolerating a reset once data has arrived (shed
    // responses close abortively by design).
    let mut bytes = vec![first[0]];
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
        }
    }
    let response = String::from_utf8_lossy(&bytes).into_owned();
    let status: u16 = response
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, ttfb, body)
}

fn post_request(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn infer_body(priority: &str) -> String {
    let inputs: Vec<String> = (0..64).map(|i| format!("{}.5", i % 7)).collect();
    format!(
        r#"{{"model":"head","inputs":[[{}]],"priority":"{priority}"}}"#,
        inputs.join(",")
    )
}

fn main() {
    let unloaded_n = arg_usize("--requests", 40);
    let overload_per_class = arg_usize("--overload", 40);
    let bench_json = PathBuf::from(arg_str("--bench-json", "BENCH_serving.json"));

    println!("=== hidet-server: ingress latency & shed correctness ===\n");

    // One worker lane on one shard quantizes the engine's estimated queue
    // delay: it is 0 when idle and >= one batch's full simulated latency
    // while anything is in flight. With the shed bound at a third of that
    // latency, a busy engine sheds best-effort (slack 1x) deterministically
    // while high (slack 4x) always clears the 4/3-latency threshold.
    let engine = Arc::new(
        Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::quick()
        })
        .expect("engine starts"),
    );
    let decode = Arc::new(DecodeEngine::new(DecodeConfig {
        max_batch: 2,
        kv_blocks: 64,
        block_tokens: 4,
        ..DecodeConfig::default()
    }));

    // Phase 0 — a first server without shedding: register models, compile,
    // and learn the model's simulated latency for the shed bound.
    let warm = HidetServer::start(
        ServerConfig::default(),
        Arc::clone(&engine),
        Arc::clone(&decode),
    )
    .expect("server starts");
    let (status, _, body) = timed_request(
        warm.public_addr(),
        &post_request(
            "/v2/models",
            r#"{"name":"head","family":"mlp","input_dim":64,"hidden_dim":128,"output_dim":16}"#,
        ),
    );
    assert_eq!(status, 201, "register infer model: {body}");
    let (status, _, body) = timed_request(
        warm.public_addr(),
        &post_request(
            "/v2/models",
            r#"{"name":"chat","family":"transformer-decode","max_context":32}"#,
        ),
    );
    assert_eq!(status, 201, "register decode model: {body}");

    let (status, _, body) = timed_request(
        warm.public_addr(),
        &post_request("/v2/infer", &infer_body("normal")),
    );
    assert_eq!(status, 200, "warmup infer: {body}");
    let parsed = Json::parse(&body).expect("infer response is json");
    let obj = parsed.as_object("infer").expect("object");
    let latency_us = get(obj, "latency_us")
        .expect("latency_us")
        .as_f64("latency_us")
        .expect("number");
    let simulated_latency = Duration::from_secs_f64(latency_us / 1e6);

    // End-to-end streamed generate over the same socket path.
    let (status, _, body) = timed_request(
        warm.public_addr(),
        &post_request(
            "/v2/generate",
            r#"{"model":"chat","prompt":[3],"max_tokens":4}"#,
        ),
    );
    assert_eq!(status, 200, "streamed generate: {body}");
    assert!(body.contains("\"done\":true"), "stream terminates: {body}");

    // The live metrics endpoint, scraped over the same real socket: the
    // exposition must be well-formed and cover every catalogue family (the
    // CI workflow gates on this bench, so a malformed line fails the e2e job
    // here).
    let (status, _, metrics) = timed_request(
        warm.public_addr(),
        "GET /v2/metrics HTTP/1.1\r\nHost: bench\r\n\r\n",
    );
    assert_eq!(status, 200, "metrics scrape: {metrics}");
    hidet_trace::validate_exposition(&metrics)
        .unwrap_or_else(|e| panic!("malformed /v2/metrics exposition: {e}\n{metrics}"));
    for family in hidet_runtime::stats::catalogue::families().chain(["hidet_span_seconds"]) {
        assert!(
            metrics.contains(&format!("# TYPE {family} ")),
            "missing family {family}"
        );
    }
    println!("scraped /v2/metrics: well-formed exposition, all families present");
    drop(warm);
    let register_head = post_request(
        "/v2/models",
        r#"{"name":"head","family":"mlp","input_dim":64,"hidden_dim":128,"output_dim":16}"#,
    );

    // Phase 1 — unloaded, closed-loop: client-measured wire TTFB.
    let shed_bound = simulated_latency
        .mul_f64(1.0 / 3.0)
        .max(Duration::from_nanos(1));
    let server = HidetServer::start_with_signal(
        ServerConfig {
            shed_delay_bound: Some(shed_bound),
            signal_interval: Duration::from_micros(200),
            ring_capacity: 256,
            lanes: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&engine),
        Arc::clone(&decode),
        Arc::clone(&engine) as Arc<dyn hidet_runtime::AdmissionSignal>,
    )
    .expect("gated server starts");

    // Model directories are per-server: re-register on the gated server.
    // Same structure, so the engine's compiled cache makes this free. The
    // priority listener's 4x slack keeps setup requests clear of the gate.
    let (status, _, body) = timed_request(server.priority_addr(), &register_head);
    assert_eq!(status, 201, "re-register on gated server: {body}");

    let infer_normal = post_request("/v2/infer", &infer_body("normal"));
    let unloaded_start = Instant::now();
    let mut unloaded: Vec<f64> = (0..unloaded_n)
        .map(|_| {
            let (status, ttfb, body) = timed_request(server.priority_addr(), &infer_normal);
            assert_eq!(status, 200, "unloaded infer: {body}");
            ttfb.as_secs_f64()
        })
        .collect();
    let unloaded_wall = unloaded_start.elapsed();
    unloaded.sort_by(f64::total_cmp);
    let unloaded_p50 = percentile(&unloaded, 0.50);
    let unloaded_p95 = percentile(&unloaded, 0.95);
    let ingress_rps = unloaded_n as f64 / unloaded_wall.as_secs_f64();

    // Phase 1b — metrics-only trace overhead: two adjacent closed loops over
    // the same socket path, tracing fully off vs the default metrics-only
    // mode. Metrics-only still emits every span event into the per-thread
    // rings, so this measures the full emit cost minus span retention —
    // the mode every production server runs in, expected ≈0%. The bound is
    // 5% because single-digit-ms wire loops carry host scheduling noise.
    let timed_loop = |n: usize| {
        let start = Instant::now();
        for _ in 0..n {
            let (status, _, body) = timed_request(server.priority_addr(), &infer_normal);
            assert_eq!(status, 200, "overhead-phase infer: {body}");
        }
        start.elapsed().as_secs_f64()
    };
    hidet_trace::global().set_config(hidet_trace::TraceConfig::Off);
    let untraced_s = timed_loop(unloaded_n);
    hidet_trace::global().set_config(hidet_trace::TraceConfig::MetricsOnly);
    let metrics_only_s = timed_loop(unloaded_n);
    let trace_overhead_pct = ((metrics_only_s - untraced_s) / untraced_s * 100.0).max(0.0);
    println!(
        "trace overhead (metrics-only vs off, {unloaded_n} requests): \
         {:.1} ms vs {:.1} ms ({trace_overhead_pct:.2}%)",
        metrics_only_s * 1e3,
        untraced_s * 1e3,
    );
    assert!(
        trace_overhead_pct < 5.0,
        "metrics-only tracing must cost ~0% of the ingress path, got {trace_overhead_pct:.2}%"
    );

    // Phase 2 — 2x overload, open-loop: each class offered at the closed-
    // loop service rate, so together the offered load is 2x what the single
    // lane sustains. Fire-and-collect: every request runs on its own thread
    // on schedule, arrival times independent of completions.
    let interval = unloaded_wall / unloaded_n as u32;
    let fire =
        |addr: SocketAddr, request: Arc<String>, n: usize| -> thread::JoinHandle<Vec<(u16, f64)>> {
            thread::spawn(move || {
                let workers: Vec<_> = (0..n)
                    .map(|_| {
                        let request = Arc::clone(&request);
                        let handle = thread::spawn(move || {
                            let (status, ttfb, _) = timed_request(addr, &request);
                            (status, ttfb.as_secs_f64())
                        });
                        thread::sleep(interval);
                        handle
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("client"))
                    .collect()
            })
        };
    let high = fire(
        server.priority_addr(),
        Arc::new(post_request("/v2/infer", &infer_body("high"))),
        overload_per_class,
    );
    let best_effort = fire(
        server.public_addr(),
        Arc::new(post_request("/v2/infer", &infer_body("best-effort"))),
        overload_per_class,
    );
    let high: Vec<(u16, f64)> = high.join().expect("high generator");
    let best_effort: Vec<(u16, f64)> = best_effort.join().expect("best-effort generator");

    let be_shed = best_effort.iter().filter(|(s, _)| *s == 429).count();
    let be_served = best_effort.iter().filter(|(s, _)| *s == 200).count();
    let high_shed = high.iter().filter(|(s, _)| *s == 429).count();
    let high_served = high.iter().filter(|(s, _)| *s == 200).count();
    let mut high_ttfb: Vec<f64> = high
        .iter()
        .filter(|(s, _)| *s == 200)
        .map(|(_, t)| *t)
        .collect();
    high_ttfb.sort_by(f64::total_cmp);
    let high_p95 = percentile(&high_ttfb, 0.95);

    let ingress = server.ingress_stats();
    print_table(
        &["phase", "class", "served", "shed 429", "ttfb p95 (us)"],
        &[
            vec![
                "unloaded".into(),
                "normal".into(),
                format!("{unloaded_n}"),
                "0".into(),
                format!("{:.0}", unloaded_p95 * 1e6),
            ],
            vec![
                "2x overload".into(),
                "high".into(),
                format!("{high_served}"),
                format!("{high_shed}"),
                format!("{:.0}", high_p95 * 1e6),
            ],
            vec![
                "2x overload".into(),
                "best-effort".into(),
                format!("{be_served}"),
                format!("{be_shed}"),
                "-".into(),
            ],
        ],
    );
    println!("\ningress: {}", ingress.summary());
    println!(
        "model simulated latency {:.1} us, shed bound {:.1} us (1x best-effort / 4x high slack)",
        simulated_latency.as_secs_f64() * 1e6,
        shed_bound.as_secs_f64() * 1e6,
    );

    // --- 2. shed correctness at 2x overload --------------------------------
    assert!(
        be_shed > 0,
        "2x overload must shed best-effort traffic at the socket \
         ({be_served} served, {be_shed} shed)"
    );
    assert_eq!(
        high_shed, 0,
        "high-priority traffic must never shed while best-effort is being shed"
    );
    assert_eq!(
        high_served, overload_per_class,
        "every high-priority request is served under 2x overload"
    );
    assert!(
        ingress.shed_at_socket >= be_shed,
        "sheds happen at the acceptor, before parsing: {}",
        ingress.summary()
    );
    // Generous wall-clock bound: queueing behind the admitted backlog is
    // allowed, collapse is not.
    let high_bound = (unloaded_p95 * 5.0).max(unloaded_p95 + 0.050);
    assert!(
        high_p95 <= high_bound,
        "overloaded high-priority wire TTFB p95 {:.1} us blew past the unloaded bound {:.1} us",
        high_p95 * 1e6,
        high_bound * 1e6,
    );

    // --- perf-trajectory artifact -----------------------------------------
    let section = BenchSection::new("serving_ingress")
        .field_usize("requests", unloaded_n)
        .field_f64("ingress_rps", ingress_rps)
        .field_f64("wire_ttfb_p95_us", unloaded_p95 * 1e6)
        .field_f64("wire_ttfb_p50_us", unloaded_p50 * 1e6)
        .field_usize("overload_best_effort_shed", be_shed)
        .field_usize("overload_high_served", high_served)
        .field_f64("overload_high_ttfb_us", high_p95 * 1e6)
        .field_f64("trace_overhead_pct", trace_overhead_pct)
        .field_usize("enqueue_cas_retries", ingress.enqueue_cas_retries)
        .with_trace_metrics();
    upsert_section(&bench_json, &section).expect("write bench json");
    println!(
        "\nwrote section \"serving_ingress\" to {}",
        bench_json.display()
    );
    println!("all ingress acceptance checks passed");
}
