//! `wire_mixed` — the full stack over real loopback TCP.
//!
//! `HidetServer` (default config) in front of a one-shot `Engine` (one
//! worker) and a `DecodeEngine` (two slots). Two client threads, one
//! connection per request (the server has no keep-alive): a closed loop
//! issuing a seeded shuffle of `/v2/infer` (half on the priority listener),
//! streamed `/v2/generate` and requests that must be refused with a typed
//! 4xx, and beside it a monitoring agent scraping `/v2/stats` and
//! `/v2/metrics` on a fixed cadence (see `gen::WIRE_CLIENTS` for why only one
//! heavy request is in flight at a time). The only workload that crosses
//! `server`
//! (accept → ring → lane → parse → route → serialize) and the stats/metrics
//! renderers; its scrapes read while its requests write.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hidet_decode::{DecodeConfig, DecodeEngine, DecodeModelSpec};
use hidet_runtime::{Engine, EngineConfig, ModelHandle, ModelSpec, Request, StatsSnapshot};
use hidet_sched::json::{get, Json};
use hidet_server::{HidetServer, ServerConfig};

use crate::gen::{self, Refusal, SessionSpec, WireOp};
use crate::harness::{self, probe, probe_batched, Ctx, EndToEnd, Segments, TracedWalls};
use crate::models::{self, close, reference_outputs};
use crate::oracle;
use crate::outcome::{Checks, Outcome};
use crate::spans::SpanCollector;
use crate::stats::{self, Summary};
use crate::workloads::decode_mixed::set_decode_counts;
use crate::workloads::oneshot_batched::set_runtime_counts;

const REGISTER_HEAD: &str =
    r#"{"name":"head","family":"mlp","input_dim":64,"hidden_dim":128,"output_dim":16}"#;
const REGISTER_CHAT: &str = r#"{"name":"chat","family":"transformer-decode","layers":1,"hidden":16,"heads":2,"vocab":32,"max_context":32}"#;

/// The decode engine behind `/v2/generate` — also the configuration the
/// in-process oracle replays the prompts on.
fn decode_config() -> DecodeConfig {
    DecodeConfig {
        max_batch: 2,
        kv_blocks: 64,
        block_tokens: 4,
        ..DecodeConfig::default()
    }
}

/// One request/response exchange as the client saw it.
struct Exchange {
    status: u16,
    body: String,
    /// Connect to last byte, seconds.
    total_s: f64,
    /// Connect to the first `{"token"` chunk, seconds (generate only).
    first_token_s: Option<f64>,
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Sends `request` on a fresh connection and reads the response to EOF,
/// chunk by chunk. `half_close` shuts the write side after sending — how a
/// client that lied about `Content-Length` gets an answer instead of a
/// read timeout.
fn exchange(addr: SocketAddr, request: &[u8], half_close: bool) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(request)?;
    if half_close {
        stream.shutdown(Shutdown::Write)?;
    }
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut first_token_s = None;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                bytes.extend_from_slice(&chunk[..n]);
                if first_token_s.is_none() && bytes.windows(8).any(|w| w == b"{\"token\"") {
                    first_token_s = Some(start.elapsed().as_secs_f64());
                }
            }
            // A reset after the response arrived is still a response.
            Err(_) if !bytes.is_empty() => break,
            Err(e) => return Err(e),
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&bytes);
    let status = text
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    Ok(Exchange {
        status,
        body,
        total_s,
        first_token_s,
    })
}

fn infer_body(model: &str, input: &[f32], high: bool) -> String {
    let row: Vec<String> = input.iter().map(|v| format!("{v}")).collect();
    format!(
        r#"{{"model":"{model}","inputs":[[{}]],"priority":"{}"}}"#,
        row.join(","),
        if high { "high" } else { "normal" }
    )
}

fn generate_body(prompt: &[u32]) -> String {
    let tokens: Vec<String> = prompt.iter().map(u32::to_string).collect();
    format!(
        r#"{{"model":"chat","prompt":[{}],"max_tokens":{}}}"#,
        tokens.join(","),
        gen::WIRE_NEW_TOKENS
    )
}

/// The running stack. Field order is drop order: the server stops first.
struct Env {
    server: HidetServer,
    engine: Arc<Engine>,
    /// `head` registered in-process on the same engine under another name
    /// (the compiled cache is keyed structurally, so it shares the wire
    /// model's compile): `server.overhead_ms_p50`'s in-process baseline.
    twin: ModelHandle,
}

fn setup() -> Env {
    let engine = Arc::new(
        Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .expect("engine starts"),
    );
    let decode = Arc::new(DecodeEngine::new(decode_config()));
    let server = HidetServer::start(ServerConfig::default(), Arc::clone(&engine), decode)
        .expect("server starts");
    let addr = server.priority_addr();
    for body in [REGISTER_HEAD, REGISTER_CHAT] {
        let reply =
            exchange(addr, &post("/v2/models", body), false).expect("register over the wire");
        assert_eq!(reply.status, 201, "register: {}", reply.body);
    }
    let twin = engine
        .register(ModelSpec::new("head_inproc", models::head))
        .expect("twin registers");
    // One request per route so lazy compiles (`head` at batch 1, the decode
    // step graph) and first-use allocations are out of the timed body.
    let warm = exchange(
        addr,
        &post("/v2/infer", &infer_body("head", &[0.5; 64], false)),
        false,
    )
    .expect("warm-up infer");
    assert_eq!(warm.status, 200, "warm-up infer: {}", warm.body);
    let warm = exchange(
        addr,
        &post("/v2/generate", &generate_body(&[1, 2, 3])),
        false,
    )
    .expect("warm-up generate");
    assert_eq!(warm.status, 200, "warm-up generate: {}", warm.body);
    Env {
        server,
        engine,
        twin,
    }
}

/// One client's observations: per op, in issue order, what came back.
type ClientLog = Vec<Result<Exchange, String>>;

fn run_client(env: &Env, ops: &[WireOp]) -> ClientLog {
    let (priority, public) = (env.server.priority_addr(), env.server.public_addr());
    ops.iter()
        .map(|op| {
            if matches!(op, WireOp::ScrapeStats | WireOp::ScrapeMetrics) {
                thread::sleep(Duration::from_millis(gen::WIRE_SCRAPE_EVERY_MS));
            }
            let reply = match op {
                WireOp::Infer { input, high } => exchange(
                    if *high { priority } else { public },
                    &post("/v2/infer", &infer_body("head", input, *high)),
                    false,
                ),
                WireOp::Generate { prompt } => {
                    exchange(public, &post("/v2/generate", &generate_body(prompt)), false)
                }
                WireOp::ScrapeStats => exchange(public, &get_request("/v2/stats"), false),
                WireOp::ScrapeMetrics => exchange(public, &get_request("/v2/metrics"), false),
                WireOp::Refused(Refusal::UnknownModel) => exchange(
                    public,
                    &post("/v2/infer", &infer_body("no_such_model", &[0.0; 64], false)),
                    false,
                ),
                WireOp::Refused(Refusal::MalformedJson) => {
                    exchange(public, &post("/v2/infer", r#"{"model":"head","inputs":[[1.0,"#), false)
                }
                WireOp::Refused(Refusal::LyingContentLength) => {
                    let body = infer_body("head", &[0.0; 64], false);
                    let request = format!(
                        "POST /v2/infer HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len() + 64
                    );
                    exchange(public, request.as_bytes(), true)
                }
            };
            reply.map_err(|e| e.to_string())
        })
        .collect()
}

/// One body's observations.
struct Rep {
    wall_s: f64,
    logs: Vec<ClientLog>,
    stats: StatsSnapshot,
}

impl Rep {
    /// Every answered exchange of the closed loop (client 0) as one piece of
    /// the body, classed by operation kind: the loop's wall is the sum of
    /// its exchanges. The agent's scrapes are paced by its sleeps, not by the
    /// server, and are not part of the wall.
    fn record_pieces(&self, plans: &[Vec<WireOp>], pieces: &mut Segments) {
        for (reply, op) in self.logs[0].iter().zip(&plans[0]) {
            if let Ok(reply) = reply {
                pieces.push(op.class(), reply.total_s);
            }
        }
        pieces.end_rep();
    }
}

fn body(env: &Env, plans: &[Vec<WireOp>]) -> Rep {
    let start = Instant::now();
    let logs: Vec<ClientLog> = thread::scope(|scope| {
        let clients: Vec<_> = plans
            .iter()
            .map(|ops| scope.spawn(move || run_client(env, ops)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("wire client panicked"))
            .collect()
    });
    Rep {
        wall_s: start.elapsed().as_secs_f64(),
        logs,
        stats: env.engine.stats(),
    }
}

/// The token ids of a `/v2/generate` NDJSON stream, and whether its final
/// line said `"done":true`. Chunk-size lines are not JSON objects and are
/// skipped.
fn parse_stream(body: &str) -> (Vec<u32>, bool) {
    let mut tokens = Vec::new();
    let mut done = false;
    for line in body.lines().filter(|l| l.starts_with('{')) {
        let Ok(doc) = Json::parse(line) else { continue };
        let Ok(obj) = doc.as_object("line") else {
            continue;
        };
        if let Ok(token) = get(obj, "token").and_then(|t| t.as_i64("token")) {
            tokens.push(token as u32);
        }
        done |= matches!(get(obj, "done"), Ok(Json::Bool(true)));
    }
    (tokens, done)
}

fn parse_infer_outputs(body: &str) -> Result<Vec<Vec<f32>>, String> {
    let doc = Json::parse(body)?;
    get(doc.as_object("infer reply")?, "outputs")?
        .as_array("outputs")?
        .iter()
        .map(|row| {
            row.as_array("row")?
                .iter()
                .map(|v| v.as_f64("value").map(|x| x as f32))
                .collect()
        })
        .collect()
}

/// Latency samples of one body, by kind.
#[derive(Default)]
struct Samples {
    infer_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    stream_s: f64,
    stream_tokens: usize,
    scrape_stats_ms: Vec<f64>,
    scrape_metrics_ms: Vec<f64>,
}

/// Checks every reply of one body against its oracle and collects the
/// latency samples of the replies that were right.
fn check_rep(
    rep: &Rep,
    plans: &[Vec<WireOp>],
    want_streams: &[Vec<Result<Vec<u32>, String>>],
    checks: &mut Checks,
) -> Samples {
    let head = models::head(1);
    let mut samples = Samples::default();
    for (client, (log, ops)) in rep.logs.iter().zip(plans).enumerate() {
        let mut generate_index = 0;
        for (i, (reply, op)) in log.iter().zip(ops).enumerate() {
            let verdict: Result<(), String> = reply.as_ref().map_err(String::clone).and_then(|r| {
                let expect_status = |want: u16| {
                    if r.status == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "status {} (wanted {want}): {}",
                            r.status,
                            r.body.trim()
                        ))
                    }
                };
                match op {
                    WireOp::Infer { input, .. } => {
                        expect_status(200)?;
                        let got = parse_infer_outputs(&r.body)?;
                        let want = reference_outputs(&head, std::slice::from_ref(input));
                        if got.len() != want.len()
                            || !got.iter().zip(&want).all(|(g, w)| close(g, w))
                        {
                            return Err("output differs from the reference executor".into());
                        }
                        samples.infer_ms.push(r.total_s * 1e3);
                    }
                    WireOp::Generate { .. } => {
                        let want = &want_streams[client][generate_index];
                        generate_index += 1;
                        expect_status(200)?;
                        let (tokens, done) = parse_stream(&r.body);
                        if !done || want.as_ref() != Ok(&tokens) {
                            return Err(format!(
                                "stream {tokens:?} (done={done}) differs from in-process {want:?}"
                            ));
                        }
                        let first = r.first_token_s.ok_or("no token chunk seen")?;
                        samples.ttft_ms.push(first * 1e3);
                        samples.stream_s += r.total_s;
                        samples.stream_tokens += tokens.len();
                    }
                    WireOp::ScrapeStats => {
                        expect_status(200)?;
                        Json::parse(&r.body)?;
                        samples.scrape_stats_ms.push(r.total_s * 1e3);
                    }
                    WireOp::ScrapeMetrics => {
                        expect_status(200)?;
                        hidet_trace::validate_exposition(&r.body)?;
                        samples.scrape_metrics_ms.push(r.total_s * 1e3);
                    }
                    WireOp::Refused(refusal) => {
                        expect_status(match refusal {
                            Refusal::UnknownModel => 404,
                            Refusal::MalformedJson | Refusal::LyingContentLength => 400,
                        })?;
                        if !r.body.contains("\"error\"") {
                            return Err(format!("refusal without an error body: {}", r.body));
                        }
                    }
                }
                Ok(())
            });
            checks.check(verdict.is_ok(), || {
                format!("client {client} op {i} ({op:?}): {}", verdict.unwrap_err())
            });
        }
    }
    // Conservation at the socket: every accepted connection was answered or
    // shed (nothing is in flight once the clients have returned).
    let ingress = rep.stats.ingress.clone().unwrap_or_default();
    let shed = ingress.shed_at_socket + ingress.shed_ring_full;
    checks.check(ingress.accepted == ingress.served + shed, || {
        format!("ingress does not balance: {}", ingress.summary())
    });
    samples
}

fn set_probe_metrics(outcome: &mut Outcome, env: &Env, wire_infer_p50_ms: f64) {
    let one_body = infer_body("head", &[0.25; 64], false);
    let parse = probe_batched(32, || {
        std::hint::black_box(Json::parse(&one_body).expect("infer body parses"));
    });
    outcome.set("sched.json_parse_us", parse.scaled(1e6));

    let (producer, mut consumer) = hidet_server::ring::ring::<u64>(64);
    let ring = probe_batched(1024, || {
        producer.push(7).expect("ring has room");
        std::hint::black_box(consumer.pop());
    });
    outcome.set("server.ring_push_pop_ns", ring.scaled(1e9));

    let inproc = probe(|| {
        env.twin
            .infer(Request::new(vec![vec![0.25; 64]]))
            .expect("in-process infer")
    });
    outcome.set_value(
        "server.overhead_ms_p50",
        wire_infer_p50_ms - inproc.median * 1e3,
    );
    outcome.note("inproc_infer_p50_ms", format!("{:.4}", inproc.median * 1e3));
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = ctx.outcome("wire_mixed");
    let plans: Vec<Vec<WireOp>> = (0..gen::WIRE_CLIENTS)
        .map(|c| gen::wire_ops(ctx.seed, c))
        .collect();
    let infers = gen::WIRE_INFERS;
    outcome.note(
        "server",
        "ServerConfig::default() (2 lanes, ring 64, no socket shedding)",
    );
    outcome.note(
        "engine",
        "Engine workers=1 (EngineConfig::default otherwise: 1x rtx3090, tuned, max_batch 8)",
    );
    outcome.note(
        "decode",
        "DecodeEngine max_batch=2, kv_blocks=64, block_tokens=4 (default otherwise)",
    );
    outcome.note("models", "head (mlp 64/128/16), chat (transformer-decode layers=1 hidden=16 heads=2 vocab=32 context=32)");
    outcome.note("clients", gen::WIRE_CLIENTS);
    outcome.note("client_0", format!(
        "closed loop: {} infer (half high, priority listener) + {} generate ({}-token prompt, {} new tokens) + 3 refused (unknown model, malformed JSON, lying Content-Length), seeded shuffle",
        gen::WIRE_INFERS, gen::WIRE_GENERATES, gen::WIRE_PROMPT_TOKENS, gen::WIRE_NEW_TOKENS
    ));
    outcome.note(
        "client_1",
        format!(
            "monitoring agent: {} scrapes (/v2/stats, /v2/metrics alternating), one every {} ms",
            gen::WIRE_SCRAPES,
            gen::WIRE_SCRAPE_EVERY_MS
        ),
    );
    outcome.note(
        "pieces",
        "body: client 0's exchanges, one class per request kind; set-up: setup",
    );
    outcome.note(
        "work_item",
        "one /v2/infer request answered (the closed loop's generates and refusals share the wall)",
    );
    outcome.note("latency_sample", "one /v2/infer, connect to last byte");
    let mut checks = Checks::default();

    // What each generate must stream: the same prompt on an in-process
    // engine of the same configuration, run alone.
    let want_streams: Vec<Vec<Result<Vec<u32>, String>>> = plans
        .iter()
        .map(|ops| {
            let prompts: Vec<SessionSpec> = ops
                .iter()
                .filter_map(|op| match op {
                    WireOp::Generate { prompt } => Some(SessionSpec {
                        prompt: prompt.clone(),
                        max_tokens: gen::WIRE_NEW_TOKENS,
                        high: false,
                    }),
                    _ => None,
                })
                .collect();
            oracle::solo_streams(
                decode_config(),
                DecodeModelSpec::transformer("chat", 1, 16, 2, 32, 32),
                &prompts.iter().collect::<Vec<_>>(),
            )
        })
        .collect();

    let mut setup_pieces = Segments::default();
    let mut pieces = Segments::default();
    let mut walls = Vec::new();
    let mut samples: Vec<Samples> = Vec::new();
    let mut last_stats = None;
    while walls.is_empty() || ctx.wants_more(walls.iter().sum()) {
        let env = setup_pieces.time("setup", setup);
        setup_pieces.end_rep();
        let rep = body(&env, &plans);
        drop(env);
        rep.record_pieces(&plans, &mut pieces);
        samples.push(check_rep(&rep, &plans, &want_streams, &mut checks));
        walls.push(rep.wall_s);
        last_stats = Some(rep.stats);
    }
    harness::top_up_setups(&mut setup_pieces, 5, |pieces| {
        drop(pieces.time("setup", setup));
    });

    let pooled = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        let mut all: Vec<f64> = samples.iter().flat_map(|s| f(s).iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        all
    };
    let infer_ms = pooled(|s| &s.infer_ms);
    harness::set_end_to_end(
        &mut outcome,
        EndToEnd {
            reps: walls.len(),
            work_items: infers as f64,
            body_s: pieces.undisturbed(),
            latency_ms: &infer_ms,
            setup_s: setup_pieces.undisturbed(),
        },
    );
    // As measured, beside the undisturbed numbers.
    let rates: Vec<f64> = walls.iter().map(|w| infers as f64 / w).collect();
    outcome.set("host_requests_per_s", Summary::of(&rates));
    outcome.set("host_latency_p50_ms", Summary::of(&infer_ms));
    if stats::highest_supported_tail(infer_ms.len()).is_some() {
        let mut p90 = Summary::of(&infer_ms);
        p90.median = stats::percentile_sorted(&infer_ms, 0.90);
        outcome.set("host_latency_p90_ms", p90);
    }
    outcome.set("host_ttft_p50_ms", Summary::of(&pooled(|s| &s.ttft_ms)));
    let token_rates: Vec<f64> = samples
        .iter()
        .filter(|s| s.stream_s > 0.0)
        .map(|s| s.stream_tokens as f64 / s.stream_s)
        .collect();
    outcome.set("host_tokens_per_s", Summary::of(&token_rates));
    outcome.set(
        "server.scrape_stats_ms_p50",
        Summary::of(&pooled(|s| &s.scrape_stats_ms)),
    );
    outcome.set(
        "server.scrape_metrics_ms_p50",
        Summary::of(&pooled(|s| &s.scrape_metrics_ms)),
    );
    let stats = last_stats.expect("at least one repetition ran");
    set_runtime_counts(&mut outcome, &stats);
    if let Some(decode) = &stats.decode {
        set_decode_counts(&mut outcome, decode);
    }
    if let Some(ingress) = &stats.ingress {
        outcome.set_value("server.accepted", ingress.accepted as f64);
        outcome.set_value("server.served", ingress.served as f64);
        outcome.set_value(
            "server.shed",
            (ingress.shed_at_socket + ingress.shed_ring_full) as f64,
        );
        outcome.set_value("server.cas_retries", ingress.enqueue_cas_retries as f64);
    }

    if ctx.traced {
        let env = setup();
        // `HidetServer::start` resets the tracer to the server's configured
        // level; switch to `Full` only once the server is up.
        let collector = SpanCollector::start();
        let traced = body(&env, &plans);
        let trace = collector.finish();
        check_rep(&traced, &plans, &want_streams, &mut checks);
        let mut traced_pieces = Segments::default();
        traced.record_pieces(&plans, &mut traced_pieces);
        harness::set_trace_metrics(
            &mut outcome,
            &trace,
            TracedWalls {
                traced_s: traced.wall_s,
                traced_undisturbed_s: traced_pieces.undisturbed(),
                untraced_undisturbed_s: pieces.undisturbed(),
            },
            None,
        );
        harness::write_chrome_trace("wire_mixed", &trace);
        // Both sides of the subtraction at the tracer's production default.
        set_probe_metrics(&mut outcome, &env, stats::median(&infer_ms));
    }

    outcome.checks = checks;
    outcome
}
