//! The server proper: two acceptor threads, a lock-free ingress ring per
//! lane, lane consumer threads, and the v2 route handlers.
//!
//! The hot path — accept, admission check, enqueue — takes **zero mutex
//! acquisitions**: admission reads a cached [`AtomicU64`] delay signal
//! (refreshed by a background sampler, because the engine's own estimate
//! takes shard locks), counters are atomics, and the enqueue is
//! [`crate::ring::Producer::push`]. Overload is answered at the socket:
//! the acceptor writes a fixed `429` + `Retry-After` without parsing a
//! byte of the request.
//!
//! Two listeners make admission class-aware without parsing: the
//! *priority* listener sheds at [`Priority::High`]'s delay slack, the
//! *public* listener at [`Priority::BestEffort`]'s — so under overload the
//! public side sheds first while priority clients keep their headroom.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hidet_decode::{DecodeEngine, DecodeError, GenerateRequest, SessionPoll};
use hidet_runtime::stats::catalogue;
use hidet_runtime::{
    AdmissionSignal, Engine, EngineError, IngressStatsSnapshot, LatencyReservoir, Priority, Request,
};
use hidet_trace::{Collector, SpanKind, TraceConfig};

use crate::api::{self, ModelDirectory};
use crate::http::{self, ChunkedWriter, HttpRequest};
use crate::ring::{ring, Consumer, Producer};

/// Lane (consumer) threads; each owns one ring.
const LANES: usize = 2;
/// Per-lane ring capacity.
const RING_CAPACITY: usize = 64;
/// How often the sampler refreshes the cached admission signal.
const SIGNAL_INTERVAL: Duration = Duration::from_millis(1);

/// Ingress tuning knobs. The defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Estimated-queue-delay bound for socket-level shedding. A listener
    /// sheds when the sampled delay exceeds `bound × class delay slack`.
    /// `None` disables socket shedding (ring-full shedding still applies).
    pub shed_delay_bound: Option<Duration>,
    /// Tracing level applied to the process-wide tracer at startup:
    /// `MetricsOnly` (the default) keeps `GET /v2/metrics` live at ~zero
    /// overhead; `Full` additionally retains spans for `GET /v2/trace`.
    pub trace: TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shed_delay_bound: None,
            trace: TraceConfig::MetricsOnly,
        }
    }
}

/// One accepted connection, queued for a lane.
struct ConnJob {
    stream: TcpStream,
    accepted_at: Instant,
}

/// Counters behind [`IngressStatsSnapshot`]. The TTFB reservoir is the one
/// mutex here, and only lane (consumer) threads touch it — never the
/// accept/enqueue path.
#[derive(Default)]
struct Counters {
    accepted: AtomicUsize,
    shed_at_socket: AtomicUsize,
    shed_ring_full: AtomicUsize,
    served: AtomicUsize,
    closed_before_request: AtomicUsize,
    streams_cancelled: AtomicUsize,
    ttfb: Mutex<LatencyReservoir>,
}

/// Everything the route handlers need, shared across lanes.
struct Inner {
    engine: Arc<Engine>,
    decode: Arc<DecodeEngine>,
    directory: ModelDirectory,
    counters: Counters,
    closed: AtomicBool,
}

/// The running front-end. Bound to two ephemeral loopback ports; dropping
/// it (or calling [`HidetServer::shutdown`]) stops the threads.
pub struct HidetServer {
    priority_addr: SocketAddr,
    public_addr: SocketAddr,
    inner: Arc<Inner>,
    producers: Vec<Producer<ConnJob>>,
    threads: Vec<JoinHandle<()>>,
    /// Drains per-thread trace rings in the background; joined on drop.
    _collector: Collector,
}

impl std::fmt::Debug for HidetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HidetServer")
            .field("priority_addr", &self.priority_addr)
            .field("public_addr", &self.public_addr)
            .finish_non_exhaustive()
    }
}

impl HidetServer {
    /// Starts the front-end with the engine itself as the admission signal.
    pub fn start(
        config: ServerConfig,
        engine: Arc<Engine>,
        decode: Arc<DecodeEngine>,
    ) -> io::Result<HidetServer> {
        let signal: Arc<dyn AdmissionSignal> = Arc::clone(&engine) as Arc<dyn AdmissionSignal>;
        HidetServer::start_with_signal(config, engine, decode, signal)
    }

    /// Starts the front-end with an explicit admission signal — tests
    /// substitute a fake to drive shedding deterministically.
    ///
    /// Attaches ingress and decode stats sources to the engine, so
    /// [`Engine::stats`] (and `GET /v2/stats`) carry both sections.
    pub fn start_with_signal(
        config: ServerConfig,
        engine: Arc<Engine>,
        decode: Arc<DecodeEngine>,
        signal: Arc<dyn AdmissionSignal>,
    ) -> io::Result<HidetServer> {
        hidet_trace::global().set_config(config.trace);
        let priority_listener = TcpListener::bind("127.0.0.1:0")?;
        let public_listener = TcpListener::bind("127.0.0.1:0")?;
        let priority_addr = priority_listener.local_addr()?;
        let public_addr = public_listener.local_addr()?;

        let inner = Arc::new(Inner {
            engine: Arc::clone(&engine),
            decode: Arc::clone(&decode),
            directory: ModelDirectory::default(),
            counters: Counters::default(),
            closed: AtomicBool::new(false),
        });

        let mut producers = Vec::with_capacity(LANES);
        let mut consumers = Vec::with_capacity(LANES);
        for _ in 0..LANES {
            let (tx, rx) = ring::<ConnJob>(RING_CAPACITY);
            producers.push(tx);
            consumers.push(rx);
        }

        let mut threads = Vec::new();
        let mut lane_threads = Vec::new();
        for (lane, consumer) in consumers.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            let handle = thread::Builder::new()
                .name(format!("hidet-lane-{lane}"))
                .spawn(move || lane_loop(consumer, &inner))?;
            lane_threads.push(handle.thread().clone());
            threads.push(handle);
        }

        // The cached admission signal: estimated queue delay in
        // microseconds, refreshed off the hot path. Sampling through the
        // engine takes shard locks, which is exactly why acceptors read
        // this atomic instead of the engine.
        let delay_micros = Arc::new(AtomicU64::new(0));
        if config.shed_delay_bound.is_some() {
            let delay_micros = Arc::clone(&delay_micros);
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name("hidet-admission-sampler".to_string())
                    .spawn(move || {
                        while !inner.closed.load(Ordering::Acquire) {
                            let seconds = signal.estimated_queue_delay_seconds();
                            delay_micros.store((seconds.max(0.0) * 1e6) as u64, Ordering::Relaxed);
                            thread::sleep(SIGNAL_INTERVAL);
                        }
                    })?,
            );
        }

        for (listener, class) in [
            (priority_listener, Priority::High),
            (public_listener, Priority::BestEffort),
        ] {
            let inner = Arc::clone(&inner);
            let producers = producers.clone();
            let lane_threads = lane_threads.clone();
            let delay_micros = Arc::clone(&delay_micros);
            let config = config.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("hidet-accept-{}", class.label()))
                    .spawn(move || {
                        acceptor_loop(
                            &listener,
                            class,
                            &inner,
                            &producers,
                            &lane_threads,
                            &delay_micros,
                            &config,
                        );
                    })?,
            );
        }

        let server = HidetServer {
            priority_addr,
            public_addr,
            inner,
            producers,
            threads,
            _collector: Collector::spawn(hidet_trace::global(), Duration::from_millis(10)),
        };
        engine.attach_ingress_stats(server.stats_source());
        engine.attach_decode_stats(decode.stats_source());
        Ok(server)
    }

    /// Address of the priority listener (sheds at [`Priority::High`] slack).
    pub fn priority_addr(&self) -> SocketAddr {
        self.priority_addr
    }

    /// Address of the public listener (sheds at [`Priority::BestEffort`]
    /// slack).
    pub fn public_addr(&self) -> SocketAddr {
        self.public_addr
    }

    /// A closure producing the live ingress snapshot — the shape
    /// [`Engine::attach_ingress_stats`] wants (attached automatically by
    /// [`HidetServer::start`]).
    pub fn stats_source(&self) -> Arc<dyn Fn() -> IngressStatsSnapshot + Send + Sync> {
        let inner = Arc::clone(&self.inner);
        let producers = self.producers.clone();
        Arc::new(move || snapshot(&inner.counters, &producers))
    }

    /// The live ingress snapshot.
    pub fn ingress_stats(&self) -> IngressStatsSnapshot {
        snapshot(&self.inner.counters, &self.producers)
    }

    /// Stops accepting, finishes queued work and joins every thread.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the two acceptors: each is parked in accept(); a throwaway
        // connection gets each one back to its closed check.
        for addr in [self.priority_addr, self.public_addr] {
            let _ = TcpStream::connect(addr);
        }
        for handle in &self.threads {
            handle.thread().unpark();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HidetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-listener accept loop. No locks: admission reads the cached
/// atomic, the enqueue is a lock-free push, and a shed writes a canned
/// response without parsing the request.
fn acceptor_loop(
    listener: &TcpListener,
    class: Priority,
    inner: &Inner,
    producers: &[Producer<ConnJob>],
    lane_threads: &[thread::Thread],
    delay_micros: &AtomicU64,
    config: &ServerConfig,
) {
    let shed_above_micros = config
        .shed_delay_bound
        .map(|bound| bound.as_secs_f64() * class.delay_slack() * 1e6);
    let mut next_lane = 0usize;
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            if inner.closed.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if inner.closed.load(Ordering::Acquire) {
            return;
        }
        if let Some(limit) = shed_above_micros {
            if delay_micros.load(Ordering::Relaxed) as f64 > limit {
                inner
                    .counters
                    .shed_at_socket
                    .fetch_add(1, Ordering::Relaxed);
                let _ = http::write_shed(&mut stream);
                continue;
            }
        }
        let mut job = Some(ConnJob {
            stream,
            accepted_at: Instant::now(),
        });
        // Counted before the push: once a lane holds the connection it can be
        // served (and counted as such) before this thread runs again, and
        // `served` must never be seen ahead of `accepted`.
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        // Try every lane once, starting round-robin: a single busy lane must
        // not force a shed while others have room.
        for offset in 0..producers.len() {
            let lane = (next_lane + offset) % producers.len();
            match producers[lane].push(job.take().expect("job still in hand")) {
                Ok(()) => {
                    lane_threads[lane].unpark();
                    next_lane = lane.wrapping_add(1);
                    break;
                }
                Err(back) => job = Some(back),
            }
        }
        if let Some(mut job) = job {
            inner.counters.accepted.fetch_sub(1, Ordering::Relaxed);
            inner
                .counters
                .shed_ring_full
                .fetch_add(1, Ordering::Relaxed);
            let _ = http::write_shed(&mut job.stream);
        }
    }
}

/// The lane consumer loop: drain the ring, park when empty, exit when the
/// server closes (after a final drain, so accepted connections still get
/// answers).
fn lane_loop(mut consumer: Consumer<ConnJob>, inner: &Inner) {
    loop {
        if let Some(job) = consumer.pop() {
            handle_connection(job, inner);
            continue;
        }
        if inner.closed.load(Ordering::Acquire) {
            return;
        }
        thread::park_timeout(Duration::from_millis(1));
    }
}

/// Consecutive wall-clock checkpoints for one request, in integer
/// nanoseconds. Each [`RequestTiming::mark`] charges the time since the
/// previous checkpoint to a named segment (re-marking a name accumulates,
/// which is how the generate stream splits alternating decode waits and
/// chunk writes) — so the segments always telescope: their sum equals the
/// wire total from accept to the last checkpoint, exactly.
struct RequestTiming {
    cursor: Instant,
    segments: Vec<(&'static str, u128)>,
    trace_id: u64,
    debug: bool,
}

impl RequestTiming {
    fn new(accepted_at: Instant, trace_id: u64) -> RequestTiming {
        RequestTiming {
            cursor: accepted_at,
            segments: Vec::new(),
            trace_id,
            debug: false,
        }
    }

    /// Charges the interval since the previous checkpoint to `name`.
    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        let ns = now.duration_since(self.cursor).as_nanos();
        self.cursor = now;
        match self.segments.iter_mut().find(|(n, _)| *n == name) {
            Some(seg) => seg.1 += ns,
            None => self.segments.push((name, ns)),
        }
    }

    /// The segments to render, or `None` without `?debug=timing`.
    fn rendered(&self) -> Option<&[(&'static str, u128)]> {
        self.debug.then_some(self.segments.as_slice())
    }
}

fn handle_connection(mut job: ConnJob, inner: &Inner) {
    let tracer = hidet_trace::global();
    let trace_id = tracer.new_trace_id();
    let mut timing = RequestTiming::new(job.accepted_at, trace_id);
    // The ring wait ended when this lane picked the job up — recorded
    // retroactively from the accept timestamp.
    tracer.span_closed(
        SpanKind::HttpQueue,
        trace_id,
        job.accepted_at,
        timing.cursor,
    );
    timing.mark("queue");

    let _ = job.stream.set_write_timeout(Some(Duration::from_secs(5)));
    let request = {
        let _parse = tracer.span(SpanKind::HttpParse, trace_id);
        match http::read_request(&mut job.stream, job.accepted_at) {
            Ok(Some(request)) => request,
            Ok(None) => {
                // Connected, sent nothing, closed: not served, but still on
                // the books — `accepted = served + closed_before_request`.
                inner
                    .counters
                    .closed_before_request
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(err) => {
                record_ttfb(inner, job.accepted_at);
                let _ =
                    http::write_json(&mut job.stream, 400, &api::render_error(&err.to_string()));
                inner.counters.served.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    };
    timing.mark("parse");
    timing.debug = request.query_flag("debug", "timing");

    let _handle = tracer.span(SpanKind::HttpHandle, trace_id);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v2/models") => respond(inner, &mut job, trace_id, register(inner, &request)),
        ("POST", "/v2/infer") => {
            let response = infer(inner, &request, &mut timing);
            respond(inner, &mut job, trace_id, response);
        }
        ("POST", "/v2/generate") => generate(inner, &mut job, &request, &mut timing),
        ("GET", "/v2/stats") => {
            let body = catalogue::render_json(&inner.engine.stats());
            respond(inner, &mut job, trace_id, (200, body));
        }
        ("GET", "/v2/metrics") => {
            let body = metrics_exposition(inner);
            record_ttfb(inner, job.accepted_at);
            let _respond = tracer.span(SpanKind::HttpRespond, trace_id);
            let _ = http::write_response(
                &mut job.stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
            inner.counters.served.fetch_add(1, Ordering::Relaxed);
        }
        ("GET", "/v2/trace") => {
            let body = hidet_trace::global().chrome_trace_json();
            respond(inner, &mut job, trace_id, (200, body));
        }
        (
            _,
            "/v2/models" | "/v2/infer" | "/v2/generate" | "/v2/stats" | "/v2/metrics" | "/v2/trace",
        ) => respond(
            inner,
            &mut job,
            trace_id,
            (405, api::render_error("method not allowed")),
        ),
        (_, path) => respond(
            inner,
            &mut job,
            trace_id,
            (404, api::render_error(&format!("no route for {path}"))),
        ),
    }
}

/// The `GET /v2/metrics` body: the catalogue's engine/decode/ingress
/// families over the live stats snapshot, followed by the tracer's own
/// span/event families — one well-formed text exposition.
fn metrics_exposition(inner: &Inner) -> String {
    let mut text = catalogue::render_prometheus(&inner.engine.stats());
    text.push_str(&hidet_trace::global().render_metrics());
    text
}

/// Writes a complete JSON response, recording TTFB just before the first
/// byte goes out.
fn respond(inner: &Inner, job: &mut ConnJob, trace_id: u64, (status, body): (u16, String)) {
    record_ttfb(inner, job.accepted_at);
    let _respond = hidet_trace::global().span(SpanKind::HttpRespond, trace_id);
    let _ = http::write_json(&mut job.stream, status, &body);
    inner.counters.served.fetch_add(1, Ordering::Relaxed);
}

fn record_ttfb(inner: &Inner, accepted_at: Instant) {
    let seconds = accepted_at.elapsed().as_secs_f64();
    inner
        .counters
        .ttfb
        .lock()
        .expect("ttfb reservoir poisoned")
        .push(seconds);
}

fn register(inner: &Inner, request: &HttpRequest) -> (u16, String) {
    let body = match api::parse_register(&request.body) {
        Ok(body) => body,
        Err(msg) => return (400, api::render_error(&msg)),
    };
    {
        let infer = inner.directory.infer.lock().expect("directory poisoned");
        let generate = inner.directory.generate.lock().expect("directory poisoned");
        if infer.contains_key(&body.name) || generate.contains_key(&body.name) {
            return (
                400,
                api::render_error(&format!("\"{}\" is already registered", body.name)),
            );
        }
    }
    match api::infer_spec(&body) {
        Ok(Some(spec)) => match inner.engine.register(spec) {
            Ok(handle) => {
                inner
                    .directory
                    .infer
                    .lock()
                    .expect("directory poisoned")
                    .insert(body.name.clone(), handle);
                (201, api::render_registered(&body.name, "infer"))
            }
            Err(err) => (engine_status(&err), api::render_error(&err.to_string())),
        },
        Ok(None) => {
            let spec = api::decode_spec(&body).expect("non-infer family is a decode family");
            match inner.decode.register(spec) {
                Ok(model) => {
                    inner
                        .directory
                        .generate
                        .lock()
                        .expect("directory poisoned")
                        .insert(body.name.clone(), model);
                    (201, api::render_registered(&body.name, "generate"))
                }
                Err(err) => (decode_status(&err), api::render_error(&err.to_string())),
            }
        }
        Err(msg) => (400, api::render_error(&msg)),
    }
}

fn infer(inner: &Inner, request: &HttpRequest, timing: &mut RequestTiming) -> (u16, String) {
    let body = match api::parse_infer(&request.body) {
        Ok(body) => body,
        Err(msg) => return (400, api::render_error(&msg)),
    };
    let handle = {
        let infer = inner.directory.infer.lock().expect("directory poisoned");
        match infer.get(&body.model) {
            Some(handle) => handle.clone(),
            None => {
                let generate = inner.directory.generate.lock().expect("directory poisoned");
                return if generate.contains_key(&body.model) {
                    (
                        400,
                        api::render_error(&format!(
                            "\"{}\" is a generate model; use /v2/generate",
                            body.model
                        )),
                    )
                } else {
                    (
                        404,
                        api::render_error(&format!("unknown model \"{}\"", body.model)),
                    )
                };
            }
        }
    };
    let mut engine_request = Request::new(body.inputs)
        .with_priority(body.priority)
        .with_trace(timing.trace_id);
    if let Some(ms) = body.timeout_ms {
        engine_request = engine_request.with_timeout(Duration::from_millis(ms));
    }
    let outcome = handle.infer(engine_request);
    timing.mark("handle");
    match outcome {
        Ok(result) => {
            let body = api::render_infer_result(&body.model, &result, timing.rendered());
            (200, body)
        }
        Err(err) => (engine_status(&err), api::render_error(&err.to_string())),
    }
}

/// The streaming bridge: one decode session, one chunk per token. The
/// response head goes out with the first token (that write is the wire
/// TTFB); each `Pending` poll probes the socket so a vanished client drops
/// the session — freeing its KV blocks — instead of generating into the
/// void.
fn generate(inner: &Inner, job: &mut ConnJob, request: &HttpRequest, timing: &mut RequestTiming) {
    let trace_id = timing.trace_id;
    let body = match api::parse_generate(&request.body) {
        Ok(body) => body,
        Err(msg) => return respond(inner, job, trace_id, (400, api::render_error(&msg))),
    };
    let model = {
        let generate = inner.directory.generate.lock().expect("directory poisoned");
        match generate.get(&body.model) {
            Some(model) => model.clone(),
            None => {
                let infer = inner.directory.infer.lock().expect("directory poisoned");
                let response = if infer.contains_key(&body.model) {
                    (
                        400,
                        api::render_error(&format!(
                            "\"{}\" is a one-shot model; use /v2/infer",
                            body.model
                        )),
                    )
                } else {
                    (
                        404,
                        api::render_error(&format!("unknown model \"{}\"", body.model)),
                    )
                };
                return respond(inner, job, trace_id, response);
            }
        }
    };

    let mut generate_request = GenerateRequest::new(body.prompt, body.max_tokens)
        .with_priority(body.priority)
        .with_trace(trace_id);
    if let Some(eos) = body.eos {
        generate_request = generate_request.with_eos(eos);
    }
    let mut session = model.generate(generate_request);
    timing.mark("placement");

    // Phase one: wait for the first event before committing to a status
    // line, so generate-time failures still map onto proper error codes.
    let first = loop {
        match session.next_timeout(Duration::from_millis(10)) {
            Ok(SessionPoll::Pending) => {
                if socket_dead(&job.stream) {
                    drop(session);
                    inner
                        .counters
                        .streams_cancelled
                        .fetch_add(1, Ordering::Relaxed);
                    inner.counters.served.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Ok(event) => break Ok(event),
            Err(err) => break Err(err),
        }
    };
    let first = match first {
        Ok(event) => event,
        Err(err) => {
            let response = (decode_status(&err), api::render_error(&err.to_string()));
            return respond(inner, job, trace_id, response);
        }
    };
    timing.mark("prefill");

    record_ttfb(inner, job.accepted_at);
    let mut tokens = 0usize;
    let outcome: io::Result<()> = (|| {
        let mut writer = ChunkedWriter::begin(&mut job.stream, 200)?;
        timing.mark("serialize");
        let mut event = first;
        loop {
            match event {
                SessionPoll::Token(token) => {
                    tokens += 1;
                    let line = api::render_token_event(&token);
                    timing.mark("decode");
                    writer.chunk_line(&line)?;
                    timing.mark("serialize");
                }
                SessionPoll::Finished => {
                    timing.mark("decode");
                    let done = api::render_generate_done(tokens, timing.rendered());
                    writer.chunk_line(&done)?;
                    return writer.finish();
                }
                SessionPoll::Pending => {}
            }
            event = loop {
                match session.next_timeout(Duration::from_millis(10)) {
                    Ok(SessionPoll::Pending) => continue,
                    Ok(next) => break next,
                    Err(err) => {
                        // Mid-stream failure: the status line is already on
                        // the wire, so the error rides the stream as its
                        // final line.
                        writer.chunk_line(&api::render_error(&err.to_string()))?;
                        return writer.finish();
                    }
                }
            };
        }
    })();
    if outcome.is_err() {
        // The client went away mid-stream; dropping the session releases
        // its KV blocks.
        inner
            .counters
            .streams_cancelled
            .fetch_add(1, Ordering::Relaxed);
    }
    inner.counters.served.fetch_add(1, Ordering::Relaxed);
}

/// Peeks the socket with a short timeout: `Ok(0)` means the peer closed.
/// Extra readable bytes (a client that pipelines) are left alone; a timeout
/// means the peer is simply quiet, i.e. alive.
fn socket_dead(stream: &TcpStream) -> bool {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut probe = [0u8; 1];
    let dead = matches!(stream.peek(&mut probe), Ok(0));
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    dead
}

fn engine_status(err: &EngineError) -> u16 {
    match err {
        EngineError::QueueFull(_) => 429,
        EngineError::BadInput(_) => 400,
        EngineError::UnknownModel(_) => 404,
        EngineError::DeadlineExceeded => 504,
        EngineError::Closed => 503,
        _ => 500,
    }
}

fn decode_status(err: &DecodeError) -> u16 {
    match err {
        DecodeError::BadPrompt(_) | DecodeError::BadModel(_) => 400,
        DecodeError::UnknownModel(_) => 404,
        DecodeError::DeadlineExceeded => 504,
        DecodeError::KvExhausted => 429,
        DecodeError::Closed => 503,
        _ => 500,
    }
}

fn snapshot(counters: &Counters, producers: &[Producer<ConnJob>]) -> IngressStatsSnapshot {
    let ttfb = counters.ttfb.lock().expect("ttfb reservoir poisoned");
    IngressStatsSnapshot {
        accepted: counters.accepted.load(Ordering::Relaxed),
        shed_at_socket: counters.shed_at_socket.load(Ordering::Relaxed),
        shed_ring_full: counters.shed_ring_full.load(Ordering::Relaxed),
        served: counters.served.load(Ordering::Relaxed),
        closed_before_request: counters.closed_before_request.load(Ordering::Relaxed),
        streams_cancelled: counters.streams_cancelled.load(Ordering::Relaxed),
        ring_depth: producers.iter().map(Producer::depth).sum(),
        ring_capacity: producers.iter().map(Producer::capacity).sum(),
        enqueue_cas_retries: producers.iter().map(Producer::cas_retries).sum(),
        wire_ttfb_p50_seconds: ttfb.percentile(0.50),
        wire_ttfb_p95_seconds: ttfb.percentile(0.95),
    }
}
