//! # hidet-server — a network front-end with a lock-free ingress hot path
//!
//! Serves the hidet runtime over HTTP/1.1 on plain `std::net`
//! (DESIGN.md §8). Four routes:
//!
//! * `POST /v2/models` — register a model (small MLP heads, the paper's
//!   evaluation zoo, or an autoregressive transformer for decode);
//! * `POST /v2/infer` — one blocking inference, priority and per-request
//!   timeout honored;
//! * `POST /v2/generate` — a chunked `application/x-ndjson` stream, one
//!   token per chunk, bridged from a [`hidet_decode::DecodeSession`];
//! * `GET /v2/stats` — the engine's [`hidet_runtime::StatsSnapshot`]
//!   including the ingress section this crate feeds.
//!
//! Between the acceptor threads and the engines sits the part the crate is
//! named for: a bounded **lock-free MPSC ring buffer** per lane
//! ([`ring`], re-exported from `hidet-trace`, whose tracer pushes through
//! the same ring), so the accept → admission → enqueue path takes zero
//! mutex acquisitions. Overload is answered *at the socket*: when the engine's
//! estimated queue delay (sampled into an atomic off the hot path) exceeds
//! the configured bound for a listener's class, the acceptor writes a
//! fixed `429` + `Retry-After` without parsing the request — and a full
//! ring sheds the same way instead of blocking the acceptor.
//!
//! Two listeners ([`HidetServer::priority_addr`],
//! [`HidetServer::public_addr`]) give admission its class signal without
//! inspecting bytes: the public listener sheds first under load, the
//! priority listener keeps [`hidet_runtime::Priority::High`]'s headroom.
//!
//! ```no_run
//! use std::sync::Arc;
//! use hidet_decode::{DecodeConfig, DecodeEngine};
//! use hidet_runtime::{Engine, EngineConfig};
//! use hidet_server::{HidetServer, ServerConfig};
//!
//! let engine = Arc::new(Engine::new(EngineConfig::quick())?);
//! let decode = Arc::new(DecodeEngine::new(DecodeConfig::default()));
//! let server = HidetServer::start(ServerConfig::default(), engine, decode)?;
//! println!("serving on {}", server.public_addr());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod api;
pub mod http;
mod server;

pub use hidet_trace::ring;
pub use http::{ChunkedWriter, HttpRequest};
pub use server::{HidetServer, ServerConfig};
