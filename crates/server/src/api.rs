//! The v2 wire API: request bodies, response rendering and the model
//! registry behind `POST /v2/models`.
//!
//! Every body is parsed with `hidet_sched::json::Json` and every response
//! rendered with `hidet_sched::json::JsonWriter` — the workspace's single
//! JSON dialect; the server adds no third one.

use std::collections::HashMap;
use std::sync::Mutex;

use hidet_decode::{DecodeModel, DecodeModelSpec, TokenEvent};
use hidet_graph::{Graph, GraphBuilder, Tensor};
use hidet_runtime::{InferenceResult, ModelHandle, ModelSpec, Priority};
use hidet_sched::json::{get, Json, JsonWriter};

/// Models registered over the wire, addressable by name. One-shot and
/// decode models share the namespace so `/v2/infer` vs `/v2/generate`
/// mismatches answer with a clear error.
#[derive(Default)]
pub(crate) struct ModelDirectory {
    pub(crate) infer: Mutex<HashMap<String, ModelHandle>>,
    pub(crate) generate: Mutex<HashMap<String, DecodeModel>>,
}

/// A parsed `POST /v2/models` body.
#[derive(Debug)]
pub(crate) struct RegisterBody {
    pub(crate) name: String,
    pub(crate) kind: RegisterKind,
}

/// What `/v2/models` can stand up.
#[derive(Debug)]
pub(crate) enum RegisterKind {
    /// A small batchable MLP head: `input -> hidden (relu) -> output`.
    Mlp {
        input: i64,
        hidden: i64,
        output: i64,
    },
    /// A paper-evaluation zoo model by its registered name
    /// (`hidet_graph::models::by_name`).
    Zoo,
    /// An autoregressive transformer served through `/v2/generate`.
    TransformerDecode {
        layers: usize,
        hidden: i64,
        heads: i64,
        vocab: i64,
        max_context: i64,
    },
}

fn int_field(obj: &[(String, Json)], name: &str) -> Result<i64, String> {
    get(obj, name)?.as_i64(name)
}

fn int_field_or(obj: &[(String, Json)], name: &str, default: i64) -> Result<i64, String> {
    match get(obj, name) {
        Ok(v) => v.as_i64(name),
        Err(_) => Ok(default),
    }
}

pub(crate) fn parse_register(body: &[u8]) -> Result<RegisterBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body not utf-8".to_string())?;
    let value = Json::parse(text)?;
    let obj = value.as_object("register body")?;
    let name = get(obj, "name")?.as_str("name")?.to_string();
    if name.is_empty() {
        return Err("name must be non-empty".to_string());
    }
    let family = get(obj, "family")?.as_str("family")?;
    let kind = match family {
        "mlp" => RegisterKind::Mlp {
            input: int_field(obj, "input_dim")?,
            hidden: int_field_or(obj, "hidden_dim", 32)?,
            output: int_field_or(obj, "output_dim", 4)?,
        },
        "zoo" => RegisterKind::Zoo,
        "transformer-decode" => RegisterKind::TransformerDecode {
            layers: int_field_or(obj, "layers", 1)? as usize,
            hidden: int_field_or(obj, "hidden", 16)?,
            heads: int_field_or(obj, "heads", 2)?,
            vocab: int_field_or(obj, "vocab", 16)?,
            max_context: int_field_or(obj, "max_context", 64)?,
        },
        other => {
            return Err(format!(
                "unknown family \"{other}\" (expected mlp, zoo or transformer-decode)"
            ))
        }
    };
    Ok(RegisterBody { name, kind })
}

/// The `ModelSpec` for a one-shot registration, or `None` when the family
/// names a decode model (handled by the decode engine instead).
pub(crate) fn infer_spec(body: &RegisterBody) -> Result<Option<ModelSpec>, String> {
    match body.kind {
        RegisterKind::Mlp {
            input,
            hidden,
            output,
        } => {
            if !(1..=4096).contains(&input)
                || !(1..=4096).contains(&hidden)
                || !(1..=4096).contains(&output)
            {
                return Err("mlp dims must be in 1..=4096".to_string());
            }
            let name = body.name.clone();
            Ok(Some(ModelSpec::new(body.name.clone(), move |batch| {
                mlp_graph(&name, batch, input, hidden, output)
            })))
        }
        RegisterKind::Zoo => {
            let zoo_name = body.name.clone();
            if hidet_graph::models::by_name(&zoo_name, 1).is_none() {
                return Err(format!("\"{zoo_name}\" is not a zoo model"));
            }
            let spec = ModelSpec::new(body.name.clone(), move |batch| {
                hidet_graph::models::by_name(&zoo_name, batch).expect("checked above")
            });
            // The zoo's transformers fold batch into the sequence axis; their
            // requests must never be coalesced.
            Ok(Some(if matches!(body.name.as_str(), "bert" | "gpt2") {
                spec.unbatched()
            } else {
                spec
            }))
        }
        RegisterKind::TransformerDecode { .. } => Ok(None),
    }
}

/// The `DecodeModelSpec` for a decode registration, when the family is one.
pub(crate) fn decode_spec(body: &RegisterBody) -> Option<DecodeModelSpec> {
    match body.kind {
        RegisterKind::TransformerDecode {
            layers,
            hidden,
            heads,
            vocab,
            max_context,
        } => Some(DecodeModelSpec::transformer(
            body.name.clone(),
            layers,
            hidden,
            heads,
            vocab,
            max_context,
        )),
        _ => None,
    }
}

fn mlp_graph(name: &str, batch: i64, input: i64, hidden: i64, output: i64) -> Graph {
    let mut g = GraphBuilder::new(name);
    let x = g.input("x", &[batch, input]);
    let w1 = g.constant(Tensor::randn(&[input, hidden], 1));
    let w2 = g.constant(Tensor::randn(&[hidden, output], 2));
    let h = g.matmul(x, w1);
    let h = g.relu(h);
    let y = g.matmul(h, w2);
    g.output(y).build()
}

/// A parsed `POST /v2/infer` body.
#[derive(Debug)]
pub(crate) struct InferBody {
    pub(crate) model: String,
    pub(crate) inputs: Vec<Vec<f32>>,
    pub(crate) priority: Priority,
    pub(crate) timeout_ms: Option<u64>,
}

pub(crate) fn parse_infer(body: &[u8]) -> Result<InferBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body not utf-8".to_string())?;
    let value = Json::parse(text)?;
    let obj = value.as_object("infer body")?;
    let model = get(obj, "model")?.as_str("model")?.to_string();
    let inputs = get(obj, "inputs")?
        .as_array("inputs")?
        .iter()
        .map(|row| {
            row.as_array("inputs[i]")?
                .iter()
                .map(|v| v.as_f64("inputs[i][j]").map(|x| x as f32))
                .collect::<Result<Vec<f32>, String>>()
        })
        .collect::<Result<Vec<Vec<f32>>, String>>()?;
    let priority = parse_priority(obj)?;
    let timeout_ms = match get(obj, "timeout_ms") {
        Ok(v) => Some(v.as_i64("timeout_ms")?.max(0) as u64),
        Err(_) => None,
    };
    Ok(InferBody {
        model,
        inputs,
        priority,
        timeout_ms,
    })
}

/// A parsed `POST /v2/generate` body.
#[derive(Debug)]
pub(crate) struct GenerateBody {
    pub(crate) model: String,
    pub(crate) prompt: Vec<u32>,
    pub(crate) max_tokens: usize,
    pub(crate) priority: Priority,
    pub(crate) eos: Option<u32>,
}

pub(crate) fn parse_generate(body: &[u8]) -> Result<GenerateBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body not utf-8".to_string())?;
    let value = Json::parse(text)?;
    let obj = value.as_object("generate body")?;
    let model = get(obj, "model")?.as_str("model")?.to_string();
    let prompt = get(obj, "prompt")?
        .as_array("prompt")?
        .iter()
        .map(|v| {
            let t = v.as_i64("prompt[i]")?;
            u32::try_from(t).map_err(|_| format!("prompt token {t} out of range"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    let max_tokens = get(obj, "max_tokens")?.as_i64("max_tokens")?;
    if !(1..=1_000_000).contains(&max_tokens) {
        return Err("max_tokens must be in 1..=1000000".to_string());
    }
    let priority = parse_priority(obj)?;
    let eos = match get(obj, "eos") {
        Ok(v) => {
            let t = v.as_i64("eos")?;
            Some(u32::try_from(t).map_err(|_| format!("eos token {t} out of range"))?)
        }
        Err(_) => None,
    };
    Ok(GenerateBody {
        model,
        prompt,
        max_tokens: max_tokens as usize,
        priority,
        eos,
    })
}

fn parse_priority(obj: &[(String, Json)]) -> Result<Priority, String> {
    match get(obj, "priority") {
        Ok(v) => match v.as_str("priority")? {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "best-effort" | "best_effort" => Ok(Priority::BestEffort),
            other => Err(format!(
                "unknown priority \"{other}\" (expected high, normal or best-effort)"
            )),
        },
        Err(_) => Ok(Priority::Normal),
    }
}

/// `{"error": msg}`.
pub(crate) fn render_error(msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error").string(msg);
    w.end();
    w.finish()
}

/// The `POST /v2/models` success body.
pub(crate) fn render_registered(name: &str, kind: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("model").string(name);
    w.key("kind").string(kind);
    w.end();
    w.finish()
}

/// Writes the `?debug=timing` breakdown: one integer-nanosecond field per
/// segment plus `total_ns`. Segments are consecutive wall-clock checkpoint
/// differences, so they telescope: the sum of the segment fields equals
/// `total_ns` exactly (pinned by the server e2e tests).
pub(crate) fn render_timing(w: &mut JsonWriter, segments: &[(&'static str, u128)]) {
    w.key("timing").begin_object();
    let mut total = 0u128;
    for (name, ns) in segments {
        w.key(&format!("{name}_ns")).integer(*ns as i64);
        total += ns;
    }
    w.key("total_ns").integer(total as i64);
    w.end();
}

/// The `POST /v2/infer` success body.
pub(crate) fn render_infer_result(
    model: &str,
    result: &InferenceResult,
    timing: Option<&[(&'static str, u128)]>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("model").string(model);
    w.key("outputs").begin_array();
    for row in &result.outputs {
        w.begin_array();
        for v in row {
            w.number(f64::from(*v));
        }
        w.end();
    }
    w.end();
    w.key("batch_size").integer(result.batch_size as i64);
    w.key("latency_us")
        .number(result.simulated_latency_seconds * 1e6);
    w.key("queue_delay_us")
        .number(result.queue_delay_seconds * 1e6);
    w.key("priority").string(result.priority.label());
    w.key("compile_cache_hit").boolean(result.compile_cache_hit);
    if let Some(segments) = timing {
        render_timing(&mut w, segments);
    }
    w.end();
    w.finish()
}

/// One streamed token line of `POST /v2/generate`.
pub(crate) fn render_token_event(event: &TokenEvent) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("token").integer(i64::from(event.token));
    w.key("index").integer(event.index as i64);
    w.key("sim_time_us").number(event.sim_time_seconds * 1e6);
    w.end();
    w.finish()
}

/// The terminal line of a `POST /v2/generate` stream.
pub(crate) fn render_generate_done(
    tokens: usize,
    timing: Option<&[(&'static str, u128)]>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("done").boolean(true);
    w.key("tokens").integer(tokens as i64);
    if let Some(segments) = timing {
        render_timing(&mut w, segments);
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bodies_parse() {
        let body = parse_register(
            br#"{"name":"m","family":"mlp","input_dim":16,"hidden_dim":8,"output_dim":4}"#,
        )
        .unwrap();
        assert_eq!(body.name, "m");
        assert!(infer_spec(&body).unwrap().is_some());
        assert!(decode_spec(&body).is_none());

        let body = parse_register(
            br#"{"name":"chat","family":"transformer-decode","layers":1,"hidden":16,"heads":2,"vocab":16,"max_context":32}"#,
        )
        .unwrap();
        assert!(infer_spec(&body).unwrap().is_none());
        assert!(decode_spec(&body).is_some());

        assert!(parse_register(br#"{"name":"m","family":"nope"}"#).is_err());
        assert!(parse_register(br#"{"family":"mlp","input_dim":4}"#).is_err());
        assert!(parse_register(b"not json").is_err());
    }

    #[test]
    fn zoo_family_validates_names() {
        let ok = parse_register(br#"{"name":"resnet50","family":"zoo"}"#).unwrap();
        assert!(infer_spec(&ok).unwrap().is_some());
        let bad = parse_register(br#"{"name":"alexnet","family":"zoo"}"#).unwrap();
        assert!(infer_spec(&bad).is_err());
    }

    #[test]
    fn infer_bodies_parse() {
        let body = parse_infer(
            br#"{"model":"m","inputs":[[1.0,2.0]],"priority":"high","timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(body.model, "m");
        assert_eq!(body.inputs, vec![vec![1.0f32, 2.0]]);
        assert_eq!(body.priority, Priority::High);
        assert_eq!(body.timeout_ms, Some(250));

        let defaults = parse_infer(br#"{"model":"m","inputs":[[0.5]]}"#).unwrap();
        assert_eq!(defaults.priority, Priority::Normal);
        assert_eq!(defaults.timeout_ms, None);

        assert!(parse_infer(br#"{"model":"m","inputs":[["x"]]}"#).is_err());
        assert!(parse_infer(br#"{"model":"m","inputs":[[1.0]],"priority":"zzz"}"#).is_err());
    }

    #[test]
    fn generate_bodies_parse() {
        let body = parse_generate(
            br#"{"model":"chat","prompt":[3,1,4],"max_tokens":5,"priority":"best-effort","eos":7}"#,
        )
        .unwrap();
        assert_eq!(body.prompt, vec![3, 1, 4]);
        assert_eq!(body.max_tokens, 5);
        assert_eq!(body.priority, Priority::BestEffort);
        assert_eq!(body.eos, Some(7));

        assert!(parse_generate(br#"{"model":"chat","prompt":[-1],"max_tokens":5}"#).is_err());
        assert!(parse_generate(br#"{"model":"chat","prompt":[1],"max_tokens":0}"#).is_err());
    }

    #[test]
    fn responses_render_as_valid_json() {
        let result = InferenceResult {
            outputs: vec![vec![1.5, -2.0]],
            batch_size: 3,
            simulated_latency_seconds: 0.001,
            queue_delay_seconds: 0.0005,
            priority: Priority::Normal,
            compile_cache_hit: true,
        };
        let text = render_infer_result("m", &result, None);
        let parsed = Json::parse(&text).unwrap();
        let obj = parsed.as_object("infer response").unwrap();
        assert_eq!(get(obj, "batch_size").unwrap().as_i64("b").unwrap(), 3);
        let outputs = get(obj, "outputs").unwrap().as_array("o").unwrap();
        assert_eq!(outputs.len(), 1);

        let event = TokenEvent {
            token: 9,
            index: 2,
            sim_time_seconds: 0.5,
        };
        let line = render_token_event(&event);
        let parsed = Json::parse(&line).unwrap();
        let obj = parsed.as_object("token line").unwrap();
        assert_eq!(get(obj, "token").unwrap().as_i64("t").unwrap(), 9);

        assert!(Json::parse(&render_error("boom")).is_ok());
        assert!(Json::parse(&render_generate_done(5, None)).is_ok());
    }

    #[test]
    fn timing_segments_telescope_in_the_rendered_json() {
        let segments: [(&'static str, u128); 3] =
            [("queue", 1200), ("handle", 800), ("serialize", 40)];
        let result = InferenceResult {
            outputs: vec![vec![1.0]],
            batch_size: 1,
            simulated_latency_seconds: 0.001,
            queue_delay_seconds: 0.0,
            priority: Priority::Normal,
            compile_cache_hit: false,
        };
        let text = render_infer_result("m", &result, Some(&segments));
        let parsed = Json::parse(&text).unwrap();
        let obj = parsed.as_object("infer response").unwrap();
        let timing = get(obj, "timing").unwrap().as_object("timing").unwrap();
        let field = |name: &str| get(timing, name).unwrap().as_i64(name).unwrap();
        assert_eq!(
            field("queue_ns") + field("handle_ns") + field("serialize_ns"),
            field("total_ns")
        );
        assert_eq!(field("total_ns"), 2040);
    }
}
