//! Request/response schemas over the codec, quantizer, and simulator.
//!
//! Everything JSON-shaped that the server emits lives here so the CLI's
//! `--json` mode can reuse the exact same serializers — `spark analyze
//! --json foo.f32` and `POST /v1/analyze` produce byte-identical bodies
//! for the same input, which is what makes the loopback bit-identity
//! tests meaningful.
//!
//! The functions are split along the batching seam: quantization
//! (per-request, cheap) is separate from stream encoding (batched by the
//! server through [`spark_codec::encode_batch`]) so the batcher can
//! coalesce the expensive stage without reshaping responses.

use std::sync::OnceLock;

use spark_codec::{analysis, decode_stream, EncodedTensor, NibbleStream};
use spark_data::ModelProfile;
use spark_nn::layers::{Dense, Relu};
use spark_nn::{FreezeReport, ModelWorkload, Sequential};
use spark_quant::{Codec, MagnitudeCodes, MagnitudeQuantizer, SparkCodec};
use spark_sim::{AcceleratorKind, PrecisionProfile, SimConfig, WorkloadReport};
use spark_tensor::Tensor;
use spark_util::json::{ToJson, Value};

/// Bit-width every serving-path quantization uses (the paper's INT8
/// baseline that SPARK encodes).
pub const SERVE_BITS: u8 = 8;

/// Wraps a 1-D tensor around raw values.
fn tensor_of(values: &[f32]) -> Result<Tensor, String> {
    Tensor::from_vec(values.to_vec(), &[values.len()]).map_err(|e| e.to_string())
}

/// Quantizes raw f32 values to INT8 magnitude codes — the per-request
/// half of the encode pipeline (the stream-encoding half is batched).
///
/// # Errors
///
/// Non-finite inputs and empty tensors are rejected with a message.
pub fn quantize_codes(values: &[f32]) -> Result<MagnitudeCodes, String> {
    if values.is_empty() {
        return Err("empty input: no values to encode".into());
    }
    let tensor = tensor_of(values)?;
    let quantizer = MagnitudeQuantizer::new(SERVE_BITS).map_err(|e| e.to_string())?;
    quantizer.quantize(&tensor).map_err(|e| e.to_string())
}

/// Lower-hex dump of a nibble stream, one character per nibble.
pub fn stream_to_hex(stream: &NibbleStream) -> String {
    // NibbleStream::iter yields values < 16 by construction, so every
    // nibble indexes the hex alphabet; no fallible conversion needed.
    const HEX: [u8; 16] = *b"0123456789abcdef";
    stream.iter().map(|n| char::from(HEX[usize::from(n) & 0xF])).collect()
}

/// Rebuilds a nibble stream from its hex dump.
///
/// # Errors
///
/// Rejects empty input and non-hex characters.
pub fn stream_from_hex(hex: &str) -> Result<NibbleStream, String> {
    if hex.is_empty() {
        return Err("empty stream_hex".into());
    }
    let mut stream = NibbleStream::with_capacity(hex.len());
    for (i, c) in hex.chars().enumerate() {
        let nibble = c
            .to_digit(16)
            .ok_or_else(|| format!("stream_hex: invalid hex digit {c:?} at offset {i}"))?;
        stream.push(nibble as u8);
    }
    Ok(stream)
}

/// Serializes one encoded tensor (plus the quantizer scale a client needs
/// to dequantize later) as the `/v1/encode` response body.
pub fn encode_response(encoded: &EncodedTensor, scale: f32) -> Value {
    Value::object([
        ("elements", Value::Num(encoded.elements as f64)),
        ("scale", Value::Num(f64::from(scale))),
        ("nibbles", Value::Num(encoded.stream.len() as f64)),
        ("avg_bits", Value::Num(encoded.stats.avg_bits())),
        ("short_fraction", Value::Num(encoded.stats.short_fraction())),
        ("lossless_fraction", Value::Num(encoded.stats.lossless_fraction())),
        ("stream_hex", Value::Str(stream_to_hex(&encoded.stream))),
    ])
}

/// Serializes decoded code words as the `/v1/decode` response body — the
/// post-decode half of the decode pipeline, shared by the batched server
/// path and the direct [`decode_response`].
pub fn decode_codes_response(codes: &[u8]) -> Value {
    Value::object([
        ("elements", Value::Num(codes.len() as f64)),
        ("codes", codes.to_json()),
    ])
}

/// Decodes a hex-dumped stream back to code words — the `/v1/decode`
/// response body. The server splits this along the batching seam (hex
/// parsing per-request, stream decode batched through
/// [`spark_codec::decode_batch`]); this single-call form serves the CLI
/// and produces byte-identical bodies.
///
/// # Errors
///
/// Bad hex and malformed streams (truncated long code) are reported with
/// a message.
pub fn decode_response(stream_hex: &str) -> Result<Value, String> {
    let stream = stream_from_hex(stream_hex)?;
    let codes = decode_stream(&stream).map_err(|e| e.to_string())?;
    Ok(decode_codes_response(&codes))
}

/// Runs the full `spark analyze` pipeline and serializes it — shared by
/// `POST /v1/analyze` and `spark analyze --json`.
///
/// # Errors
///
/// Propagates quantizer/codec failures (empty or non-finite input).
pub fn analyze_response(values: &[f32]) -> Result<Value, String> {
    if values.is_empty() {
        return Err("empty input: no values to analyze".into());
    }
    let tensor = tensor_of(values)?;
    let quantizer = MagnitudeQuantizer::new(SERVE_BITS).map_err(|e| e.to_string())?;
    let codes = quantizer.quantize(&tensor).map_err(|e| e.to_string())?;
    let a = analysis::analyze(&codes.codes);
    let r = SparkCodec::default().compress(&tensor).map_err(|e| e.to_string())?;
    let mut members = match a.to_json() {
        Value::Object(members) => members,
        _ => unreachable!("to_json_struct always yields an object"),
    };
    members.push(("alignment_overhead_bits".into(), Value::Num(a.alignment_overhead_bits())));
    members.push(("sqnr_db".into(), Value::Num(r.sqnr_db(&tensor))));
    Ok(Value::Object(members))
}

/// One servable model: its calibration profile and, once its first
/// simulate request has run, the memoized calibration.
struct ModelEntry {
    profile: ModelProfile,
    calibrated: OnceLock<Result<(ModelWorkload, PrecisionProfile), String>>,
}

/// Every servable model, in [`ModelProfile::all`] order, each with its
/// own lazily filled calibration.
struct ModelTable(Vec<ModelEntry>);

impl ModelTable {
    fn new() -> Self {
        Self(
            ModelProfile::all()
                .into_iter()
                .map(|profile| ModelEntry { profile, calibrated: OnceLock::new() })
                .collect(),
        )
    }

    /// Looks a model up case-insensitively.
    fn find(&self, name: &str) -> Result<&ModelEntry, String> {
        self.0
            .iter()
            .find(|m| m.profile.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown model {name}; try `spark models`"))
    }

    /// See [`resolve_sim_job`].
    fn sim_job(&self, model: &str, accelerator: &str) -> Result<SimJob, String> {
        let entry = self.find(model)?;
        let kind = resolve_accelerator(accelerator)?;
        let calibrated = entry.calibrated.get_or_init(|| calibrate(&entry.profile));
        let (workload, precision) = calibrated.as_ref().map_err(Clone::clone)?;
        Ok(SimJob { workload: workload.clone(), kind, precision: *precision })
    }
}

/// The process-wide model table. Calibrations fill in one per model, on
/// that model's first request; nothing is calibrated at server start.
fn models() -> &'static ModelTable {
    static MODELS: OnceLock<ModelTable> = OnceLock::new();
    MODELS.get_or_init(ModelTable::new)
}

/// Resolves a model name case-insensitively to its canonical spelling.
///
/// # Errors
///
/// Unknown names get a message listing the lookup command.
pub fn resolve_model(name: &str) -> Result<String, String> {
    models().find(name).map(|m| m.profile.name.clone())
}

/// Resolves an accelerator name case-insensitively.
///
/// # Errors
///
/// Unknown names get a message listing the valid set.
pub fn resolve_accelerator(name: &str) -> Result<AcceleratorKind, String> {
    AcceleratorKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = AcceleratorKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown accelerator {name}; expected one of {}", names.join(", "))
        })
}

/// A fully-resolved simulation request, ready to run (or batch).
pub struct SimJob {
    /// The workload to simulate.
    pub workload: ModelWorkload,
    /// Accelerator to run it on.
    pub kind: AcceleratorKind,
    /// Calibrated precision mix for the model's distributions.
    pub precision: PrecisionProfile,
}

/// Calibrates a model from its sampled weight and activation
/// distributions: the workload plus the SPARK precision mix the simulator
/// prices it with. Deterministic (fixed sample seeds), so its result can
/// be computed once per model and shared.
fn calibrate(profile: &ModelProfile) -> Result<(ModelWorkload, PrecisionProfile), String> {
    let workload = ModelWorkload::by_name(&profile.name)
        .ok_or_else(|| format!("no workload for {}", profile.name))?;
    let weights = profile.sample_tensor(40_000, 1);
    let acts = profile.sample_activations(40_000, 2);
    let precision =
        PrecisionProfile::from_tensors(&weights, &acts).map_err(|e| e.to_string())?;
    Ok((workload, precision))
}

/// Resolves model + accelerator names into a runnable [`SimJob`], using
/// the same calibrated sampling as `spark simulate`.
///
/// Calibration runs once per model per process, on that model's first
/// call; later calls copy the memoized workload and precision profile.
/// The simulation itself is never cached: every job still runs.
///
/// # Errors
///
/// Unknown model or accelerator names.
pub fn resolve_sim_job(model: &str, accelerator: &str) -> Result<SimJob, String> {
    models().sim_job(model, accelerator)
}

/// Serializes a finished simulation as the `/v1/simulate` response body:
/// the full layer-by-layer report plus the derived latency/efficiency
/// figures the text CLI prints.
pub fn simulate_response(
    report: &WorkloadReport,
    workload: &ModelWorkload,
    config: &SimConfig,
) -> Value {
    let mut members = match report.to_json() {
        Value::Object(members) => members,
        _ => unreachable!("to_json_struct always yields an object"),
    };
    members.push(("frequency_mhz".into(), Value::Num(config.frequency_mhz)));
    members.push(("latency_ms".into(), Value::Num(report.latency_ms(config))));
    members.push(("gmacs_per_joule".into(), Value::Num(report.gmacs_per_joule(workload))));
    Value::Object(members)
}

/// Input width of the serving inference model.
pub const INFER_INPUTS: usize = 64;
/// Hidden width of the serving inference model.
pub const INFER_HIDDEN: usize = 128;
/// Output width (logit count) of the serving inference model.
pub const INFER_OUTPUTS: usize = 10;
/// Seed the serving inference model is built from. Any process building
/// an [`InferModel`] gets bit-identical weights, which is what makes the
/// loopback bit-identity test against `/v1/infer` meaningful.
pub const INFER_SEED: u64 = 0x5134_11CE;
/// Reserved blockstore names the serving model's frozen weight matrices
/// persist under, in layer order. `spark store put --infer-model` writes
/// them; `spark serve --store <dir>` cold-loads from them when all are
/// present.
pub const STORE_MODEL_KEYS: [&str; 2] = ["__model/infer/w0", "__model/infer/w1"];

/// The `/v1/infer` model: a deterministic seeded MLP whose weights are
/// frozen into SPARK nibble streams at construction. Every forward pass
/// runs the decode-fused GEMM directly over the encoded weights — the
/// dense `f32` weight matrices are only materialized transiently during
/// the freeze, so the resident weight footprint is the encoded form.
pub struct InferModel {
    model: Sequential,
    report: FreezeReport,
}

impl InferModel {
    /// Builds and freezes the serving model.
    ///
    /// # Errors
    ///
    /// Propagates encode failures (cannot happen for the seeded Glorot
    /// weights, but the fallible path is kept honest).
    pub fn new() -> Result<Self, String> {
        let mut model = Sequential::new("serve-infer")
            .push(Dense::new(INFER_INPUTS, INFER_HIDDEN, INFER_SEED))
            .push(Relu::new())
            .push(Dense::new(INFER_HIDDEN, INFER_OUTPUTS, INFER_SEED.wrapping_add(1)));
        let report = model.freeze_encoded().map_err(|e| format!("freeze: {e}"))?;
        Ok(Self { model, report })
    }

    /// Cold-loads the serving model from stored frozen weight matrices
    /// (layer order: the two [`Dense`] weights), skipping the
    /// quantize-and-encode pass. The resulting model serves `/v1/infer`
    /// responses bit-identical to the model the matrices were exported
    /// from — the loopback test in `server.rs` enforces this.
    ///
    /// # Errors
    ///
    /// Wrong matrix count, mismatched dimensions, or corrupt container
    /// bytes.
    pub fn from_matrices(
        mats: impl IntoIterator<Item = spark_tensor::EncodedMatrix>,
    ) -> Result<Self, String> {
        let mut model = Sequential::new("serve-infer")
            .push(Dense::new(INFER_INPUTS, INFER_HIDDEN, INFER_SEED))
            .push(Relu::new())
            .push(Dense::new(INFER_HIDDEN, INFER_OUTPUTS, INFER_SEED.wrapping_add(1)));
        let report = model.import_weights(mats).map_err(|e| format!("import: {e}"))?;
        Ok(Self { model, report })
    }

    /// The frozen weight matrices in layer order — what `spark store put
    /// --infer-model` persists and [`InferModel::from_matrices`] reloads.
    pub fn export_matrices(&self) -> Vec<spark_tensor::EncodedMatrix> {
        self.model.exported_weights().into_iter().cloned().collect()
    }

    /// Encoded resident bytes / dense `f32` bytes for the frozen weights.
    pub fn report(&self) -> FreezeReport {
        self.report
    }

    /// Runs one forward pass and serializes the `/v1/infer` response body.
    ///
    /// # Errors
    ///
    /// Wrong input width or non-finite values.
    pub fn infer(&mut self, values: &[f32]) -> Result<Value, String> {
        if values.len() != INFER_INPUTS {
            return Err(format!(
                "infer expects exactly {INFER_INPUTS} values, got {}",
                values.len()
            ));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err("infer input contains a non-finite value".into());
        }
        let x = Tensor::from_vec(values.to_vec(), &[1, INFER_INPUTS])
            .map_err(|e| e.to_string())?;
        let logits = self.model.forward(&x);
        let l = logits.as_slice();
        let argmax = l
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i);
        Ok(Value::object([
            ("outputs", Value::Array(l.iter().map(|v| Value::Num(f64::from(*v))).collect())),
            ("argmax", Value::Num(argmax as f64)),
            ("weight_bytes_encoded", Value::Num(self.report.resident_bytes as f64)),
            ("weight_bytes_f32", Value::Num(self.report.dense_bytes as f64)),
            ("weight_bytes_ratio", Value::Num(self.report.ratio())),
        ]))
    }
}

/// Extracts `values` from a JSON request body (`{"values": [..]}`), used
/// when an encode/analyze client prefers JSON over raw octets.
///
/// # Errors
///
/// Missing field, non-array, or non-numeric elements.
pub fn values_from_json(body: &Value) -> Result<Vec<f32>, String> {
    let arr = body
        .get("values")
        .and_then(Value::as_array)
        .ok_or("body must be {\"values\": [numbers...]}")?;
    arr.iter()
        .map(|v| v.as_f64().map(|x| x as f32).ok_or_else(|| "values must be numbers".to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_codec::encode_tensor;

    fn sample_values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37) % 100) as f32 / 100.0 - 0.5).collect()
    }

    #[test]
    fn stream_hex_round_trips() {
        let values = sample_values(513);
        let codes = quantize_codes(&values).unwrap();
        let encoded = encode_tensor(&codes.codes);
        let hex = stream_to_hex(&encoded.stream);
        let back = stream_from_hex(&hex).unwrap();
        assert_eq!(back.as_bytes(), encoded.stream.as_bytes());
        assert_eq!(back.len(), encoded.stream.len());
        assert_eq!(decode_stream(&back).unwrap(), decode_stream(&encoded.stream).unwrap());
    }

    #[test]
    fn stream_from_hex_rejects_bad_input() {
        assert!(stream_from_hex("").is_err());
        assert!(stream_from_hex("0g").unwrap_err().contains("offset 1"));
        assert!(stream_from_hex("a b").is_err());
    }

    #[test]
    fn encode_response_has_all_fields_and_parses() {
        let values = sample_values(256);
        let codes = quantize_codes(&values).unwrap();
        let encoded = encode_tensor(&codes.codes);
        let body = encode_response(&encoded, codes.scale).to_string_compact();
        let v = spark_util::json::parse(&body).unwrap();
        assert_eq!(v.get("elements").unwrap().as_f64(), Some(256.0));
        assert!(v.get("scale").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("avg_bits").unwrap().as_f64().unwrap() >= 4.0);
        let hex = v.get("stream_hex").unwrap().as_str().unwrap();
        assert_eq!(hex.len(), encoded.stream.len());
    }

    #[test]
    fn decode_response_inverts_encode_response() {
        let values = sample_values(300);
        let codes = quantize_codes(&values).unwrap();
        let encoded = encode_tensor(&codes.codes);
        let hex = stream_to_hex(&encoded.stream);
        let v = decode_response(&hex).unwrap();
        let decoded: Vec<u8> = v
            .get("codes")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap() as u8)
            .collect();
        assert_eq!(decoded, decode_stream(&encoded.stream).unwrap());
    }

    #[test]
    fn analyze_response_matches_direct_pipeline() {
        let values = sample_values(2000);
        let body = analyze_response(&values).unwrap().to_string_compact();
        let v = spark_util::json::parse(&body).unwrap();
        assert_eq!(v.get("count").unwrap().as_f64(), Some(2000.0));
        for field in [
            "spark_bits",
            "source_entropy",
            "reconstructed_entropy",
            "alignment_overhead_bits",
            "mean_error",
            "rms_error",
            "sqnr_db",
        ] {
            assert!(v.get(field).unwrap().as_f64().is_some(), "missing {field}");
        }
    }

    #[test]
    fn empty_and_non_finite_inputs_error() {
        assert!(quantize_codes(&[]).is_err());
        assert!(analyze_response(&[]).is_err());
        assert!(quantize_codes(&[1.0, f32::NAN]).is_err());
        assert!(analyze_response(&[f32::INFINITY]).is_err());
    }

    #[test]
    fn model_and_accelerator_lookup_is_case_insensitive() {
        assert_eq!(resolve_model("resnet18").unwrap(), "ResNet18");
        assert_eq!(resolve_model("BERT").unwrap(), "BERT");
        assert!(resolve_model("nope").is_err());
        assert_eq!(resolve_accelerator("SPARK").unwrap(), AcceleratorKind::Spark);
        assert!(resolve_accelerator("nope").unwrap_err().contains("expected one of"));
    }

    fn precision_bits(p: &PrecisionProfile) -> [u64; 4] {
        [p.short_frac_w, p.short_frac_a, p.spark_bits_w, p.spark_bits_a].map(f64::to_bits)
    }

    /// Asserts a job equals an uncached calibration of its model.
    fn assert_job(job: &SimJob, kind: AcceleratorKind, want: &(ModelWorkload, PrecisionProfile)) {
        assert_eq!(job.kind, kind);
        assert_eq!(job.workload, want.0);
        assert_eq!(precision_bits(&job.precision), precision_bits(&want.1));
    }

    #[test]
    fn memoized_sim_job_equals_an_uncached_calibration() {
        for entry in &models().0 {
            let want = calibrate(&entry.profile).unwrap();
            for kind in AcceleratorKind::ALL {
                // Twice: the first call may fill the memo, the second reads it.
                for _ in 0..2 {
                    let job = resolve_sim_job(&entry.profile.name, kind.name()).unwrap();
                    assert_job(&job, kind, &want);
                }
            }
        }
    }

    #[test]
    fn racing_first_use_yields_identical_jobs() {
        let table = ModelTable::new();
        let start = std::sync::Barrier::new(8);
        let jobs: Vec<Vec<SimJob>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let names = table.0.iter().map(|m| &m.profile.name);
                        names.map(|n| table.sim_job(n, "spark").unwrap()).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, entry) in table.0.iter().enumerate() {
            assert_job(&jobs[0][i], AcceleratorKind::Spark, &calibrate(&entry.profile).unwrap());
            for thread in &jobs[1..] {
                assert_eq!(thread[i].workload, jobs[0][i].workload);
                let (got, want) = (&thread[i].precision, &jobs[0][i].precision);
                assert_eq!(precision_bits(got), precision_bits(want));
            }
        }
    }

    #[test]
    fn simulate_response_extends_the_report() {
        let job = resolve_sim_job("resnet18", "spark").unwrap();
        let config = SimConfig::default();
        let report =
            spark_sim::Accelerator::new(job.kind).run(&job.workload, &job.precision, &config);
        let body = simulate_response(&report, &job.workload, &config).to_string_compact();
        let v = spark_util::json::parse(&body).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("ResNet18"));
        assert!(v.get("total_cycles").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("latency_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("gmacs_per_joule").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("layers").unwrap().as_array().unwrap().len() > 1);
    }

    #[test]
    fn values_from_json_parses_and_rejects() {
        let ok = spark_util::json::parse("{\"values\": [1.0, -2.5, 3]}").unwrap();
        assert_eq!(values_from_json(&ok).unwrap(), vec![1.0, -2.5, 3.0]);
        let missing = spark_util::json::parse("{\"nope\": 1}").unwrap();
        assert!(values_from_json(&missing).is_err());
        let bad = spark_util::json::parse("{\"values\": [1, \"x\"]}").unwrap();
        assert!(values_from_json(&bad).is_err());
    }
}
