//! Seeded inputs, request schedules and reference bodies for the four
//! workloads.
//!
//! Every request the generator can send is a [`Template`] built once,
//! before any timing starts, together with the exact body a correct
//! `200` must carry. The reference is computed in this process through
//! the same public `spark_serve::api` functions the server calls, so a
//! byte-for-byte comparison is the oracle.

use spark_codec::{encode_tensor, write_container};
use spark_data::ModelProfile;
use spark_serve::api;
use spark_sim::{Accelerator, AcceleratorKind, SimConfig};
use spark_util::json::{self, Value};
use spark_util::{Exp, Normal, Rng, Zipf};

/// One named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single 64-value rows on `POST /v1/infer`, Zipf tenants.
    Infer,
    /// Encode 40% / decode 30% / analyze 30%, Zipf payload sizes.
    Codec,
    /// Tensor GET 80% / PUT 20% against a pre-populated store.
    Tensors,
    /// `POST /v1/simulate` over 8 models x {SPARK, ANT}.
    Simulate,
}

impl Workload {
    /// Every workload the benchmark can drive; `BENCHMARK.json` names
    /// the ones it measures.
    pub const ALL: [Workload; 4] = [
        Workload::Infer,
        Workload::Codec,
        Workload::Tensors,
        Workload::Simulate,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Infer => "infer",
            Workload::Codec => "codec",
            Workload::Tensors => "tensors",
            Workload::Simulate => "simulate",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rates of the `light` and `heavy` open-loop phases, in
    /// requests/s, against the closed-loop `sat_rps` each workload
    /// measured on the commit that introduced this benchmark (infer ~3.4k,
    /// codec ~0.9k, tensors ~2.15k, simulate ~0.17-0.22k on 2 shared
    /// cores). `light` is about 10% of it, evenly spaced; simulate's is
    /// about 25%, so that each of the 20 rounds of a 48 s run holds 48
    /// light requests, still spaced twice as wide as one request's
    /// service time. `heavy` has Poisson arrivals at about 30% (simulate
    /// about 40%), not 50%: the host this was tuned on ran up to 1.5x
    /// slower for seconds at a time, and with bursts on top of such a
    /// spell the tail of a heavier phase swung twofold between runs. The
    /// rates are fixed, not re-derived per run, so a faster server is
    /// measured at the same load as a slower one.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Workload::Infer => (340.0, 1000.0),
            Workload::Codec => (90.0, 300.0),
            Workload::Tensors => (215.0, 650.0),
            Workload::Simulate => (45.0, 75.0),
        }
    }
}

/// What a request asks of the server; the traced replay dispatches on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Infer,
    Encode,
    Decode,
    Analyze,
    TensorPut,
    TensorGet,
    Simulate,
}

/// One pre-rendered request and the body a correct answer carries.
pub struct Template {
    pub op: Op,
    pub method: &'static str,
    pub path: String,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// The exact body of a correct `200` response.
    pub expect: Vec<u8>,
}

/// How the requests of an open-loop phase are spaced.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// One every `1 / rps` seconds: latency is service time.
    Even,
    /// Exponential gaps: bursts arrive and queue.
    Poisson,
}

/// One scheduled request of an open-loop phase.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Intended send time, microseconds from the phase start.
    pub at_us: u64,
    pub template: u32,
    /// Index into [`Inputs::tenants`], or `u32::MAX` for no tenant header.
    pub tenant: u32,
}

/// Everything a run of one workload sends, plus what it needs to set up.
pub struct Inputs {
    pub workload: Workload,
    pub templates: Vec<Template>,
    /// `X-Spark-Tenant` values; empty when the workload sends none.
    pub tenants: Vec<String>,
    mix: Mix,
    /// Tensors workload: `(name, container image)` the store starts with.
    pub images: Vec<(String, Vec<u8>)>,
}

/// How the next request is drawn from the templates.
enum Mix {
    /// Uniform over the templates, Zipf over tenants.
    Infer { tenants: Zipf },
    /// Operation by share, payload size class by Zipf, payload uniform
    /// within its class. Templates are laid out
    /// `[class][payload][encode, decode, analyze]`.
    Codec { classes: Zipf, per_class: usize },
    /// Name by Zipf; templates are laid out `[name][get, put]`.
    Tensors { names: Zipf },
    /// Uniform over the templates.
    Uniform,
}

/// Number of distinct infer rows the pool holds.
const INFER_ROWS: usize = 256;
/// Number of tenants the infer workload spreads over.
const INFER_TENANTS: usize = 64;
/// Codec payload sizes: `256 << class` values for `class` in `0..7`,
/// i.e. 256 to 16384 values.
const CODEC_CLASSES: usize = 7;
/// Distinct payloads per codec size class.
const CODEC_PER_CLASS: usize = 6;
/// Number of tensor names in the store.
const TENSOR_NAMES: usize = 32;
/// Tensor sizes: `16384 << k` elements for `k` in `0..5`, i.e. 16k to 256k.
const TENSOR_SIZE_STEPS: u64 = 5;
/// The baseline accelerator the simulate workload pairs with SPARK.
const SIM_BASELINE: AcceleratorKind = AcceleratorKind::Ant;

fn values_json(values: &[f32]) -> Vec<u8> {
    let items: Vec<String> = values.iter().map(f32::to_string).collect();
    format!("{{\"values\": [{}]}}", items.join(", ")).into_bytes()
}

/// Parses a `{"values": [...]}` body exactly as the server does.
pub fn values_of(body: &[u8]) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    api::values_from_json(&json::parse(text).map_err(|e| e.to_string())?)
}

fn normal_values(rng: &mut Rng, n: usize, std: f64) -> Vec<f32> {
    let dist = Normal::new(0.0, std).expect("positive standard deviation");
    (0..n).map(|_| dist.sample_f32(rng)).collect()
}

fn json_template(op: Op, path: &str, body: Vec<u8>, expect: Value) -> Template {
    Template {
        op,
        method: "POST",
        path: path.into(),
        content_type: "application/json",
        body,
        expect: expect.to_string_compact().into_bytes(),
    }
}

/// The name tensor `i` is stored under.
pub fn tensor_name(i: usize) -> String {
    format!("bench-{i:02}")
}

/// The `(model, accelerator)` pairs the simulate workload asks for: the
/// 8 model profiles on SPARK and on the baseline.
pub fn sim_jobs() -> Vec<(String, &'static str)> {
    ModelProfile::all()
        .into_iter()
        .flat_map(|profile| {
            [AcceleratorKind::Spark, SIM_BASELINE].map(|kind| (profile.name.clone(), kind.name()))
        })
        .collect()
}

/// The `PUT /v1/tensors/<name>` response for an octet-stream image.
pub fn put_response(name: &str, elements: usize, bytes: usize) -> Value {
    Value::object([
        ("name", Value::Str(name.into())),
        ("kind", Value::Str("tensor".into())),
        ("elements", Value::Num(elements as f64)),
        ("bytes", Value::Num(bytes as f64)),
    ])
}

impl Inputs {
    /// Builds the workload's request pool and reference bodies from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Result<Self, String> {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5e7e_bea7_0000_0001);
        let zipf = |n: usize, s: f64| Zipf::new(n, s).map_err(|e| e.to_string());
        let mut templates = Vec::new();
        let mut tenants = Vec::new();
        let mut images = Vec::new();
        let mix = match workload {
            Workload::Infer => {
                let mut model = api::InferModel::new()?;
                for _ in 0..INFER_ROWS {
                    let body = values_json(&normal_values(&mut rng, api::INFER_INPUTS, 1.0));
                    let expect = model.infer(&values_of(&body)?)?;
                    templates.push(json_template(Op::Infer, "/v1/infer", body, expect));
                }
                tenants = (0..INFER_TENANTS)
                    .map(|i| format!("tenant-{i:02}"))
                    .collect();
                Mix::Infer {
                    tenants: zipf(INFER_TENANTS, 1.1)?,
                }
            }
            Workload::Codec => {
                for class in 0..CODEC_CLASSES {
                    for _ in 0..CODEC_PER_CLASS {
                        let body = values_json(&normal_values(&mut rng, 256 << class, 0.05));
                        let values = values_of(&body)?;
                        let codes = api::quantize_codes(&values)?;
                        let encoded = encode_tensor(&codes.codes);
                        let hex = api::stream_to_hex(&encoded.stream);
                        templates.push(json_template(
                            Op::Encode,
                            "/v1/encode",
                            body.clone(),
                            api::encode_response(&encoded, codes.scale),
                        ));
                        templates.push(json_template(
                            Op::Decode,
                            "/v1/decode",
                            format!("{{\"stream_hex\": \"{hex}\"}}").into_bytes(),
                            api::decode_response(&hex)?,
                        ));
                        templates.push(json_template(
                            Op::Analyze,
                            "/v1/analyze",
                            body,
                            api::analyze_response(&values)?,
                        ));
                    }
                }
                Mix::Codec {
                    classes: zipf(CODEC_CLASSES, 1.0)?,
                    per_class: CODEC_PER_CLASS,
                }
            }
            Workload::Tensors => {
                for i in 0..TENSOR_NAMES {
                    // Sizes follow the popularity rank, not the seed, so
                    // every seed offers the same size mix.
                    let elements = 16_384usize << (i as u64 % TENSOR_SIZE_STEPS);
                    let codes = api::quantize_codes(&normal_values(&mut rng, elements, 0.05))?;
                    let mut image = Vec::new();
                    write_container(&encode_tensor(&codes.codes), &mut image)
                        .map_err(|e| e.to_string())?;
                    let name = tensor_name(i);
                    let path = format!("/v1/tensors/{name}");
                    templates.push(Template {
                        op: Op::TensorGet,
                        method: "GET",
                        path: path.clone(),
                        content_type: "",
                        body: Vec::new(),
                        expect: image.clone(),
                    });
                    templates.push(Template {
                        op: Op::TensorPut,
                        method: "PUT",
                        path,
                        content_type: "application/octet-stream",
                        body: image.clone(),
                        expect: put_response(&name, elements, image.len())
                            .to_string_compact()
                            .into_bytes(),
                    });
                    images.push((name, image));
                }
                Mix::Tensors {
                    names: zipf(TENSOR_NAMES, 1.0)?,
                }
            }
            Workload::Simulate => {
                let config = SimConfig::default();
                for (model, accelerator) in sim_jobs() {
                    let job = api::resolve_sim_job(&model, accelerator)?;
                    let report =
                        Accelerator::new(job.kind).run(&job.workload, &job.precision, &config);
                    let body = Value::object([
                        ("model", Value::Str(model)),
                        ("accelerator", Value::Str(accelerator.into())),
                    ]);
                    templates.push(json_template(
                        Op::Simulate,
                        "/v1/simulate",
                        body.to_string_compact().into_bytes(),
                        api::simulate_response(&report, &job.workload, &config),
                    ));
                }
                Mix::Uniform
            }
        };
        Ok(Self {
            workload,
            templates,
            tenants,
            mix,
            images,
        })
    }

    /// Draws the next request: a template index and a tenant index
    /// (`u32::MAX` for none).
    pub fn pick(&self, rng: &mut Rng) -> (u32, u32) {
        let n = self.templates.len() as u64;
        let (template, tenant) = match &self.mix {
            Mix::Infer { tenants } => (rng.gen_below(n), tenants.sample_index(rng) as u64),
            Mix::Codec { classes, per_class } => {
                let u = rng.gen_f64();
                let op = if u < 0.4 {
                    0
                } else if u < 0.7 {
                    1
                } else {
                    2
                };
                let class = classes.sample_index(rng) as u64;
                let payload = rng.gen_below(*per_class as u64);
                (
                    (class * *per_class as u64 + payload) * 3 + op,
                    u64::from(u32::MAX),
                )
            }
            Mix::Tensors { names } => {
                let put = u64::from(rng.gen_f64() < 0.2);
                (
                    names.sample_index(rng) as u64 * 2 + put,
                    u64::from(u32::MAX),
                )
            }
            Mix::Uniform => (rng.gen_below(n), u64::from(u32::MAX)),
        };
        (template as u32, tenant as u32)
    }

    /// An open-loop schedule of `rps * seconds` requests, each drawn with
    /// [`Inputs::pick`] and sent at `rps` on average: evenly spaced, or
    /// with seeded exponential gaps (Poisson arrivals) so bursts queue.
    pub fn open_schedule(
        &self,
        rng: &mut Rng,
        rps: f64,
        seconds: f64,
        arrivals: Arrivals,
    ) -> Vec<Event> {
        let count = (rps * seconds) as u64;
        let gaps = Exp::new(rps).expect("positive rate");
        let mut at_s = 0.0;
        (0..count)
            .map(|i| {
                let (template, tenant) = self.pick(rng);
                let at_us = match arrivals {
                    Arrivals::Even => (i as f64 * 1e6 / rps) as u64,
                    Arrivals::Poisson => {
                        at_s += gaps.sample(rng);
                        (at_s * 1e6) as u64
                    }
                };
                Event {
                    at_us,
                    template,
                    tenant,
                }
            })
            .collect()
    }

    /// The tenant header value for tenant index `t`, if any.
    pub fn tenant(&self, t: u32) -> Option<&str> {
        self.tenants.get(t as usize).map(String::as_str)
    }
}
