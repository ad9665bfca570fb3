//! The traced replay: each workload's own requests pushed through the
//! public function of every layer the server calls, with one span per
//! layer call.
//!
//! The replay runs in this process against a loopback socket, so it
//! measures the layers, not the server's thread pools: the spans sit in
//! the benchmark's files, around the calls into each layer. Spans are
//! kept in memory and written out once the replay ends.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use spark_codec::{
    decode_batch, encode_batch, read_container, DecodeError, EncodedTensor, NibbleStream,
};
use spark_serve::api::{self, SimJob};
use spark_serve::http::{self, Request};
use spark_serve::{Batcher, ServeConfig};
use spark_sim::{run_batch, SimConfig, WorkloadReport};
use spark_store::BlockStore;
use spark_tensor::{ops, Tensor};
use spark_util::json::{self, Value};

use crate::workloads::{put_response, sim_jobs, values_of, Event, Inputs, Op, Workload};

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Request id of a span that times a layer outside any replayed request.
pub const PROBE: u32 = u32::MAX;
/// Name of the root span of one replayed request.
const REQUEST: &str = "serve.request";

/// One timed layer call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Replayed request the span belongs to, or [`PROBE`].
    pub req: u32,
}

/// In-memory span recorder. When off it only runs the closures, which is
/// how the replay measures its own overhead.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that ends at [`Tracer::close`]; returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if let Some(i) = usize::try_from(id).ok().filter(|_| self.on) {
            let now = self.ns(Instant::now());
            if let Some(span) = self.spans.get_mut(i) {
                span.end_ns = now;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span timed elsewhere (on a batcher thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        }
    }
}

/// Calls and total self time (span time minus the time its children
/// cover) per span name, over the spans `keep` accepts.
pub fn self_times(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let covered = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            child_ns[s.parent as usize] += covered;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns).filter(|(s, _)| keep(s)) {
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += (s.end_ns - s.start_ns).saturating_sub(child);
    }
    out
}

type Stamped<R> = (R, Instant, Instant);

/// Runs `f` and stamps when it started and ended.
fn stamped<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    (out, start, Instant::now())
}

/// The loopback connection, batchers, model and store one replay uses.
struct Env<'a> {
    inputs: &'a Inputs,
    listener: TcpListener,
    to_peer: Option<mpsc::Sender<Vec<u8>>>,
    from_peer: mpsc::Receiver<Result<Vec<u8>, String>>,
    peer: Option<std::thread::JoinHandle<()>>,
    max_body: usize,
    model: api::InferModel,
    encode: Batcher<Vec<u8>, Stamped<EncodedTensor>>,
    decode: Batcher<NibbleStream, Stamped<Result<Vec<u8>, DecodeError>>>,
    sim: Batcher<SimJob, Stamped<(WorkloadReport, SimJob)>>,
    sim_config: SimConfig,
    store: Option<BlockStore>,
    /// Simulated cycles of every replayed simulate request.
    cycles: f64,
}

/// What the replayed handler writes back.
enum Reply {
    Json(String),
    Raw(Vec<u8>),
}

fn batch_slot<T: Send + 'static, R: Send + 'static>(
    b: &Batcher<T, R>,
    input: T,
) -> Result<R, String> {
    b.submit(input)
        .and_then(|slot| slot.wait_timeout(Duration::from_secs(30)))
        .ok_or_else(|| "replay batcher gone".to_string())
}

impl<'a> Env<'a> {
    fn new(inputs: &'a Inputs, store: Option<BlockStore>) -> Result<Self, String> {
        let config = ServeConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let (to_peer, peer_rx) = mpsc::channel::<Vec<u8>>();
        let (peer_tx, from_peer) = mpsc::channel();
        // The client side of every replayed connection: send the request,
        // read the whole response.
        let peer = std::thread::spawn(move || {
            for raw in peer_rx {
                let reply = TcpStream::connect(addr)
                    .and_then(|mut s| {
                        s.write_all(&raw)?;
                        let mut out = Vec::new();
                        s.read_to_end(&mut out)?;
                        Ok(out)
                    })
                    .map_err(|e| format!("replay peer: {e}"));
                if peer_tx.send(reply).is_err() {
                    return;
                }
            }
        });
        // The server's own batcher settings: a lone request waits the
        // default window, as it does at light load.
        let (window, max) = (config.batch_window, config.max_batch);
        let queue = config.shard_queue.max(max);
        let encode = Batcher::spawn("bench-encode", window, max, queue, |jobs: Vec<Vec<u8>>| {
            let (out, s, e) = stamped(|| {
                let refs: Vec<&[u8]> = jobs.iter().map(Vec::as_slice).collect();
                encode_batch(&refs)
            });
            out.into_iter().map(|t| (t, s, e)).collect()
        })
        .map_err(|e| e.to_string())?;
        let decode = Batcher::spawn(
            "bench-decode",
            window,
            max,
            queue,
            |jobs: Vec<NibbleStream>| {
                let (out, s, e) = stamped(|| decode_batch(&jobs.iter().collect::<Vec<_>>()));
                out.into_iter().map(|r| (r, s, e)).collect()
            },
        )
        .map_err(|e| e.to_string())?;
        let sim_config = SimConfig::default();
        let sim = Batcher::spawn("bench-sim", window, max, queue, move |jobs: Vec<SimJob>| {
            let (reports, s, e) = stamped(|| {
                let tuples: Vec<_> = jobs
                    .iter()
                    .map(|j| (j.kind, &j.workload, &j.precision))
                    .collect();
                run_batch(&tuples, &sim_config)
            });
            reports.into_iter().zip(jobs).map(|r| (r, s, e)).collect()
        })
        .map_err(|e| e.to_string())?;
        Ok(Self {
            inputs,
            listener,
            to_peer: Some(to_peer),
            from_peer,
            peer: Some(peer),
            max_body: config.max_body_bytes,
            model: api::InferModel::new()?,
            encode,
            decode,
            sim,
            sim_config,
            store,
            cycles: 0.0,
        })
    }

    fn store(&self) -> Result<&BlockStore, String> {
        self.store
            .as_ref()
            .ok_or_else(|| "tensor replay without a store".to_string())
    }

    /// Hands one request through every layer the server would, with a
    /// span per layer call, and checks the reply against the reference.
    fn replay(&mut self, t: &mut Tracer, req: u32, ev: &Event) -> Result<(), String> {
        let inputs = self.inputs;
        let tmpl = &inputs.templates[ev.template as usize];
        let tenant = inputs
            .tenant(ev.tenant)
            .map(|name| format!("X-Spark-Tenant: {name}\r\n"))
            .unwrap_or_default();
        let mut raw = format!(
            "{} {} HTTP/1.1\r\nHost: spark\r\nContent-Type: {}\r\n{tenant}Content-Length: {}\r\nConnection: close\r\n\r\n",
            tmpl.method,
            tmpl.path,
            tmpl.content_type,
            tmpl.body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&tmpl.body);
        self.to_peer
            .as_ref()
            .expect("peer runs until the replay ends")
            .send(raw)
            .map_err(|_| "replay peer gone".to_string())?;
        let (mut stream, _) = self.listener.accept().map_err(|e| e.to_string())?;

        let root = t.open(REQUEST, NO_PARENT, req);
        let request = t
            .span("http.read", root, req, || {
                http::read_request(&mut stream, self.max_body, http::REQUEST_DEADLINE)
            })
            .map_err(|e| e.status().2)?;
        let reply = self.handle(t, root, req, tmpl.op, &request)?;
        t.span("http.write", root, req, || match &reply {
            Reply::Json(body) => {
                http::write_response(&mut stream, 200, "OK", "application/json", body.as_bytes())
            }
            Reply::Raw(bytes) => {
                http::write_response(&mut stream, 200, "OK", "application/octet-stream", bytes)
            }
        })
        .map_err(|e| e.to_string())?;
        t.close(root);
        drop(stream);

        let response = self
            .from_peer
            .recv()
            .map_err(|_| "replay peer gone".to_string())??;
        let body_at = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("replayed response has no header end")?;
        if response[body_at + 4..] != tmpl.expect[..] {
            return Err(format!(
                "replayed {} {}: body differs from the reference",
                tmpl.method, tmpl.path
            ));
        }
        Ok(())
    }

    /// The handler half of [`Env::replay`], one arm per endpoint.
    fn handle(
        &mut self,
        t: &mut Tracer,
        root: u32,
        req: u32,
        op: Op,
        request: &Request,
    ) -> Result<Reply, String> {
        let body = &request.body;
        let json_of = |text: &[u8]| -> Result<Value, String> {
            let text = std::str::from_utf8(text).map_err(|e| e.to_string())?;
            json::parse(text).map_err(|e| e.to_string())
        };
        let serialize = |t: &mut Tracer, v: Value| {
            Reply::Json(t.span("json.serialize", root, req, || v.to_string_compact()))
        };
        Ok(match op {
            Op::Infer => {
                let values = t.span("json.parse", root, req, || values_of(body))?;
                let out = t.span("nn.infer", root, req, || self.model.infer(&values))?;
                serialize(t, out)
            }
            Op::Encode => {
                let values = t.span("json.parse", root, req, || values_of(body))?;
                let codes = t.span("quant.quantize", root, req, || api::quantize_codes(&values))?;
                let wait = t.open("batch.wait", root, req);
                let (encoded, s, e) = batch_slot(&self.encode, codes.codes)?;
                t.close(wait);
                t.record("codec.encode", wait, req, s, e);
                let out = t.span("codec.hex", root, req, || {
                    api::encode_response(&encoded, codes.scale)
                });
                serialize(t, out)
            }
            Op::Decode => {
                let hex = t.span("json.parse", root, req, || {
                    json_of(body)?
                        .get("stream_hex")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| "decode body without stream_hex".to_string())
                })?;
                let stream = t.span("codec.hex", root, req, || api::stream_from_hex(&hex))?;
                let wait = t.open("batch.wait", root, req);
                let (codes, s, e) = batch_slot(&self.decode, stream)?;
                t.close(wait);
                t.record("codec.decode", wait, req, s, e);
                let codes = codes.map_err(|e| e.to_string())?;
                Reply::Json(t.span("json.serialize", root, req, || {
                    api::decode_codes_response(&codes).to_string_compact()
                }))
            }
            Op::Analyze => {
                let values = t.span("json.parse", root, req, || values_of(body))?;
                let out = t.span("api.analyze", root, req, || api::analyze_response(&values))?;
                serialize(t, out)
            }
            Op::TensorPut => {
                let name = &request.path["/v1/tensors/".len()..];
                let store = self.store()?;
                let elements = t
                    .span("store.put", root, req, || store.put_container(name, body))
                    .map_err(|e| e.to_string())?;
                serialize(t, put_response(name, elements, body.len()))
            }
            Op::TensorGet => {
                let name = &request.path["/v1/tensors/".len()..];
                let store = self.store()?;
                let (_, bytes) = t
                    .span("store.get", root, req, || store.get_raw(name))
                    .map_err(|e| e.to_string())?;
                Reply::Raw(bytes)
            }
            Op::Simulate => {
                let (model, accelerator) = t.span("json.parse", root, req, || {
                    let v = json_of(body)?;
                    let field = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
                    field("model")
                        .zip(field("accelerator"))
                        .ok_or_else(|| "bad simulate body".to_string())
                })?;
                let job = t.span("api.resolve_sim_job", root, req, || {
                    api::resolve_sim_job(&model, &accelerator)
                })?;
                let wait = t.open("batch.wait", root, req);
                let ((report, job), s, e) = batch_slot(&self.sim, job)?;
                t.close(wait);
                t.record("sim.run", wait, req, s, e);
                self.cycles += report.total_cycles;
                let config = &self.sim_config;
                Reply::Json(t.span("json.serialize", root, req, || {
                    api::simulate_response(&report, &job.workload, config).to_string_compact()
                }))
            }
        })
    }

    fn finish(mut self) -> Result<(), String> {
        self.to_peer = None;
        if let Some(peer) = self.peer.take() {
            peer.join()
                .map_err(|_| "replay peer panicked".to_string())?;
        }
        let Env {
            encode,
            decode,
            sim,
            ..
        } = self;
        encode.join();
        decode.join();
        sim.join();
        Ok(())
    }
}

/// What a traced replay measured.
pub struct Replay {
    /// Per-layer metrics: name to (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Every span of the traced pass (probes included).
    pub spans: Vec<Span>,
    pub requests: u64,
}

/// Replays `events` (the heavy phase's schedule, cut at `budget`) through
/// the layers: one traced pass whose spans are kept, then alternating
/// passes without and with spans for `trace.overhead_pct`. Runs the
/// layer probes first (see [`probes`]). `store_dir` holds a store
/// populated with the images of `tensors`, the tensors workload's inputs.
pub fn run(
    inputs: &Inputs,
    tensors: &Inputs,
    seed: u64,
    events: &[Event],
    budget: Duration,
    store_dir: &Path,
    server_p50_us: f64,
) -> Result<Replay, String> {
    let mut metrics: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let mut traced = Tracer::new(true);
    let infer_pool;
    let rows_of = match inputs.workload {
        Workload::Infer => inputs,
        _ => {
            infer_pool = Inputs::build(Workload::Infer, seed)?;
            &infer_pool
        }
    };
    let infer_rows: Vec<Vec<f32>> = rows_of
        .templates
        .iter()
        .map(|t| values_of(&t.body))
        .collect::<Result<_, _>>()?;
    // Probes first, so the store probe opens the directory as set up.
    let probe_cycles = probes(
        inputs,
        tensors,
        &infer_rows,
        &mut traced,
        store_dir,
        &mut metrics,
    )?;
    let store = (inputs.workload == Workload::Tensors)
        .then(|| BlockStore::open(store_dir))
        .transpose()
        .map_err(|e| e.to_string())?;
    let mut env = Env::new(inputs, store)?;

    // Traced pass first: it fixes how many requests both passes replay.
    let t0 = Instant::now();
    let mut requests = 0usize;
    for (i, ev) in events.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        env.replay(&mut traced, i as u32, ev)?;
        requests += 1;
    }
    let mut with_spans = t0.elapsed();
    // Cycles of every span named `sim.run`: the probe's or the replay's.
    let cycles_timed = probe_cycles + env.cycles;
    // Alternate passes without and with spans; the fastest of each side
    // is the one least disturbed by the rest of the host.
    let mut without_spans = Duration::MAX;
    for pass in 0..4 {
        let mut tracer = Tracer::new(pass % 2 == 1);
        let t0 = Instant::now();
        for (i, ev) in events[..requests].iter().enumerate() {
            env.replay(&mut tracer, i as u32, ev)?;
        }
        let took = t0.elapsed();
        if tracer.on {
            with_spans = with_spans.min(took);
        } else {
            without_spans = without_spans.min(took);
        }
    }
    env.finish()?;

    let times = self_times(&traced.spans, |_| true);
    let mean_us = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |&(calls, ns)| ns as f64 / calls as f64 / 1e3)
    };
    for (metric, span) in [
        ("http.read_us", "http.read"),
        ("http.write_us", "http.write"),
        ("json.parse_us", "json.parse"),
        ("json.serialize_us", "json.serialize"),
        ("quant.quantize_us", "quant.quantize"),
        ("codec.encode_us", "codec.encode"),
        ("codec.decode_us", "codec.decode"),
        ("codec.hex_us", "codec.hex"),
        ("codec.container_read_us", "codec.container_read"),
        ("api.analyze_us", "api.analyze"),
        ("api.resolve_sim_job_us", "api.resolve_sim_job"),
        ("nn.infer_us", "nn.infer"),
        ("batch.wait_us", "batch.wait"),
        ("sim.run_us", "sim.run"),
        ("store.put_us", "store.put"),
        ("store.get_us", "store.get"),
        ("tensor.matmul_encoded_m1_us", "tensor.matmul_encoded_m1"),
        (
            "tensor.matmul_reference_m1_us",
            "tensor.matmul_reference_m1",
        ),
        ("util.par_spawn_us", "util.par_spawn"),
    ] {
        metrics.insert(metric, (mean_us(span), "us"));
    }
    let reference = mean_us("tensor.matmul_reference_m1");
    let fused = if reference > 0.0 {
        mean_us("tensor.matmul_encoded_m1") / reference
    } else {
        0.0
    };
    metrics.insert("tensor.fused_over_reference_m1", (fused, "ratio"));
    let sim_s = times.get("sim.run").map_or(0.0, |&(_, ns)| ns as f64 / 1e9);
    let per_host_s = if sim_s > 0.0 {
        cycles_timed / sim_s
    } else {
        0.0
    };
    metrics.insert("sim.cycles_per_host_s", (per_host_s, "1/s"));

    // Layer self time per replayed request, against the server's own
    // light-load median: how much of the server's time the layers named
    // here account for.
    let layer_ns: u64 = self_times(&traced.spans, |s| s.req != PROBE && s.name != REQUEST)
        .values()
        .map(|&(_, ns)| ns)
        .sum();
    let per_request_us = layer_ns as f64 / requests.max(1) as f64 / 1e3;
    let coverage = if server_p50_us > 0.0 {
        per_request_us / server_p50_us
    } else {
        0.0
    };
    metrics.insert("trace.coverage", (coverage, "ratio"));
    let overhead = (with_spans.as_secs_f64() / without_spans.as_secs_f64() - 1.0) * 100.0;
    metrics.insert("trace.overhead_pct", (overhead, "%"));
    Ok(Replay {
        metrics,
        spans: traced.spans,
        requests: requests as u64,
    })
}

/// `off` when the workload's own requests already time the layer, else `t`.
fn unless<'a>(own: bool, t: &'a mut Tracer, off: &'a mut Tracer) -> &'a mut Tracer {
    if own {
        off
    } else {
        t
    }
}

/// Passes of the simulator probe over the simulate workload's jobs.
const SIM_PROBE_PASSES: usize = 3;

/// Direct timings of layers outside the workload's own requests or
/// inside a larger call, so that every layer is measured whichever
/// workload a comparison runs: thread fan-out, the serving model and its
/// m = 1 GEMMs, container reads and the store on the tensors workload's
/// images, and the simulator on the simulate workload's jobs. A layer
/// the workload's own requests reach is timed inside them instead.
/// Returns the simulated cycles the `sim.run` probe spans cover.
fn probes(
    inputs: &Inputs,
    tensors: &Inputs,
    infer_rows: &[Vec<f32>],
    t: &mut Tracer,
    store_dir: &Path,
    metrics: &mut BTreeMap<&'static str, (f64, &'static str)>,
) -> Result<f64, String> {
    // Probes of a layer the replay times itself run without spans.
    let mut off = Tracer::new(false);
    let own = |w: Workload| inputs.workload == w;
    // Thread fan-out cost of one parallel call.
    let items: Vec<u64> = (0..spark_util::par::thread_count() as u64).collect();
    for _ in 0..200 {
        let out = t.span("util.par_spawn", NO_PARENT, PROBE, || {
            spark_util::par_map(&items, |x| std::hint::black_box(*x) + 1)
        });
        std::hint::black_box(out);
    }
    // The serving model: one forward per row, and its GEMMs at m = 1,
    // fused over the encoded weights against the reference kernel over
    // their decode.
    let mut model = api::InferModel::new()?;
    let mats = model.export_matrices();
    let dense = mats
        .iter()
        .map(|m| m.decode().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    for row in infer_rows {
        unless(own(Workload::Infer), t, &mut off)
            .span("nn.infer", NO_PARENT, PROBE, || model.infer(row))?;
        let x =
            Tensor::from_vec(row.clone(), &[1, api::INFER_INPUTS]).map_err(|e| e.to_string())?;
        let hidden = ops::matmul_reference(&x, &dense[0]).map_err(|e| e.to_string())?;
        let fused = t.span("tensor.matmul_encoded_m1", NO_PARENT, PROBE, || {
            ops::matmul_encoded(&x, &mats[0]).and_then(|_| ops::matmul_encoded(&hidden, &mats[1]))
        });
        let reference = t.span("tensor.matmul_reference_m1", NO_PARENT, PROBE, || {
            ops::matmul_reference(&x, &dense[0])
                .and_then(|_| ops::matmul_reference(&hidden, &dense[1]))
        });
        let fused = fused.map_err(|e| e.to_string())?;
        let reference = reference.map_err(|e| e.to_string())?;
        if fused.as_slice() != reference.as_slice() {
            return Err("fused GEMM differs from the reference at m = 1".into());
        }
    }
    // Container validation and the store, on the pre-populated directory.
    for (_, image) in &tensors.images {
        t.span("codec.container_read", NO_PARENT, PROBE, || {
            read_container(&image[..])
        })
        .map_err(|e| e.to_string())?;
    }
    let (mut opens, mut wal_bytes) = (Vec::new(), 0.0);
    for _ in 0..3 {
        let t0 = Instant::now();
        let store = BlockStore::open(store_dir).map_err(|e| e.to_string())?;
        opens.push(t0.elapsed().as_secs_f64() * 1e3);
        wal_bytes = store.stats().wal_bytes as f64;
    }
    opens.sort_by(f64::total_cmp);
    metrics.insert("store.open_ms", (opens[1], "ms"));
    metrics.insert("store.wal_bytes", (wal_bytes, "bytes"));
    if inputs.workload != Workload::Tensors {
        let store = BlockStore::open(store_dir).map_err(|e| e.to_string())?;
        for (name, image) in &tensors.images {
            t.span("store.put", NO_PARENT, PROBE, || {
                store.put_container(name, image)
            })
            .map_err(|e| e.to_string())?;
            let (_, bytes) = t
                .span("store.get", NO_PARENT, PROBE, || store.get_raw(name))
                .map_err(|e| e.to_string())?;
            if bytes != *image {
                return Err(format!("store probe read back a different {name}"));
            }
        }
    }
    // The simulator. `sim.cycles` sums the first pass: a pure function of
    // the simulator, identical on every run and seed.
    let config = SimConfig::default();
    let (mut cycles, mut timed) = (0.0, 0.0);
    for pass in 0..SIM_PROBE_PASSES {
        for (model, accelerator) in sim_jobs() {
            let tracer = unless(own(Workload::Simulate), t, &mut off);
            let job = tracer.span("api.resolve_sim_job", NO_PARENT, PROBE, || {
                api::resolve_sim_job(&model, accelerator)
            })?;
            let run = tracer.span("sim.run", NO_PARENT, PROBE, || {
                run_batch(&[(job.kind, &job.workload, &job.precision)], &config)[0].total_cycles
            });
            if pass == 0 {
                cycles += run;
            }
            if tracer.on {
                timed += run;
            }
        }
    }
    metrics.insert("sim.cycles", (cycles, "count"));
    Ok(timed)
}
