//! End-to-end benchmark of `spark serve`.
//!
//! ```text
//! servebench --spark-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! servebench --spark-bin PATH --steady N [--workload NAME] --seed N --seconds S
//! ```
//!
//! One run starts the shipped `spark serve` binary as a child process
//! with its production defaults and drives one workload (see
//! [`workloads::Workload`]) through three phases, each against its own
//! freshly started server and played in interleaved rounds:
//!
//! - `light`: open loop, evenly spaced at a low rate, where latency is
//!   service time;
//! - `heavy`: open loop with Poisson arrivals at a higher rate, where
//!   queueing shows;
//! - saturation: closed loop on `nproc` connections.
//!
//! Each of the 20 rounds plays a twentieth of every phase in turn, so
//! each phase samples the whole run.
//!
//! The end-to-end metrics are taken over the quarter of the rounds in
//! which the hypervisor stole the least CPU time (see [`CALM_ROUNDS`]).
//! Open-loop latency is timed from each request's intended send time.
//! `p50` is the median over those rounds of each round's median (see
//! [`calm_p50_ms`]); the plain p90 and p99 over every request of every
//! round are printed too, and are per-layer metrics of the generator.
//! `sat_rps` is the rate of correct answers over those rounds'
//! saturation slices, and `setup_s` the median of those rounds'
//! set-up-only starts, four in each round.
//!
//! Every response body is compared byte for byte with a reference
//! computed in this process. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` the run also replays
//! the workload's requests through each layer's public functions with
//! spans (see [`trace`]) and carries the per-layer metrics instead.
//! `--steady N` runs each workload of `BENCHMARK.json` (or the one given)
//! N times on consecutive seeds and reports every end-to-end metric's
//! median and quartile spread against the bounds there.

mod child;
mod load;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use spark_store::BlockStore;
use spark_util::json::{self, Value};
use spark_util::{Fnv1a, Rng};

use child::Server;
use load::{Sample, Tally};
use workloads::{Arrivals, Event, Inputs, Workload};

/// Where runs keep their stores and trace files, under the checkout.
const WORK_DIR: &str = "servebench/.work";
/// Share of `--seconds` each phase gets: light, heavy, saturation.
const PHASE_SHARE: [f64; 3] = [0.45, 0.3, 0.25];
/// Servers started in each round only to time set-up.
const SETUPS_PER_ROUND: usize = 4;
/// Rounds a run is cut into. Each round plays a slice of every phase in
/// turn, so each phase samples the whole run and a slow spell of the
/// shared host, which lasts a second or two, lands on all three phases
/// instead of on one.
const ROUNDS: usize = 20;
/// Rounds the end-to-end timings (latencies, `sat_rps`, `setup_s`) are
/// taken over: the quarter of the run in which the hypervisor stole the
/// least CPU time. On a shared host other guests can take a sixth of the
/// CPU for minutes, which moves every metric of every round it covers;
/// the server itself cannot cause steal, so leaving those rounds out
/// drops the host's noise, not the server's. Short rounds let the
/// calmest ones be picked out of a spell that covers most of a run.
const CALM_ROUNDS: usize = ROUNDS / 4;
/// Fewest requests a round of an open phase may hold, so that its median
/// rests on 20 or more on either side.
const ROUND_MIN: usize = 40;
/// Longest a server is warmed before the measured rounds.
const WARM_BUDGET: Duration = Duration::from_millis(400);
/// Longest the traced pass of the replay runs.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

struct Args {
    spark_bin: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spark_bin: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 34.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--spark-bin" => args.spark_bin = PathBuf::from(&value),
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            "--steady" => args.steady = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.spark_bin.is_file() {
        return Err(format!(
            "spark binary {} not found",
            args.spark_bin.display()
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A metric value and its unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What one phase measured.
struct Phase {
    /// Open loop: one sample per scheduled request, by round.
    rounds: Vec<Vec<Sample>>,
    /// Closed loop: correct answers per second, by round.
    rates: Vec<f64>,
    /// The server's `/metrics` at the end of the phase.
    metrics: Value,
    rss_mb: f64,
}

/// What one run of one workload measured.
struct Outcome {
    tally: Tally,
    end_to_end: Metrics,
    per_layer: Metrics,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `q`-quantile of already sorted values, interpolated linearly
/// between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match sorted.get(lo + 1) {
        Some(&hi) if frac > 0.0 => sorted[lo] * (1.0 - frac) + hi * frac,
        _ => sorted.get(lo).copied().unwrap_or(last),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The run header: what a result must be read together with.
fn header(workload: Workload, seed: u64, seconds: f64) -> Value {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::object([
        ("git_rev", Value::Str(rev)),
        ("nproc", Value::Num(nproc() as f64)),
        (
            "decode_variant",
            Value::Str(format!("{:?}", spark_codec::DecodeVariant::detect())),
        ),
        (
            "gemm_variant",
            Value::Str(spark_tensor::gemm::GemmVariant::detect().name().into()),
        ),
        ("workload", Value::Str(workload.name().into())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
    ])
}

/// Jiffies the host's CPUs spent in total and stolen by the hypervisor,
/// from `/proc/stat` (zeros where it is unreadable).
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// FNV-1a over every open-loop event and the first requests of each
/// closed-loop connection of every round: equal digests mean two runs sent identical work.
fn schedule_digest(inputs: &Inputs, phases: &[&[Event]], seed: u64, conns: usize) -> String {
    let mut h = Fnv1a::new();
    for events in phases {
        for e in *events {
            h.update_u64(e.at_us);
            h.update_u64(u64::from(e.template) << 32 | u64::from(e.tenant));
        }
    }
    for round in 0..ROUNDS {
        for c in 0..conns {
            let mut rng = load::closed_stream(seed, round, c);
            for _ in 0..1024 {
                let (template, tenant) = inputs.pick(&mut rng);
                h.update_u64(u64::from(template) << 32 | u64::from(tenant));
            }
        }
    }
    format!("{:016x}", h.finish())
}

/// Pulls a number out of a `/metrics` snapshot by path.
fn scraped(m: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(m, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Writes a fresh store holding the workload's tensor images.
fn populate_store(dir: &Path, images: &[(String, Vec<u8>)]) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let store = BlockStore::open(dir).map_err(|e| e.to_string())?;
    for (name, image) in images {
        store
            .put_container(name, image)
            .map_err(|e| e.to_string())?;
    }
    store.flush().map_err(|e| e.to_string())
}

/// The `q`-quantile of the latencies of `samples`, in milliseconds.
fn latency_ms(samples: &[Sample], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, q) / 1e3
}

/// The median latency of an open phase, in milliseconds: the median over
/// the `calm` rounds of each round's median. Each round holds at least
/// [`ROUND_MIN`] requests.
fn calm_p50_ms(rounds: &[Vec<Sample>], calm: &[usize]) -> f64 {
    let per_round: Vec<f64> = calm.iter().map(|&r| latency_ms(&rounds[r], 0.5)).collect();
    median(&per_round)
}

/// The [`CALM_ROUNDS`] rounds the hypervisor stole the least CPU time in,
/// given each round's stolen share; earlier rounds win ties.
fn calm_rounds(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(CALM_ROUNDS);
    order.sort_unstable();
    order
}

/// One run of one workload.
fn run_once(args: &Args, workload: Workload, seed: u64, trace: bool) -> Result<Outcome, String> {
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let out = run_in(args, workload, seed, trace, &work);
    let cleaned =
        std::fs::remove_dir_all(&work).map_err(|e| format!("clean {}: {e}", work.display()));
    let out = out?;
    cleaned?;
    Ok(out)
}

/// [`run_once`] with its stores under `work`.
fn run_in(
    args: &Args,
    workload: Workload,
    seed: u64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let head = header(workload, seed, args.seconds);
    println!("header {}", head.to_string_compact());
    let inputs = Inputs::build(workload, seed)?;
    let conns = nproc();
    let jiffies_at_start = cpu_jiffies();
    let pristine = work.join("pristine");
    let with_store = workload == Workload::Tensors;
    if with_store {
        populate_store(&pristine, &inputs.images)?;
    }
    // Server `slot` runs on its own copy of the pre-populated store.
    let start = |slot: usize| -> Result<Server, String> {
        let live = work.join(format!("live-{slot}"));
        if with_store {
            child::copy_dir(&pristine, &live)?;
        }
        Server::start(&args.spark_bin, with_store.then_some(live.as_path()))
    };

    let (light_rps, heavy_rps) = workload.rates();
    let mut rng = Rng::seed_from_u64(seed);
    let light = inputs.open_schedule(
        &mut rng.fork(),
        light_rps,
        args.seconds * PHASE_SHARE[0],
        Arrivals::Even,
    );
    let heavy = inputs.open_schedule(
        &mut rng.fork(),
        heavy_rps,
        args.seconds * PHASE_SHARE[1],
        Arrivals::Poisson,
    );
    println!(
        "schedule digest {} (light {} events, heavy {} events, {conns} connections, {ROUNDS} rounds)",
        schedule_digest(&inputs, &[&light, &heavy], seed, conns),
        light.len(),
        heavy.len()
    );

    let fewest = light.len().min(heavy.len()) / ROUNDS;
    if fewest < ROUND_MIN {
        return Err(format!(
            "a round would hold {fewest} requests, fewer than {ROUND_MIN}: raise --seconds"
        ));
    }

    // One server per phase, so each `/metrics` snapshot covers one phase.
    let servers = (0..3).map(start).collect::<Result<Vec<_>, _>>()?;
    let mut tally = Tally::default();
    for server in &servers {
        tally.absorb(load::warm(&server.addr, &inputs, WARM_BUDGET));
    }
    let mut phases: Vec<Phase> = (0..3)
        .map(|_| Phase {
            rounds: Vec::new(),
            rates: Vec::new(),
            metrics: Value::Null,
            rss_mb: 0.0,
        })
        .collect();
    let open = [&light, &heavy];
    let sat_slice_s = args.seconds * PHASE_SHARE[2] / ROUNDS as f64;
    // Share of CPU time the hypervisor stole in each round.
    let mut steal = Vec::with_capacity(ROUNDS);
    let mut setups: Vec<Vec<f64>> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let at_start = cpu_jiffies();
        let mut these = Vec::with_capacity(SETUPS_PER_ROUND);
        for _ in 0..SETUPS_PER_ROUND {
            let server = start(3)?;
            these.push(server.setup.as_secs_f64());
            server.stop()?;
        }
        setups.push(these);
        for (p, events) in open.iter().enumerate() {
            // Each round plays an equal share of the events, starting at
            // the previous round's last send so the first gap is kept.
            let (lo, hi) = (
                events.len() * round / ROUNDS,
                events.len() * (round + 1) / ROUNDS,
            );
            let slice = &events[lo..hi];
            let from_us = lo.checked_sub(1).map_or(0, |i| events[i].at_us);
            let (samples, t) = load::open_loop(&servers[p].addr, &inputs, slice, from_us, conns);
            phases[p].rounds.push(samples);
            tally.absorb(t);
        }
        let (t, rate) =
            load::closed_loop(&servers[2].addr, &inputs, seed, round, conns, sat_slice_s);
        phases[2].rates.push(rate);
        tally.absorb(t);
        let (total, stolen) = cpu_jiffies();
        steal.push((stolen - at_start.1) as f64 / (total - at_start.0).max(1) as f64);
    }
    let calm = calm_rounds(&steal);
    for (phase, server) in phases.iter_mut().zip(servers) {
        phase.metrics = server.metrics()?;
        phase.rss_mb = server.peak_rss_mb()?;
        server.stop()?;
    }
    let [light_phase, heavy_phase, sat_phase] = [&phases[0], &phases[1], &phases[2]];
    let (light_rounds, heavy_rounds) = (&light_phase.rounds, &heavy_phase.rounds);
    let (light_samples, heavy_samples) = (light_rounds.concat(), heavy_rounds.concat());

    let mut late: Vec<f64> = light_samples
        .iter()
        .chain(&heavy_samples)
        .map(|s| s.late_us)
        .collect();
    late.sort_by(f64::total_cmp);
    println!(
        "samples light {} heavy {}",
        light_samples.len(),
        heavy_samples.len()
    );
    // Time the hypervisor gave to other guests: on a shared host this is
    // what moves a whole run, so it is printed with the result.
    let (total, stolen) = cpu_jiffies();
    let (total, stolen) = (total - jiffies_at_start.0, stolen - jiffies_at_start.1);
    let per_round: Vec<String> = steal.iter().map(|s| format!("{:.1}", s * 100.0)).collect();
    println!(
        "host steal {:.1}% of cpu time during the run; by round {}%; measured on rounds {calm:?}",
        stolen as f64 * 100.0 / total.max(1) as f64,
        per_round.join(" ")
    );
    for (name, rounds) in [("light", light_rounds), ("heavy", heavy_rounds)] {
        let by_round: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.2}", latency_ms(r, 0.5)))
            .collect();
        println!("{name} p50 by round {} ms", by_round.join(" "));
    }
    let light_p50 = calm_p50_ms(light_rounds, &calm);
    // The calm slices are equally long, so their mean rate is the rate
    // over all of them.
    let sat_rps = calm.iter().map(|&r| sat_phase.rates[r]).sum::<f64>() / calm.len() as f64;
    // The plain p90 and p99 over every request of a phase, host stalls
    // included: printed, and per-layer metrics of the generator, but not
    // bounded. A spell of steal doubles them on 2 shared cores.
    let (light_p90, heavy_p90) = (
        latency_ms(&light_samples, 0.90),
        latency_ms(&heavy_samples, 0.90),
    );
    let (light_p99, heavy_p99) = (
        latency_ms(&light_samples, 0.99),
        latency_ms(&heavy_samples, 0.99),
    );
    println!("p90 over all requests: light {light_p90:.4} ms, heavy {heavy_p90:.4} ms");
    println!("p99 over all requests: light {light_p99:.4} ms, heavy {heavy_p99:.4} ms");

    let mut end_to_end = Metrics::new();
    let calm_setups: Vec<f64> = calm.iter().flat_map(|&r| setups[r].clone()).collect();
    end_to_end.insert("setup_s", (median(&calm_setups), "s"));
    end_to_end.insert("light.p50_ms", (light_p50, "ms"));
    end_to_end.insert("heavy.p50_ms", (calm_p50_ms(heavy_rounds, &calm), "ms"));
    end_to_end.insert("sat_rps", (sat_rps, "1/s"));
    end_to_end.insert(
        "ok_ratio",
        (tally.ok as f64 / tally.attempted.max(1) as f64, "ratio"),
    );
    let rss_mb = phases.iter().map(|p| p.rss_mb).fold(0.0, f64::max);
    end_to_end.insert("peak_rss_mb", (rss_mb, "MB"));

    let (light_m, heavy_m) = (&light_phase.metrics, &heavy_phase.metrics);
    let sum = |path: &[&str]| {
        phases
            .iter()
            .map(|p| scraped(&p.metrics, path))
            .sum::<f64>()
    };
    let peak = |path: &[&str]| {
        phases
            .iter()
            .map(|p| scraped(&p.metrics, path))
            .fold(0.0, f64::max)
    };
    let server_p50_us = scraped(light_m, &["latency_us", "p50"]);
    let mut per_layer = Metrics::new();
    per_layer.insert("load.send_late_p99_ms", (quantile(&late, 0.99) / 1e3, "ms"));
    per_layer.insert("load.light_p90_ms", (light_p90, "ms"));
    per_layer.insert("load.heavy_p90_ms", (heavy_p90, "ms"));
    per_layer.insert("load.light_p99_ms", (light_p99, "ms"));
    per_layer.insert("load.heavy_p99_ms", (heavy_p99, "ms"));
    per_layer.insert("serve.server_p50_us", (server_p50_us, "us"));
    per_layer.insert(
        "serve.server_p99_us",
        (scraped(heavy_m, &["latency_us", "p99"]), "us"),
    );
    per_layer.insert(
        "serve.outside_p50_us",
        (light_p50 * 1e3 - server_p50_us, "us"),
    );
    per_layer.insert(
        "serve.queue_peak",
        (peak(&["queue", "peak_depth"]), "count"),
    );
    let shard_peak = phases
        .iter()
        .filter_map(|p| p.metrics.get("shards").and_then(Value::as_array))
        .flatten()
        .map(|s| scraped(s, &["queue_peak"]))
        .fold(0.0, f64::max);
    per_layer.insert("shard.queue_peak", (shard_peak, "count"));
    per_layer.insert(
        "serve.rejected",
        (
            sum(&["queue", "rejected_503"]) + sum(&["queue", "rejected_429"]),
            "count",
        ),
    );
    per_layer.insert(
        "serve.panics",
        (sum(&["resilience", "panics_total"]), "count"),
    );
    per_layer.insert(
        "batch.batches",
        (scraped(heavy_m, &["batching", "batches"]), "count"),
    );
    per_layer.insert(
        "batch.size_mean",
        (
            scraped(heavy_m, &["batching", "batch_size", "mean"]),
            "count",
        ),
    );

    if trace {
        // The store and simulator probes run on every workload (see
        // `trace::probes`), so the replay gets a store of the tensors
        // workload's images whichever workload this is.
        let tensor_inputs;
        let tensors = if with_store {
            &inputs
        } else {
            tensor_inputs = Inputs::build(Workload::Tensors, seed)?;
            &tensor_inputs
        };
        let replay_store = work.join("replay");
        populate_store(&replay_store, &tensors.images)?;
        let replay = trace::run(
            &inputs,
            tensors,
            seed,
            &heavy,
            REPLAY_BUDGET,
            &replay_store,
            server_p50_us,
        )?;
        print_self_times(workload, &replay);
        write_trace(&head, &replay)?;
        per_layer.extend(replay.metrics);
    }
    Ok(Outcome {
        tally,
        end_to_end,
        per_layer,
    })
}

/// Prints the replay's per-layer self time, largest first.
fn print_self_times(workload: Workload, replay: &trace::Replay) {
    let times = trace::self_times(&replay.spans, |_| true);
    let total: u64 = times.values().map(|&(_, ns)| ns).sum();
    let mut rows: Vec<_> = times.into_iter().collect();
    rows.sort_by_key(|&(_, (_, ns))| std::cmp::Reverse(ns));
    println!(
        "trace {}: {} replayed requests, {} spans",
        workload.name(),
        replay.requests,
        replay.spans.len()
    );
    for (name, (calls, ns)) in rows {
        println!(
            "  {name:<28} calls {calls:>7}  self {:>10.1} us/call  {:>5.1}%",
            ns as f64 / calls as f64 / 1e3,
            ns as f64 * 100.0 / total.max(1) as f64
        );
    }
}

/// Writes the header and every span, one JSON object per line.
fn write_trace(head: &Value, replay: &trace::Replay) -> Result<(), String> {
    let file = PathBuf::from(WORK_DIR).join(format!(
        "trace-{}-{}.jsonl",
        head.get("workload")
            .and_then(Value::as_str)
            .unwrap_or("run"),
        scraped(head, &["seed"])
    ));
    let mut out = String::new();
    out.push_str(&head.to_string_compact());
    out.push('\n');
    for s in &replay.spans {
        let id = |v: u32| {
            if v == u32::MAX {
                Value::Null
            } else {
                Value::Num(f64::from(v))
            }
        };
        let line = Value::object([
            ("name", Value::Str(s.name.into())),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            ("parent", id(s.parent)),
            ("req", id(s.req)),
        ]);
        out.push_str(&line.to_string_compact());
        out.push('\n');
    }
    std::fs::write(&file, out).map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("trace written to {}", file.display());
    Ok(())
}

fn metrics_json(metrics: &Metrics) -> Value {
    Value::object(metrics.iter().map(|(name, (value, unit))| {
        (
            *name,
            Value::object([
                ("value", Value::Num(*value)),
                ("unit", Value::Str((*unit).into())),
            ]),
        )
    }))
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Reads the measured workloads and each end-to-end metric's bound from
/// `BENCHMARK.json`.
fn benchmark_json() -> Result<(Vec<Workload>, BTreeMap<String, f64>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let list = |key| doc.get(key).and_then(Value::as_array).unwrap_or_default();
    let workloads = list("workloads")
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Value::as_str).unwrap_or_default();
            Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
        })
        .collect::<Result<_, _>>()?;
    let bounds = list("end_to_end")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Ok((workloads, bounds))
}

/// Runs each workload `n` times on seeds `seed..seed + n` and prints every
/// end-to-end metric's median and quartile spread against its bound.
fn steady(args: &Args, n: usize) -> Result<bool, String> {
    let (listed, bounds) = benchmark_json()?;
    let mut all_steady = true;
    let workloads = args.workload.map_or(listed, |w| vec![w]);
    for workload in workloads {
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for i in 0..n {
            let out = run_once(args, workload, args.seed + i as u64, false)?;
            if out.tally.ok != out.tally.attempted {
                return Err(format!(
                    "{}: failed requests: {:?}",
                    workload.name(),
                    out.tally.first_error
                ));
            }
            let line: Vec<String> = out
                .end_to_end
                .iter()
                .map(|(name, (v, _))| format!("{name}={v:.4}"))
                .collect();
            println!(
                "run {} seed {}: {}",
                workload.name(),
                args.seed + i as u64,
                line.join(" ")
            );
            for (name, (v, _)) in out.end_to_end {
                values.entry(name).or_default().push(v);
            }
        }
        println!(
            "steady {} over {n} seeds from {}:",
            workload.name(),
            args.seed
        );
        for (name, v) in &values {
            let (q1, med, q3) = quartiles(v);
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            let bound = bounds.get(*name).copied().unwrap_or(f64::NAN);
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                "UNSTEADY"
            };
            // A metric without a bound (NaN) is unsteady too.
            if verdict == "UNSTEADY" {
                all_steady = false;
            }
            println!(
                "  {name:<14} median {med:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  spread {spread:>7.4}  bound {bound:.3}  {verdict}"
            );
        }
    }
    Ok(all_steady)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.steady {
        return match steady(&args, n) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("servebench: --workload is required");
        return ExitCode::from(2);
    };
    let out = match run_once(&args, workload, args.seed, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, (value, unit)) in &out.end_to_end {
        println!("{} {name} = {value} {unit}", workload.name());
    }
    if let Some(e) = &out.tally.first_error {
        eprintln!("servebench: first failure: {e}");
    }
    let failed = out.tally.attempted - out.tally.ok;
    let result = Value::object([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(out.tally.attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            metrics_json(if args.trace {
                &out.per_layer
            } else {
                &out.end_to_end
            }),
        ),
    ]);
    println!("{}", result.to_string_compact());
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}
