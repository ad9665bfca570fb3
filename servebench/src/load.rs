//! The traffic generator: open-loop phases driven from a schedule and a
//! closed-loop saturation phase, each on at most `nproc` threads with one
//! connection per thread at a time.
//!
//! Open-loop latency is timed from the intended send time, so a stall in
//! the server also charges the requests queued behind it; how late the
//! generator itself sent is recorded separately.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spark_serve::http::client_call;
use spark_util::Rng;

use crate::workloads::{Event, Inputs};

/// How long before a due time an injector stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// One open-loop request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Intended send to full response, microseconds; infinite when the
    /// request failed, so a failure counts as missing any latency limit.
    pub latency_us: f64,
    /// Actual minus intended send time, microseconds.
    pub late_us: f64,
}

/// Requests attempted and answered correctly, plus the first failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub first_error: Option<String>,
}

impl Tally {
    fn note(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.ok += 1,
            Err(e) => {
                self.first_error.get_or_insert(e);
            }
        }
    }

    /// Adds `other`'s counts, keeping the earliest error.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Sends one request and checks the answer byte for byte.
fn send(addr: &str, inputs: &Inputs, template: u32, tenant: u32) -> Result<(), String> {
    let t = &inputs.templates[template as usize];
    let header;
    let headers: &[(&str, &str)] = match inputs.tenant(tenant) {
        Some(name) => {
            header = [("X-Spark-Tenant", name)];
            &header
        }
        None => &[],
    };
    let reply = client_call(addr, t.method, &t.path, t.content_type, headers, &t.body)
        .map_err(|e| format!("{} {}: {e}", t.method, t.path))?;
    if reply.status != 200 {
        return Err(format!(
            "{} {}: status {}: {}",
            t.method,
            t.path,
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    if reply.body != t.expect {
        return Err(format!(
            "{} {}: body differs from the reference ({} vs {} bytes)",
            t.method,
            t.path,
            reply.body.len(),
            t.expect.len()
        ));
    }
    Ok(())
}

/// Sends every template once, in order, until `budget` runs out: fills
/// the server's caches and lazy state before a measured phase.
pub fn warm(addr: &str, inputs: &Inputs, budget: Duration) -> Tally {
    let t0 = Instant::now();
    let mut tally = Tally::default();
    for i in 0..inputs.templates.len() {
        if t0.elapsed() >= budget {
            break;
        }
        tally.note(send(addr, inputs, i as u32, 0));
    }
    tally
}

/// Plays `events` open loop on `conns` threads, with schedule time
/// `start_us` at the call. Returns one sample per event, in completion
/// order, and the tally.
pub fn open_loop(
    addr: &str,
    inputs: &Inputs,
    events: &[Event],
    start_us: u64,
    conns: usize,
) -> (Vec<Sample>, Tally) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(events.len()));
    let tally = Mutex::new(Tally::default());
    // A short lead lets every thread reach its first sleep before the
    // first due time.
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut mine = Vec::new();
                let mut my_tally = Tally::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(ev) = events.get(i) else { break };
                    let due = t0 + Duration::from_micros(ev.at_us - start_us);
                    // Sleep to just short of the due time, then spin, so
                    // the thread's wake-up jitter does not enter latency.
                    let now = Instant::now();
                    if due > now + SPIN {
                        std::thread::sleep(due - now - SPIN);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let sent = Instant::now();
                    let result = send(addr, inputs, ev.template, ev.tenant);
                    let done = Instant::now();
                    let latency_us = if result.is_ok() {
                        done.duration_since(due).as_secs_f64() * 1e6
                    } else {
                        f64::INFINITY
                    };
                    let late_us = sent.saturating_duration_since(due).as_secs_f64() * 1e6;
                    mine.push(Sample {
                        latency_us,
                        late_us,
                    });
                    my_tally.note(result);
                }
                samples.lock().expect("no sampler panicked").extend(mine);
                tally.lock().expect("no sampler panicked").absorb(my_tally);
            });
        }
    });
    (
        samples.into_inner().expect("no sampler panicked"),
        tally.into_inner().expect("no sampler panicked"),
    )
}

/// Runs `conns` closed-loop clients for `seconds`, each drawing its
/// requests from its own seeded stream for this `round`. Returns the
/// tally and the rate of correct answers completed within `seconds`.
pub fn closed_loop(
    addr: &str,
    inputs: &Inputs,
    seed: u64,
    round: usize,
    conns: usize,
    seconds: f64,
) -> (Tally, f64) {
    let tally = Mutex::new(Tally::default());
    let done = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for c in 0..conns {
            let (tally, done) = (&tally, &done);
            s.spawn(move || {
                let mut rng = closed_stream(seed, round, c);
                let mut mine = Tally::default();
                let mut finished = Vec::new();
                while Instant::now() < deadline {
                    let (template, tenant) = inputs.pick(&mut rng);
                    let result = send(addr, inputs, template, tenant);
                    if result.is_ok() {
                        finished.push(t0.elapsed().as_secs_f64());
                    }
                    mine.note(result);
                }
                tally.lock().expect("no client panicked").absorb(mine);
                done.lock().expect("no client panicked").extend(finished);
            });
        }
    });
    let done = done.into_inner().expect("no client panicked");
    let in_time = done.iter().filter(|&&t| t < seconds).count();
    (
        tally.into_inner().expect("no client panicked"),
        in_time as f64 / seconds,
    )
}

/// The request stream of closed-loop connection `c` in `round`.
pub fn closed_stream(seed: u64, round: usize, c: usize) -> Rng {
    let lane = (round * 64 + c) as u64;
    Rng::seed_from_u64(seed ^ 0xc105_ed00 ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}
