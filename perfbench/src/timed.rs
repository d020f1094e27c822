//! The timed run: the plan's streams sent over loopback, one blocking
//! client per stream (closed loop), each request timed on the client from
//! send to decoded response. Tracing is off on both sides.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use memex_core::servlet::Request;
use memex_net::{ClientConfig, MemexClient};

use crate::check::Histories;
use crate::stream::{Class, Plan};

/// Give up on the rest of a stream after this long: the run must end well
/// inside the harness's time limit even on a pathologically slow commit.
const DEADLINE: Duration = Duration::from_secs(120);

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub micros: f64,
}

/// What the timed run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: usize,
    /// Transport errors, `Error`/`Overloaded` answers and failed checks.
    pub failures: Vec<String>,
    /// From the barrier release to the last client's last answer.
    pub wall: Duration,
}

/// Drive `plan` against the server at `addr`. `histories` seeds every
/// client's model of its users' history.
pub fn run(plan: &Plan, addr: SocketAddr, histories: &Histories) -> Outcome {
    let barrier = Barrier::new(plan.streams.len());
    let per_client: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .map(|stream| {
                let barrier = &barrier;
                let mut model = histories.clone();
                scope.spawn(move || drive(stream, addr, barrier, &mut model))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Outcome::default();
    let start = per_client.iter().map(|c| c.3).min();
    let end = per_client.iter().map(|c| c.4).max();
    if let (Some(start), Some(end)) = (start, end) {
        out.wall = end.duration_since(start);
    }
    for (samples, failures, attempted, _, _) in per_client {
        out.samples.extend(samples);
        out.failures.extend(failures);
        out.attempted += attempted;
    }
    out
}

/// Samples, failures, requests attempted, first send, last answer.
type ClientResult = (Vec<Sample>, Vec<String>, usize, Instant, Instant);

fn drive(
    stream: &[Request],
    addr: SocketAddr,
    barrier: &Barrier,
    model: &mut Histories,
) -> ClientResult {
    let mut samples = Vec::with_capacity(stream.len());
    let mut failures = Vec::new();
    let client = MemexClient::connect(addr, ClientConfig::default());
    barrier.wait();
    let start = Instant::now();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            failures.extend(stream.iter().map(|r| format!("{}: connect: {e}", r.name())));
            return (samples, failures, stream.len(), start, Instant::now());
        }
    };
    for (i, request) in stream.iter().enumerate() {
        if start.elapsed() > DEADLINE {
            failures.extend(
                stream[i..]
                    .iter()
                    .map(|r| format!("{}: not sent before the deadline", r.name())),
            );
            break;
        }
        let sent = Instant::now();
        let answer = client.request(request);
        let micros = sent.elapsed().as_nanos() as f64 / 1e3;
        match answer {
            Ok(response) => {
                samples.push(Sample {
                    class: Class::of(request),
                    micros,
                });
                if let Err(e) = model.check(request, &response) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(format!("{}: {e}", request.name())),
        }
    }
    (samples, failures, stream.len(), start, Instant::now())
}
