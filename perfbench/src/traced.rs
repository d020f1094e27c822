//! The traced run: the plan replayed in-process, single-threaded, with
//! timed spans around calls into each layer's public functions.
//!
//! A request's root span covers what a served request does apart from the
//! socket: the four wire codec steps and the dispatch. A write dispatches
//! as the public steps `dispatch_write` runs, one child span each:
//! `apply_write`, `run_trail_demon`, `run_index_demon`,
//! `InvertedIndex::commit`, `Memex::refresh` and `Memex::run_demons`
//! (which, with the pipeline drained and the index sealed, is left with
//! bookmark filing and the classification demon). A read dispatches
//! through `dispatch_read`, unless an identical read was answered since
//! the last write: the server's epoch-keyed read cache would serve it, so
//! the replay serves it from its own copy. Side probes (bm25, theme
//! profiles, the classification scan, registry lookups) run outside the
//! root spans.
//!
//! After the plan, a fixed probe of writes and reads runs on every
//! workload, so each write-path and read-path metric is measured even on a
//! workload whose own traffic never reaches that layer.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use memex_core::memex::Memex;
use memex_core::servlet::{self, Classified, Request, Response};
use memex_index::search::{bm25_search, Bm25Params};
use memex_net::wire;
use memex_text::analyze::Analyzer;

use crate::check::Histories;
use crate::stats::Sorted;
use crate::stream::Class;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub nanos: u64,
    /// The class of the request whose root span this is under.
    pub class: Class,
}

/// In-memory span recorder with a parent stack.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Spans {
    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, class: Class) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|o| o.0),
            nanos: 0,
            class,
        });
        self.open.push((idx, Instant::now()));
        idx
    }

    /// Close the innermost open span, which must be `idx`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        let (top, started) = self.open.pop().expect("close without open");
        assert_eq!(top, idx, "spans closed out of order");
        let nanos = started.elapsed().as_nanos() as u64;
        self.spans[idx].nanos = nanos;
        nanos
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, class: Class, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, class);
        let out = f();
        self.close(idx);
        out
    }

    /// Durations (ns) of every span called `name`, optionally only those
    /// under requests of `class`.
    pub fn durations(&self, name: &str, class: Option<Class>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && class.is_none_or(|c| s.class == c))
            .map(|s| s.nanos as f64)
            .collect()
    }

    /// Children's total time over the roots' total time, for roots called
    /// `root`.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut covered = 0u64;
        let mut total = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                total += s.nanos;
                covered += self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.nanos)
                    .sum::<u64>();
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }
}

fn read_span(request: &Request) -> &'static str {
    match request {
        Request::Recall { .. } => "core.read.recall",
        Request::TrailReplay { .. } => "core.read.trail_replay",
        Request::WhatsNew { .. } => "core.read.whats_new",
        Request::Bill { .. } => "core.read.bill",
        Request::SimilarSurfers { .. } => "core.read.similar_surfers",
        Request::Recommend { .. } => "core.read.recommend",
        _ => "core.read.other",
    }
}

/// Key-value puts into the index store, whichever engine backs it.
const KV_PUTS: &[&str] = &["store.kv.puts", "store.lsm.puts"];
/// Page-cache lookups of the B+Tree engine: index reads are prefix scans,
/// which walk pages rather than issue point gets.
const PAGE_TOUCHES: &[&str] = &["store.pager.hits", "store.pager.misses"];

/// Every 8th dispatched read runs twice, spans off and spans on, to
/// measure what recording spans costs. The pairs alternate which run comes
/// first, so neither side always finds the caches cold.
const OVERHEAD_PAIR_EVERY: usize = 8;
/// Theme profiles of every user (the similar-surfers / recommend inner
/// loop) are probed this many times over the replay.
const PROFILE_PROBES: usize = 8;

/// What the traced run measured besides spans.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Spans,
    /// Per-request root span durations (ns) over the plan, probe excluded.
    pub plan_request_ns: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub bm25_ns: Vec<f64>,
    pub all_profiles_ns: Vec<f64>,
    pub user_pages_scan_ns: Vec<f64>,
    pub registry_lookup_ns: Vec<f64>,
    pub writes: usize,
    pub theme_rebuilds: usize,
    pub kv_puts: u64,
    pub dispatched_reads: usize,
    pub page_touches: u64,
    pub overhead_on: Duration,
    pub overhead_off: Duration,
    pub failures: Vec<String>,
    pub attempted: usize,
}

/// Replays requests into one archive, recording a [`Trace`].
pub struct Replayer<'a> {
    memex: &'a mut Memex,
    model: Histories,
    cache: HashMap<Request, Response>,
    analyzer: Analyzer,
    trace: Trace,
}

impl<'a> Replayer<'a> {
    pub fn new(memex: &'a mut Memex, model: Histories) -> Replayer<'a> {
        Replayer {
            memex,
            model,
            cache: HashMap::new(),
            analyzer: Analyzer::default(),
            trace: Trace::default(),
        }
    }

    /// Replay `requests`; `in_plan` marks them as the plan's (their root
    /// durations feed the unattributed-share comparison).
    pub fn replay(&mut self, requests: &[&Request], in_plan: bool) {
        let profile_every = (requests.len() / PROFILE_PROBES).max(1);
        for (i, request) in requests.iter().enumerate() {
            let response = self.one(request, in_plan);
            self.trace.attempted += 1;
            if let Err(e) = self.model.check(request, &response) {
                self.trace.failures.push(e);
            }
            if i % profile_every == 0 {
                let started = Instant::now();
                let profiles = memex_core::recommend::all_profiles(self.memex);
                self.trace
                    .all_profiles_ns
                    .push(started.elapsed().as_nanos() as f64);
                std::hint::black_box(profiles);
            }
        }
    }

    /// The archive the replay wrote into.
    pub fn archive(&self) -> &Memex {
        self.memex
    }

    /// Sum of the named store counters on the archive's registry.
    fn count(&self, names: &[&str]) -> u64 {
        let reg = self.memex.registry();
        names.iter().map(|n| reg.counter(n).get()).sum()
    }

    /// The spans-off twin of a paired read: the same read, dispatched
    /// untraced.
    fn twin(&mut self, request: &Request) -> Duration {
        let started = Instant::now();
        if let Classified::Read(r) = request.clone().classify() {
            std::hint::black_box(servlet::dispatch_read(self.memex, r));
        }
        started.elapsed()
    }

    fn one(&mut self, request: &Request, in_plan: bool) -> Response {
        let class = Class::of(request);
        let dispatched = class == Class::Read && !self.cache.contains_key(request);
        let pair = dispatched
            && self
                .trace
                .dispatched_reads
                .is_multiple_of(OVERHEAD_PAIR_EVERY);
        let twin_first =
            pair && (self.trace.dispatched_reads / OVERHEAD_PAIR_EVERY).is_multiple_of(2);
        // The twin and the counter readings happen outside the root span,
        // and the counters are read after a leading twin and before a
        // trailing one, so neither twin shows in the trace or the counts.
        let twin = if twin_first {
            Some(self.twin(request))
        } else {
            None
        };
        let puts = self.count(KV_PUTS);
        let pages = self.count(PAGE_TOUCHES);
        let bookmarks = self.memex.server.bookmarks.len();
        let mut traced = None;

        let memex = &mut *self.memex;
        let spans = &mut self.trace.spans;
        let root = spans.open(
            if class == Class::Read {
                "read"
            } else {
                "write"
            },
            class,
        );
        let bytes = spans.time("net.wire.encode_request", class, || {
            wire::encode_request(request)
        });
        let decoded = spans.time("net.wire.decode_request", class, || {
            wire::decode_request(&bytes)
        });
        let response = match decoded.map(Request::classify) {
            Err(e) => Response::Error(format!("decode: {e}")),
            Ok(Classified::Write(w)) => {
                let mut response =
                    spans.time("core.submit", class, || servlet::apply_write(memex, &w));
                spans.time("pipeline.trail_demon", class, || {
                    memex.server.run_trail_demon(usize::MAX)
                });
                let steps = spans
                    .time("pipeline.index_demon", class, || {
                        memex.server.run_index_demon(usize::MAX)
                    })
                    .and_then(|_| spans.time("index.commit", class, || memex.server.index.commit()))
                    .and_then(|()| spans.time("core.refresh", class, || memex.refresh()))
                    .and_then(|()| spans.time("core.demons_rest", class, || memex.run_demons()));
                if let Err(e) = steps {
                    response = Response::Error(e.to_string());
                }
                self.cache.clear();
                response
            }
            Ok(Classified::Read(r)) => match self.cache.get(r.as_request()) {
                Some(hit) => hit.clone(),
                None => {
                    let key = r.as_request().clone();
                    let started = Instant::now();
                    let response =
                        spans.time(read_span(&key), class, || servlet::dispatch_read(memex, r));
                    if pair {
                        traced = Some(started.elapsed());
                    }
                    self.cache.insert(key, response.clone());
                    response
                }
            },
        };
        let encoded = spans.time("net.wire.encode_response", class, || {
            wire::encode_response(&response)
        });
        let decoded = spans.time("net.wire.decode_response", class, || {
            wire::decode_response(&encoded)
        });
        let nanos = spans.close(root);
        if in_plan {
            self.trace.plan_request_ns.push(nanos as f64);
        }
        self.trace.response_bytes.push(encoded.len() as f64);
        let after = match class {
            Class::Read if dispatched => After::Read {
                pages,
                request: request.clone(),
            },
            Class::Read => After::Nothing,
            _ => After::Write { puts, bookmarks },
        };
        self.side_probes(after);
        if let Some(on) = traced {
            let off = twin.unwrap_or_else(|| self.twin(request));
            self.trace.overhead_on += on;
            self.trace.overhead_off += off;
        }
        decoded.unwrap_or_else(|e| Response::Error(format!("decode response: {e}")))
    }

    /// Probes timed outside the request's root span.
    fn side_probes(&mut self, after: After) {
        match after {
            After::Nothing => {}
            After::Write { puts, bookmarks } => {
                self.trace.writes += 1;
                self.trace.kv_puts += self.count(KV_PUTS) - puts;
                if self.memex.server.bookmarks.len() > bookmarks {
                    self.trace.theme_rebuilds += 1;
                }
                // The classification demon's scan: every user's pages.
                let started = Instant::now();
                for user in self.memex.users() {
                    std::hint::black_box(self.memex.server.trails.user_pages(user, 0));
                }
                self.trace
                    .user_pages_scan_ns
                    .push(started.elapsed().as_nanos() as f64);
            }
            After::Read { pages, request } => {
                self.trace.dispatched_reads += 1;
                self.trace.page_touches += self.count(PAGE_TOUCHES) - pages;
                if let Request::Recall { query, .. } = &request {
                    let server = &self.memex.server;
                    let terms: Vec<(u32, u32)> = self
                        .analyzer
                        .counts(query)
                        .iter()
                        .filter_map(|(t, &c)| server.vocab.id(t).map(|id| (id, c)))
                        .collect();
                    let started = Instant::now();
                    let hits = bm25_search(&server.index, &terms, 200, Bm25Params::default());
                    self.trace.bm25_ns.push(started.elapsed().as_nanos() as f64);
                    std::hint::black_box(hits.ok());
                }
            }
        }
    }

    /// Time `MetricsRegistry::histogram(name)` over every histogram the
    /// archive's registry holds, in batches to stay above timer
    /// resolution.
    pub fn probe_registry(&mut self) {
        const BATCH: u32 = 256;
        let registry = self.memex.registry();
        let names: Vec<String> = registry
            .snapshot()
            .histograms
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for name in &names {
            let started = Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(registry.histogram(std::hint::black_box(name)));
            }
            self.trace
                .registry_lookup_ns
                .push(started.elapsed().as_nanos() as f64 / f64::from(BATCH));
        }
    }

    pub fn finish(self) -> Trace {
        self.trace
    }
}

/// What a request left for the side probes.
enum After {
    Nothing,
    Write { puts: u64, bookmarks: usize },
    Read { pages: u64, request: Request },
}

/// p-quantile of `ns` samples in the given unit divisor, or `None`.
pub fn quantile(samples: Vec<f64>, q: f64, divisor: f64) -> Option<f64> {
    Sorted::new(samples)
        .percentile(q)
        .map(|p| p.value / divisor)
}
