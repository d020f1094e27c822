//! `memex-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the archive up seven times (reporting the median as `setup_s`):
//! four times before the timed run, serving the fourth copy over loopback
//! and driving it with the workload's seeded streams, and three times
//! after it, for the reference and the traced archives. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the run continues with the traced
//! in-process replay and the last line carries the per-layer metrics. The
//! line before it is a report with sample counts, the per-class latency
//! split and the host.

use std::process::ExitCode;

use memex_core::memex::Memex;
use memex_core::servlet::{self, Request, Response};
use memex_net::{ClientConfig, MemexClient};
use memex_obs::Snapshot;

use memex_perfbench::check::{same_answer, Histories};
use memex_perfbench::json::Json;
use memex_perfbench::stats::{median, Percentile, Sorted};
use memex_perfbench::stream::{final_queries, probe, Catalog, Class, Plan, Workload};
use memex_perfbench::timed::{self, Outcome};
use memex_perfbench::traced::{quantile, Replayer, Trace};
use memex_perfbench::world::set_up;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Set-ups before the timed run; the last of them is served. The rest
/// come after it, so the median samples the host on both sides of the run.
const SETUPS_BEFORE: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from a plain export, where it is "unknown".
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn percentile_json(p: Option<Percentile>) -> Json {
    match p {
        None => Json::Null,
        Some(p) => Json::obj([
            ("value", Json::Num(p.value)),
            ("count", Json::Int(p.count as u64)),
            ("beyond", Json::Int(p.beyond as u64)),
            ("flagged", Json::Bool(p.flagged())),
        ]),
    }
}

fn latency_json(samples: &[f64]) -> Json {
    let sorted = Sorted::new(samples.to_vec());
    Json::obj([
        ("count", Json::Int(sorted.len() as u64)),
        ("p50_us", percentile_json(sorted.percentile(0.50))),
        ("p95_us", percentile_json(sorted.percentile(0.95))),
        ("p99_us", percentile_json(sorted.percentile(0.99))),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Feed the plan's writes to the reference archive through
/// `servlet::dispatch`, in the replay order.
fn feed_reference(reference: &mut Memex, plan: &Plan, failures: &mut Vec<String>) -> usize {
    let mut fed = 0;
    for request in plan.interleaved() {
        if Class::of(request) == Class::Read {
            continue;
        }
        fed += 1;
        match servlet::dispatch(reference, request.clone()) {
            Response::Ack { archived: true } => {}
            other => failures.push(format!("reference write answered {other:?}")),
        }
    }
    fed
}

/// Answer a read in-process.
fn answer(memex: &Memex, query: &Request) -> Response {
    match query.clone().classify() {
        servlet::Classified::Read(r) => servlet::dispatch_read(memex, r),
        servlet::Classified::Write(_) => Response::Error("final queries are reads".into()),
    }
}

/// Compare `answers` (one per final query) with the reference archive.
fn compare_finals(
    label: &str,
    queries: &[Request],
    answers: &[Response],
    reference: &Memex,
    failures: &mut Vec<String>,
) {
    for (query, answer) in queries.iter().zip(answers) {
        let expected = self::answer(reference, query);
        if !same_answer(answer, &expected) {
            failures.push(format!(
                "{label} answer to {query:?} differs from the reference: {answer:?} vs {expected:?}"
            ));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memex-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Two clients, never more client threads or connections than cores.
    let clients = nproc.min(2);
    assert!(clients <= nproc, "more client threads than cores");

    // Set-ups before the timed run. Only the served archive stays alive
    // while the run is timed and `peak_rss_mb` is read; the first copy
    // builds the catalog and is dropped with the others.
    let mut setup_times: Vec<f64> = Vec::with_capacity(SETUPS);
    let mut catalog = None;
    let (world, server) = loop {
        let (world, server, took) = set_up(nproc);
        setup_times.push(took.as_secs_f64());
        if setup_times.len() == SETUPS_BEFORE {
            break (world, server);
        }
        let archive = server.shutdown();
        catalog.get_or_insert_with(|| Catalog::new(&world, &archive));
    };
    let Some(catalog) = catalog else {
        unreachable!("SETUPS_BEFORE leaves a copy besides the served one")
    };

    let plan = Plan::generate(
        args.workload,
        args.seed,
        &world,
        &catalog,
        clients,
        args.seconds,
    );
    let histories = Histories::from_world(&world);

    let outcome: Outcome = timed::run(&plan, server.local_addr(), &histories);
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    let mut failures = outcome.failures.clone();
    let mut attempted = outcome.attempted;

    // After the timed run, untimed: the server's own counters, then the
    // final per-user answers against the reference.
    let finals = final_queries(&catalog);
    let mut admin = MemexClient::connect(server.local_addr(), ClientConfig::default())
        .expect("connect to the served archive after the run");
    let served_stats = match admin.request(&Request::Stats) {
        Ok(Response::Stats(s)) => s,
        other => {
            failures.push(format!("Stats answered {other:?}"));
            Snapshot::default()
        }
    };
    let served_finals: Vec<Response> = finals
        .iter()
        .map(|q| {
            admin
                .request(q)
                .unwrap_or_else(|e| Response::Error(e.to_string()))
        })
        .collect();
    drop(admin);
    drop(server.shutdown());

    // The remaining set-ups; the last two copies become the reference and
    // the traced archives.
    let mut archives: Vec<Memex> = Vec::with_capacity(SETUPS - SETUPS_BEFORE);
    while setup_times.len() < SETUPS {
        let (_, server, took) = set_up(nproc);
        setup_times.push(took.as_secs_f64());
        archives.push(server.shutdown());
    }
    let setup_s = median(&setup_times).unwrap_or(0.0);
    let (Some(mut traced_archive), Some(mut reference)) = (archives.pop(), archives.pop()) else {
        unreachable!("SETUPS leaves two set-ups after the timed run")
    };

    attempted += feed_reference(&mut reference, &plan, &mut failures);
    compare_finals("served", &finals, &served_finals, &reference, &mut failures);
    attempted += finals.len();

    let all: Vec<f64> = outcome.samples.iter().map(|s| s.micros).collect();
    let of_class = |c: Class| -> Vec<f64> {
        outcome
            .samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.micros)
            .collect()
    };
    let sorted_all = Sorted::new(all.clone());
    let wall = outcome.wall.as_secs_f64();
    let ops_per_s = if wall > 0.0 {
        outcome.samples.len() as f64 / wall
    } else {
        0.0
    };

    let trace = args.trace.then(|| {
        let mut replayer = Replayer::new(&mut traced_archive, histories.clone());
        replayer.replay(&plan.interleaved(), true);
        let traced_finals: Vec<Response> = finals
            .iter()
            .map(|q| answer(replayer.archive(), q))
            .collect();
        compare_finals("traced", &finals, &traced_finals, &reference, &mut failures);
        attempted += finals.len();
        let tail = probe(&world, &catalog);
        replayer.replay(&tail.iter().collect::<Vec<_>>(), false);
        replayer.probe_registry();
        replayer.finish()
    });
    if let Some(t) = &trace {
        attempted += t.attempted;
        failures.extend(t.failures.iter().cloned());
    }

    let failed = failures.len();
    let report = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        (
            "stream_fingerprint",
            Json::str(format!("{:016x}", plan.fingerprint())),
        ),
        ("requests", Json::Int(plan.len() as u64)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Int(nproc as u64)),
                ("client_threads", Json::Int(clients as u64)),
                ("connections", Json::Int(clients as u64)),
                ("server_workers", Json::Int(nproc as u64)),
                (
                    "profile",
                    Json::str(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
                ("commit", Json::str(git_commit())),
            ]),
        ),
        (
            "setup_runs_s",
            Json::Arr(setup_times.iter().copied().map(Json::Num).collect()),
        ),
        ("timed_wall_s", Json::Num(wall)),
        ("all", latency_json(&all)),
        ("read", latency_json(&of_class(Class::Read))),
        ("write", latency_json(&of_class(Class::Visit))),
        ("bookmark", latency_json(&of_class(Class::Bookmark))),
        (
            "failed_frac",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(
                failures
                    .iter()
                    .take(5)
                    .map(|f| Json::str(f.as_str()))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", Json::obj([("report", report)]));

    let metrics = match &trace {
        None => Json::obj([
            ("setup_s", metric(setup_s, "s")),
            ("ops_per_s", metric(ops_per_s, "1/s")),
            (
                "req_p50_us",
                metric(sorted_all.percentile(0.5).map_or(0.0, |p| p.value), "us"),
            ),
            (
                "req_p95_us",
                metric(sorted_all.percentile(0.95).map_or(0.0, |p| p.value), "us"),
            ),
            ("peak_rss_mb", metric(peak_rss, "MiB")),
        ]),
        Some(t) => per_layer(t, &served_stats, sorted_all.mean().unwrap_or(0.0)),
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(attempted as u64)),
            ("failed", Json::Int(failed as u64)),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics, from the traced replay plus the served archive's
/// counters after the timed run. `client_mean_us` is the timed run's mean
/// client-side latency.
fn per_layer(t: &Trace, served: &Snapshot, client_mean_us: f64) -> Json {
    let spans = &t.spans;
    let q = |name: &str, class: Option<Class>, p: f64, div: f64| {
        quantile(spans.durations(name, class), p, div).unwrap_or(0.0)
    };
    let (ns, us, ms) = (1.0, 1e3, 1e6);
    let mut out: Vec<(String, Json)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &str| out.push((name.to_string(), metric(value, unit)));

    for step in [
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ] {
        put(
            &format!("net.wire.{step}_ns"),
            q(&format!("net.wire.{step}"), None, 0.5, ns),
            "ns",
        );
    }
    put(
        "net.wire.response_bytes",
        Sorted::new(t.response_bytes.clone()).mean().unwrap_or(0.0),
        "bytes",
    );
    let hits = served.counter("net.read.cache.hit") as f64;
    let misses = served.counter("net.read.cache.miss") as f64;
    put(
        "net.read_cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    let lock = served.histogram("net.lock.wait");
    put(
        "net.lock.wait_mean_us",
        lock.map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64 / 1e3),
        "us",
    );
    let traced_mean_us = Sorted::new(t.plan_request_ns.clone()).mean().unwrap_or(0.0) / 1e3;
    put(
        "net.unattributed_share",
        if client_mean_us > 0.0 {
            1.0 - traced_mean_us / client_mean_us
        } else {
            0.0
        },
        "ratio",
    );

    put("core.submit_us.p50", q("core.submit", None, 0.5, us), "us");
    put(
        "core.refresh_us.p50",
        q("core.refresh", None, 0.5, us),
        "us",
    );
    put(
        "core.themes_rebuild_ms.p50",
        q("core.refresh", Some(Class::Bookmark), 0.5, ms),
        "ms",
    );
    put(
        "core.themes_rebuild_ms.p95",
        q("core.refresh", Some(Class::Bookmark), 0.95, ms),
        "ms",
    );
    put(
        "core.themes_rebuilds_per_100_writes",
        100.0 * t.theme_rebuilds as f64 / t.writes.max(1) as f64,
        "count",
    );
    put(
        "core.demons_rest_us.p50",
        q("core.demons_rest", None, 0.5, us),
        "us",
    );
    put(
        "core.demons_rest_us.p99",
        q("core.demons_rest", None, 0.99, us),
        "us",
    );
    for kind in [
        "recall",
        "trail_replay",
        "whats_new",
        "bill",
        "similar_surfers",
        "recommend",
    ] {
        let span = format!("core.read.{kind}");
        put(
            &format!("core.read.{kind}_us.p50"),
            q(&span, None, 0.5, us),
            "us",
        );
        put(
            &format!("core.read.{kind}_us.p99"),
            q(&span, None, 0.99, us),
            "us",
        );
    }
    put(
        "core.all_profiles_ms.p50",
        quantile(t.all_profiles_ns.clone(), 0.5, ms).unwrap_or(0.0),
        "ms",
    );
    for (span, name) in [
        ("pipeline.trail_demon", "pipeline.trail_demon_us"),
        ("pipeline.index_demon", "pipeline.index_demon_us"),
        ("index.commit", "index.commit_us"),
    ] {
        put(&format!("{name}.p50"), q(span, None, 0.5, us), "us");
        put(&format!("{name}.p99"), q(span, None, 0.99, us), "us");
    }
    put(
        "index.bm25_us.p50",
        quantile(t.bm25_ns.clone(), 0.5, us).unwrap_or(0.0),
        "us",
    );
    put(
        "graph.user_pages_scan_us.p50",
        quantile(t.user_pages_scan_ns.clone(), 0.5, us).unwrap_or(0.0),
        "us",
    );
    put(
        "store.kv.puts_per_write",
        t.kv_puts as f64 / t.writes.max(1) as f64,
        "count",
    );
    put(
        "store.pager.touches_per_read",
        t.page_touches as f64 / t.dispatched_reads.max(1) as f64,
        "count",
    );
    put(
        "obs.registry_lookup_ns.p50",
        quantile(t.registry_lookup_ns.clone(), 0.5, ns).unwrap_or(0.0),
        "ns",
    );
    put(
        "trace.overhead_ratio",
        if t.overhead_off.is_zero() {
            1.0
        } else {
            t.overhead_on.as_secs_f64() / t.overhead_off.as_secs_f64()
        },
        "ratio",
    );
    put("trace.coverage.write", spans.coverage("write"), "ratio");
    Json::Obj(out)
}
