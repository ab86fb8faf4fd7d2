//! `warm_fleet`: clients of a fleet whose stores already hold every Tiny
//! triple. Fill both stores through the gateway, restart the fleet (the
//! restart is `setup_s`), warm up, then time an open loop of reads at a
//! fixed rate and a closed loop of reads with two clients. The traced run
//! adds an open loop with ~2 % writes: on the commit that introduced the
//! benchmark a write's broadcast can wait seconds for a backend worker
//! pinned by an idle pooled connection, so write latency is reported per
//! layer rather than gated.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cactus_core::SuiteScale;
use cactus_obs::TraceId;
use cactus_serve::http::{read_request, Request};
use cactus_serve::{ServeConfig, Server};

use crate::checks::{self, Digests};
use crate::fleet::{self, Fleet};
use crate::gen::{self, Op, WarmGen};
use crate::http::Conn;
use crate::report::{median, quantile, Report};
use crate::rng::Rng;
use crate::Args;

/// Open-loop offered rate, requests per second: about an eighth of the
/// closed-loop read rate (~8000/s on two vCPUs) when the benchmark was
/// introduced. At 3500/s a short stall of the shared host left a backlog
/// on the two connections and the open loop's p99 swung from 2 to 85 ms.
pub const OPEN_RATE: f64 = 1000.0;

/// Load threads and connections (`nproc` of the reference machine).
const CLIENTS: usize = 2;
/// Shares of `--seconds` spent in the open and the closed loop.
const OPEN_SHARE: f64 = 0.5;
const CLOSED_SHARE: f64 = 0.3;
/// The timed phase alternates this many open-loop and closed-loop
/// stretches, and each figure is the median over its stretches: a stall
/// of the shared host that lasts seconds then spoils a few stretches
/// instead of a whole loop. An open stretch holds over a thousand reads,
/// so its p99 has ten beyond it.
const STRETCHES: usize = 10;
/// Length of the traced run's open loop with writes in the mix.
const MIXED_S: f64 = 4.0;
/// How long past its last arrival an open loop keeps sending; requests
/// still unsent then are dropped (the achieved rate shows them). Writes
/// stall for seconds on pinned backend workers, so the mixed loop stops
/// sooner and a traced run stays within its time limit.
const DRAIN: Duration = Duration::from_secs(15);
const MIXED_DRAIN: Duration = Duration::from_secs(5);
/// A write slower than this waited on a pinned backend worker.
const STALL_MS: f64 = 1000.0;
/// Closed-loop read time before anything is timed.
const WARMUP: Duration = Duration::from_millis(1000);
/// Fleet restarts whose median start-up time is `setup_s`.
const RESTARTS: usize = 9;

/// What one load thread saw.
#[derive(Default)]
struct Tally {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Open loop: each read's path.
    paths: Vec<String>,
    ok: u64,
    failed: u64,
    mismatches: Vec<String>,
    /// Digest of the first body seen per stable URL.
    bodies: BTreeMap<String, u64>,
    /// First body of each distinct compare URL.
    compares: Vec<(String, String)>,
    /// `(source, device, profile body)` of each write's cold read.
    written: Vec<(String, &'static str, String)>,
}

impl Tally {
    fn merge(mut self, other: Tally) -> Tally {
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.late_ms.extend(other.late_ms);
        self.paths.extend(other.paths);
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
        for (path, d) in other.bodies {
            if *self.bodies.entry(path.clone()).or_insert(d) != d {
                self.mismatches
                    .push(format!("{path} answered two different bodies"));
            }
        }
        self.compares.extend(other.compares);
        self.written.extend(other.written);
        self
    }

    fn account(self, report: &mut Report) -> Tally {
        for _ in 0..self.ok {
            report.op(true);
        }
        for _ in 0..self.failed {
            report.op(false);
        }
        for m in &self.mismatches {
            report.mismatch(m);
        }
        Tally {
            mismatches: Vec::new(),
            ok: 0,
            failed: 0,
            ..self
        }
    }

    /// Perform one operation; returns the primary request's completion time.
    fn perform(&mut self, conn: &mut Conn, op: &Op, digests: &Digests) -> Instant {
        match op {
            Op::Read(path) => {
                let reply = conn.get(path);
                let done = Instant::now();
                match reply {
                    Ok(r) if r.ok() => self.check_read(path, r.body, digests),
                    other => self.fail(path, &other),
                }
                done
            }
            Op::Write {
                name,
                source,
                device,
            } => {
                let reply = conn.post("/v1/workloads", source);
                let done = Instant::now();
                match reply {
                    Ok(r) if r.ok() => self.ok += 1,
                    other => self.fail(&format!("POST /v1/workloads {name}"), &other),
                }
                let path = format!("/v1/profile/{device}/tiny/{name}");
                match conn.get(&path) {
                    Ok(r) if r.ok() => {
                        self.ok += 1;
                        self.written.push((source.clone(), device, r.body));
                    }
                    other => self.fail(&path, &other),
                }
                done
            }
        }
    }

    fn fail(&mut self, what: &str, reply: &Result<crate::http::Reply, String>) {
        self.failed += 1;
        match reply {
            Ok(r) => eprintln!("perfbench: {what}: status {}: {}", r.status, r.body.trim()),
            Err(e) => eprintln!("perfbench: {what}: {e}"),
        }
    }

    /// Count a 2xx read as ok, or as a mismatch when its body is wrong.
    fn check_read(&mut self, path: &str, body: String, digests: &Digests) {
        if let Some(key) = path.strip_prefix("/v1/profile/") {
            if digests.matches(key, &body) {
                self.ok += 1;
            } else {
                self.mismatches.push(format!("profile body of {key}"));
            }
            return;
        }
        // Similarity answers grow with the index; everything else must be
        // byte-identical every time it is served.
        if path.starts_with("/v1/similar") {
            self.ok += 1;
            return;
        }
        let d = checks::digest(&body);
        match self.bodies.get(path) {
            Some(&seen) if seen != d => {
                self.mismatches
                    .push(format!("{path} answered two different bodies"));
                return;
            }
            Some(_) => {}
            None => {
                self.bodies.insert(path.to_owned(), d);
                if path.starts_with("/v1/compare/") {
                    self.compares.push((path.to_owned(), body));
                }
            }
        }
        self.ok += 1;
    }
}

pub fn run(args: &Args, digests: &Digests, report: &mut Report) -> Result<(), String> {
    let dir = args.work_dir.join("warm");
    let stores = fleet::fresh_stores(&dir)?;
    let stores = [stores[0].as_path(), stores[1].as_path()];

    let t = Instant::now();
    let filler = Fleet::start(&args.bin_dir, &dir, stores)?;
    fill(&filler, digests).account(report);
    filler.stop();
    eprintln!(
        "perfbench: filled {} triples in {:.2} s",
        gen::tiny_triples().len(),
        t.elapsed().as_secs_f64()
    );
    let copy = dir.join("store-copy");
    if args.trace {
        copy_dir(stores[0], &copy)?;
    }

    let mut setups = Vec::new();
    for _ in 1..RESTARTS {
        let f = Fleet::start(&args.bin_dir, &dir, stores)?;
        setups.push(f.setup_s);
        f.stop();
    }
    let fleet = Fleet::start(&args.bin_dir, &dir, stores)?;
    setups.push(fleet.setup_s);

    closed_loop(&fleet, args.seed, "warmup", WARMUP, digests).account(report);
    let scrape = |f: &Fleet| [f.scrape(Some(0)), f.scrape(Some(1))];
    let before = scrape(&fleet);

    let open_s = args.seconds * OPEN_SHARE;
    let stretch_s = open_s / STRETCHES as f64;
    let closed_for = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / STRETCHES as f64);
    let arrivals = gen::arrivals(args.seed, OPEN_RATE, open_s);
    let (mut open, mut closed) = (Tally::default(), Tally::default());
    let (mut p50, mut p99, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    let mut open_wall = 0.0;
    let cpu_before = cpu_jiffies();
    for k in 0..STRETCHES {
        let from = stretch_s * k as f64;
        let due: Vec<f64> = arrivals
            .iter()
            .filter(|&&t| (from..from + stretch_s).contains(&t))
            .map(|t| t - from)
            .collect();
        let t = Instant::now();
        let o = open_loop(&fleet, args.seed, &format!("open{k}"), &due, false, digests);
        open_wall += t.elapsed().as_secs_f64();
        p50.push(quantile(&o.read_ms, 0.5));
        p99.push(quantile(&o.read_ms, 0.99));
        open = open.merge(o);
        let t = Instant::now();
        let c = closed_loop(
            &fleet,
            args.seed,
            &format!("closed{k}"),
            closed_for,
            digests,
        );
        rps.push(c.read_ms.len() as f64 / t.elapsed().as_secs_f64());
        closed = closed.merge(c);
    }
    let after = scrape(&fleet);
    let cpu_after = cpu_jiffies();
    let steal_frac = (cpu_after.0 - cpu_before.0) / (cpu_after.1 - cpu_before.1).max(1.0);

    let read_ms = open.read_ms.clone();
    for kind in [
        "/v1/profile",
        "/v1/kernels",
        "/v1/roofline",
        "/v1/dominant",
        "/v1/similar",
        "/v1/compare",
    ] {
        let ms: Vec<f64> = open
            .paths
            .iter()
            .zip(&read_ms)
            .filter(|(p, _)| p.starts_with(kind))
            .map(|(_, m)| *m)
            .collect();
        eprintln!(
            "perfbench: open loop {kind}: n {} p50 {:.3} p90 {:.3} p99 {:.3} max {:.3} ms",
            ms.len(),
            quantile(&ms, 0.5),
            quantile(&ms, 0.9),
            quantile(&ms, 0.99),
            quantile(&ms, 1.0)
        );
    }
    let read_rps = median(&rps);
    let achieved = read_ms.len() as f64 / open_wall;
    let late_p99 = quantile(&open.late_ms, 0.99);
    eprintln!(
        "perfbench: open loop offered {OPEN_RATE} rps ({} requests), achieved {achieved:.1} rps, \
         gen_late_ms p99 {late_p99:.3}; stretch p50 {p50:.3?} ms, p99 {p99:.3?} ms; \
         closed loop {rps:.0?} rps; host steal {:.1} % of CPU time",
        arrivals.len(),
        steal_frac * 100.0,
    );
    let mut tally = open.merge(closed);
    let mixed = if args.trace {
        let arrivals = gen::arrivals(args.seed, OPEN_RATE, MIXED_S);
        let mixed = open_loop(&fleet, args.seed, "mixed", &arrivals, true, digests);
        let mut w = mixed.write_ms.clone();
        w.sort_by(f64::total_cmp);
        eprintln!("perfbench: mixed loop write ms {w:.1?}");
        let p99 = quantile(&mixed.read_ms, 0.99);
        tally = tally.merge(mixed);
        Some((w, p99))
    } else {
        None
    };
    let tally = tally.account(report);
    check_after(&fleet, &tally, report);

    let hits = fleet::delta(&before, &after, "cactus_serve_cache_hits_total");
    let misses = fleet::delta(&before, &after, "cactus_serve_cache_misses_total");
    let rss = fleet.peak_rss_mb();
    let remote = args.trace.then(|| remote_latencies(&fleet, args.seed));
    fleet.stop();

    if let (Some((direct_us, gateway_us)), Some((write_ms, mixed_p99))) = (remote, mixed) {
        report.put("read.p99_ms", median(&p99), "ms");
        report.put("host.steal_frac", steal_frac, "ratio");
        report.put("loadgen.gen_late_p99_ms", late_p99, "ms");
        report.put("loadgen.offered_rps", arrivals.len() as f64 / open_s, "1/s");
        report.put("loadgen.achieved_rps", achieved, "1/s");
        report.put(
            "serve.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        report.put("write.p50_ms", quantile(&write_ms, 0.5), "ms");
        report.put("write.p90_ms", quantile(&write_ms, 0.9), "ms");
        report.put(
            "write.stalled",
            write_ms.iter().filter(|&&ms| ms >= STALL_MS).count() as f64,
            "count",
        );
        report.put("write.mixed_read_p99_ms", mixed_p99, "ms");
        in_process_layers(
            args.seed,
            &copy,
            &args.work_dir,
            direct_us,
            gateway_us,
            report,
        )?;
    } else {
        report.put("setup_s", median(&setups), "s");
        report.put("peak_rss_mb", rss, "MiB");
        report.put("op_p50_ms", median(&p50), "ms");
        report.put("ops_per_s", read_rps, "1/s");
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else while this machine wanted its CPUs.
/// Zeros where the file is unreadable.
fn cpu_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0.0), fields.iter().sum())
}

/// Every Tiny triple through the gateway, split over the load threads.
fn fill(fleet: &Fleet, digests: &Digests) -> Tally {
    let triples = gen::tiny_triples();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let triples = &triples;
                s.spawn(move || {
                    let mut conn = Conn::new(fleet.gateway);
                    let mut tally = Tally::default();
                    for (d, w) in triples.iter().skip(c).step_by(CLIENTS) {
                        let op = Op::Read(format!("/v1/profile/{d}/tiny/{w}"));
                        tally.perform(&mut conn, &op, digests);
                    }
                    tally
                })
            })
            .collect();
        join_all(handles)
    })
}

fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, Tally>>) -> Tally {
    handles
        .into_iter()
        .map(|h| h.join().expect("load thread panicked"))
        .fold(Tally::default(), Tally::merge)
}

/// Open loop: each request is due at its arrival time; latency runs from
/// that time, so a stall also delays every request queued behind it.
fn open_loop(
    fleet: &Fleet,
    seed: u64,
    stream: &str,
    arrivals: &[f64],
    writes: bool,
    digests: &Digests,
) -> Tally {
    let mut gen = WarmGen::new(seed, stream);
    let ops: Vec<Op> = arrivals.iter().map(|_| gen.next(writes)).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let drain = if writes { MIXED_DRAIN } else { DRAIN };
    let cutoff = start + Duration::from_secs_f64(arrivals.last().copied().unwrap_or(0.0)) + drain;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (ops, next) = (&ops, &next);
                s.spawn(move || {
                    let mut conn = Conn::new(fleet.gateway);
                    let mut tally = Tally::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        if Instant::now() > cutoff {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(arrivals[i]);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        tally
                            .late_ms
                            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                        let done = tally.perform(&mut conn, op, digests);
                        let ms = done.duration_since(due).as_secs_f64() * 1e3;
                        if op.is_write() {
                            tally.write_ms.push(ms);
                        } else {
                            tally.read_ms.push(ms);
                            if let Op::Read(p) = op {
                                tally.paths.push(p.clone());
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        join_all(handles)
    })
}

/// Closed loop: each client sends its next read when the last returns.
fn closed_loop(fleet: &Fleet, seed: u64, stream: &str, span: Duration, digests: &Digests) -> Tally {
    let deadline = Instant::now() + span;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut gen = WarmGen::new(seed, &format!("{stream}{c}"));
                s.spawn(move || {
                    let mut conn = Conn::new(fleet.gateway);
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let op = gen.next(false);
                        let t = Instant::now();
                        let done = tally.perform(&mut conn, &op, digests);
                        tally
                            .read_ms
                            .push(done.duration_since(t).as_secs_f64() * 1e3);
                    }
                    tally
                })
            })
            .collect();
        join_all(handles)
    })
}

/// After the timed window: compare rows against each device's roofline,
/// and each written workload's profile against the in-process oracle.
fn check_after(fleet: &Fleet, tally: &Tally, report: &mut Report) {
    let mut conn = Conn::new(fleet.gateway);
    for (path, body) in &tally.compares {
        let Some((_, rest)) = path.split_once("/v1/compare/tiny/") else {
            continue;
        };
        let (workload, query) = rest.split_once('?').unwrap_or((rest, ""));
        let devices = query
            .split('&')
            .find_map(|p| p.strip_prefix("devices="))
            .unwrap_or_default();
        for device in devices.split(',') {
            let key = checks::key(device, SuiteScale::Tiny, workload);
            match conn.get(&format!("/v1/roofline/{key}")) {
                Ok(r) if r.ok() => {
                    if checks::compare_rows(body, device) == checks::roofline_rows(&r.body) {
                        report.op(true);
                    } else {
                        report.mismatch(&format!("compare rows of {key}"));
                    }
                }
                _ => report.op(false),
            }
        }
    }
    for (source, device, body) in &tally.written {
        match checks::reference_wir_profile(device, source) {
            Ok(reference) if &reference == body => report.op(true),
            _ => report.mismatch(&format!("profile of a written workload on {device}")),
        }
    }
}

/// Triple-view reads the layer measurements share.
fn sample_views(seed: u64, n: usize) -> Vec<String> {
    let mut gen = WarmGen::new(seed, "layers");
    let mut out: Vec<String> = Vec::new();
    while out.len() < n {
        if let Op::Read(p) = gen.next(false) {
            if gen::VIEWS
                .iter()
                .any(|v| p.starts_with(&format!("/v1/{v}/")))
                && !out.contains(&p)
            {
                out.push(p);
            }
        }
    }
    out
}

/// Median latency of cache-hit reads straight to backend 0 and through
/// the gateway, in µs (each path read once first so the second is a hit).
fn remote_latencies(fleet: &Fleet, seed: u64) -> (f64, f64) {
    let views = sample_views(seed, 100);
    let time = |addr| {
        let mut conn = Conn::new(addr);
        let times: Vec<f64> = views
            .iter()
            .map(|p| {
                let _ = conn.get(p);
                let t = Instant::now();
                let _ = conn.get(p);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&times)
    };
    (time(fleet.backends[0]), time(fleet.gateway))
}

/// Per-call µs of `f` over `items`: the median of `reps` timed sweeps.
fn per_call_us<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let sweeps: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_secs_f64() * 1e6 / items.len() as f64
        })
        .collect();
    median(&sweeps)
}

/// The serving path's layers, called in-process on a copy of the filled
/// store (no socket): HTTP parse, route + cache, store, decode,
/// similarity, validation and the write path's append.
fn in_process_layers(
    seed: u64,
    copy: &Path,
    work: &Path,
    direct_us: f64,
    gateway_us: f64,
    report: &mut Report,
) -> Result<(), String> {
    let views = sample_views(seed, 100);
    let mut gen = WarmGen::new(seed, "layers-mix");
    let heads: Vec<String> = (0..500)
        .map(|_| match gen.next(true) {
            Op::Read(p) => Conn::head("GET", &p, ""),
            Op::Write { source, .. } => Conn::head("POST", "/v1/workloads", &source),
        })
        .collect();
    report.put(
        "http.parse_us",
        per_call_us(&heads, 20, |h| {
            std::hint::black_box(read_request(&mut Cursor::new(h.as_bytes())).expect("parses"));
        }),
        "us",
    );

    let parse = |p: &str| read_request(&mut Cursor::new(Conn::head("GET", p, ""))).expect("parses");
    let requests: Vec<Request> = views.iter().map(|p| parse(p)).collect();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: Some(copy.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let state = server.state().clone();
    let ctx = state.tracer.ctx(TraceId::mint());
    let respond = |req: &Request| {
        let r = cactus_serve::routes::respond(&state, req, ctx);
        assert_eq!(r.status, 200, "{} answered {}", req.path, r.status);
    };
    requests.iter().for_each(respond);
    let hit_us = per_call_us(&requests, 20, respond);
    report.put("serve.respond_hit_us", hit_us, "us");
    let miss_us = per_call_us(&requests, 5, |req| {
        state.cache.clear();
        respond(req);
    }) - per_call_us(&requests, 5, |_| state.cache.clear());
    report.put("serve.respond_miss_us", miss_us, "us");
    report.put("serve.net_us", direct_us - hit_us, "us");
    report.put("gateway.proxy_us", gateway_us - direct_us, "us");

    let store = state.service.store();
    let keys: Vec<String> = views
        .iter()
        .filter_map(|p| p.splitn(4, '/').nth(3).map(str::to_owned))
        .collect();
    report.put(
        "store.get_us",
        per_call_us(&keys, 20, |k| {
            std::hint::black_box(store.get(k).expect("store read"));
        }),
        "us",
    );
    let records: Vec<String> = keys
        .iter()
        .filter_map(|k| store.get(k).ok().flatten())
        .filter_map(|r| String::from_utf8(r.value).ok())
        .collect();
    report.put(
        "profiler.decode_us",
        per_call_us(&records, 20, |t| {
            std::hint::black_box(cactus_profiler::store::read_profile(t).expect("decodes"));
        }),
        "us",
    );

    let mut gen = WarmGen::new(seed, "layers-similar");
    let similar: Vec<Request> = std::iter::from_fn(|| Some(gen.next(false)))
        .filter_map(|op| match op {
            Op::Read(p) if p.starts_with("/v1/similar") => Some(parse(&p)),
            _ => None,
        })
        .take(50)
        .collect();
    let times: Vec<f64> = similar
        .iter()
        .map(|req| {
            let t = Instant::now();
            let r = cactus_serve::similar::similar(&state, req, ctx);
            assert_eq!(r.status, 200, "similar answered {}", r.status);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.put("simindex.similar_us", median(&times), "us");
    drop(state);
    server.shutdown();
    server.join();

    let mut rng = Rng::derive(seed, "layers-wir");
    let sources: Vec<(String, String)> = (0..30)
        .map(|i| {
            let name = format!("gnn_layers_{i}");
            let source = gen::gnn_variant(&name, &mut rng);
            (name, source)
        })
        .collect();
    report.put(
        "wir.validate_us",
        per_call_us(&sources, 5, |(_, s)| {
            assert!(std::hint::black_box(cactus_serve::service::validate_submission(s)).is_ok());
        }),
        "us",
    );
    let dir = work.join("append-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = cactus_store::Store::open(&dir).map_err(|e| e.to_string())?;
    let times: Vec<f64> = sources
        .iter()
        .map(|(name, source)| {
            let t = Instant::now();
            store
                .append(
                    &format!("wir/{name}"),
                    cactus_wir::FORMAT_VERSION,
                    source.as_bytes(),
                )
                .map(|()| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    report.put("store.append_us", median(&times), "us");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
