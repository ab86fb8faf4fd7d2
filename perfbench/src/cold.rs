//! `cold_fleet`: a client meeting empty stores. Closed loop, one client;
//! for each Cactus workload in seeded order, a first-touch Small
//! `/v1/profile` on a seeded device. Passes repeat on fresh fleets with
//! empty stores until the run's seconds are spent.
//!
//! The traced run adds one pass that follows each profile with a
//! `/v1/compare` over all six devices (one leg already warm). Those
//! compares are per-layer figures only: on the commit that introduced the
//! benchmark, a six-way fan-out needs more backend connections than a
//! backend has workers, and idle pooled keep-alive connections pin the
//! workers until their 5 s read timeout, so compare latency is bimodal
//! (tens of ms or seconds) and its median too unsteady to gate on.

use std::collections::BTreeMap;
use std::time::Instant;

use cactus_core::SuiteScale;
use cactus_gpu::{Device, Gpu};

use crate::checks::{self, Digests};
use crate::fleet::{self, Fleet};
use crate::gen::{self, ColdStep};
use crate::http::Conn;
use crate::report::{median, Report};
use crate::Args;

/// Passes a run makes at least, so medians are over several fleets.
const MIN_PASSES: usize = 3;

/// A compare slower than this waited on a pinned backend worker.
const STALL_MS: f64 = 1000.0;

/// The compare pass takes no further step once this much of it has
/// passed: stalled compares wait seconds each, and a traced run must end
/// within its time limit.
const COMPARE_BUDGET_S: f64 = 12.0;

/// Counters scraped around a pass: per-layer name and exposition name.
const COUNTERS: [(&str, &str); 4] = [
    ("serve.simulations", "cactus_serve_simulations_total"),
    ("gateway.hedges", "cactus_gateway_hedges_total"),
    ("gateway.hedge_wins", "cactus_gateway_hedge_wins_total"),
    (
        "gateway.replications",
        "cactus_gateway_store_replications_total",
    ),
];

/// What one pass measured.
struct Pass {
    setup_s: f64,
    profile_ms: Vec<f64>,
    compare_ms: Vec<f64>,
    phase_s: f64,
    rss_mb: f64,
    /// `(step, profile latency ms)` for the traced overhead split.
    steps: Vec<(ColdStep, f64)>,
    counters: BTreeMap<&'static str, f64>,
}

pub fn run(args: &Args, digests: &Digests, report: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let n = passes.len() as u64;
        passes.push(one_pass(args, n, false, digests, report)?);
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let steps = gen::cactus_workloads().len() as f64;
    eprintln!(
        "perfbench: cold_fleet {} pass(es), phase {:.3?} s, rss {:.1?} MiB",
        passes.len(),
        per_pass(&|p| p.phase_s),
        per_pass(&|p| p.rss_mb)
    );
    if !args.trace {
        let profile_ms: Vec<f64> = passes.iter().flat_map(|p| p.profile_ms.clone()).collect();
        report.put("setup_s", median(&per_pass(&|p| p.setup_s)), "s");
        report.put("peak_rss_mb", median(&per_pass(&|p| p.rss_mb)), "MiB");
        report.put("op_p50_ms", median(&profile_ms), "ms");
        let phase_s: f64 = per_pass(&|p| p.phase_s).iter().sum();
        report.put("ops_per_s", steps * passes.len() as f64 / phase_s, "1/s");
        return Ok(());
    }

    let mean = |name: &str| median(&per_pass(&|p| p.counters[name]));
    for (name, _) in COUNTERS {
        report.put(name, mean(name), "count");
    }
    report.put(
        "fleet.sim_useful_ratio",
        steps / mean("serve.simulations").max(1.0),
        "ratio",
    );

    // Client latency minus the same triple's in-process run, over the
    // first passes only: each step costs a Small run again.
    let overhead: Vec<f64> = passes
        .iter()
        .take(MIN_PASSES)
        .flat_map(|p| p.steps.iter())
        .map(|(step, ms)| {
            let entry = cactus_gpu::by_id(step.device).expect("catalog device");
            let w = cactus_core::workloads::by_abbr(step.workload).expect("Cactus workload");
            let mut gpu = Gpu::new(entry.device());
            let t = Instant::now();
            w.run(&mut gpu, SuiteScale::Small);
            ms - t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.put("gateway.overhead_ms", median(&overhead), "ms");

    let compare = one_pass(args, passes.len() as u64, true, digests, report)?;
    let triples = (compare.compare_ms.len() * gen::devices().len()) as f64;
    report.put("compare.p50_ms", median(&compare.compare_ms), "ms");
    report.put(
        "compare.stalled",
        compare
            .compare_ms
            .iter()
            .filter(|&&ms| ms >= STALL_MS)
            .count() as f64,
        "count",
    );
    report.put("compare.triples_per_s", triples / compare.phase_s, "1/s");
    report.put(
        "compare.simulations",
        compare.counters["serve.simulations"],
        "count",
    );
    report.put(
        "compare.hedges",
        compare.counters["gateway.hedges"],
        "count",
    );
    report.put(
        "compare.sim_useful_ratio",
        triples / compare.counters["serve.simulations"].max(1.0),
        "ratio",
    );

    small_layers(args, report)
}

/// One fresh fleet with empty stores, the seeded plan for pass `n`, and
/// (with `compare`) a six-device compare after each profile.
fn one_pass(
    args: &Args,
    n: u64,
    compare: bool,
    digests: &Digests,
    report: &mut Report,
) -> Result<Pass, String> {
    let dir = args.work_dir.join(format!("cold{n}"));
    let stores = fleet::fresh_stores(&dir)?;
    let fleet = Fleet::start(&args.bin_dir, &dir, [&stores[0], &stores[1]])?;
    let scrape = |f: &Fleet| [f.scrape(None), f.scrape(Some(0)), f.scrape(Some(1))];
    let before = if args.trace {
        scrape(&fleet)
    } else {
        Default::default()
    };

    let plan = gen::cold_plan(args.seed, n);
    let mut conn = Conn::new(fleet.gateway);
    let (mut profile_ms, mut compare_ms, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    let mut compares = Vec::new();
    let phase = Instant::now();
    for step in &plan {
        if compare && phase.elapsed().as_secs_f64() >= COMPARE_BUDGET_S {
            break;
        }
        let t = Instant::now();
        let reply = conn.get(&step.profile_path());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        profile_ms.push(ms);
        let key = checks::key(step.device, SuiteScale::Small, step.workload);
        match reply {
            Ok(r) if r.ok() && digests.matches(&key, &r.body) => report.op(true),
            Ok(r) if r.ok() => report.mismatch(&format!("profile body of {key}")),
            other => {
                eprintln!("perfbench: {} failed: {other:?}", step.profile_path());
                report.op(false);
            }
        }
        steps.push((step.clone(), ms));
        if !compare {
            continue;
        }
        let t = Instant::now();
        let reply = conn.get(&step.compare_path());
        compare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(r) if r.ok() => {
                report.op(true);
                compares.push((step, r.body));
            }
            other => {
                eprintln!("perfbench: {} failed: {other:?}", step.compare_path());
                report.op(false);
            }
        }
    }
    let phase_s = phase.elapsed().as_secs_f64();
    if compare {
        eprintln!("perfbench: compare pass {phase_s:.2} s; compare ms {compare_ms:.0?}");
    }
    let mut counters = BTreeMap::new();
    if args.trace {
        let after = scrape(&fleet);
        for (name, metric) in COUNTERS {
            counters.insert(name, fleet::delta(&before, &after, metric));
        }
    }

    // After the timed window: every compare row against that device's own
    // /v1/roofline answer, and every leg's profile against its digest.
    for (step, body) in &compares {
        for device in &step.compare {
            let key = checks::key(device, SuiteScale::Small, step.workload);
            let roofline = conn.get(&format!("/v1/roofline/{key}"));
            let profile = conn.get(&format!("/v1/profile/{key}"));
            match (roofline, profile) {
                (Ok(r), Ok(p)) if r.ok() && p.ok() => {
                    if checks::compare_rows(body, device) != checks::roofline_rows(&r.body) {
                        report.mismatch(&format!("compare rows of {key}"));
                    } else if !digests.matches(&key, &p.body) {
                        report.mismatch(&format!("profile body of {key}"));
                    } else {
                        report.op(true);
                    }
                }
                _ => report.op(false),
            }
        }
    }

    drop(conn);
    let pass = Pass {
        setup_s: fleet.setup_s,
        profile_ms,
        compare_ms,
        phase_s,
        rss_mb: fleet.peak_rss_mb(),
        steps,
        counters,
    };
    fleet.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(pass)
}

/// In-process Small-scale layers: native runs on one device, replays of
/// the captured streams on all six, and one fsync'd store append.
fn small_layers(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut native_s = 0.0;
    let mut streams = Vec::new();
    let mut record = String::new();
    for w in cactus_core::suite() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.enable_desc_log();
        let t = Instant::now();
        w.run(&mut gpu, SuiteScale::Small);
        native_s += t.elapsed().as_secs_f64();
        let descs = gpu.take_desc_log();
        let text = cactus_wir::capture::capture(&w.abbr.to_ascii_lowercase(), &descs);
        streams.push(cactus_wir::parse(&text).map_err(|f| f.to_string())?);
        if record.is_empty() {
            record = cactus_profiler::store::write_profile(
                &cactus_profiler::Profile::from_records(gpu.records()),
            );
        }
    }
    report.put("core.small_run_s", native_s, "s");

    let t = Instant::now();
    for def in &streams {
        for entry in cactus_gpu::CATALOG {
            let mut gpu = Gpu::new(entry.device());
            cactus_wir::run(def, None, &mut gpu).map_err(|e| e.message)?;
        }
    }
    report.put("gpu.small_replay_s", t.elapsed().as_secs_f64(), "s");

    let dir = args.work_dir.join("append-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = cactus_store::Store::open(&dir).map_err(|e| e.to_string())?;
    let times: Vec<f64> = (0..20)
        .map(|i| {
            let t = Instant::now();
            store
                .append(
                    &format!("rtx-3080/small/R{i}"),
                    cactus_gpu::MODEL_VERSION,
                    record.as_bytes(),
                )
                .map(|()| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    report.put("store.append_ms", median(&times), "ms");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
