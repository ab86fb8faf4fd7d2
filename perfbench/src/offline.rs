//! `offline_suite`: the researcher's run. One serial pass through the ten
//! Cactus workloads and the 32 comparison benchmarks at Profile scale,
//! then the paper analysis on their dominant kernels (FAMD, Ward
//! clustering, roofline placement). The traced run times the same calls
//! one layer at a time.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cactus_analysis::famd::Famd;
use cactus_analysis::hclust::{self, Linkage};
use cactus_analysis::matrix::Matrix;
use cactus_bench::{dominant_kernel_metrics, kernel_points, roofline, ProfiledWorkload};
use cactus_core::SuiteScale;
use cactus_gpu::metrics::MetricId;
use cactus_gpu::{Device, Gpu};
use cactus_profiler::{store as profile_store, Profile};

use crate::checks::{self, Digests};
use crate::report::{median, Report};
use crate::Args;

/// Engine/catalog construction is timed in batches (one construction
/// takes well under a microsecond) on a second thread, one batch every
/// `SETUP_EVERY` while the passes run (so it shares the host with them).
/// `setup_s` is the mean over the run of the medians of consecutive
/// `SETUP_WINDOW` batches: the median keeps a preempted batch out, and the
/// mean over the whole run follows the shared host, whose speed flips
/// between two states about every ten seconds (0.35 or 0.5 µs a
/// construction when idle), smoothly, as the pass time does. A median
/// over all batches jumps between the two states instead.
const SETUP_BATCH: usize = 100;
const SETUP_EVERY: Duration = Duration::from_millis(10);
const SETUP_WINDOW: usize = 50;

/// Passes a run makes at least: `suite_s` is their median, so one pass
/// slowed by the shared host does not set it.
const MIN_PASSES: usize = 3;

/// Share of `suite_s` the GPU model may take before the run warns that the
/// host-vs-model split no longer matches the recorded baseline (0.05 %).
const MODEL_FRAC_CEILING: f64 = 0.01;

pub fn run(args: &Args, digests: &Digests, report: &mut Report) {
    let stop = AtomicBool::new(false);
    let (passes, profiles, setup) = std::thread::scope(|s| {
        // Not in the traced run: its untraced pass is the reference for
        // the tracing overhead.
        let sampler = (!args.trace).then(|| s.spawn(|| sample_setup(&stop)));
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut profiles = 0;
        loop {
            let t = Instant::now();
            let cactus = cactus_bench::cactus_profiles_serial();
            let prt = cactus_bench::prt_profiles_serial();
            let clusters = analysis(&cactus, &prt);
            passes.push(t.elapsed().as_secs_f64());
            if passes.len() == 1 {
                profiles = cactus.len() + prt.len();
                check_pass(&cactus, &prt, clusters, digests, report);
            }
            if args.trace
                || (passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds)
            {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let setup = sampler.map_or_else(Vec::new, |h| h.join().expect("set-up sampler panicked"));
        (passes, profiles, setup)
    });
    let suite_s = median(&passes);
    eprintln!(
        "perfbench: offline_suite {} pass(es): {:?} s",
        passes.len(),
        passes
    );
    if args.trace {
        traced(suite_s, digests, report);
    } else {
        let windows: Vec<f64> = setup.chunks(SETUP_WINDOW).map(median).collect();
        report.put(
            "setup_s",
            windows.iter().sum::<f64>() / windows.len() as f64,
            "s",
        );
        // The operation is one whole pass; its rate counts the profiles
        // a pass makes.
        report.put("op_p50_ms", suite_s * 1e3, "ms");
        report.put("ops_per_s", profiles as f64 / suite_s, "1/s");
        report.put(
            "peak_rss_mb",
            crate::fleet::vm_hwm_mb(std::process::id()),
            "MiB",
        );
    }
}

/// Engine and catalog construction, as a run does before its first
/// workload: the suite lists, one engine and roofline per catalog device.
/// Seconds per construction, one value per batch, until `stop` is set
/// (at least one batch).
fn sample_setup(stop: &AtomicBool) -> Vec<f64> {
    let mut batches = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            black_box(cactus_core::suite());
            black_box(cactus_suites::all());
            for entry in cactus_gpu::CATALOG {
                let device = entry.device();
                black_box(cactus_analysis::roofline::Roofline::for_device(&device));
                black_box(Gpu::new(device));
            }
        }
        batches.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        if stop.load(Ordering::Relaxed) {
            return batches;
        }
        std::thread::sleep(SETUP_EVERY);
    }
}

/// The paper analysis over both pools: FAMD fit and Ward clustering of the
/// dominant kernels (Figure 9), and roofline placement of every kernel
/// (Figures 4 and 5). Returns the cluster assignment.
fn analysis(cactus: &[ProfiledWorkload], prt: &[ProfiledWorkload]) -> Vec<usize> {
    let (data, qual) = famd_input(cactus, prt);
    let coords = famd(&data, &qual);
    let assignment = hclust::cluster(&coords, Linkage::Ward).cut(6);
    black_box(roofline_placement(cactus, prt));
    assignment
}

fn famd_input(cactus: &[ProfiledWorkload], prt: &[ProfiledWorkload]) -> (Matrix, Vec<Vec<String>>) {
    let r = roofline();
    let mut rows = Vec::new();
    let (mut intensity, mut bound) = (Vec::new(), Vec::new());
    for set in [cactus, prt] {
        for (_, _, m, _) in dominant_kernel_metrics(set) {
            rows.push(
                MetricId::TABLE_IV
                    .iter()
                    .map(|&id| m.get(id))
                    .collect::<Vec<f64>>(),
            );
            intensity.push(
                r.intensity_class(m.instruction_intensity)
                    .label()
                    .to_owned(),
            );
            bound.push(r.boundedness_class(m.gips).label().to_owned());
        }
    }
    let n = rows.len();
    let p = MetricId::TABLE_IV.len();
    (
        Matrix::from_rows(n, p, rows.into_iter().flatten().collect()),
        vec![intensity, bound],
    )
}

fn famd(data: &Matrix, qual: &[Vec<String>]) -> Matrix {
    let famd = Famd::fit(data, qual);
    famd.coordinates(famd.dims_for_ratio(0.85).max(2))
}

/// Intensity and boundedness class of every kernel of every profile.
fn roofline_placement(cactus: &[ProfiledWorkload], prt: &[ProfiledWorkload]) -> usize {
    let r = roofline();
    let mut memory_bound = 0;
    for p in cactus.iter().chain(prt) {
        for point in kernel_points(p) {
            black_box(r.intensity_class(point.intensity));
            if r.boundedness_class(point.gips).label() == "memory" {
                memory_bound += 1;
            }
        }
    }
    memory_bound
}

fn check_pass(
    cactus: &[ProfiledWorkload],
    prt: &[ProfiledWorkload],
    clusters: Vec<usize>,
    digests: &Digests,
    report: &mut Report,
) {
    for p in cactus.iter().chain(prt) {
        let key = checks::key("rtx-3080", SuiteScale::Profile, &p.name);
        if digests.matches(&key, &profile_store::write_profile(&p.profile)) {
            report.op(true);
        } else {
            report.mismatch(&key);
        }
    }
    let n = dominant_kernel_metrics(cactus).len() + dominant_kernel_metrics(prt).len();
    let distinct: std::collections::BTreeSet<usize> = clusters.iter().copied().collect();
    if clusters.len() == n && distinct.len() == 6 {
        report.op(true);
    } else {
        report.mismatch("analysis: expected six Ward clusters over every dominant kernel");
    }
}

/// One layer at a time, around the same public calls the pass makes.
fn traced(suite_s: f64, digests: &Digests, report: &mut Report) {
    let t_pass = Instant::now();
    let mut layered = 0.0;
    let mut model_total = 0.0;
    let (mut launches, mut sim_time, mut hits, mut misses) = (0u64, 0.0, 0u64, 0u64);
    let mut aggregate = 0.0;
    let mut cactus = Vec::new();
    let mut untimed = 0.0;
    for w in cactus_core::suite() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.enable_desc_log();
        let t = Instant::now();
        w.run(&mut gpu, SuiteScale::Profile);
        let run_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let profile = Profile::from_records(gpu.records());
        aggregate += t.elapsed().as_secs_f64();
        report.put(&format!("core.run_s.{}", w.abbr), run_s, "s");
        layered += run_s;
        launches += gpu.records().len() as u64;
        sim_time += gpu.total_gpu_time_s();
        let memo = gpu.memo_stats();
        hits += memo.hits;
        misses += memo.misses;

        // The model alone: replay the captured stream on a fresh engine.
        let t_replay = Instant::now();
        let descs = gpu.take_desc_log();
        let def = cactus_wir::parse(&cactus_wir::capture::capture(
            &w.abbr.to_ascii_lowercase(),
            &descs,
        ))
        .expect("captured streams parse");
        let mut replay = Gpu::new(Device::rtx3080());
        let t = Instant::now();
        cactus_wir::run(&def, None, &mut replay).expect("captured streams replay");
        let model_s = t.elapsed().as_secs_f64();
        if replay.records() != gpu.records() {
            report.mismatch(&format!(
                "{}: replayed trace differs from the native run",
                w.abbr
            ));
        }
        report.put(&format!("gpu.model_s.{}", w.abbr), model_s, "s");
        model_total += model_s;
        untimed += t_replay.elapsed().as_secs_f64();
        cactus.push(ProfiledWorkload {
            name: w.abbr.to_owned(),
            suite: "Cactus".to_owned(),
            profile,
            memo: None,
        });
    }

    let mut suites_s = 0.0;
    let mut prt = Vec::new();
    for b in cactus_suites::all() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let t = Instant::now();
        b.run(&mut gpu, cactus_suites::Scale::Profile);
        suites_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let profile = Profile::from_records(gpu.records());
        aggregate += t.elapsed().as_secs_f64();
        launches += gpu.records().len() as u64;
        sim_time += gpu.total_gpu_time_s();
        let memo = gpu.memo_stats();
        hits += memo.hits;
        misses += memo.misses;
        prt.push(ProfiledWorkload {
            name: b.name.to_owned(),
            suite: b.suite.name().to_owned(),
            profile,
            memo: None,
        });
    }
    report.put("suites.run_s", suites_s, "s");
    report.put("profiler.aggregate_s", aggregate, "s");
    layered += suites_s + aggregate;

    let t = Instant::now();
    let (data, qual) = famd_input(&cactus, &prt);
    let coords = famd(&data, &qual);
    let famd_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let clusters = hclust::cluster(&coords, Linkage::Ward).cut(6);
    let hclust_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(roofline_placement(&cactus, &prt));
    let roofline_s = t.elapsed().as_secs_f64();
    report.put("analysis.famd_s", famd_s, "s");
    report.put("analysis.hclust_s", hclust_s, "s");
    report.put("analysis.roofline_s", roofline_s, "s");
    layered += famd_s + hclust_s + roofline_s;
    let traced_s = t_pass.elapsed().as_secs_f64() - untimed;
    check_pass(&cactus, &prt, clusters, digests, report);

    // Input generators at Profile sizes, with the seeds the workloads fix.
    let (atoms, steps) = SuiteScale::Profile.md();
    let md = |atoms| cactus_md::workloads::MdScale { atoms, steps };
    let t = Instant::now();
    black_box(cactus_md::workloads::gromacs_npt(md(atoms), 42));
    black_box(cactus_md::workloads::lammps_rhodopsin(md(atoms), 43));
    black_box(cactus_md::workloads::lammps_colloid(md(atoms / 2), 44));
    report.put("md.build_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    black_box(cactus_graph::generators::social_network(
        SuiteScale::Profile.social_scale(),
        45,
    ));
    report.put("graph.gen_social_s", t.elapsed().as_secs_f64(), "s");
    let side = SuiteScale::Profile.road_side();
    let t = Instant::now();
    black_box(cactus_graph::generators::road_network(side, side, 46));
    report.put("graph.gen_road_s", t.elapsed().as_secs_f64(), "s");

    report.put("gpu.launches", launches as f64, "count");
    // Modelled device time, not wall time: it repeats exactly.
    report.put("gpu.sim_time_s", sim_time, "sim_s");
    report.put(
        "gpu.memo_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let model_frac = model_total / suite_s;
    report.put("offline.model_frac", model_frac, "ratio");
    report.put("offline.unaccounted_frac", 1.0 - layered / suite_s, "ratio");
    report.put("offline.trace_overhead_s", traced_s - suite_s, "s");
    eprintln!(
        "perfbench: suite_s {suite_s:.3} s untraced, {traced_s:.3} s traced; host {:.3} s, model {:.4} s ({:.3} % of suite_s)",
        layered - model_total,
        model_total,
        model_frac * 100.0
    );
    if model_frac >= MODEL_FRAC_CEILING {
        eprintln!(
            "perfbench: the GPU model is {:.2} % of suite_s; the recorded baseline has it far below 1 %",
            model_frac * 100.0
        );
    }
}
