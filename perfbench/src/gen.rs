//! Seeded request generators. The seed fixes workload order, device picks,
//! popularity, arrival times and the generated WIR definitions; built-in
//! workloads fix their own inputs, so the program receives only requests.

use cactus_serve::service::validate_submission;

use crate::rng::{Rng, Zipf};

/// The GNN family every generated write is a variant of.
pub const GNN_WIR: &str = include_str!("../../crates/wir/defs/gnn.wir");

/// Endpoints of the `/v1/<endpoint>/<device>/<scale>/<workload>` family.
pub const VIEWS: [&str; 4] = ["profile", "kernels", "roofline", "dominant"];

/// Zipf exponent of view popularity in the warm mix.
const ZIPF_S: f64 = 1.0;

pub fn devices() -> Vec<&'static str> {
    cactus_gpu::catalog::device_ids()
}

pub fn cactus_workloads() -> Vec<&'static str> {
    cactus_core::suite().iter().map(|w| w.abbr).collect()
}

pub fn prt_workloads() -> Vec<&'static str> {
    cactus_suites::all().iter().map(|b| b.name).collect()
}

/// Every Tiny triple the warm fleet is filled with, as `(device, workload)`.
pub fn tiny_triples() -> Vec<(&'static str, &'static str)> {
    let workloads: Vec<&str> = cactus_workloads()
        .into_iter()
        .chain(prt_workloads())
        .collect();
    devices()
        .into_iter()
        .flat_map(|d| workloads.iter().map(move |w| (d, *w)))
        .collect()
}

/// One step of a cold-fleet pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdStep {
    pub workload: &'static str,
    /// Device of the first-touch single-device profile.
    pub device: &'static str,
    /// All six catalog devices, in the order the compare asks for them.
    pub compare: Vec<&'static str>,
}

impl ColdStep {
    pub fn profile_path(&self) -> String {
        format!("/v1/profile/{}/small/{}", self.device, self.workload)
    }

    pub fn compare_path(&self) -> String {
        format!(
            "/v1/compare/small/{}?devices={}&format=csv",
            self.workload,
            self.compare.join(",")
        )
    }
}

/// The ten Cactus workloads in seeded order, each with a seeded device.
pub fn cold_plan(seed: u64, pass: u64) -> Vec<ColdStep> {
    let mut rng = Rng::derive(seed, &format!("cold/{pass}"));
    let mut order = cactus_workloads();
    rng.shuffle(&mut order);
    let devices = devices();
    order
        .into_iter()
        .map(|workload| {
            let mut compare = devices.clone();
            rng.shuffle(&mut compare);
            ColdStep {
                workload,
                device: devices[rng.below(devices.len())],
                compare,
            }
        })
        .collect()
}

/// One generated warm-fleet operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A read: triple views, `/v1/similar` or a warm `/v1/compare`.
    Read(String),
    /// `POST /v1/workloads` of a generated definition named `name`, then a
    /// cold read of its Tiny profile on `device`.
    Write {
        name: String,
        source: String,
        device: &'static str,
    },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }
}

/// The warm-fleet mix: Zipf-popular triple views, about 10 % similarity
/// queries, 5 % warm comparisons and (when allowed) 2 % writes.
pub struct WarmGen {
    rng: Rng,
    views: Vec<String>,
    triples: Vec<(&'static str, &'static str)>,
    zipf: Zipf,
    tag: String,
    writes: u64,
}

impl WarmGen {
    /// `stream` separates independent generators of one run (open loop,
    /// each closed-loop client), all fixed by `seed`.
    pub fn new(seed: u64, stream: &str) -> Self {
        let triples = tiny_triples();
        let mut views: Vec<String> = triples
            .iter()
            .flat_map(|(d, w)| VIEWS.iter().map(move |v| format!("/v1/{v}/{d}/tiny/{w}")))
            .collect();
        // Popularity ranks are a seeded permutation shared by every stream
        // of the run, so all clients agree on what is hot.
        Rng::derive(seed, "popularity").shuffle(&mut views);
        let zipf = Zipf::new(views.len(), ZIPF_S);
        Self {
            rng: Rng::derive(seed, stream),
            views,
            triples,
            zipf,
            tag: format!(
                "{:x}_{}",
                seed & 0xffff_ffff,
                stream.replace(['/', '-'], "_")
            ),
            writes: 0,
        }
    }

    pub fn next(&mut self, allow_writes: bool) -> Op {
        let u = self.rng.unit();
        if allow_writes && u < 0.02 {
            return self.write();
        }
        if u < 0.12 {
            let (d, w) = self.triples[self.zipf.sample(&mut self.rng) % self.triples.len()];
            return Op::Read(format!(
                "/v1/similar?device={d}&scale=tiny&workload={w}&k=5"
            ));
        }
        if u < 0.17 {
            let (_, w) = self.triples[self.rng.below(self.triples.len())];
            let mut devs = devices();
            self.rng.shuffle(&mut devs);
            devs.truncate(2 + self.rng.below(2));
            return Op::Read(format!(
                "/v1/compare/tiny/{w}?devices={}&format=csv",
                devs.join(",")
            ));
        }
        Op::Read(self.views[self.zipf.sample(&mut self.rng)].clone())
    }

    fn write(&mut self) -> Op {
        self.writes += 1;
        let name = format!("gnn_{}_{}", self.tag, self.writes);
        let source = gnn_variant(&name, &mut self.rng);
        let devs = devices();
        let device = devs[self.rng.below(devs.len())];
        Op::Write {
            name,
            source,
            device,
        }
    }
}

/// A seeded, uniquely named variant of the GNN family: new name, seed and
/// Tiny graph shape (which also flips the degree-class selection).
///
/// # Panics
///
/// If the variant does not pass `validate_submission`, which would make
/// the benchmark send the program a request it must refuse.
pub fn gnn_variant(name: &str, rng: &mut Rng) -> String {
    let nodes = 512 + 128 * rng.below(9);
    let degree = 4 + rng.below(21);
    let source = GNN_WIR
        .replacen("workload \"gnn\"", &format!("workload \"{name}\""), 1)
        .replacen("seed 45;", &format!("seed {};", 1 + rng.below(1 << 20)), 1)
        .replacen("nodes = 1024;", &format!("nodes = {nodes};"), 1)
        .replacen("edges = 8192;", &format!("edges = {};", nodes * degree), 1);
    assert!(
        validate_submission(&source).is_ok(),
        "generated definition {name} is invalid"
    );
    source
}

/// Open-loop send times (seconds from the start) of a Poisson process at
/// `rate` per second over `seconds`.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::derive(seed, "arrivals");
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(1.0 / rate);
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64) -> Vec<Op> {
        let mut g = WarmGen::new(seed, "open");
        (0..2000).map(|_| g.next(true)).collect()
    }

    #[test]
    fn same_seed_gives_the_same_requests() {
        assert_eq!(sequence(3), sequence(3));
        assert_eq!(cold_plan(3, 0), cold_plan(3, 0));
        assert_eq!(arrivals(3, 100.0, 2.0), arrivals(3, 100.0, 2.0));
    }

    #[test]
    fn another_seed_gives_other_requests() {
        assert_ne!(sequence(3), sequence(4));
        assert_ne!(cold_plan(3, 0), cold_plan(4, 0));
        assert_ne!(arrivals(3, 100.0, 2.0), arrivals(4, 100.0, 2.0));
    }

    #[test]
    fn generated_definitions_are_valid_and_unique() {
        let ops = sequence(11);
        let writes: Vec<&Op> = ops.iter().filter(|o| o.is_write()).collect();
        assert!(writes.len() > 10, "{} writes", writes.len());
        let mut names = std::collections::BTreeSet::new();
        for op in writes {
            let Op::Write { name, source, .. } = op else {
                unreachable!()
            };
            let Ok(def) = validate_submission(source) else {
                panic!("{name} is invalid");
            };
            assert_eq!(&def.name, name);
            assert!(names.insert(name.clone()), "duplicate {name}");
        }
    }

    #[test]
    fn mix_has_the_stated_shares() {
        let ops = sequence(5);
        let share =
            |p: &dyn Fn(&Op) -> bool| ops.iter().filter(|o| p(o)).count() as f64 / ops.len() as f64;
        let similar = share(&|o| matches!(o, Op::Read(p) if p.starts_with("/v1/similar")));
        let compare = share(&|o| matches!(o, Op::Read(p) if p.starts_with("/v1/compare")));
        let writes = share(&|o| o.is_write());
        assert!((0.07..0.13).contains(&similar), "similar {similar}");
        assert!((0.03..0.07).contains(&compare), "compare {compare}");
        assert!((0.01..0.03).contains(&writes), "writes {writes}");
    }

    #[test]
    fn cold_plan_covers_every_workload_and_device() {
        let plan = cold_plan(9, 1);
        assert_eq!(plan.len(), 10);
        let mut seen: Vec<&str> = plan.iter().map(|s| s.workload).collect();
        seen.sort_unstable();
        let mut all = cactus_workloads();
        all.sort_unstable();
        assert_eq!(seen, all);
        assert!(plan
            .iter()
            .all(|s| s.compare.len() == 6 && s.compare.contains(&s.device)));
        assert_eq!(tiny_triples().len(), 252);
    }
}
