//! Output checks: reference digests of every profile the benchmark asks
//! for, an in-process oracle for generated workloads, and the
//! `/v1/compare` ↔ `/v1/roofline` row identity.

use std::collections::BTreeMap;
use std::path::Path;

use cactus_core::SuiteScale;
use cactus_gpu::{Gpu, MODEL_VERSION};
use cactus_profiler::{store as profile_store, Profile};

use crate::gen;

/// FNV-1a 64 of a response body.
pub fn digest(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Reference digests for the current `MODEL_VERSION`, keyed
/// `device/scale/workload`.
pub struct Digests(BTreeMap<String, u64>);

impl Digests {
    pub fn file_name() -> String {
        format!("model-v{MODEL_VERSION}.txt")
    }

    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(Self::file_name());
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "{}: {e} (regenerate with `perfbench digests` after a deliberate model change)",
                path.display()
            )
        })?;
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (key, hex) = line.split_once(' ').ok_or("malformed digest line")?;
            let value = u64::from_str_radix(hex, 16).map_err(|_| "malformed digest")?;
            map.insert(key.to_owned(), value);
        }
        Ok(Self(map))
    }

    /// Whether `body` is the reference `/v1/profile` body for the triple.
    pub fn matches(&self, key: &str, body: &str) -> bool {
        self.0.get(key) == Some(&digest(body))
    }
}

fn scale_slug(scale: SuiteScale) -> &'static str {
    match scale {
        SuiteScale::Tiny => "tiny",
        SuiteScale::Small => "small",
        SuiteScale::Profile => "profile",
    }
}

/// The `/v1/profile` body the program must produce for a built-in triple,
/// computed in this process on a fresh engine.
pub fn reference_profile(device: &str, scale: SuiteScale, workload: &str) -> String {
    let entry = cactus_gpu::by_id(device).expect("catalog device");
    let mut gpu = Gpu::new(entry.device());
    if let Some(w) = cactus_core::workloads::by_abbr(workload) {
        w.run(&mut gpu, scale);
    } else {
        let b = cactus_suites::by_name(workload).expect("built-in workload");
        // The comparison suites define only tiny and profile scales.
        let prt_scale = match scale {
            SuiteScale::Profile => cactus_suites::Scale::Profile,
            SuiteScale::Tiny | SuiteScale::Small => cactus_suites::Scale::Tiny,
        };
        b.run(&mut gpu, prt_scale);
    }
    profile_store::write_profile(&Profile::from_records(gpu.records()))
}

/// The Tiny `/v1/profile` body of a submitted definition.
pub fn reference_wir_profile(device: &str, source: &str) -> Result<String, String> {
    let def = cactus_wir::parse(source).map_err(|f| f.to_string())?;
    let entry = cactus_gpu::by_id(device).ok_or("unknown device")?;
    let mut gpu = Gpu::new(entry.device());
    cactus_wir::run(&def, Some("tiny"), &mut gpu).map_err(|e| e.message)?;
    Ok(profile_store::write_profile(&Profile::from_records(
        gpu.records(),
    )))
}

/// Every triple the benchmark requests from a built-in workload.
pub fn all_triples() -> Vec<(String, SuiteScale, String)> {
    let mut out = Vec::new();
    for w in gen::cactus_workloads()
        .into_iter()
        .chain(gen::prt_workloads())
    {
        out.push(("rtx-3080".to_owned(), SuiteScale::Profile, w.to_owned()));
    }
    for d in gen::devices() {
        for w in gen::cactus_workloads() {
            out.push((d.to_owned(), SuiteScale::Small, w.to_owned()));
        }
    }
    for (d, w) in gen::tiny_triples() {
        out.push((d.to_owned(), SuiteScale::Tiny, w.to_owned()));
    }
    out
}

/// Render the digest file for this `MODEL_VERSION`.
pub fn render_digests() -> String {
    let mut out = format!(
        "# FNV-1a 64 of every /v1/profile body the benchmark requests, MODEL_VERSION {MODEL_VERSION}.\n\
         # Regenerate: perfbench digests --out perfbench/digests\n"
    );
    for (d, s, w) in all_triples() {
        let key = format!("{d}/{}/{w}", scale_slug(s));
        out.push_str(&format!(
            "{key} {:016x}\n",
            digest(&reference_profile(&d, s, &w))
        ));
    }
    out
}

pub fn key(device: &str, scale: SuiteScale, workload: &str) -> String {
    format!("{device}/{}/{workload}", scale_slug(scale))
}

/// The rows of one device in a `/v1/compare?format=csv` body, reduced to
/// the columns `/v1/roofline` serves (device prefix and shift flag cut).
pub fn compare_rows(body: &str, device: &str) -> Vec<String> {
    let prefix = format!("{device},");
    body.lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|l| l.rsplit_once(',').map(|(row, _shift)| row.to_owned()))
        .collect()
}

/// The data rows of a `/v1/roofline` body.
pub fn roofline_rows(body: &str) -> Vec<String> {
    body.lines().skip(1).map(str::to_owned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_rows_strip_to_roofline_columns() {
        let compare = "# compare: tiny/GMS\n\
                       device,kernel,instruction_intensity,gips,time_share,intensity_class,boundedness,bottleneck_shift\n\
                       a100,k1,1.000000,2.000000,0.500000,low,memory,false\n\
                       uhd-630,k1,1.000000,2.000000,0.500000,low,compute,true\n";
        let roofline = "kernel,instruction_intensity,gips,time_share,intensity_class,boundedness\n\
                        k1,1.000000,2.000000,0.500000,low,memory\n";
        assert_eq!(compare_rows(compare, "a100"), roofline_rows(roofline));
        assert_ne!(compare_rows(compare, "uhd-630"), roofline_rows(roofline));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
