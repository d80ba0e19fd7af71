//! The pinned expected values under `perf/expected/`: what the programs
//! must compute, recorded once and compared on every job.
//!
//! - per kernel, the simulator's full counter set (and simulated times)
//!   at the `sim-kernels` configuration — kernels take no input seed, so
//!   these hold for every `--seed`;
//! - per program of the `dsl-interp` job list (also the same for every
//!   seed), the checksum of its interpretation;
//! - per program of the pinned seed's `dsl-compile` job list, the verdict
//!   digest of its compilation.
//!
//! `olden-perf bless` rewrites the file; a change that moves any value in
//! it has changed what the system computes, not how fast.

use crate::span::Tracer;
use crate::workloads::{
    interp_once, interp_programs, sim_size, Counts, Job, Workload, COMPILE_GEN, INTERP_GEN,
    SIM_PROCS,
};
use olden_analysis::Mech;
use olden_obs::json::Json;
use olden_runtime::{run, Config, RunReport};
use std::collections::BTreeMap;
use std::path::Path;

pub const PIN_FILE: &str = "perf/expected/seed0.json";
/// The one seed whose DSL job lists are pinned.
pub const PINNED_SEED: u64 = 0;

/// A kernel's named simulator counters, in a fixed order.
pub type SimPin = Vec<(String, u64)>;

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pins {
    pub sim: BTreeMap<String, SimPin>,
    compile: Vec<u64>,
    pub interp: Vec<u64>,
}

/// Every deterministic number a simulator report carries, by name.
pub fn sim_named(rep: &RunReport) -> SimPin {
    let mut out: SimPin = vec![
        ("makespan".into(), rep.makespan),
        ("total_work".into(), rep.total_work),
        ("critical_path".into(), rep.critical_path),
        ("segments".into(), rep.segments as u64),
        ("pages_cached".into(), rep.pages_cached),
    ];
    out.extend(rep.stats.counters().map(|(k, v)| (k.to_string(), v)));
    // The two check counters exist in both blocks; prefix the cache's.
    out.extend(rep.cache.counters().map(|(k, v)| (format!("cache.{k}"), v)));
    out
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn unhex(j: &Json) -> Result<u64, String> {
    let s = j.as_str().ok_or("expected a hex string")?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

fn hex_list(j: Option<&Json>, what: &str, programs: usize) -> Result<Vec<u64>, String> {
    let items = j
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{PIN_FILE}: no {what} list"))?;
    let out = items.iter().map(unhex).collect::<Result<Vec<_>, _>>()?;
    if out.len() != programs {
        return Err(format!(
            "{PIN_FILE}: {what} pins {} programs, the job list has {programs}; run `olden-perf bless`",
            out.len(),
        ));
    }
    Ok(out)
}

impl Pins {
    pub fn load() -> Result<Pins, String> {
        let text = std::fs::read_to_string(Path::new(PIN_FILE))
            .map_err(|e| format!("{PIN_FILE}: {e} (run from the repository root)"))?;
        Pins::from_json(&Json::parse(&text).map_err(|e| format!("{PIN_FILE}: {e}"))?)
    }

    pub fn from_json(doc: &Json) -> Result<Pins, String> {
        if doc.get("seed").and_then(Json::as_u64) != Some(PINNED_SEED) {
            return Err(format!("{PIN_FILE}: not the pins of seed {PINNED_SEED}"));
        }
        let mut sim = BTreeMap::new();
        for (kernel, counters) in doc
            .get("sim")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{PIN_FILE}: no sim object"))?
        {
            let pin = counters
                .as_obj()
                .ok_or_else(|| format!("{PIN_FILE}: sim.{kernel} is not an object"))?
                .iter()
                .map(|(k, v)| {
                    let v = v
                        .as_u64()
                        .ok_or_else(|| format!("{PIN_FILE}: sim.{kernel}.{k} is not a count"))?;
                    Ok((k.clone(), v))
                })
                .collect::<Result<SimPin, String>>()?;
            sim.insert(kernel.clone(), pin);
        }
        Ok(Pins {
            sim,
            compile: hex_list(
                doc.get("compile_digests"),
                "compile_digests",
                COMPILE_GEN + 10,
            )?,
            interp: hex_list(
                doc.get("interp_checksums"),
                "interp_checksums",
                INTERP_GEN + 10,
            )?,
        })
    }

    pub fn to_json(&self) -> Json {
        let sim = self
            .sim
            .iter()
            .map(|(kernel, pin)| {
                let members = pin
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::u64(*v)))
                    .collect();
                (kernel.clone(), Json::Obj(members))
            })
            .collect();
        Json::Obj(vec![
            ("seed".into(), Json::u64(PINNED_SEED)),
            ("sim".into(), Json::Obj(sim)),
            (
                "compile_digests".into(),
                Json::Arr(self.compile.iter().map(|&d| hex(d)).collect()),
            ),
            (
                "interp_checksums".into(),
                Json::Arr(self.interp.iter().map(|&d| hex(d)).collect()),
            ),
        ])
    }

    /// The pinned compile digests, when `seed` is the pinned seed. (Only
    /// `bless` holds empty pins, which pin nothing.)
    pub fn compile_for(&self, seed: u64) -> Option<&[u64]> {
        (seed == PINNED_SEED && !self.compile.is_empty()).then_some(&self.compile[..])
    }

    /// Record the pins from the code as it stands. A checksum is pinned
    /// only if it is the same under the live verdicts, all-migrate and
    /// all-cache: the mechanism must not change what a program computes.
    pub fn bless() -> Result<Pins, String> {
        let mut tr = Tracer::new(false);
        let sim = olden_benchmarks::all()
            .into_iter()
            .map(|d| {
                let (_, rep) = run(Config::olden(SIM_PROCS), |ctx| (d.run)(ctx, sim_size(&d)));
                (d.name.to_string(), sim_named(&rep))
            })
            .collect();
        // Empty pins send set-up down the path an unpinned seed takes: it
        // computes each wanted digest itself.
        let compile = Workload::build("dsl-compile", PINNED_SEED, &Pins::default(), &[], &mut tr)?
            .jobs
            .iter()
            .map(|j| match j {
                Job::Compile { want_digest, .. } => *want_digest,
                _ => unreachable!("dsl-compile holds compile jobs"),
            })
            .collect();
        let mut scratch = Counts::default();
        let interp = interp_programs(&mut tr)?
            .iter()
            .enumerate()
            .map(|(i, (ir, input_seed))| {
                let mut go = |force| interp_once(ir, *input_seed, force, &mut tr, &mut scratch);
                let live = go(None);
                if go(Some(Mech::Migrate)) == live && go(Some(Mech::Cache)) == live {
                    Ok(live)
                } else {
                    Err(format!(
                        "dsl-interp program {i}: checksum depends on the mechanism"
                    ))
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Pins {
            sim,
            compile,
            interp,
        })
    }

    /// Flip one pinned value of each kind — the self-test's sabotage.
    pub fn corrupt(&mut self) {
        if let Some(pin) = self.sim.values_mut().next() {
            pin[0].1 ^= 1;
        }
        self.compile[0] ^= 1;
        self.interp[0] ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pins {
        Pins {
            sim: BTreeMap::from([(
                "TreeAdd".to_string(),
                vec![
                    ("makespan".to_string(), 12345),
                    ("migrations".to_string(), 7),
                ],
            )]),
            compile: (0..COMPILE_GEN as u64 + 10).map(|i| i << 50).collect(),
            interp: (0..INTERP_GEN as u64 + 10).map(|i| !i).collect(),
        }
    }

    #[test]
    fn pins_round_trip_through_json_text() {
        let pins = sample();
        let text = pins.to_json().render();
        let back = Pins::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, pins, "64-bit digests survive as hex strings");
    }

    #[test]
    fn short_digest_list_is_refused() {
        let mut pins = sample();
        pins.compile.pop();
        let err = Pins::from_json(&pins.to_json()).unwrap_err();
        assert!(err.contains("bless"), "{err}");
    }

    #[test]
    fn only_the_pinned_seed_is_pinned() {
        let pins = sample();
        assert!(pins.compile_for(PINNED_SEED).is_some());
        assert!(pins.compile_for(PINNED_SEED + 1).is_none());
        assert!(Pins::default().compile_for(PINNED_SEED).is_none());
    }

    #[test]
    fn corrupt_changes_one_value_of_each_kind() {
        let (clean, mut bad) = (sample(), sample());
        bad.corrupt();
        assert_ne!(bad.sim, clean.sim);
        assert_ne!(bad.compile[0], clean.compile[0]);
        assert_eq!(bad.compile[1..], clean.compile[1..]);
        assert_ne!(bad.interp[0], clean.interp[0]);
    }
}
