//! Deterministic fault injection for the parallel pipeline.
//!
//! A [`FaultPlan`] describes, from a seed, which tasks of which pipeline
//! phases should panic and whether steal-path claims should be artificially
//! delayed. The decision for a `(site, task)` pair is a pure hash of the seed
//! — no global state, no clock, no RNG stream — so the same plan injects the
//! same faults on every run regardless of thread interleaving. That
//! determinism is what lets the chaos tests assert *bit-identical* clusterings
//! under injected faults plus [`crate::RecoveryPolicy::FallbackSequential`].
//!
//! Unless the crate is compiled with the `fault-injection` feature, every
//! injection point is a branch on a compile-time `false` and the whole module
//! folds to a no-op: production binaries carry zero fault-injection overhead
//! while the types stay available, so code threading a plan through
//! [`crate::parallel::ParConfig`] compiles identically either way.

use std::fmt;
use std::str::FromStr;

/// A pipeline location where faults can be injected. The four sites map to
/// the four parallel stages of `dbscan_core::parallel` (grid build, core
/// labeling, edge tests, border assignment); injected panics fire at the
/// start of a claimed task's body, inside its `catch_unwind` envelope.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// The core-point labeling stage (one task per grid cell).
    Labeling,
    /// The fused structure-build + edge-test stage (one task per core cell).
    EdgeTests,
    /// The border-point assignment stage (one task per grid cell).
    BorderAssign,
    /// The chunked grid build (one task per id or cell range in each of its
    /// passes). Declared last so the other sites keep their fault decisions.
    Grid,
}

impl FaultSite {
    /// Number of distinct sites.
    pub const COUNT: usize = 4;

    /// All sites, in declaration order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::Labeling,
        FaultSite::EdgeTests,
        FaultSite::BorderAssign,
        FaultSite::Grid,
    ];

    /// Stable lowercase name (used in panic payloads and the `--faults` spec).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Labeling => "labeling",
            FaultSite::EdgeTests => "edge",
            FaultSite::BorderAssign => "border",
            FaultSite::Grid => "grid",
        }
    }
}

/// A seeded, deterministic description of which parallel tasks fail and how.
///
/// Build one with [`FaultPlan::new`] + the `with_*` methods, or parse the
/// CLI's `--faults` spec via [`FromStr`]:
///
/// ```text
/// seed=42,edge=1,labeling=0.25,steal-delay-us=100
/// ```
///
/// keys: `seed` (u64), one probability in `[0, 1]` per site name
/// (`grid`, `labeling`, `edge`, `border`), and `steal-delay-us` (a forced sleep, in
/// microseconds, on every successful *steal-path* claim — exercising the
/// scheduler's cross-segment windows).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    panic_prob: [f64; FaultSite::COUNT],
    steal_delay_micros: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the panic probability for `site`, clamped to `[0, 1]`.
    /// `1.0` kills every task of that site; `0.0` disables the site.
    pub fn with_panic(mut self, site: FaultSite, probability: f64) -> Self {
        self.panic_prob[site as usize] = probability.clamp(0.0, 1.0);
        self
    }

    /// Forces a sleep of `micros` microseconds on every stolen-task claim.
    pub fn with_steal_delay_micros(mut self, micros: u64) -> Self {
        self.steal_delay_micros = micros;
        self
    }

    /// Whether this plan injects nothing (always true with the
    /// `fault-injection` feature off).
    pub fn is_noop(&self) -> bool {
        !cfg!(feature = "fault-injection")
            || (self.steal_delay_micros == 0 && self.panic_prob.iter().all(|&p| p <= 0.0))
    }

    /// Deterministically decides whether `task` at `site` is killed by this
    /// plan. Pure in `(self, site, task)`; always `false` when the
    /// `fault-injection` feature is off.
    pub fn injects_panic(&self, site: FaultSite, task: u32) -> bool {
        if !cfg!(feature = "fault-injection") {
            return false;
        }
        let p = self.panic_prob[site as usize];
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // SplitMix64-style finalizer over (seed, site, task): a high-quality
        // stateless hash is all the "randomness" a deterministic plan needs.
        let mut x = self
            .seed
            .wrapping_add((site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(task).wrapping_mul(0xD1B5_4A32_D192_ED03));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Panics (with a recognizable payload) iff the plan kills this task.
    /// Called by workers at the top of each task body, inside `catch_unwind`.
    pub(crate) fn maybe_panic(&self, site: FaultSite, task: u32) {
        if self.injects_panic(site, task) {
            panic!("injected fault: {} task {task}", site.name());
        }
    }

    /// Sleeps for the configured steal delay iff `stolen` and the plan has
    /// one. Exercises the work-stealing windows without killing anything.
    pub(crate) fn maybe_steal_delay(&self, stolen: bool) {
        if cfg!(feature = "fault-injection") && stolen && self.steal_delay_micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.steal_delay_micros));
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for site in FaultSite::ALL {
            let p = self.panic_prob[site as usize];
            if p > 0.0 {
                write!(f, ",{}={p}", site.name())?;
            }
        }
        if self.steal_delay_micros > 0 {
            write!(f, ",steal-delay-us={}", self.steal_delay_micros)?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {part:?} is not key=value"))?;
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault seed {value:?} is not a u64"))?;
                }
                "steal-delay-us" => {
                    plan.steal_delay_micros = value
                        .parse()
                        .map_err(|_| format!("steal delay {value:?} is not a u64"))?;
                }
                name => {
                    let site = FaultSite::ALL
                        .into_iter()
                        .find(|s| s.name() == name)
                        .ok_or_else(|| {
                            format!(
                                "unknown fault key {name:?} (expected seed, steal-delay-us, \
                                 grid, labeling, edge, or border)"
                            )
                        })?;
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("fault probability {value:?} is not a float"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault probability {p} is outside [0, 1]"));
                    }
                    plan = plan.with_panic(site, p);
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan: FaultPlan = "seed=42,edge=1,labeling=0.25,grid=0.5,steal-delay-us=100"
            .parse()
            .unwrap();
        let expected = FaultPlan::new(42)
            .with_panic(FaultSite::EdgeTests, 1.0)
            .with_panic(FaultSite::Grid, 0.5)
            .with_panic(FaultSite::Labeling, 0.25)
            .with_steal_delay_micros(100);
        assert_eq!(plan, expected);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!("seed".parse::<FaultPlan>().is_err());
        assert!("seed=x".parse::<FaultPlan>().is_err());
        assert!("warp=1".parse::<FaultPlan>().is_err());
        assert!("edge=2.0".parse::<FaultPlan>().is_err());
        assert!("edge=abc".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn display_round_trips() {
        let plan = FaultPlan::new(7)
            .with_panic(FaultSite::BorderAssign, 0.5)
            .with_steal_delay_micros(3);
        assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
    }

    #[test]
    fn default_plan_is_noop() {
        assert!(FaultPlan::default().is_noop());
        assert!(!FaultPlan::default().injects_panic(FaultSite::EdgeTests, 0));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(42).with_panic(FaultSite::EdgeTests, 0.5);
        let picks: Vec<bool> = (0..64)
            .map(|t| plan.injects_panic(FaultSite::EdgeTests, t))
            .collect();
        // Same plan, same decisions.
        for (t, &k) in picks.iter().enumerate() {
            assert_eq!(plan.injects_panic(FaultSite::EdgeTests, t as u32), k);
        }
        // Roughly half the tasks die; neither everything nor nothing.
        let kills = picks.iter().filter(|&&k| k).count();
        assert!(kills > 8 && kills < 56, "kills = {kills}");
        // A different seed makes different decisions somewhere.
        let other = FaultPlan::new(43).with_panic(FaultSite::EdgeTests, 0.5);
        assert!((0..64).any(|t| plan.injects_panic(FaultSite::EdgeTests, t)
            != other.injects_panic(FaultSite::EdgeTests, t)));
        // Probability 1 kills everything; sites are independent.
        let all = FaultPlan::new(42).with_panic(FaultSite::Labeling, 1.0);
        assert!(all.injects_panic(FaultSite::Labeling, 7));
        assert!(!all.injects_panic(FaultSite::EdgeTests, 7));
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn everything_is_inert_without_the_feature() {
        let plan = FaultPlan::new(42).with_panic(FaultSite::EdgeTests, 1.0);
        assert!(plan.is_noop());
        assert!(!plan.injects_panic(FaultSite::EdgeTests, 0));
        plan.maybe_panic(FaultSite::EdgeTests, 0); // must not panic
    }
}
