//! Seeded input generation. Every dataset is a pure function of the run's
//! `--seed`, a stream tag and an index, so the same seed gives the same
//! inputs on every run and every host.

use dbscan_datagen::randutil::uniform_in_domain;
use dbscan_datagen::{seed_spreader, SpreaderConfig};
use dbscan_geom::{Point, PAPER_DOMAIN};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Clusters per dataset: the paper's generator restarts about 10 times
/// (`ρ_restart = 10/n`); the benchmark fixes the count at exactly 10.
pub const CLUSTERS: usize = 10;

/// Independent input streams of one run.
#[derive(Clone, Copy, Debug)]
#[repr(u64)]
pub enum Stream {
    /// The datasets timed by a workload.
    Timed = 1,
    /// The datasets used only to warm up during set-up.
    Warmup = 2,
}

/// SplitMix64 finaliser over `(seed, stream, index)`: a well-mixed 64-bit
/// seed for one dataset.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed-spreader data with the paper's §5.1 defaults (domain `[0, 10^5]^d`,
/// vicinity radius 100, `c_reset = 100`, `r_shift = 50d`, `ρ_noise = 10^-4`),
/// except that the walk restarts at exactly [`CLUSTERS`] evenly spaced
/// steps instead of at random ones. A random restart count moves the
/// clustering work of one dataset by up to 3x between seeds; fixing it keeps
/// the work per dataset close to seed-independent.
pub fn ss_dataset<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let noise = ((n as f64) * 1e-4).round().max(1.0) as usize;
    let clustered = n - noise;
    let mut out = Vec::with_capacity(n);
    for k in 0..CLUSTERS {
        let len = clustered / CLUSTERS + usize::from(k < clustered % CLUSTERS);
        let mut cfg = SpreaderConfig::paper_defaults(len, D);
        cfg.restart_prob = 0.0;
        cfg.noise_fraction = 0.0;
        let mut rng = StdRng::seed_from_u64(seed ^ mix(k as u64, Stream::Timed, 0));
        out.extend(seed_spreader::<D>(&cfg, &mut rng));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ mix(CLUSTERS as u64, Stream::Timed, 0));
    out.extend((0..noise).map(|_| uniform_in_domain::<D>(PAPER_DOMAIN, &mut rng)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = ss_dataset::<3>(5_000, mix(7, Stream::Timed, 3));
        let b = ss_dataset::<3>(5_000, mix(7, Stream::Timed, 3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn seeds_streams_and_indices_differ() {
        let base = ss_dataset::<2>(2_000, mix(7, Stream::Timed, 0));
        assert_ne!(base, ss_dataset::<2>(2_000, mix(8, Stream::Timed, 0)));
        assert_ne!(base, ss_dataset::<2>(2_000, mix(7, Stream::Warmup, 0)));
        assert_ne!(base, ss_dataset::<2>(2_000, mix(7, Stream::Timed, 1)));
    }

    #[test]
    fn points_stay_in_the_domain() {
        let pts = ss_dataset::<5>(3_000, 11);
        assert!(pts
            .iter()
            .all(|p| p.0.iter().all(|&c| (0.0..=PAPER_DOMAIN).contains(&c))));
    }
}
