//! Industrial-scale instance family.
//!
//! The five Table 1 circuits top out at 112 nets, where a full anneal
//! finishes in microseconds and thread spawn/barrier overhead dominates —
//! parallel speedups are unmeasurable at that scale. Real chip-package
//! co-design instances run to thousands of nets and deep bond stacks; this
//! module generates deterministic synthetic instances in that regime
//! (1k–10k nets per quadrant, hundreds of ball rows, ψ up to 8) so the
//! benches can observe the threads-win crossover and the dense-index
//! kernels have something to chew on.
//!
//! Unlike [`crate::Circuit`], which shuffles through the vendored `rand`
//! stub, the large family drives every shuffle from [`SplitMix64`]
//! directly: a `(family, size, seed)` triple names the same bytes on every
//! platform, forever — the property the determinism benches and the
//! `copack gen --family large` round-trip tests pin.

use copack_geom::{GeomError, NetKind, Package, Quadrant, QuadrantGeometry, StackConfig, TierId};

use crate::{row_sizes_with, NetMix, RowProfile, SplitMix64};

/// Specification of one industrial-scale instance.
///
/// The geometry parameters mirror the densest Table 1 circuit (circuit 5)
/// so the large instances are "more of the same physics", not a different
/// package technology.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeSpec {
    /// Human-readable name (e.g. `"large-4k"`).
    pub name: String,
    /// Nets (= fingers = balls) per quadrant.
    pub nets_per_quadrant: usize,
    /// Ball rows per quadrant.
    pub rows: usize,
    /// Stacking tiers ψ (1 = planar; the presets go up to 8).
    pub tiers: u8,
    /// Electrical mix of the pad ring.
    pub mix: NetMix,
    /// Seed for the placement / kind / tier shuffles.
    pub seed: u64,
}

/// Fisher–Yates driven by [`SplitMix64`] — the platform-stable shuffle the
/// whole family is built on.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

impl LargeSpec {
    /// The quadrant geometry: circuit 5's finger/ball dimensions with the
    /// finger row spread over the (much wider) bottom ball row.
    #[must_use]
    pub fn geometry(&self) -> QuadrantGeometry {
        let bottom_row = row_sizes_with(self.nets_per_quadrant, self.rows, RowProfile::Equal)[0];
        let ball_pitch = 0.5_f64;
        let finger_width = 0.015_f64;
        let finger_space = 0.015_f64;
        let grid_width = bottom_row as f64 * ball_pitch;
        let min_pitch = finger_width + finger_space;
        QuadrantGeometry {
            ball_pitch,
            finger_pitch: min_pitch.max(grid_width / self.nets_per_quadrant as f64),
            finger_width,
            finger_height: 0.3,
            via_diameter: 0.1,
            ball_diameter: 0.2,
        }
    }

    /// The stack configuration implied by [`LargeSpec::tiers`].
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidStack`] for a zero tier count.
    pub fn stack(&self) -> Result<StackConfig, GeomError> {
        StackConfig::for_tiers(self.tiers)
    }

    /// Builds one quadrant, deterministically in [`LargeSpec::seed`].
    ///
    /// The construction mirrors [`crate::Circuit::build_quadrant`] — net
    /// ids `1..=Q` shuffled onto balls, kinds from the mix, tiers dealt
    /// round-robin — but every shuffle runs on [`SplitMix64`], so the
    /// result is byte-stable across platforms and RNG-stub changes.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] from the quadrant builder.
    pub fn build_quadrant(&self) -> Result<Quadrant, GeomError> {
        let q_nets = self.nets_per_quadrant;
        let mut rng = SplitMix64::new(self.seed);
        // Decorrelate nearby seeds, as the fuzz generator does.
        rng.next_u64();
        rng.next_u64();

        let mut ids: Vec<u32> = (1..=q_nets as u32).collect();
        shuffle(&mut ids, &mut rng);

        let mut kinds = self.mix.kinds(q_nets);
        shuffle(&mut kinds, &mut rng);

        let mut tier_deal: Vec<u8> = (0..q_nets)
            .map(|i| (i % self.tiers as usize) as u8 + 1)
            .collect();
        shuffle(&mut tier_deal, &mut rng);

        let sizes = row_sizes_with(q_nets, self.rows, RowProfile::Equal);
        let mut builder = Quadrant::builder().geometry(self.geometry());
        let mut cursor = 0;
        for &size in &sizes {
            builder = builder.row(ids[cursor..cursor + size].iter().copied());
            cursor += size;
        }
        for (i, &id) in ids.iter().enumerate() {
            if kinds[i] != NetKind::Signal {
                builder = builder.net_kind(id, kinds[i]);
            }
            if self.tiers > 1 {
                builder = builder.net_tier(id, TierId::new(tier_deal[i]));
            }
        }
        builder.build()
    }

    /// Builds the full four-quadrant package.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] from quadrant construction.
    pub fn build_package(&self) -> Result<Package, GeomError> {
        Ok(Package::uniform(self.build_quadrant()?))
    }
}

/// The named preset sizes of the large family, smallest first.
pub const LARGE_SIZES: [&str; 3] = ["1k", "4k", "10k"];

/// The large-family preset named `size` (one of [`LARGE_SIZES`]), or
/// `None` for an unknown name.
///
/// * `1k` — 1 000 nets/quadrant, 100 ball rows, ψ = 2: the smallest size
///   where the threads-win crossover is reliably measurable.
/// * `4k` — 4 000 nets/quadrant, 200 rows, ψ = 4: the bench workhorse.
/// * `10k` — 10 000 nets/quadrant, 400 rows, ψ = 8: the ceiling of the
///   paper's "industrial" regime.
#[must_use]
pub fn large_circuit(size: &str, seed: u64) -> Option<LargeSpec> {
    let (nets, rows, tiers) = match size {
        "1k" => (1_000, 100, 2),
        "4k" => (4_000, 200, 4),
        "10k" => (10_000, 400, 8),
        _ => return None,
    };
    Some(LargeSpec {
        name: format!("large-{size}"),
        nets_per_quadrant: nets,
        rows,
        tiers,
        // A realistic wire-bond supply budget: 12% + 12%.
        mix: NetMix {
            power_fraction: 0.12,
            ground_fraction: 0.12,
        },
        seed,
    })
}

/// All large presets at `seed`, smallest first.
#[must_use]
pub fn large_circuits(seed: u64) -> Vec<LargeSpec> {
    LARGE_SIZES
        .iter()
        .map(|s| large_circuit(s, seed).expect("preset name"))
        .collect()
}

/// A reduced-size member of the large family for the fuzz driver: the same
/// equal-row SplitMix64 construction at 64–160 nets, 8–16 rows, and the
/// full ψ wheel (1/2/4/8), so the differential oracles exercise the
/// large-instance code paths without large-instance runtimes.
///
/// # Errors
///
/// Propagates [`GeomError`] if the sampled combination cannot build
/// (not expected; surfaced so the driver reports it as a generator bug).
pub fn large_fuzz_case(seed: u64, index: u64) -> Result<crate::FuzzCase, GeomError> {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64();
    rng.next_u64();

    let nets = rng.range(64, 160) as usize;
    let rows = rng.range(8, 16) as usize;
    let tiers = [1u8, 2, 4, 8][rng.below(4) as usize];
    let mix = NetMix {
        power_fraction: 0.08 + 0.1 * rng.unit(),
        ground_fraction: 0.08 + 0.1 * rng.unit(),
    };
    let circuit_seed = rng.next_u64();
    let spec = LargeSpec {
        name: format!("large-fuzz-{seed:x}-{index}"),
        nets_per_quadrant: nets,
        rows,
        tiers,
        mix,
        seed: circuit_seed,
    };
    Ok(crate::FuzzCase {
        variant: "large",
        quadrant: spec.build_quadrant()?,
        tiers,
        circuit_seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_and_match_their_size() {
        for (size, nets) in [("1k", 1_000usize), ("4k", 4_000)] {
            let spec = large_circuit(size, 7).unwrap();
            let q = spec.build_quadrant().unwrap();
            assert_eq!(q.net_count(), nets, "{size}");
            assert_eq!(q.row_count(), spec.rows);
            assert!(spec.stack().unwrap().is_stacking());
        }
        assert!(large_circuit("3k", 7).is_none());
    }

    #[test]
    fn all_sizes_are_constructible_specs() {
        assert_eq!(large_circuits(1).len(), LARGE_SIZES.len());
        let big = large_circuit("10k", 1).unwrap();
        assert_eq!(big.nets_per_quadrant, 10_000);
        assert_eq!(big.tiers, 8);
    }

    #[test]
    fn construction_is_deterministic_and_seed_sensitive() {
        let a = large_circuit("1k", 11).unwrap().build_quadrant().unwrap();
        let b = large_circuit("1k", 11).unwrap().build_quadrant().unwrap();
        assert_eq!(a, b);
        let c = large_circuit("1k", 12).unwrap().build_quadrant().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn mix_lands_supply_pads_on_every_preset() {
        let q = large_circuit("1k", 3).unwrap().build_quadrant().unwrap();
        let power = q.nets_of_kind(NetKind::Power).count();
        let ground = q.nets_of_kind(NetKind::Ground).count();
        assert_eq!(power, 120);
        assert_eq!(ground, 120);
    }

    #[test]
    fn tiers_are_dealt_evenly() {
        let spec = large_circuit("1k", 5).unwrap();
        let q = spec.build_quadrant().unwrap();
        let mut per_tier = vec![0usize; spec.tiers as usize];
        for net in q.nets() {
            per_tier[(net.tier.get() - 1) as usize] += 1;
        }
        assert!(per_tier.iter().all(|&c| c == 500), "{per_tier:?}");
    }

    #[test]
    fn fuzz_cases_stay_reduced_and_deterministic() {
        for i in 0..16 {
            let case = large_fuzz_case(42, i).unwrap();
            let n = case.quadrant.net_count();
            assert!((64..=160).contains(&n), "case {i}: {n} nets");
            assert!((8..=16).contains(&case.quadrant.row_count()));
            assert!([1, 2, 4, 8].contains(&case.tiers));
            assert_eq!(case.variant, "large");
        }
        assert_eq!(
            large_fuzz_case(9, 3).unwrap().quadrant,
            large_fuzz_case(9, 3).unwrap().quadrant
        );
    }

    #[test]
    fn splitmix_shuffle_is_pinned() {
        // The family's byte-stability rests on this exact permutation; if
        // it changes, `--family large` outputs silently fork from every
        // checked-in hash and reproducer.
        let mut v: Vec<u32> = (0..8).collect();
        let mut rng = SplitMix64::new(99);
        shuffle(&mut v, &mut rng);
        assert_eq!(v, [6, 4, 5, 0, 2, 1, 7, 3]);
    }
}
