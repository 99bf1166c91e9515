use clre_model::platform::PeKind;
use clre_model::{BaseImpl, Platform};
use serde::{Deserialize, Serialize};

/// Deterministic synthetic characterization of task types.
///
/// Plays the role of running Gem5/McPAT over each task type's source code:
/// given a task-type index and a platform, it produces one bare-metal
/// [`BaseImpl`] per PE type with cycle counts and switched capacitances
/// drawn from a seeded hash — reproducible across runs and machines, with
/// no RNG state to thread through callers.
///
/// Accelerator (reconfigurable-region) implementations get a 2–4×
/// cycle-count reduction but higher switched capacitance, mirroring the
/// usual FPGA-offload trade-off.
///
/// # Examples
///
/// ```
/// use clre_model::platform::paper_platform;
/// use clre_profile::SyntheticCharacterizer;
///
/// let plat = paper_platform();
/// let ch = SyntheticCharacterizer::new(42);
/// let impls = ch.impls_for_type(0, &plat);
/// assert_eq!(impls.len(), plat.pe_types().len()); // one per PE type
/// // Deterministic: same seed, same characterization.
/// assert_eq!(impls, SyntheticCharacterizer::new(42).impls_for_type(0, &plat));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyntheticCharacterizer {
    seed: u64,
}

impl SyntheticCharacterizer {
    /// Creates a characterizer producing one implementation per PE type.
    pub fn new(seed: u64) -> Self {
        SyntheticCharacterizer { seed }
    }

    /// The seed this characterizer was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Characterizes task type `type_index` on every PE type of `platform`.
    ///
    /// Returns one [`BaseImpl`] per PE type; the result is
    /// a pure function of `(seed, type_index, platform shape)`.
    pub fn impls_for_type(&self, type_index: u32, platform: &Platform) -> Vec<BaseImpl> {
        let mut out = Vec::new();
        for (pt_idx, pt) in platform.pe_types().iter().enumerate() {
            let mut h = mix(self.seed, type_index as u64, pt_idx as u64);
            // Base workload: 1·10⁵ … 9·10⁵ cycles — a few hundred µs at the
            // platform's clock rates, matching Fig. 6(a)'s x-axis.
            let base_cycles = 1.0e5 + unit(&mut h) * 8.0e5;
            // Switched capacitance: 0.6 … 1.4 nF.
            let base_cap = (0.6 + unit(&mut h) * 0.8) * 1.0e-9;
            // Code + state footprint: 16 … 128 KiB.
            let base_mem = (16.0 + unit(&mut h) * 112.0) * 1024.0;
            match pt.kind() {
                PeKind::ReconfigurableRegion => {
                    // Accelerators: 2–4× fewer cycles, 1.5–2.5× capacitance.
                    let speedup = 2.0 + unit(&mut h) * 2.0;
                    let cap_blowup = 1.5 + unit(&mut h);
                    out.push(
                        BaseImpl::new(
                            format!("tt{type_index}-{}-accel", pt.name()),
                            clre_model::PeTypeId::new(pt_idx as u32),
                            base_cycles / speedup,
                            base_cap * cap_blowup,
                        )
                        .with_memory_bytes(base_mem * 0.6),
                    );
                }
                PeKind::Processor => {
                    out.push(
                        BaseImpl::new(
                            format!("tt{type_index}-{}-bare0", pt.name()),
                            clre_model::PeTypeId::new(pt_idx as u32),
                            base_cycles,
                            base_cap,
                        )
                        .with_memory_bytes(base_mem),
                    );
                }
            }
        }
        out
    }
}

/// SplitMix64 step — the standard 64-bit finalizer-based PRNG, good enough
/// for deterministic synthetic data.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds a per-(type, pe-type) stream.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut s =
        seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F) ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    // Warm up once so adjacent seeds decorrelate.
    splitmix64(&mut s);
    s
}

/// Next uniform value in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_model::platform::paper_platform;

    #[test]
    fn deterministic_per_seed() {
        let p = paper_platform();
        let a = SyntheticCharacterizer::new(7).impls_for_type(3, &p);
        let b = SyntheticCharacterizer::new(7).impls_for_type(3, &p);
        let c = SyntheticCharacterizer::new(8).impls_for_type(3, &p);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn different_types_differ() {
        let p = paper_platform();
        let ch = SyntheticCharacterizer::new(7);
        assert_ne!(ch.impls_for_type(0, &p), ch.impls_for_type(1, &p));
    }

    #[test]
    fn one_impl_per_pe_type_by_default() {
        let p = paper_platform();
        let impls = SyntheticCharacterizer::new(1).impls_for_type(0, &p);
        assert_eq!(impls.len(), 3);
        // Each references a distinct PE type.
        let mut types: Vec<u32> = impls.iter().map(|i| i.pe_type().0).collect();
        types.dedup();
        assert_eq!(types.len(), 3);
    }

    #[test]
    fn accelerator_is_faster_but_hungrier() {
        let p = paper_platform();
        let impls = SyntheticCharacterizer::new(11).impls_for_type(2, &p);
        let pr_type = p.pe_type_by_name("pr-region").unwrap();
        let accel = impls.iter().find(|i| i.pe_type() == pr_type).unwrap();
        let procs: Vec<_> = impls.iter().filter(|i| i.pe_type() != pr_type).collect();
        for pimpl in procs {
            assert!(accel.cycles() < pimpl.cycles());
        }
        assert!(accel.capacitance() > 0.9e-9);
    }

    #[test]
    fn cycles_within_documented_range() {
        let p = paper_platform();
        let ch = SyntheticCharacterizer::new(3);
        for ty in 0..20 {
            for imp in ch.impls_for_type(ty, &p) {
                assert!(imp.cycles() > 2.0e4 && imp.cycles() < 1.0e6);
                assert!(imp.capacitance() > 0.5e-9 && imp.capacitance() < 4.0e-9);
                assert!(imp.memory_bytes() > 8.0 * 1024.0 && imp.memory_bytes() < 256.0 * 1024.0);
            }
        }
    }
}
