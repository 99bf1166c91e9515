//! Property-based tests of the hardened recovery paths: arbitrary
//! byte-level damage (bit flips, truncation, torn lines) to any
//! persistence sidecar — checkpoint, evaluation cache, quarantine — must
//! never panic, and must degrade to a defined outcome: an older rotation
//! slot, a cold or partial cache, a typed error, or a skip-and-count.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use clrearly::chaos::corrupt_file;
use clrearly::core::apps;
use clrearly::core::methodology::{ClrEarly, StageBudget};
use clrearly::core::resilience::{
    read_quarantine_sidecar, rotated_checkpoint_path, write_quarantine_sidecar, Checkpoint,
    QuarantineRecord, RunOutcome, RunSupervisor, SupervisorConfig,
};
use clrearly::core::CampaignPlan;
use clrearly::core::EvalCache;
use clrearly::markov::clr::{analyze_robust_spec, ClrChainParams, ClrChainSpec};
use proptest::prelude::*;

/// Rotation slots the fixture checkpoint keeps (primary + 2 rotations).
const KEEP: usize = 3;

/// The full `u64` seed space (the shim has no `any::<u64>()`).
fn arb_u64() -> std::ops::Range<u64> {
    0..u64::MAX
}

/// Printable-ASCII strings of up to `max` characters.
fn arb_printable(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

/// Non-empty strings over the genome rendering's alphabet.
fn arb_genome_text(max: usize) -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"0123456789:| ";
    prop::collection::vec(0usize..ALPHABET.len(), 1..max)
        .prop_map(|picks| picks.into_iter().map(|i| char::from(ALPHABET[i])).collect())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clre-chaos-prop-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Bytes of a real interrupted run's checkpoint chain: `(primary, .1)`.
/// Produced once — every proptest case re-materialises fresh copies.
fn checkpoint_fixture() -> &'static (Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("fixture");
        let ckpt = dir.join("fixture.ckpt");
        let platform = apps::paper_platform();
        let graph = apps::sobel(&platform, 42).expect("sobel app");
        let dse = ClrEarly::new(&graph, &platform).expect("tDSE succeeds");
        let sup = RunSupervisor::new(
            SupervisorConfig::new(&ckpt)
                .with_interval(1)
                .with_keep_checkpoints(KEEP),
        )
        .with_interrupt_at(0, 3);
        match dse
            .run_supervised(&CampaignPlan::fc(), &StageBudget::smoke_test(), &sup)
            .expect("interrupted run checkpoints")
        {
            RunOutcome::Interrupted { .. } => {}
            RunOutcome::Complete(_) => panic!("interrupt seam must fire"),
        }
        let primary = fs::read(&ckpt).expect("primary checkpoint");
        let rotation = fs::read(rotated_checkpoint_path(&ckpt, 1)).expect("rotation slot");
        let _ = fs::remove_dir_all(&dir);
        (primary, rotation)
    })
}

/// Bytes of a warm evaluation-cache sidecar with a handful of analyses.
fn cache_fixture() -> &'static Vec<u8> {
    static FIXTURE: OnceLock<Vec<u8>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("cache-fixture");
        let path = dir.join("cache.txt");
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).expect("bind fresh sidecar");
        for i in 0..6u32 {
            let spec = ClrChainSpec::transient(ClrChainParams {
                exec_time: 1.0e-4 * f64::from(i + 1),
                seu_rate: 100.0,
                m_hw: 0.3,
                m_impl_ssw: 0.1,
                cov_det: 0.5,
                m_tol: 0.2,
                m_asw: 0.4,
                intervals: 1,
                t_det: 1.0e-6,
                t_tol: 2.0e-6,
                t_chk: 0.0,
                p_chk_err: 0.0,
            });
            cache.insert_analysis_spec(&spec, analyze_robust_spec(&spec).expect("analysis"));
        }
        let bytes = fs::read(&path).expect("warm sidecar");
        let _ = fs::remove_dir_all(&dir);
        assert!(!bytes.is_empty(), "fixture sidecar must have records");
        bytes
    })
}

/// Lays the fixture chain down fresh and returns the primary path.
fn materialize_chain(tag: &str) -> PathBuf {
    let (primary, rotation) = checkpoint_fixture();
    let dir = scratch(tag);
    let ckpt = dir.join("case.ckpt");
    fs::write(&ckpt, primary).expect("write primary");
    fs::write(rotated_checkpoint_path(&ckpt, 1), rotation).expect("write rotation");
    ckpt
}

/// The recovered checkpoint must be bit-equivalent to a slot of the
/// undamaged chain — damage never invents a third state.
fn assert_recovered_from_chain(cp: &Checkpoint) {
    let (primary, rotation) = checkpoint_fixture();
    let encoded = cp.encode().into_bytes();
    assert!(
        encoded == *primary || encoded == *rotation,
        "recovered checkpoint matches no slot of the original chain"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded byte damage to the primary checkpoint: loading alone never
    /// panics, and the rotation fallback always recovers a bit-exact
    /// slot of the original chain.
    #[test]
    fn damaged_checkpoint_falls_back_to_rotation(seed in arb_u64(), salt in arb_u64()) {
        let ckpt = materialize_chain("damage");
        corrupt_file(&ckpt, seed, salt).expect("corruptible");
        // Plain load: Ok or a typed error — either is a defined outcome.
        let _ = Checkpoint::load(&ckpt);
        let (cp, skipped) = Checkpoint::load_with_fallback(&ckpt, KEEP)
            .expect("fallback chain recovers");
        prop_assert!(skipped <= 1, "one damaged slot skips at most once");
        assert_recovered_from_chain(&cp);
        let _ = fs::remove_dir_all(ckpt.parent().unwrap());
    }

    /// Arbitrary truncation (including to zero bytes) degrades the same
    /// way: never a panic, always a valid slot via the fallback chain.
    #[test]
    fn truncated_checkpoint_falls_back_to_rotation(frac in 0.0..1.0f64) {
        let ckpt = materialize_chain("truncate");
        let bytes = fs::read(&ckpt).expect("read primary");
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let keep = ((bytes.len() as f64) * frac) as usize;
        fs::write(&ckpt, &bytes[..keep.min(bytes.len() - 1)]).expect("truncate");
        let _ = Checkpoint::load(&ckpt);
        let (cp, _) = Checkpoint::load_with_fallback(&ckpt, KEEP)
            .expect("fallback chain recovers");
        assert_recovered_from_chain(&cp);
        let _ = fs::remove_dir_all(ckpt.parent().unwrap());
    }

    /// Seeded byte damage to a warm cache sidecar: binding a fresh cache
    /// to it either skips the damaged tail (partial warm-start) or fails
    /// with a typed error (cold start) — never a panic, and never more
    /// entries than the undamaged sidecar held.
    #[test]
    fn damaged_cache_sidecar_degrades_to_partial_or_cold(seed in arb_u64(), salt in arb_u64()) {
        let dir = scratch("cache-damage");
        let path = dir.join("cache.txt");
        fs::write(&path, cache_fixture()).expect("write sidecar");
        corrupt_file(&path, seed, salt).expect("corruptible");
        let cache = EvalCache::new();
        if cache.bind_sidecar(&path).is_ok() {
            prop_assert!(cache.analysis_len() <= 6, "damage cannot add entries");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Entirely arbitrary bytes as a quarantine sidecar: reading never
    /// panics; every line is either parsed or counted as skipped.
    #[test]
    fn arbitrary_quarantine_bytes_never_panic(bytes in prop::collection::vec(0u8..255, 0..512)) {
        let dir = scratch("quarantine-bytes");
        let path = dir.join("quarantine.txt");
        fs::write(&path, &bytes).expect("write bytes");
        if let Ok((records, skipped)) = read_quarantine_sidecar(&path) {
            let lines = String::from_utf8_lossy(&bytes)
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count();
            prop_assert!(records.len() + skipped <= lines);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Valid records survive bit-exactly no matter how many torn lines
    /// surround them, and every torn line is counted.
    #[test]
    fn quarantine_records_survive_torn_neighbours(
        records in prop::collection::vec((arb_printable(24), arb_genome_text(24)), 1..5),
        torn in prop::collection::vec(arb_printable(32).prop_map(|s| format!("@@{s}")), 0..5),
    ) {
        let dir = scratch("quarantine-torn");
        let path = dir.join("quarantine.txt");
        let records: Vec<QuarantineRecord> = records
            .into_iter()
            .map(|(error, genome)| QuarantineRecord { error, genome })
            .collect();
        write_quarantine_sidecar(&path, &records).expect("write sidecar");
        let mut text = fs::read_to_string(&path).expect("read back");
        for line in &torn {
            text.push_str(line);
            text.push('\n');
        }
        fs::write(&path, text).expect("write torn");
        let (parsed, skipped) = read_quarantine_sidecar(&path).expect("read survives");
        prop_assert_eq!(parsed, records);
        prop_assert_eq!(skipped, torn.len());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A truncated quarantine sidecar yields a prefix of the original
    /// records: at most the cut line is lost (or mangled), and a
    /// malformed cut is counted as skipped.
    #[test]
    fn truncated_quarantine_keeps_the_prefix(frac in 0.0..1.0f64) {
        let dir = scratch("quarantine-truncate");
        let path = dir.join("quarantine.txt");
        let records: Vec<QuarantineRecord> = (0..4)
            .map(|i| QuarantineRecord {
                error: format!("boom {i}"),
                genome: format!("2 0:1:{i} 1:0:0"),
            })
            .collect();
        write_quarantine_sidecar(&path, &records).expect("write sidecar");
        let bytes = fs::read(&path).expect("read back");
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let keep = ((bytes.len() as f64) * frac) as usize;
        fs::write(&path, &bytes[..keep.min(bytes.len())]).expect("truncate");
        let (parsed, skipped) = read_quarantine_sidecar(&path).expect("read survives");
        prop_assert!(parsed.len() <= records.len());
        prop_assert!(skipped <= 1, "only the cut line may be malformed");
        // Every record but the cut one survives bit-exactly, in order.
        let intact = parsed.len().saturating_sub(1);
        prop_assert_eq!(&parsed[..intact], &records[..intact]);
        let _ = fs::remove_dir_all(&dir);
    }
}
