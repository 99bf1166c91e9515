//! Content-addressed evaluation cache: two-level memoization for the
//! exact, deterministic computations that dominate DSE cost.
//!
//! * **Level 1 — task analysis.** [`analyze_robust_spec`] solves two absorbing
//!   Markov chains (LU factorizations) per `(implementation × DVFS × CLR)`
//!   point. The same points recur across campaign stages (`agnostic`
//!   rebuilds four single-layer libraries), across sweep cells, and across
//!   `ClrEarly` instances. The analysis cache keys on
//!   [`ClrChainSpec::digest`] — FNV-1a over the IEEE-754 bit patterns of
//!   every field, exact bits, no quantization — and stores the full
//!   chain spec so a digest collision is detected by comparison and
//!   degrades to a recomputation, never to a wrong answer.
//! * **Level 2 — genome fitness.** Every GA generation re-decodes and
//!   re-schedules genomes that recur across generations and seeded stages.
//!   The fitness cache keys on the exact gene sequence plus a *problem
//!   digest* (graph, platform, library content, objectives, QoS spec) so
//!   one cache may be shared across stages and sweep cells without
//!   cross-contamination. It stores `(SystemMetrics, violation)` — not the
//!   projected objective vector — so front annotation is a pure lookup.
//!
//! Both levels use sharded locks (safe under the `clre-exec` worker pool)
//! with an **insert-once** discipline: the first writer wins, later
//! writers adopt the stored value. Because every cached computation is a
//! deterministic pure function of its key, a hit replays the uncached
//! computation bit-for-bit — cached and uncached runs produce identical
//! Pareto fronts for any worker count (DESIGN.md §12 gives the full
//! argument).
//!
//! # Persistence
//!
//! [`EvalCache::bind_sidecar`] attaches an append-only journal
//! (header [`CACHE_HEADER`]) next to the campaign checkpoint: existing
//! entries are loaded (warm start), and every subsequent first-insert
//! appends one self-contained line. Like the sweep ledger, the file is
//! torn-tail tolerant — a process killed mid-write leaves at most one
//! malformed line, which the loader skips; a corrupted or foreign file
//! degrades to a cold cache without error.
//!
//! # Examples
//!
//! ```
//! use clre::cache::EvalCache;
//! use clre_markov::clr::{analyze_robust_spec, ClrChainParams, ClrChainSpec};
//!
//! let cache = EvalCache::new();
//! let spec = ClrChainSpec::transient(ClrChainParams::unprotected(300.0e-6, 100.0));
//! assert!(cache.analysis_spec(&spec).is_none()); // cold
//! let analysis = analyze_robust_spec(&spec).unwrap();
//! cache.insert_analysis_spec(&spec, analysis);
//! assert_eq!(cache.analysis_spec(&spec), Some(analysis)); // exact replay
//! ```
//!
//! [`analyze_robust_spec`]: clre_markov::clr::analyze_robust_spec

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use clre_markov::clr::{
    ClrChainParams, ClrChainSpec, FaultMechanism, RobustAnalysis, TaskReliability,
};
use clre_model::qos::SystemMetrics;

use crate::encoding::Genome;

/// First line of every cache sidecar file.
pub const CACHE_HEADER: &str = "clrearly-cache v1";

/// Number of lock shards per cache level. A power of two so the shard
/// index is a cheap mask of the key digest.
const SHARDS: usize = 16;

pub use clre_num::digest::Fnv;

/// Monotonic hit/miss/insert counts of one cache level (or the sum of
/// both, via [`EvalCache::counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounts {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or a digest collision).
    pub misses: u64,
    /// First-writer insertions (loaded sidecar entries not included).
    pub inserts: u64,
    /// Entries evicted by the size-capped LRU policy (0 when unbounded).
    pub evictions: u64,
}

impl CacheCounts {
    /// Fitness-style hit rate `hits / (hits + misses)`; `0.0` when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct LevelStats {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl LevelStats {
    fn counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The memoized outcome of one genome evaluation: the full system metrics
/// plus the total constraint violation (QoS spec + memory capacity).
///
/// The objective vector is *not* stored: it is a pure projection of the
/// metrics through the problem's `ObjectiveSet`, recomputed on hit. This
/// is what lets front annotation reuse the cache as a pure lookup instead
/// of re-decoding and re-scheduling the genome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedFitness {
    /// The Table III system metrics of the decoded, scheduled mapping.
    pub metrics: SystemMetrics,
    /// Total normalized constraint violation; `0.0` means feasible.
    pub violation: f64,
}

/// One fitness-cache entry: the exact key (for collision detection) plus
/// the memoized value.
#[derive(Debug, Clone)]
struct FitnessEntry {
    problem: u64,
    genome: Genome,
    value: CachedFitness,
}

/// One analysis-cache slot: the exact chain spec (for collision
/// detection), the memoized analysis, and the LRU recency stamp.
#[derive(Debug, Clone, Copy)]
struct AnalysisSlot {
    spec: ClrChainSpec,
    analysis: RobustAnalysis,
    tick: u64,
}

/// One fitness-cache slot: the entry plus its LRU recency stamp.
#[derive(Debug, Clone)]
struct FitnessSlot {
    entry: FitnessEntry,
    tick: u64,
}

type AnalysisShard = Mutex<HashMap<u64, AnalysisSlot>>;
type FitnessShard = Mutex<HashMap<u64, FitnessSlot>>;

/// The two-level, thread-safe, content-addressed evaluation cache.
///
/// Shared by [`Arc`]: one instance may serve many `ClrEarly` campaigns,
/// sweep cells and worker threads concurrently. See the [module
/// docs](self) for the determinism argument and the sidecar format.
#[derive(Debug)]
pub struct EvalCache {
    analysis: Vec<AnalysisShard>,
    fitness: Vec<FitnessShard>,
    analysis_stats: LevelStats,
    fitness_stats: LevelStats,
    sidecar: Mutex<Option<fs::File>>,
    sidecar_skipped: AtomicU64,
    /// Monotonic recency clock shared by both levels; bumped on every
    /// hit and insert, stamped into the touched slot.
    tick: AtomicU64,
    /// Per-level entry ceiling (`0` = unbounded). Enforced per shard as
    /// `max(1, ceiling / SHARDS)`, so the bound is approximate when keys
    /// hash unevenly but never exceeds the ceiling by more than a shard.
    entry_ceiling: AtomicUsize,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// An empty, unbound (in-memory only) cache with no entry ceiling.
    pub fn new() -> Self {
        EvalCache {
            analysis: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            fitness: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            analysis_stats: LevelStats::default(),
            fitness_stats: LevelStats::default(),
            sidecar: Mutex::new(None),
            sidecar_skipped: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            entry_ceiling: AtomicUsize::new(0),
        }
    }

    /// An empty cache behind an [`Arc`], ready to share across campaign
    /// stages and worker threads.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Sets the per-level entry ceiling (`0` = unbounded). When a level
    /// exceeds its ceiling the least-recently-used entries are evicted
    /// (counted in [`CacheCounts::evictions`]). Eviction only affects hit
    /// rates, never answers: every cached computation is a pure function
    /// of its key, so a re-miss recomputes the identical bits.
    pub fn set_entry_ceiling(&self, ceiling: usize) {
        self.entry_ceiling.store(ceiling, Ordering::Relaxed);
    }

    /// The current per-level entry ceiling (`0` = unbounded).
    pub fn entry_ceiling(&self) -> usize {
        self.entry_ceiling.load(Ordering::Relaxed)
    }

    /// Per-shard slot budget derived from the ceiling; `None` = unbounded.
    fn shard_cap(&self) -> Option<usize> {
        match self.entry_ceiling.load(Ordering::Relaxed) {
            0 => None,
            ceiling => Some(std::cmp::max(1, ceiling / SHARDS)),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    fn shard(digest: u64) -> usize {
        // The digest's low byte is well-mixed (FNV multiplies last).
        (digest as usize) & (SHARDS - 1)
    }

    /// Looks up a task analysis by exact chain-spec bits (parameters plus
    /// fault mechanism). Transient specs share keys with the historic
    /// parameter-based entries, so pre-mechanism sidecars keep hitting.
    ///
    /// Returns `None` on a true miss *and* on a digest collision (the
    /// stored spec differs bit-wise) — a collision recomputes rather than
    /// ever replaying the wrong analysis.
    pub fn analysis_spec(&self, spec: &ClrChainSpec) -> Option<RobustAnalysis> {
        let digest = spec.digest();
        let mut shard = self.analysis[Self::shard(digest)]
            .lock()
            .expect("analysis cache poisoned");
        match shard.get_mut(&digest) {
            Some(slot) if slot.spec == *spec => {
                slot.tick = self.next_tick();
                self.analysis_stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.analysis)
            }
            _ => {
                self.analysis_stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a task analysis (insert-once: the first writer wins) and
    /// returns the stored value — callers use the return value so every
    /// worker proceeds with identical bits.
    pub fn insert_analysis_spec(
        &self,
        spec: &ClrChainSpec,
        analysis: RobustAnalysis,
    ) -> RobustAnalysis {
        let digest = spec.digest();
        let cap = self.shard_cap();
        let (stored, fresh, evicted) = {
            let mut shard = self.analysis[Self::shard(digest)]
                .lock()
                .expect("analysis cache poisoned");
            match shard.entry(digest) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let slot = e.get();
                    // A collision slot belongs to the first key; adopt the
                    // stored value only for the matching key.
                    if slot.spec == *spec {
                        (slot.analysis, false, 0)
                    } else {
                        (analysis, false, 0)
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(AnalysisSlot {
                        spec: *spec,
                        analysis,
                        tick: self.next_tick(),
                    });
                    let evicted = match cap {
                        Some(cap) => evict_lru(&mut shard, cap, digest, |s| s.tick),
                        None => 0,
                    };
                    (analysis, true, evicted)
                }
            }
        };
        if evicted > 0 {
            self.analysis_stats
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        if fresh {
            self.analysis_stats.inserts.fetch_add(1, Ordering::Relaxed);
            self.append_line(&encode_analysis_spec(spec, &stored));
        }
        stored
    }

    /// Looks up a genome fitness by problem digest + exact gene sequence.
    pub fn fitness(&self, problem: u64, genome: &Genome) -> Option<CachedFitness> {
        let digest = fitness_digest(problem, genome);
        let mut shard = self.fitness[Self::shard(digest)]
            .lock()
            .expect("fitness cache poisoned");
        match shard.get_mut(&digest) {
            Some(slot) if slot.entry.problem == problem && slot.entry.genome == *genome => {
                slot.tick = self.next_tick();
                self.fitness_stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.entry.value)
            }
            _ => {
                self.fitness_stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a genome fitness (insert-once: the first writer wins) and
    /// returns the stored value.
    pub fn insert_fitness(
        &self,
        problem: u64,
        genome: &Genome,
        value: CachedFitness,
    ) -> CachedFitness {
        let digest = fitness_digest(problem, genome);
        let cap = self.shard_cap();
        let (stored, fresh, evicted) = {
            let mut shard = self.fitness[Self::shard(digest)]
                .lock()
                .expect("fitness cache poisoned");
            match shard.entry(digest) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let entry = &e.get().entry;
                    if entry.problem == problem && entry.genome == *genome {
                        (entry.value, false, 0)
                    } else {
                        (value, false, 0)
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(FitnessSlot {
                        entry: FitnessEntry {
                            problem,
                            genome: genome.clone(),
                            value,
                        },
                        tick: self.next_tick(),
                    });
                    let evicted = match cap {
                        Some(cap) => evict_lru(&mut shard, cap, digest, |s| s.tick),
                        None => 0,
                    };
                    (value, true, evicted)
                }
            }
        };
        if evicted > 0 {
            self.fitness_stats
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        if fresh {
            self.fitness_stats.inserts.fetch_add(1, Ordering::Relaxed);
            self.append_line(&encode_fitness(problem, genome, &stored));
        }
        stored
    }

    /// Analysis-level counters.
    pub fn analysis_counts(&self) -> CacheCounts {
        self.analysis_stats.counts()
    }

    /// Fitness-level counters.
    pub fn fitness_counts(&self) -> CacheCounts {
        self.fitness_stats.counts()
    }

    /// Both levels summed — what threads into `RunHealth` and the
    /// per-generation trace.
    pub fn counts(&self) -> CacheCounts {
        let a = self.analysis_counts();
        let f = self.fitness_counts();
        CacheCounts {
            hits: a.hits + f.hits,
            misses: a.misses + f.misses,
            inserts: a.inserts + f.inserts,
            evictions: a.evictions + f.evictions,
        }
    }

    /// Number of distinct analyses currently held.
    pub fn analysis_len(&self) -> usize {
        self.analysis
            .iter()
            .map(|s| s.lock().expect("analysis cache poisoned").len())
            .sum()
    }

    /// Number of distinct genome fitnesses currently held.
    pub fn fitness_len(&self) -> usize {
        self.fitness
            .iter()
            .map(|s| s.lock().expect("fitness cache poisoned").len())
            .sum()
    }

    /// Binds this cache to an append-only sidecar journal: loads every
    /// entry already journalled at `path` (warm start), then appends one
    /// line per future first-insert.
    ///
    /// Degrades rather than fails: a missing file is created; malformed
    /// lines — at most the torn tail of a killed run, or wholesale
    /// corruption — are skipped; a file with a foreign header is left
    /// untouched and the cache simply stays unbound (cold, in-memory
    /// only).
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, disk) are reported.
    pub fn bind_sidecar(&self, path: &Path) -> io::Result<()> {
        match fs::read_to_string(path) {
            Ok(text) => {
                let mut lines = text.lines();
                match lines.next() {
                    Some(first) if first != CACHE_HEADER => {
                        // Foreign file: never append into it.
                        return Ok(());
                    }
                    _ => {}
                }
                for line in lines {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if !self.load_line(line) {
                        self.sidecar_skipped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if file.metadata()?.len() == 0 {
            writeln!(file, "{CACHE_HEADER}")?;
        }
        *self.sidecar.lock().expect("cache sidecar poisoned") = Some(file);
        Ok(())
    }

    /// Whether a sidecar journal is currently bound.
    pub fn is_bound(&self) -> bool {
        self.sidecar
            .lock()
            .expect("cache sidecar poisoned")
            .is_some()
    }

    /// Number of sidecar lines skipped while loading: torn tails,
    /// wholesale corruption, or integrity-digest mismatches. Each skip
    /// degrades exactly one entry to a recomputation, never to a wrong
    /// answer.
    pub fn sidecar_skipped(&self) -> u64 {
        self.sidecar_skipped.load(Ordering::Relaxed)
    }

    /// Inserts one journal line without re-appending it; returns whether
    /// the line was loadable. Malformed or digest-mismatching lines are
    /// skipped (torn-tail tolerance).
    fn load_line(&self, line: &str) -> bool {
        let Some(body) = verify_line(line) else {
            return false;
        };
        if let Some((spec, analysis)) = parse_analysis_any(body) {
            let digest = spec.digest();
            let tick = self.next_tick();
            self.analysis[Self::shard(digest)]
                .lock()
                .expect("analysis cache poisoned")
                .entry(digest)
                .or_insert(AnalysisSlot {
                    spec,
                    analysis,
                    tick,
                });
            true
        } else if let Some(entry) = parse_fitness(body) {
            let digest = fitness_digest(entry.problem, &entry.genome);
            let tick = self.next_tick();
            self.fitness[Self::shard(digest)]
                .lock()
                .expect("fitness cache poisoned")
                .entry(digest)
                .or_insert(FitnessSlot { entry, tick });
            true
        } else {
            false
        }
    }

    /// Appends one line to the bound sidecar; unbound caches skip the
    /// write. Append failure is deliberately swallowed: the cache is an
    /// accelerator, a full disk must not fail the evaluation itself.
    fn append_line(&self, line: &str) {
        let mut guard = self.sidecar.lock().expect("cache sidecar poisoned");
        if let Some(file) = guard.as_mut() {
            let _ = writeln!(file, "{line}");
        }
    }
}

/// Evicts least-recently-used slots from one shard until it holds at most
/// `cap` entries, never evicting the just-inserted `keep` key. Returns the
/// number of evictions.
fn evict_lru<V>(
    shard: &mut HashMap<u64, V>,
    cap: usize,
    keep: u64,
    tick: impl Fn(&V) -> u64,
) -> u64 {
    let mut evicted = 0;
    while shard.len() > cap {
        let Some((&victim, _)) = shard
            .iter()
            .filter(|(&k, _)| k != keep)
            .min_by_key(|(_, v)| tick(v))
        else {
            break;
        };
        shard.remove(&victim);
        evicted += 1;
    }
    evicted
}

/// The sidecar journal path for a given checkpoint path: `cache.txt` next
/// to the checkpoint (mirroring the quarantine sidecar convention).
pub fn cache_sidecar_path(checkpoint_path: &Path) -> PathBuf {
    match checkpoint_path.parent() {
        Some(dir) => dir.join("cache.txt"),
        None => PathBuf::from("cache.txt"),
    }
}

/// Digest of one fitness key: the problem digest folded with every gene's
/// `(task, pe, choice)` triple.
fn fitness_digest(problem: u64, genome: &Genome) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_u64(problem);
    for gene in genome {
        fnv.write_u64(gene.task.index() as u64);
        fnv.write_u64(gene.pe.index() as u64);
        fnv.write_u64(u64::from(gene.choice));
    }
    fnv.finish()
}

/// Appends the per-line integrity token `i=<fnv1a64-hex>`, the digest of
/// every byte before it. A bit flip anywhere in the record — not just a
/// torn tail — is then caught by [`verify_line`] on reload.
fn seal_line(mut line: String) -> String {
    let digest = Fnv::hash_bytes(line.as_bytes());
    let _ = write!(line, " i={digest:016x}");
    line
}

/// Checks a line's integrity token and returns the record body.
///
/// Lines written before the token existed (no ` i=` marker) pass through
/// unchanged — old sidecars keep warm-starting. A token that is present
/// but malformed or mismatching yields `None`: the line is corrupt and
/// must degrade to a recomputation.
fn verify_line(line: &str) -> Option<&str> {
    let Some(at) = line.rfind(" i=") else {
        return Some(line); // legacy line, no token
    };
    let (body, token) = (&line[..at], &line[at + 3..]);
    if token.len() != 16 {
        return None;
    }
    let digest = u64::from_str_radix(token, 16).ok()?;
    (Fnv::hash_bytes(body.as_bytes()) == digest).then_some(body)
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(tok: &str) -> Option<f64> {
    if tok.len() != 16 {
        return None;
    }
    u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
}

/// One mechanism-aware analysis line. Transient specs keep the historic
/// `analysis …` record byte-for-byte (old and new builds share sidecars);
/// other mechanisms are journalled as
/// `analysis2 <tag hex> <payload hex> <legacy analysis body>` where
/// `(tag, payload)` is [`FaultMechanism::encode_words`].
fn encode_analysis_spec(spec: &ClrChainSpec, analysis: &RobustAnalysis) -> String {
    if spec.mechanism.is_transient() {
        return encode_analysis(&spec.params, analysis);
    }
    let (tag, payload) = spec.mechanism.encode_words();
    let legacy = analysis_body(&spec.params, analysis);
    seal_line(format!("analysis2 {tag:x} {payload:016x}{legacy}"))
}

/// One analysis line:
/// `analysis <11 param hex> <intervals> <min> <avg> <err> <degraded> <retried> i=<digest>`
/// with every `f64` as an IEEE-754 bit pattern (exact round-trip) and a
/// trailing per-line integrity token.
fn encode_analysis(params: &ClrChainParams, analysis: &RobustAnalysis) -> String {
    seal_line(format!("analysis{}", analysis_body(params, analysis)))
}

/// The space-prefixed parameter/metrics body shared by `analysis` and
/// `analysis2` records.
fn analysis_body(params: &ClrChainParams, analysis: &RobustAnalysis) -> String {
    let mut line = String::new();
    for v in [
        params.exec_time,
        params.seu_rate,
        params.m_hw,
        params.m_impl_ssw,
        params.cov_det,
        params.m_tol,
        params.m_asw,
    ] {
        let _ = write!(line, " {}", f64_hex(v));
    }
    let _ = write!(line, " {}", params.intervals);
    for v in [params.t_det, params.t_tol, params.t_chk, params.p_chk_err] {
        let _ = write!(line, " {}", f64_hex(v));
    }
    let _ = write!(
        line,
        " {} {} {} {} {}",
        f64_hex(analysis.reliability.min_exec_time),
        f64_hex(analysis.reliability.avg_exec_time),
        f64_hex(analysis.reliability.error_prob),
        u8::from(analysis.degraded),
        u8::from(analysis.retried),
    );
    line
}

/// Parses either analysis record flavour into a mechanism-aware spec.
fn parse_analysis_any(line: &str) -> Option<(ClrChainSpec, RobustAnalysis)> {
    let mut tokens = line.split_whitespace();
    let mechanism = match tokens.next()? {
        // Historic record: implicitly transient.
        "analysis" => FaultMechanism::Transient,
        // Mechanism-tagged record; an unknown tag means a future format —
        // skip the line (degrade to recomputation) rather than guess.
        "analysis2" => {
            let tag = u64::from_str_radix(tokens.next()?, 16).ok()?;
            let payload_tok = tokens.next()?;
            if payload_tok.len() != 16 {
                return None;
            }
            let payload = u64::from_str_radix(payload_tok, 16).ok()?;
            FaultMechanism::decode_words(tag, payload)?
        }
        _ => return None,
    };
    let (params, analysis) = parse_analysis_body(tokens)?;
    Some((ClrChainSpec { params, mechanism }, analysis))
}

fn parse_analysis_body<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
) -> Option<(ClrChainParams, RobustAnalysis)> {
    let mut f = || parse_f64_hex(tokens.next()?);
    let exec_time = f()?;
    let seu_rate = f()?;
    let m_hw = f()?;
    let m_impl_ssw = f()?;
    let cov_det = f()?;
    let m_tol = f()?;
    let m_asw = f()?;
    let intervals: u32 = tokens.next()?.parse().ok()?;
    let mut f = || parse_f64_hex(tokens.next()?);
    let t_det = f()?;
    let t_tol = f()?;
    let t_chk = f()?;
    let p_chk_err = f()?;
    let min_exec_time = f()?;
    let avg_exec_time = f()?;
    let error_prob = f()?;
    let degraded = match tokens.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let retried = match tokens.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    if tokens.next().is_some() {
        return None; // trailing garbage: treat the line as torn
    }
    Some((
        ClrChainParams {
            exec_time,
            seu_rate,
            m_hw,
            m_impl_ssw,
            cov_det,
            m_tol,
            m_asw,
            intervals,
            t_det,
            t_tol,
            t_chk,
            p_chk_err,
        },
        RobustAnalysis {
            reliability: TaskReliability {
                min_exec_time,
                avg_exec_time,
                error_prob,
            },
            degraded,
            retried,
        },
    ))
}

/// One fitness line:
/// `fitness <problem hex> <n> <task:pe:choice>* <violation> <5 metric hex> i=<digest>`
fn encode_fitness(problem: u64, genome: &Genome, value: &CachedFitness) -> String {
    let mut line = format!("fitness {problem:016x} {}", genome.len());
    for gene in genome {
        let _ = write!(
            line,
            " {}:{}:{}",
            gene.task.index(),
            gene.pe.index(),
            gene.choice
        );
    }
    let _ = write!(
        line,
        " {} {} {} {} {} {}",
        f64_hex(value.violation),
        f64_hex(value.metrics.makespan),
        f64_hex(value.metrics.error_prob),
        f64_hex(value.metrics.mttf),
        f64_hex(value.metrics.energy),
        f64_hex(value.metrics.peak_power),
    );
    seal_line(line)
}

fn parse_fitness(line: &str) -> Option<FitnessEntry> {
    use clre_model::{PeId, TaskId};

    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("fitness") {
        return None;
    }
    let problem_tok = tokens.next()?;
    if problem_tok.len() != 16 {
        return None;
    }
    let problem = u64::from_str_radix(problem_tok, 16).ok()?;
    let count: usize = tokens.next()?.parse().ok()?;
    let mut genome = Vec::with_capacity(count);
    for _ in 0..count {
        let triple = tokens.next()?;
        let mut parts = triple.split(':');
        let task: u32 = parts.next()?.parse().ok()?;
        let pe: u32 = parts.next()?.parse().ok()?;
        let choice: u32 = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        genome.push(crate::encoding::Gene {
            task: TaskId::new(task),
            pe: PeId::new(pe),
            choice,
        });
    }
    let mut f = || parse_f64_hex(tokens.next()?);
    let violation = f()?;
    let makespan = f()?;
    let error_prob = f()?;
    let mttf = f()?;
    let energy = f()?;
    let peak_power = f()?;
    if tokens.next().is_some() {
        return None;
    }
    Some(FitnessEntry {
        problem,
        genome,
        value: CachedFitness {
            metrics: SystemMetrics {
                makespan,
                error_prob,
                mttf,
                energy,
                peak_power,
            },
            violation,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_model::{PeId, TaskId};

    fn params(seed: f64) -> ClrChainParams {
        let mut p = ClrChainParams::unprotected(300.0e-6 * seed, 100.0);
        p.m_hw = 0.25;
        p
    }

    fn spec(seed: f64) -> ClrChainSpec {
        ClrChainSpec::transient(params(seed))
    }

    fn analysis(seed: f64) -> RobustAnalysis {
        RobustAnalysis {
            reliability: TaskReliability {
                min_exec_time: 1.0e-3 * seed,
                avg_exec_time: 1.5e-3 * seed,
                error_prob: 0.125 * seed,
            },
            degraded: false,
            retried: true,
        }
    }

    fn genome(seed: u32) -> Genome {
        (0..3)
            .map(|i| crate::encoding::Gene {
                task: TaskId::new(i),
                pe: PeId::new((i + seed) % 4),
                choice: seed.wrapping_mul(7) + i,
            })
            .collect()
    }

    fn fitness_value(seed: f64) -> CachedFitness {
        CachedFitness {
            metrics: SystemMetrics {
                makespan: 1.0e-3 * seed,
                error_prob: 0.01 * seed,
                mttf: 1.0e7 * seed,
                energy: 0.5 * seed,
                peak_power: 2.0 * seed,
            },
            violation: 0.0,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clre-cache-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn analysis_roundtrip_and_counters() {
        let cache = EvalCache::new();
        let p = spec(1.0);
        assert_eq!(cache.analysis_spec(&p), None);
        let stored = cache.insert_analysis_spec(&p, analysis(1.0));
        assert_eq!(stored, analysis(1.0));
        assert_eq!(cache.analysis_spec(&p), Some(analysis(1.0)));
        let counts = cache.analysis_counts();
        assert_eq!((counts.hits, counts.misses, counts.inserts), (1, 1, 1));
        assert_eq!(cache.analysis_len(), 1);
    }

    #[test]
    fn insert_once_keeps_the_first_value() {
        let cache = EvalCache::new();
        let p = spec(1.0);
        cache.insert_analysis_spec(&p, analysis(1.0));
        // A second writer adopts the stored value, not its own.
        let stored = cache.insert_analysis_spec(&p, analysis(9.0));
        assert_eq!(stored, analysis(1.0));
        assert_eq!(cache.analysis_counts().inserts, 1);

        let g = genome(1);
        cache.insert_fitness(3, &g, fitness_value(1.0));
        let stored = cache.insert_fitness(3, &g, fitness_value(9.0));
        assert_eq!(stored, fitness_value(1.0));
        assert_eq!(cache.fitness_counts().inserts, 1);
    }

    #[test]
    fn fitness_is_scoped_by_problem_digest() {
        let cache = EvalCache::new();
        let g = genome(2);
        cache.insert_fitness(1, &g, fitness_value(1.0));
        assert_eq!(cache.fitness(1, &g), Some(fitness_value(1.0)));
        assert_eq!(cache.fitness(2, &g), None, "other problem never hits");
        assert_eq!(cache.fitness(1, &genome(3)), None, "other genome misses");
    }

    #[test]
    fn sidecar_roundtrips_both_levels() {
        let path = temp_path("roundtrip.cache");
        let _ = fs::remove_file(&path);
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert!(cache.is_bound());
        cache.insert_analysis_spec(&spec(1.0), analysis(1.0));
        cache.insert_fitness(7, &genome(1), fitness_value(1.0));

        let warm = EvalCache::new();
        warm.bind_sidecar(&path).unwrap();
        assert_eq!(warm.analysis_spec(&spec(1.0)), Some(analysis(1.0)));
        assert_eq!(warm.fitness(7, &genome(1)), Some(fitness_value(1.0)));
        assert_eq!(warm.counts().inserts, 0, "loads are not inserts");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(CACHE_HEADER));
    }

    #[test]
    fn torn_tail_degrades_to_partial_load() {
        let path = temp_path("torn.cache");
        let mut text = format!("{CACHE_HEADER}\n");
        text.push_str(&encode_analysis(&params(1.0), &analysis(1.0)));
        text.push('\n');
        let torn = encode_fitness(7, &genome(1), &fitness_value(1.0));
        text.push_str(&torn[..torn.len() / 2]);
        fs::write(&path, text).unwrap();

        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert_eq!(cache.analysis_spec(&spec(1.0)), Some(analysis(1.0)));
        assert_eq!(cache.fitness(7, &genome(1)), None, "torn tail skipped");
    }

    #[test]
    fn wholesale_corruption_degrades_to_cold_cache() {
        let path = temp_path("corrupt.cache");
        fs::write(&path, format!("{CACHE_HEADER}\n\u{0}garbage lines\nmore\n")).unwrap();
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert_eq!(cache.analysis_len() + cache.fitness_len(), 0);
        assert!(cache.is_bound(), "still journals fresh inserts");
    }

    #[test]
    fn foreign_files_are_left_untouched() {
        let path = temp_path("foreign.cache");
        fs::write(&path, "clrearly-sweep v1\ncell t/a 1 0 0\n").unwrap();
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert!(!cache.is_bound(), "cold cache, no appends");
        cache.insert_analysis_spec(&spec(1.0), analysis(1.0));
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "clrearly-sweep v1\ncell t/a 1 0 0\n");
    }

    #[test]
    fn exact_bit_fidelity_through_the_sidecar() {
        let path = temp_path("bits.cache");
        let _ = fs::remove_file(&path);
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        let mut v = fitness_value(1.0);
        v.metrics.makespan = f64::from_bits(0x3FF0_0000_0000_0001); // 1 + ulp
        v.violation = 1.0e30;
        cache.insert_fitness(5, &genome(4), v);

        let warm = EvalCache::new();
        warm.bind_sidecar(&path).unwrap();
        let hit = warm.fitness(5, &genome(4)).unwrap();
        assert_eq!(hit.metrics.makespan.to_bits(), v.metrics.makespan.to_bits());
        assert_eq!(hit.violation.to_bits(), v.violation.to_bits());
    }

    #[test]
    fn sidecar_lines_carry_verified_integrity_tokens() {
        let line = encode_analysis(&params(1.0), &analysis(1.0));
        assert!(line.contains(" i="), "encoder seals every line");
        assert!(verify_line(&line).is_some());
        // A single-bit flip in the body fails the digest.
        let mut tampered = line.clone().into_bytes();
        tampered[10] ^= 0x01;
        let tampered = String::from_utf8(tampered).unwrap();
        assert_eq!(verify_line(&tampered), None);
        // A legacy line without a token passes through unchanged.
        let body = &line[..line.rfind(" i=").unwrap()];
        assert_eq!(verify_line(body), Some(body));
        assert!(
            parse_analysis_any(body).is_some(),
            "legacy lines still parse"
        );
    }

    #[test]
    fn corrupt_sidecar_lines_are_skipped_and_counted() {
        let path = temp_path("tampered.cache");
        let good_a = encode_analysis(&params(1.0), &analysis(1.0));
        let good_f = encode_fitness(7, &genome(1), &fitness_value(1.0));
        // Flip one byte inside the fitness record's digest-covered body.
        let tampered_f = good_f.replacen("fitness", "fitmess", 1);
        fs::write(&path, format!("{CACHE_HEADER}\n{good_a}\n{tampered_f}\n")).unwrap();

        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert_eq!(cache.analysis_spec(&spec(1.0)), Some(analysis(1.0)));
        assert_eq!(cache.fitness(7, &genome(1)), None, "tampered line dropped");
        assert_eq!(cache.sidecar_skipped(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sidecar_path_sits_next_to_the_checkpoint() {
        let p = cache_sidecar_path(Path::new("/runs/x/checkpoint.txt"));
        assert_eq!(p, Path::new("/runs/x/cache.txt"));
    }

    #[test]
    fn mechanism_specs_get_distinct_entries() {
        let cache = EvalCache::new();
        let p = params(1.0);
        let transient = ClrChainSpec::transient(p);
        let perm = ClrChainSpec::permanent_aging(p, 25.0);
        cache.insert_analysis_spec(&transient, analysis(1.0));
        assert_eq!(
            cache.analysis_spec(&perm),
            None,
            "same params, different mechanism never hits"
        );
        cache.insert_analysis_spec(&perm, analysis(2.0));
        assert_eq!(cache.analysis_spec(&transient), Some(analysis(1.0)));
        assert_eq!(cache.analysis_spec(&perm), Some(analysis(2.0)));
        assert_eq!(cache.analysis_len(), 2);
    }

    #[test]
    fn mechanism_entries_roundtrip_the_sidecar() {
        let path = temp_path("mechanism.cache");
        let _ = fs::remove_file(&path);
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        let perm = ClrChainSpec::permanent_aging(params(1.0), 25.0);
        cache.insert_analysis_spec(&perm, analysis(2.0));
        cache.insert_analysis_spec(&spec(2.0), analysis(3.0));

        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\nanalysis2 1 "), "tagged record: {text}");
        assert!(text.contains("\nanalysis "), "legacy record kept verbatim");

        let warm = EvalCache::new();
        warm.bind_sidecar(&path).unwrap();
        assert_eq!(warm.analysis_spec(&perm), Some(analysis(2.0)));
        assert_eq!(warm.analysis_spec(&spec(2.0)), Some(analysis(3.0)));

        // An analysis2 line with an unknown mechanism tag is foreign:
        // skipped and counted, never guessed at.
        let body = "analysis2 7 0000000000000000 junk";
        let mut fnv = Fnv::new();
        fnv.write_bytes(body.as_bytes());
        fs::write(
            &path,
            format!("{CACHE_HEADER}\n{body} i={:016x}\n", fnv.finish()),
        )
        .unwrap();
        let future = EvalCache::new();
        future.bind_sidecar(&path).unwrap();
        assert_eq!(future.analysis_len(), 0);
        assert_eq!(future.sidecar_skipped(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lru_eviction_bounds_entries_and_counts() {
        let cache = EvalCache::new();
        cache.set_entry_ceiling(SHARDS); // one slot per shard
        assert_eq!(cache.entry_ceiling(), SHARDS);
        for i in 0..200 {
            cache.insert_analysis_spec(&spec(1.0 + i as f64), analysis(1.0));
        }
        assert!(
            cache.analysis_len() <= SHARDS,
            "ceiling enforced: {} entries",
            cache.analysis_len()
        );
        let counts = cache.analysis_counts();
        assert_eq!(counts.inserts, 200);
        assert_eq!(counts.evictions, 200 - cache.analysis_len() as u64);
        assert_eq!(cache.counts().evictions, counts.evictions);

        // Fitness level is bounded by the same ceiling.
        for i in 0..100 {
            cache.insert_fitness(u64::from(i), &genome(i), fitness_value(1.0));
        }
        assert!(cache.fitness_len() <= SHARDS);
        assert!(cache.fitness_counts().evictions > 0);

        // Eviction never corrupts answers: a re-inserted key replays its
        // stored value exactly.
        let p = spec(500.0);
        cache.insert_analysis_spec(&p, analysis(5.0));
        assert_eq!(cache.analysis_spec(&p), Some(analysis(5.0)));
    }

    #[test]
    fn ceiling_one_eviction_counters_stay_exact() {
        let cache = EvalCache::new();
        // The harshest setting: a ceiling of 1 clamps every shard to a
        // single slot, so almost every insert evicts. The invariant under
        // test is counter accuracy: inserts - evictions must equal the
        // number of resident entries, per level, exactly.
        cache.set_entry_ceiling(1);
        assert_eq!(cache.entry_ceiling(), 1);

        for i in 0..64 {
            cache.insert_analysis_spec(&spec(1.0 + f64::from(i)), analysis(1.0));
        }
        let analysis_counts = cache.analysis_counts();
        assert_eq!(analysis_counts.inserts, 64);
        assert!(
            cache.analysis_len() <= SHARDS,
            "one slot per shard: {} entries",
            cache.analysis_len()
        );
        assert_eq!(
            analysis_counts.evictions,
            analysis_counts.inserts - cache.analysis_len() as u64,
            "every insert past a shard's single slot is exactly one eviction"
        );
        assert!(analysis_counts.evictions > 0);

        for i in 0..64u32 {
            cache.insert_fitness(7, &genome(i), fitness_value(f64::from(i + 1)));
        }
        let fitness_counts = cache.fitness_counts();
        assert_eq!(fitness_counts.inserts, 64);
        assert!(cache.fitness_len() <= SHARDS);
        assert_eq!(
            fitness_counts.evictions,
            fitness_counts.inserts - cache.fitness_len() as u64
        );

        // The aggregate view sums both levels without double counting.
        assert_eq!(
            cache.counts().evictions,
            analysis_counts.evictions + fitness_counts.evictions
        );

        // LRU at cap one means the newest key in a shard survives, and
        // the survivor replays its stored value bit-exactly.
        let last = spec(200.0);
        cache.insert_analysis_spec(&last, analysis(3.0));
        assert_eq!(cache.analysis_spec(&last), Some(analysis(3.0)));
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = EvalCache::new();
        // Unbounded while warming, then capped: recently-touched entries
        // must survive a later squeeze.
        let hot = spec(1.0);
        for i in 0..40 {
            cache.insert_analysis_spec(&spec(1.0 + i as f64), analysis(1.0));
        }
        assert_eq!(cache.analysis_spec(&hot), Some(analysis(1.0))); // refresh
        cache.set_entry_ceiling(SHARDS);
        // Inserts into the hot entry's shard trigger evictions there; the
        // hot entry was just touched so colder keys go first.
        for i in 100..140 {
            cache.insert_analysis_spec(&spec(1.0 + i as f64), analysis(1.0));
        }
        let still_hot = cache.analysis_spec(&hot).is_some();
        let total = cache.analysis_len();
        assert!(total <= SHARDS + 40, "squeeze converges: {total}");
        // The hot entry survives unless its own shard overflowed past it;
        // with one slot per shard the newest insert wins, so just assert
        // the lookup stays coherent either way.
        if still_hot {
            assert_eq!(cache.analysis_spec(&hot), Some(analysis(1.0)));
        }
    }

    #[test]
    fn concurrent_inserts_agree() {
        let cache = EvalCache::shared();
        let g = genome(1);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let g = g.clone();
                scope.spawn(move || {
                    let stored = cache.insert_fitness(1, &g, fitness_value(1.0));
                    assert_eq!(stored, fitness_value(1.0));
                });
            }
        });
        assert_eq!(cache.fitness_counts().inserts, 1, "insert-once");
        assert_eq!(cache.fitness_len(), 1);
    }
}
