//! Content-addressed fitness cache: memoizes genome evaluation, the
//! exact, deterministic computation every GA generation repeats.
//!
//! Genomes recur across generations and seeded stages. The cache keys on
//! the exact gene sequence plus a *problem digest* (graph, platform,
//! library content, objectives, QoS spec) so one cache may be shared
//! across stages, sweep cells and server tenants without
//! cross-contamination. It stores `(SystemMetrics, violation)` — not the
//! projected objective vector — so front annotation is a pure lookup.
//!
//! Entries live in sharded locks (safe under the `clre-exec` worker pool)
//! with an **insert-once** discipline: the first writer wins, later
//! writers adopt the stored value. Because every cached evaluation is a
//! deterministic pure function of its key, a hit replays the uncached
//! computation bit-for-bit — cached and uncached runs produce identical
//! Pareto fronts for any worker count (DESIGN.md §12 gives the full
//! argument).
//!
//! Task-level chain analyses are not cached: one costs a few µs, and the
//! server builds each (application, scenario) library once, so an
//! analysis cache had nothing left to answer.
//!
//! # Persistence
//!
//! [`EvalCache::bind_sidecar`] attaches an append-only journal (header
//! [`CACHE_HEADER`]) next to the campaign checkpoint: existing fitness
//! entries are loaded (warm start), and every subsequent first-insert
//! appends one self-contained line. Like the sweep ledger, the file is
//! torn-tail tolerant — a process killed mid-write leaves at most one
//! malformed line, which the loader skips; a corrupted or foreign file
//! degrades to a cold cache without error. An older sidecar's
//! `analysis`/`analysis2` lines no longer parse; they are counted in
//! [`EvalCache::sidecar_skipped`].
//!
//! Journal lines are encoded only while a journal is bound: an unbound
//! cache (every in-memory `ClrEarly`) checks one atomic flag per
//! insert and never formats, seals or locks anything. A bound journal is
//! buffered in memory and reaches the file when the buffer fills, before
//! every campaign checkpoint is saved, when the server shuts down, and
//! when the cache is dropped. A crash therefore loses at most the lines
//! inserted since the last of those points — a warm-start hit each, never
//! an answer, since a missing line is recomputed to the same bits.
//!
//! # Examples
//!
//! ```
//! use clre::cache::{CachedFitness, EvalCache};
//! use clre::encoding::Gene;
//! use clre_model::qos::SystemMetrics;
//! use clre_model::{PeId, TaskId};
//!
//! let cache = EvalCache::new();
//! let genome = vec![Gene { task: TaskId::new(0), pe: PeId::new(1), choice: 3 }];
//! let value = CachedFitness {
//!     metrics: SystemMetrics {
//!         makespan: 1.0e-3,
//!         error_prob: 0.01,
//!         mttf: 1.0e7,
//!         energy: 0.5,
//!         peak_power: 2.0,
//!     },
//!     violation: 0.0,
//! };
//! assert!(cache.fitness(7, &genome).is_none()); // cold
//! cache.insert_fitness(7, &genome, value);
//! assert_eq!(cache.fitness(7, &genome), Some(value)); // exact replay
//! assert!(cache.fitness(8, &genome).is_none()); // other problem
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use clre_model::qos::SystemMetrics;

use crate::encoding::Genome;

/// First line of every cache sidecar file.
pub const CACHE_HEADER: &str = "clrearly-cache v1";

/// Number of lock shards. A power of two so the shard index is a cheap
/// mask of the key digest.
const SHARDS: usize = 16;

pub use clre_num::digest::Fnv;

/// Monotonic hit/miss/insert/eviction counts of the cache.
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
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl Stats {
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

/// One fitness-cache slot: the entry plus its LRU recency stamp.
#[derive(Debug, Clone)]
struct FitnessSlot {
    entry: FitnessEntry,
    tick: u64,
}

type FitnessShard = Mutex<HashMap<u64, FitnessSlot>>;

/// The thread-safe, content-addressed fitness cache.
///
/// Shared by [`Arc`]: one instance may serve many `ClrEarly` campaigns,
/// sweep cells and worker threads concurrently. See the [module
/// docs](self) for the determinism argument and the sidecar format.
#[derive(Debug)]
pub struct EvalCache {
    fitness: Vec<FitnessShard>,
    fitness_stats: Stats,
    /// The bound journal. `BufWriter` flushes on drop, so a cache that
    /// goes out of scope leaves its whole journal on disk.
    sidecar: Mutex<Option<BufWriter<fs::File>>>,
    /// Whether `sidecar` holds a journal; read without the lock so an
    /// unbound cache skips encoding entirely. Set (`Release`) only after
    /// the journal is stored, so a reader that sees it (`Acquire`) finds
    /// the journal in place.
    bound: AtomicBool,
    sidecar_skipped: AtomicU64,
    /// Monotonic recency clock; bumped on every hit and insert, stamped
    /// into the touched slot.
    tick: AtomicU64,
    /// Fitness entry ceiling (`0` = unbounded). Enforced per shard as
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
            fitness: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            fitness_stats: Stats::default(),
            sidecar: Mutex::new(None),
            bound: AtomicBool::new(false),
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

    /// Sets the fitness entry ceiling (`0` = unbounded). Beyond it the
    /// least-recently-used entries are evicted (counted in
    /// [`CacheCounts::evictions`]). Eviction only affects hit
    /// rates, never answers: every cached computation is a pure function
    /// of its key, so a re-miss recomputes the identical bits.
    pub fn set_entry_ceiling(&self, ceiling: usize) {
        self.entry_ceiling.store(ceiling, Ordering::Relaxed);
    }

    /// The current fitness entry ceiling (`0` = unbounded).
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
                        Some(cap) => evict_lru(&mut shard, cap, digest),
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
            self.append_line(|| encode_fitness(problem, genome, &stored));
        }
        stored
    }

    /// Fitness counters — what threads into `RunHealth` and the
    /// per-generation trace.
    pub fn fitness_counts(&self) -> CacheCounts {
        self.fitness_stats.counts()
    }

    /// Always zero counts. Kept for perfbench; deleted at the next benchmark change.
    pub fn analysis_counts(&self) -> CacheCounts {
        CacheCounts::default()
    }

    /// Always 0. Kept for perfbench; deleted at the next benchmark change.
    pub fn analysis_len(&self) -> usize {
        0
    }

    /// Number of distinct genome fitnesses currently held.
    pub fn fitness_len(&self) -> usize {
        self.fitness
            .iter()
            .map(|s| s.lock().expect("fitness cache poisoned").len())
            .sum()
    }

    /// Binds this cache to an append-only sidecar journal: loads every
    /// fitness entry already journalled at `path` (warm start), then
    /// appends one line per future fitness first-insert.
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
        // Replacing an earlier journal drops (and so flushes) it.
        *self.sidecar.lock().expect("cache sidecar poisoned") = Some(BufWriter::new(file));
        self.bound.store(true, Ordering::Release);
        Ok(())
    }

    /// Whether a sidecar journal is currently bound.
    pub fn is_bound(&self) -> bool {
        self.bound.load(Ordering::Acquire)
    }

    /// Writes the bound journal's buffered lines through to its file. A
    /// no-op when unbound; failures are swallowed like append failures.
    pub(crate) fn flush_sidecar(&self) {
        let mut guard = self.sidecar.lock().expect("cache sidecar poisoned");
        if let Some(journal) = guard.as_mut() {
            let _ = journal.flush();
        }
    }

    /// Number of sidecar lines skipped while loading: torn tails,
    /// wholesale corruption, integrity-digest mismatches, or records of a
    /// kind this build does not persist. Each skip
    /// degrades exactly one entry to a recomputation, never to a wrong
    /// answer.
    pub fn sidecar_skipped(&self) -> u64 {
        self.sidecar_skipped.load(Ordering::Relaxed)
    }

    /// Inserts one journal line without re-appending it; returns whether
    /// the line was loadable. Malformed or digest-mismatching lines are
    /// skipped (torn-tail tolerance).
    fn load_line(&self, line: &str) -> bool {
        let Some(entry) = verify_line(line).and_then(parse_fitness) else {
            return false;
        };
        let digest = fitness_digest(entry.problem, &entry.genome);
        let tick = self.next_tick();
        self.fitness[Self::shard(digest)]
            .lock()
            .expect("fitness cache poisoned")
            .entry(digest)
            .or_insert(FitnessSlot { entry, tick });
        true
    }

    /// Appends the line `encode` builds to the bound sidecar. Unbound
    /// caches never call `encode`; bound ones call it outside the lock.
    /// Append failure is deliberately swallowed: the cache is an
    /// accelerator, a full disk must not fail the evaluation itself.
    fn append_line(&self, encode: impl FnOnce() -> String) {
        if !self.is_bound() {
            return;
        }
        let mut line = encode();
        line.push('\n');
        let mut guard = self.sidecar.lock().expect("cache sidecar poisoned");
        if let Some(journal) = guard.as_mut() {
            let _ = journal.write_all(line.as_bytes());
        }
    }
}

/// Evicts least-recently-used slots from one shard until it holds at most
/// `cap` entries, never evicting the just-inserted `keep` key. Returns the
/// number of evictions.
fn evict_lru(shard: &mut HashMap<u64, FitnessSlot>, cap: usize, keep: u64) -> u64 {
    let mut evicted = 0;
    while shard.len() > cap {
        let Some((&victim, _)) = shard
            .iter()
            .filter(|(&k, _)| k != keep)
            .min_by_key(|(_, slot)| slot.tick)
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
    fn fitness_roundtrip_and_counters() {
        let cache = EvalCache::new();
        let g = genome(1);
        assert_eq!(cache.fitness(3, &g), None);
        let stored = cache.insert_fitness(3, &g, fitness_value(1.0));
        assert_eq!(stored, fitness_value(1.0));
        assert_eq!(cache.fitness(3, &g), Some(fitness_value(1.0)));
        let counts = cache.fitness_counts();
        assert_eq!((counts.hits, counts.misses, counts.inserts), (1, 1, 1));
        assert_eq!(cache.fitness_len(), 1);
    }

    #[test]
    fn insert_once_keeps_the_first_value() {
        let cache = EvalCache::new();
        let g = genome(1);
        cache.insert_fitness(3, &g, fitness_value(1.0));
        // A second writer adopts the stored value, not its own.
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
    fn sidecar_roundtrips_fitness() {
        let path = temp_path("roundtrip.cache");
        let _ = fs::remove_file(&path);
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert!(cache.is_bound());
        cache.insert_fitness(7, &genome(1), fitness_value(1.0));
        drop(cache); // flushes the buffered journal

        let warm = EvalCache::new();
        warm.bind_sidecar(&path).unwrap();
        assert_eq!(warm.fitness(7, &genome(1)), Some(fitness_value(1.0)));
        assert_eq!(warm.fitness_counts().inserts, 0, "loads are not inserts");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(CACHE_HEADER));
    }

    #[test]
    fn old_analysis_lines_are_skipped_and_counted() {
        let path = temp_path("old-analysis.cache");
        // Records an older build journalled for the analysis level: a
        // transient `analysis` line (sealed and unsealed) and a
        // mechanism-tagged `analysis2` line.
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let mut body = String::new();
        for _ in 0..7 {
            body.push_str(&format!(" {}", hex(0.5)));
        }
        body.push_str(" 1");
        for _ in 0..7 {
            body.push_str(&format!(" {}", hex(0.25)));
        }
        body.push_str(" 0 0");
        let old = [
            seal_line(format!("analysis{body}")),
            format!("analysis{body}"),
            seal_line(format!("analysis2 1 {}{body}", hex(25.0))),
        ];
        let good = encode_fitness(7, &genome(1), &fitness_value(1.0));
        fs::write(
            &path,
            format!(
                "{CACHE_HEADER}\n{}\n{good}\n{}\n{}\n",
                old[0], old[1], old[2]
            ),
        )
        .unwrap();

        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert!(cache.is_bound());
        assert_eq!(cache.fitness(7, &genome(1)), Some(fitness_value(1.0)));
        assert_eq!(cache.fitness_len(), 1);
        assert_eq!(cache.sidecar_skipped(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unbound_inserts_never_encode() {
        EvalCache::new().append_line(|| panic!("an unbound cache must not encode"));
    }

    #[test]
    fn dropped_journal_holds_every_insert() {
        let path = temp_path("drop-flush.cache");
        let _ = fs::remove_file(&path);
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        for i in 0..50u32 {
            cache.insert_fitness(7, &genome(i), fitness_value(1.0));
        }
        drop(cache);

        let warm = EvalCache::new();
        warm.bind_sidecar(&path).unwrap();
        assert_eq!(warm.fitness_len(), 50);
        assert_eq!(warm.sidecar_skipped(), 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_degrades_to_partial_load() {
        let path = temp_path("torn.cache");
        let mut text = format!("{CACHE_HEADER}\n");
        text.push_str(&encode_fitness(7, &genome(2), &fitness_value(2.0)));
        text.push('\n');
        let torn = encode_fitness(7, &genome(1), &fitness_value(1.0));
        text.push_str(&torn[..torn.len() / 2]);
        fs::write(&path, text).unwrap();

        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert_eq!(cache.fitness(7, &genome(2)), Some(fitness_value(2.0)));
        assert_eq!(cache.fitness(7, &genome(1)), None, "torn tail skipped");
        assert_eq!(cache.sidecar_skipped(), 1);
    }

    #[test]
    fn wholesale_corruption_degrades_to_cold_cache() {
        let path = temp_path("corrupt.cache");
        fs::write(&path, format!("{CACHE_HEADER}\n\u{0}garbage lines\nmore\n")).unwrap();
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert_eq!(cache.fitness_len(), 0);
        assert!(cache.is_bound(), "still journals fresh inserts");
    }

    #[test]
    fn foreign_files_are_left_untouched() {
        let path = temp_path("foreign.cache");
        fs::write(&path, "clrearly-sweep v1\ncell t/a 1 0 0\n").unwrap();
        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert!(!cache.is_bound(), "cold cache, no appends");
        cache.insert_fitness(7, &genome(1), fitness_value(1.0));
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
        drop(cache);

        let warm = EvalCache::new();
        warm.bind_sidecar(&path).unwrap();
        let hit = warm.fitness(5, &genome(4)).unwrap();
        assert_eq!(hit.metrics.makespan.to_bits(), v.metrics.makespan.to_bits());
        assert_eq!(hit.violation.to_bits(), v.violation.to_bits());
    }

    #[test]
    fn sidecar_lines_carry_verified_integrity_tokens() {
        let line = encode_fitness(7, &genome(1), &fitness_value(1.0));
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
        assert!(parse_fitness(body).is_some(), "legacy lines still parse");
    }

    #[test]
    fn corrupt_sidecar_lines_are_skipped_and_counted() {
        let path = temp_path("tampered.cache");
        let good = encode_fitness(7, &genome(2), &fitness_value(2.0));
        let tampered = encode_fitness(7, &genome(1), &fitness_value(1.0));
        // Flip one byte inside the record's digest-covered body.
        let tampered = tampered.replacen("0000000000000007", "0000000000000008", 1);
        fs::write(&path, format!("{CACHE_HEADER}\n{good}\n{tampered}\n")).unwrap();

        let cache = EvalCache::new();
        cache.bind_sidecar(&path).unwrap();
        assert_eq!(cache.fitness(7, &genome(2)), Some(fitness_value(2.0)));
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
    fn lru_eviction_bounds_entries_and_counts() {
        let cache = EvalCache::new();
        cache.set_entry_ceiling(SHARDS); // one slot per shard
        assert_eq!(cache.entry_ceiling(), SHARDS);
        for i in 0..200u32 {
            cache.insert_fitness(7, &genome(i), fitness_value(1.0));
        }
        assert!(
            cache.fitness_len() <= SHARDS,
            "ceiling enforced: {} entries",
            cache.fitness_len()
        );
        let counts = cache.fitness_counts();
        assert_eq!(counts.inserts, 200);
        assert_eq!(counts.evictions, 200 - cache.fitness_len() as u64);

        // Eviction never corrupts answers: a re-inserted key replays its
        // stored value exactly.
        let g = genome(500);
        cache.insert_fitness(7, &g, fitness_value(5.0));
        assert_eq!(cache.fitness(7, &g), Some(fitness_value(5.0)));
    }

    #[test]
    fn ceiling_one_eviction_counters_stay_exact() {
        let cache = EvalCache::new();
        // The harshest setting: a ceiling of 1 clamps every shard to a
        // single slot, so almost every insert evicts. The invariant under
        // test is counter accuracy: inserts - evictions must equal the
        // number of resident entries, exactly.
        cache.set_entry_ceiling(1);
        assert_eq!(cache.entry_ceiling(), 1);

        for i in 0..64u32 {
            cache.insert_fitness(7, &genome(i), fitness_value(f64::from(i + 1)));
        }
        let counts = cache.fitness_counts();
        assert_eq!(counts.inserts, 64);
        assert!(
            cache.fitness_len() <= SHARDS,
            "one slot per shard: {} entries",
            cache.fitness_len()
        );
        assert_eq!(
            counts.evictions,
            counts.inserts - cache.fitness_len() as u64,
            "every insert past a shard's single slot is exactly one eviction"
        );
        assert!(counts.evictions > 0);

        // LRU at cap one means the newest key in a shard survives, and
        // the survivor replays its stored value bit-exactly.
        let last = genome(200);
        cache.insert_fitness(7, &last, fitness_value(3.0));
        assert_eq!(cache.fitness(7, &last), Some(fitness_value(3.0)));
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = EvalCache::new();
        // Unbounded while warming, then capped: recently-touched entries
        // must survive a later squeeze.
        let hot = genome(0);
        for i in 0..40u32 {
            cache.insert_fitness(7, &genome(i), fitness_value(1.0));
        }
        assert_eq!(cache.fitness(7, &hot), Some(fitness_value(1.0))); // refresh
        cache.set_entry_ceiling(SHARDS);
        // Inserts into the hot entry's shard trigger evictions there; the
        // hot entry was just touched so colder keys go first.
        for i in 100..140u32 {
            cache.insert_fitness(7, &genome(i), fitness_value(1.0));
        }
        let still_hot = cache.fitness(7, &hot).is_some();
        let total = cache.fitness_len();
        assert!(total <= SHARDS + 40, "squeeze converges: {total}");
        // The hot entry survives unless its own shard overflowed past it;
        // with one slot per shard the newest insert wins, so just assert
        // the lookup stays coherent either way.
        if still_hot {
            assert_eq!(cache.fitness(7, &hot), Some(fitness_value(1.0)));
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
