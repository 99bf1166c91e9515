//! Session bookkeeping: the per-campaign trace log, admission control,
//! and the in-memory campaign registry.
//!
//! The load-bearing object is [`TraceLog`]: the campaign thread appends
//! finalized `trace-v1` lines into it (via [`LogWriter`], attached to
//! the executor's telemetry sink), and any number of connection handlers
//! replay and tail it concurrently. Because the log — not the client
//! connection — owns the stream history, a client that disconnects
//! mid-run costs nothing: the campaign keeps running, the lines keep
//! accumulating (and persisting to `trace.txt`), and a later `attach`
//! resumes from any line index, including across a server restart.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use clre::journal::{seal, RecordLog};

use crate::wire::{DoneSummary, SubmitRequest};

/// First line of every `trace.txt` spill.
const TRACE_HEADER: &str = "clrearly-trace v1";

/// Terminal state of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// Ran to completion; the front digest is final.
    Done(DoneSummary),
    /// Interrupted by shutdown at this generation; a checkpoint is on
    /// disk and a restarted server resumes it automatically.
    Parked {
        /// Generations the interrupted stage had completed.
        generation: usize,
    },
    /// The campaign errored; the message is streamed to attached
    /// clients.
    Failed(String),
}

#[derive(Debug, Default)]
struct LogState {
    /// The in-memory tail. With a ring cap, older lines are dropped from
    /// memory (they remain in the spill file) and `start` records
    /// how many were dropped, so global line indices never shift.
    lines: Vec<String>,
    /// Global index of `lines[0]` — lines `0..start` live only on disk.
    start: usize,
    outcome: Option<CampaignOutcome>,
}

/// Append-only trace history of one campaign plus its terminal outcome,
/// safe to tail from many threads. Optionally persists each line to a
/// `trace.txt` [`RecordLog`] so line indices stay stable across a server
/// restart, and optionally bounds the in-memory tail to a ring of the
/// most recent lines — a long campaign then costs O(ring) memory while
/// `attach from=n` for older indices replays from the spill.
#[derive(Debug, Default)]
pub struct TraceLog {
    state: Mutex<LogState>,
    cv: Condvar,
    /// The spill file, if it is readable as one.
    persist: Option<PathBuf>,
    /// The spill, open for appends until the log is sealed.
    spill: Mutex<Option<RecordLog>>,
    /// In-memory line cap; 0 means unbounded.
    ring: usize,
}

impl TraceLog {
    /// An in-memory log (tests, short-lived campaigns).
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// A log persisting to `path`, preloaded with any lines already
    /// there — so a resumed campaign appends at the index the parked run
    /// stopped at, and `attach from=n` keeps meaning the same thing
    /// across restarts. At most `ring` lines stay in memory (0 =
    /// unbounded); older indices replay from the spill on demand. A
    /// foreign file (a headerless spill from an older server) is moved
    /// aside to `trace.txt.foreign` and the log starts afresh at index 0;
    /// a spill that cannot be opened (a read-only disk) leaves the log in
    /// memory only.
    pub fn persisted_with_ring(path: PathBuf, ring: usize) -> Self {
        let mut lines = Vec::new();
        let spill = RecordLog::open_or_set_aside(&path, TRACE_HEADER, |line| {
            lines.push(line.to_owned());
            true
        })
        .ok()
        .map(|(log, _)| log);
        let mut start = 0;
        if ring > 0 && lines.len() > ring {
            start = lines.len() - ring;
            lines.drain(..start);
        }
        TraceLog {
            state: Mutex::new(LogState {
                lines,
                start,
                outcome: None,
            }),
            cv: Condvar::new(),
            persist: spill.is_some().then_some(path),
            spill: Mutex::new(spill),
            ring,
        }
    }

    /// Appends one line and wakes every tailing handler. The line reaches
    /// the spill file before it becomes visible, so disk replay and
    /// restart indices never lag the stream.
    pub fn push(&self, line: &str) {
        if let Some(spill) = self.spill.lock().expect("trace spill poisoned").as_mut() {
            // Persistence is best-effort: a full disk degrades restart
            // replay, never live streaming.
            let _ = spill
                .append(&seal(line.to_owned()))
                .and_then(|()| spill.flush());
        }
        let mut s = self.state.lock().expect("trace log poisoned");
        s.lines.push(line.to_owned());
        if self.ring > 0 && s.lines.len() > self.ring {
            let excess = s.lines.len() - self.ring;
            s.lines.drain(..excess);
            s.start += excess;
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Seals the log with its terminal outcome (idempotent: the first
    /// outcome wins), closes the spill file and wakes every tailing
    /// handler.
    pub fn finish(&self, outcome: CampaignOutcome) {
        *self.spill.lock().expect("trace spill poisoned") = None;
        let mut s = self.state.lock().expect("trace log poisoned");
        s.outcome.get_or_insert(outcome);
        drop(s);
        self.cv.notify_all();
    }

    /// Number of lines emitted so far (including lines evicted from the
    /// in-memory ring — indices are global and never shift).
    pub fn len(&self) -> usize {
        let s = self.state.lock().expect("trace log poisoned");
        s.start + s.lines.len()
    }

    /// Whether no lines have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The terminal outcome, if sealed.
    pub fn outcome(&self) -> Option<CampaignOutcome> {
        self.state
            .lock()
            .expect("trace log poisoned")
            .outcome
            .clone()
    }

    /// Blocks (bounded by `patience`) until there are lines beyond
    /// `from` or the log is sealed; returns the new lines and, once
    /// everything up to the seal has been drained, the outcome. A
    /// `(empty, None)` return is a patience timeout — poll again.
    ///
    /// A `from` older than the in-memory ring replays the evicted range
    /// from the spill (best-effort: lines whose disk append failed are
    /// skipped, and the reader resumes from the ring).
    pub fn wait_from(
        &self,
        from: usize,
        patience: Duration,
    ) -> (Vec<String>, Option<CampaignOutcome>) {
        let mut s = self.state.lock().expect("trace log poisoned");
        if s.start + s.lines.len() <= from && s.outcome.is_none() {
            let (guard, _timeout) = self
                .cv
                .wait_timeout(s, patience)
                .expect("trace log poisoned");
            s = guard;
        }
        let total = s.start + s.lines.len();
        let mut fresh: Vec<String> = Vec::new();
        if from < s.start {
            if let Some(path) = &self.persist {
                let mut index = 0;
                let _ = RecordLog::replay(path, TRACE_HEADER, |line| {
                    if (from..s.start).contains(&index) {
                        fresh.push(line.to_owned());
                    }
                    index += 1;
                    true
                });
            }
            fresh.extend(s.lines.iter().cloned());
        } else {
            fresh.extend(
                s.lines
                    .get(from - s.start..)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
        }
        let outcome = if from.max(s.start) + fresh.len() >= total {
            s.outcome.clone()
        } else {
            None
        };
        (fresh, outcome)
    }
}

/// `io::Write` adapter from the telemetry sink's byte stream onto a
/// [`TraceLog`]: buffers until newline, pushes complete lines.
#[derive(Debug)]
pub struct LogWriter {
    log: Arc<TraceLog>,
    pending: Vec<u8>,
}

impl LogWriter {
    /// A writer appending complete lines into `log`.
    pub fn new(log: Arc<TraceLog>) -> Self {
        LogWriter {
            log,
            pending: Vec::new(),
        }
    }
}

impl io::Write for LogWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let rest = self.pending.split_off(pos + 1);
            let line = std::mem::replace(&mut self.pending, rest);
            self.log
                .push(String::from_utf8_lossy(&line[..line.len() - 1]).as_ref());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Admission policy: a global concurrency ceiling plus a per-tenant
/// quota, both counted over campaigns that have not reached a terminal
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Campaigns the server will run concurrently across all tenants.
    pub max_active: usize,
    /// Concurrent campaigns allowed per tenant.
    pub max_per_tenant: usize,
}

impl Admission {
    /// Admits or rejects a submission given the current active counts.
    ///
    /// # Errors
    ///
    /// The wire-format rejection reason token.
    pub fn admit(&self, active_total: usize, active_tenant: usize) -> Result<(), &'static str> {
        if active_tenant >= self.max_per_tenant {
            return Err("tenant-quota");
        }
        if active_total >= self.max_active {
            return Err("server-busy");
        }
        Ok(())
    }
}

/// One admitted campaign: identity, the request that created it, and
/// its trace log.
#[derive(Debug)]
pub struct CampaignEntry {
    /// Server-assigned campaign id (`c<seq>`), unique across restarts.
    pub id: String,
    /// The submission.
    pub request: SubmitRequest,
    /// The streaming trace history.
    pub log: Arc<TraceLog>,
}

impl CampaignEntry {
    /// The campaign's state directory under the server root.
    pub fn dir(&self, root: &Path) -> PathBuf {
        root.join(&self.request.tenant).join(&self.id)
    }
}

/// The in-memory campaign table.
#[derive(Debug, Default)]
pub struct Registry {
    campaigns: Mutex<Vec<Arc<CampaignEntry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Inserts an admitted campaign.
    pub fn insert(&self, entry: Arc<CampaignEntry>) {
        self.campaigns
            .lock()
            .expect("registry poisoned")
            .push(entry);
    }

    /// Looks up a campaign by tenant and id.
    pub fn get(&self, tenant: &str, id: &str) -> Option<Arc<CampaignEntry>> {
        self.campaigns
            .lock()
            .expect("registry poisoned")
            .iter()
            .find(|e| e.request.tenant == tenant && e.id == id)
            .cloned()
    }

    /// `(total, of this tenant)` campaigns without a terminal outcome.
    pub fn active_counts(&self, tenant: &str) -> (usize, usize) {
        let campaigns = self.campaigns.lock().expect("registry poisoned");
        let mut total = 0;
        let mut of_tenant = 0;
        for e in campaigns.iter() {
            if e.log.outcome().is_none() {
                total += 1;
                if e.request.tenant == tenant {
                    of_tenant += 1;
                }
            }
        }
        (total, of_tenant)
    }

    /// Per-outcome campaign counts: `(active, done, parked, failed)`.
    pub fn outcome_counts(&self) -> (usize, usize, usize, usize) {
        let campaigns = self.campaigns.lock().expect("registry poisoned");
        let mut counts = (0, 0, 0, 0);
        for e in campaigns.iter() {
            match e.log.outcome() {
                None => counts.0 += 1,
                Some(CampaignOutcome::Done(_)) => counts.1 += 1,
                Some(CampaignOutcome::Parked { .. }) => counts.2 += 1,
                Some(CampaignOutcome::Failed(_)) => counts.3 += 1,
            }
        }
        counts
    }

    /// Distinct tenant count.
    pub fn tenant_count(&self) -> usize {
        let campaigns = self.campaigns.lock().expect("registry poisoned");
        let mut tenants: Vec<&str> = campaigns
            .iter()
            .map(|e| e.request.tenant.as_str())
            .collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants.len()
    }

    /// The numerically largest `c<seq>` id in the registry, for seeding
    /// the id counter past ids recovered from disk.
    pub fn max_sequence(&self) -> u64 {
        self.campaigns
            .lock()
            .expect("registry poisoned")
            .iter()
            .filter_map(|e| e.id.strip_prefix('c')?.parse().ok())
            .max()
            .unwrap_or(0)
    }
}

/// Snapshot of every shared cache's counters, for the `stats` response.
/// Per label: `(fitness hits, fitness misses, fitness evictions)` —
/// evictions are nonzero only when the server runs with a cache entry
/// ceiling.
pub fn format_cache_stats(counts: &HashMap<String, (u64, u64, u64)>) -> String {
    let mut labels: Vec<&String> = counts.keys().collect();
    labels.sort();
    labels
        .iter()
        .map(|label| {
            let (fh, fm, fe) = counts[label.as_str()];
            format!(
                " cache.{label}.fitness_hits={fh} cache.{label}.fitness_misses={fm} \
                 cache.{label}.fitness_evictions={fe}"
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::AppSpec;
    use clre::methodology::StageBudget;
    use clre::CampaignPlan;
    use std::fs;

    fn entry(tenant: &str, id: &str) -> Arc<CampaignEntry> {
        Arc::new(CampaignEntry {
            id: id.to_owned(),
            request: SubmitRequest {
                tenant: tenant.to_owned(),
                app: AppSpec::Sobel { seed: 1 },
                budget: StageBudget::new(4, 2),
                plan: CampaignPlan::fc(),
                scenario: clre::Scenario::Transient,
            },
            log: Arc::new(TraceLog::new()),
        })
    }

    #[test]
    fn cache_stats_tokens_are_space_separated_and_numeric() {
        let mut counts = HashMap::new();
        counts.insert("paper".to_owned(), (33u64, 44u64, 6u64));
        counts.insert("sobel".to_owned(), (3u64, 4u64, 0u64));
        let stats = format_cache_stats(&counts);
        // Every token must parse as key=<u64> — a glued token (missing
        // separator) would make its numeric tail unparseable.
        for tok in stats.split_whitespace() {
            let (key, value) = tok.split_once('=').expect("key=value token");
            assert!(key.starts_with("cache."), "unexpected key {key:?}");
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("token {tok:?} has a non-numeric value"));
        }
        for expected in [
            "cache.paper.fitness_hits=33",
            "cache.paper.fitness_misses=44",
            "cache.paper.fitness_evictions=6",
            "cache.sobel.fitness_hits=3",
        ] {
            assert!(
                stats.split_whitespace().any(|t| t == expected),
                "missing token {expected:?} in {stats:?}"
            );
        }
    }

    #[test]
    fn trace_log_tails_lines_then_outcome() {
        let log = Arc::new(TraceLog::new());
        log.push("trace-v1 a");
        log.push("trace-v1 b");
        let (lines, outcome) = log.wait_from(0, Duration::from_millis(10));
        assert_eq!(lines, vec!["trace-v1 a", "trace-v1 b"]);
        assert_eq!(outcome, None, "not sealed yet");

        let tail = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.wait_from(2, Duration::from_secs(5)))
        };
        log.push("trace-v1 c");
        let (lines, _) = tail.join().unwrap();
        assert_eq!(lines, vec!["trace-v1 c"], "woken by push");

        log.finish(CampaignOutcome::Parked { generation: 3 });
        log.finish(CampaignOutcome::Failed("late".into()));
        let (lines, outcome) = log.wait_from(3, Duration::from_millis(10));
        assert!(lines.is_empty());
        assert_eq!(
            outcome,
            Some(CampaignOutcome::Parked { generation: 3 }),
            "first outcome wins"
        );
        // A reader behind on lines does not see the outcome early.
        let (lines, outcome) = log.wait_from(0, Duration::from_millis(10));
        assert_eq!(lines.len(), 3);
        assert!(outcome.is_some(), "drained reader sees the seal");
        let (_, early) = log.wait_from(1, Duration::ZERO);
        assert!(early.is_some(), "lines 1.. drains the rest too");
    }

    #[test]
    fn persisted_log_reloads_lines_across_restart() {
        let dir = std::env::temp_dir().join("clre-serve-session-tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let _ = fs::remove_file(&path);
        {
            let log = TraceLog::persisted_with_ring(path.clone(), 0);
            log.push("gen 0");
            log.push("gen 1");
        }
        let reloaded = TraceLog::persisted_with_ring(path.clone(), 0);
        assert_eq!(reloaded.len(), 2, "restart keeps line indices stable");
        reloaded.push("gen 2");
        let (lines, _) = reloaded.wait_from(1, Duration::ZERO);
        assert_eq!(lines, vec!["gen 1", "gen 2"]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_cut_of_the_last_spilled_line_replays_nothing_or_all_and_the_next_push_survives() {
        let dir = std::env::temp_dir().join("clre-serve-session-cuts");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let _ = fs::remove_file(&path);
        {
            let log = TraceLog::persisted_with_ring(path.clone(), 0);
            log.push("trace-v1 gen 0");
            log.push("trace-v1 gen 1");
        }
        let whole = fs::read(&path).unwrap();
        let last_start = whole[..whole.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in last_start..=whole.len() {
            fs::write(&path, &whole[..cut]).unwrap();
            let log = TraceLog::persisted_with_ring(path.clone(), 0);
            let kept = if cut == whole.len() { 2 } else { 1 };
            let (lines, _) = log.wait_from(0, Duration::ZERO);
            let expected: Vec<String> = (0..kept).map(|i| format!("trace-v1 gen {i}")).collect();
            assert_eq!(lines, expected, "cut at {cut}");
            log.push("trace-v1 next");
            drop(log);

            let reloaded = TraceLog::persisted_with_ring(path.clone(), 0);
            assert_eq!(reloaded.len(), kept + 1, "cut at {cut}");
            let (lines, _) = reloaded.wait_from(kept, Duration::ZERO);
            assert_eq!(lines, vec!["trace-v1 next"], "cut at {cut}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_headerless_spill_is_set_aside_and_a_new_one_started() {
        let dir = std::env::temp_dir().join("clre-serve-session-legacy");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let aside = dir.join("trace.txt.foreign");
        fs::write(&path, "gen 0\ngen 1\n").unwrap();
        let log = TraceLog::persisted_with_ring(path.clone(), 0);
        assert_eq!(log.len(), 0, "an older server's lines are not replayed");
        log.push("trace-v1 gen 0");
        drop(log);
        assert_eq!(fs::read_to_string(&aside).unwrap(), "gen 0\ngen 1\n");
        let reloaded = TraceLog::persisted_with_ring(path.clone(), 0);
        assert_eq!(
            reloaded.wait_from(0, Duration::ZERO).0,
            vec!["trace-v1 gen 0"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_logs_close_their_spill() {
        let dir = std::env::temp_dir().join("clre-serve-session-finish");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let _ = fs::remove_file(&path);
        let log = TraceLog::persisted_with_ring(path.clone(), 0);
        log.push("trace-v1 a");
        log.finish(CampaignOutcome::Parked { generation: 1 });
        assert!(
            log.spill.lock().unwrap().is_none(),
            "no file handle outlives the run"
        );
        // The closed spill still serves disk replay.
        assert_eq!(TraceLog::persisted_with_ring(path.clone(), 0).len(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn ring_cap_bounds_memory_and_replays_evicted_lines_from_disk() {
        let dir = std::env::temp_dir().join("clre-serve-session-ring");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let _ = fs::remove_file(&path);
        let log = TraceLog::persisted_with_ring(path.clone(), 3);
        for i in 0..10 {
            log.push(&format!("gen {i}"));
        }
        assert_eq!(log.len(), 10, "indices are global, not ring-relative");
        {
            let s = log.state.lock().unwrap();
            assert_eq!(s.lines.len(), 3, "memory bounded by the ring");
            assert_eq!(s.start, 7);
        }
        // A tail inside the ring serves from memory.
        let (lines, _) = log.wait_from(8, Duration::ZERO);
        assert_eq!(lines, vec!["gen 8", "gen 9"]);
        // A tail older than the ring replays the evicted prefix from the
        // sidecar and continues seamlessly into the ring.
        let (lines, outcome) = log.wait_from(5, Duration::ZERO);
        let expected: Vec<String> = (5..10).map(|i| format!("gen {i}")).collect();
        assert_eq!(lines, expected);
        assert_eq!(outcome, None, "not sealed yet");
        log.finish(CampaignOutcome::Parked { generation: 9 });
        let (lines, outcome) = log.wait_from(0, Duration::ZERO);
        assert_eq!(lines.len(), 10, "full replay from line zero");
        assert!(outcome.is_some(), "drained reader sees the seal");

        // A restart with the same ring keeps indices stable and loads
        // only the newest lines into memory.
        let reloaded = TraceLog::persisted_with_ring(path.clone(), 3);
        assert_eq!(reloaded.len(), 10);
        assert_eq!(reloaded.state.lock().unwrap().lines.len(), 3);
        let (lines, _) = reloaded.wait_from(9, Duration::ZERO);
        assert_eq!(lines, vec!["gen 9"]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn log_writer_splits_byte_stream_into_lines() {
        use std::io::Write as _;
        let log = Arc::new(TraceLog::new());
        let mut w = LogWriter::new(Arc::clone(&log));
        w.write_all(b"trace-v1 part").unwrap();
        assert_eq!(log.len(), 0, "incomplete line buffered");
        w.write_all(b"ial\ntrace-v1 next\ntr").unwrap();
        let (lines, _) = log.wait_from(0, Duration::ZERO);
        assert_eq!(lines, vec!["trace-v1 partial", "trace-v1 next"]);
    }

    #[test]
    fn admission_enforces_quota_then_capacity() {
        let policy = Admission {
            max_active: 3,
            max_per_tenant: 2,
        };
        assert_eq!(policy.admit(0, 0), Ok(()));
        assert_eq!(policy.admit(2, 2), Err("tenant-quota"));
        assert_eq!(policy.admit(3, 1), Err("server-busy"));
        assert_eq!(
            policy.admit(3, 3),
            Err("tenant-quota"),
            "quota outranks capacity in the report"
        );
    }

    #[test]
    fn registry_counts_follow_outcomes() {
        let reg = Registry::new();
        let a = entry("alpha", "c1");
        let b = entry("alpha", "c2");
        let c = entry("beta", "c7");
        reg.insert(Arc::clone(&a));
        reg.insert(Arc::clone(&b));
        reg.insert(Arc::clone(&c));
        assert_eq!(reg.active_counts("alpha"), (3, 2));
        assert_eq!(reg.max_sequence(), 7);
        assert_eq!(reg.tenant_count(), 2);

        b.log.finish(CampaignOutcome::Done(DoneSummary {
            digest: 1,
            points: 1,
            evaluations: 1,
        }));
        c.log.finish(CampaignOutcome::Parked { generation: 2 });
        assert_eq!(reg.active_counts("alpha"), (1, 1));
        assert_eq!(reg.outcome_counts(), (1, 1, 1, 0));
        assert!(reg.get("beta", "c7").is_some());
        assert!(reg.get("beta", "c1").is_none(), "tenant scoped");
    }
}
