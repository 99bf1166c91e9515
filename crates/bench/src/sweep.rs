//! Append-only sweep ledger: per-cell memoization for the system-level
//! experiment grids.
//!
//! Every `(experiment, task-count, method)` grid cell of the system
//! sweeps is keyed, computed through the Campaign runner, and journalled
//! to a sidecar [`RecordLog`] as one sealed line. A killed `experiments`
//! run restarted with the same `--ledger` file replays the finished
//! cells from the journal — bit-exact, since objectives round-trip as
//! IEEE-754 bit patterns — and resumes computing at the first missing
//! cell. `--halt-after-cells N` bounds how many cells one invocation may
//! compute; it is the deterministic stand-in for `kill -9` used by the
//! CI sweep-resume leg.
//!
//! A process killed mid-write leaves a torn final line: the loader skips
//! it and cuts it off before the next cell is journalled. Each cell
//! reaches the file before the next one starts. Re-recorded cells simply
//! append; the latest occurrence of a key wins.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use clre::journal::{seal, RecordLog};

/// First line of every ledger file (v2: every cell line is sealed).
pub const LEDGER_HEADER: &str = "clrearly-sweep v2";

/// Report line appended when a sweep stops early because the cell budget
/// ran out (see [`configure`]).
pub const HALT_LINE: &str = "# sweep halted: cell budget exhausted\n";

/// The memoized outcome of one grid cell: the front's objective vectors
/// (in front order) and the evaluation count that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct CellData {
    /// Fitness evaluations the cell's campaign spent.
    pub evaluations: usize,
    /// Objective vectors of the cell's final front, in front order.
    pub objectives: Vec<Vec<f64>>,
}

/// A sweep ledger bound to a sidecar journal file.
#[derive(Debug, Default)]
pub struct SweepLedger {
    /// The journal; `None` for an in-memory ledger.
    log: Option<RecordLog>,
    cells: HashMap<String, CellData>,
    /// How many cells this ledger may compute (cached replays are free);
    /// past it, [`SweepLedger::cell_with`] returns `None` for new keys.
    halt_after: Option<usize>,
    computed: usize,
    halted: bool,
}

impl SweepLedger {
    /// Opens (or creates) the journal at `path` and loads every finished
    /// cell. Malformed lines — the torn tail of a killed run, or
    /// corruption — are skipped; for duplicate keys the latest line wins.
    ///
    /// # Errors
    ///
    /// I/O failure, or a first line that is not [`LEDGER_HEADER`] (the
    /// file is some other format — refuse rather than misparse).
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut cells = HashMap::new();
        let (log, _skipped) = RecordLog::open(path, LEDGER_HEADER, |line| {
            parse_cell(line).map(|(k, d)| cells.insert(k, d)).is_some()
        })?;
        Ok(SweepLedger {
            log: Some(log),
            cells,
            ..SweepLedger::default()
        })
    }

    /// Whether a cell was refused because the compute budget ran out.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Replays `key` from the journal, or computes it via `compute` and
    /// journals the result. Returns `None` — without computing — once
    /// the halt budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains whitespace (it must survive a
    /// whitespace-split journal line) or if the journal append fails.
    fn cell_with(&mut self, key: &str, compute: impl FnOnce() -> CellData) -> Option<CellData> {
        assert!(
            !key.contains(char::is_whitespace),
            "sweep cell key {key:?} must be whitespace-free"
        );
        if let Some(hit) = self.cells.get(key) {
            return Some(hit.clone());
        }
        if self.halt_after.is_some_and(|limit| self.computed >= limit) {
            self.halted = true;
            return None;
        }
        let data = compute();
        self.computed += 1;
        if let Some(log) = &mut self.log {
            log.append(&seal(encode_cell(key, &data)))
                .and_then(|()| log.flush())
                .unwrap_or_else(|e| panic!("sweep ledger append failed: {e}"));
        }
        self.cells.insert(key.to_owned(), data.clone());
        Some(data)
    }
}

/// One journal record body (sealed on append):
/// `cell <key> <evaluations> <points> <arity> <hex>*` with every
/// objective as an IEEE-754 bit pattern (exact round-trip).
fn encode_cell(key: &str, data: &CellData) -> String {
    let arity = data.objectives.first().map_or(0, Vec::len);
    let mut line = format!(
        "cell {key} {} {} {arity}",
        data.evaluations,
        data.objectives.len()
    );
    for point in &data.objectives {
        debug_assert_eq!(point.len(), arity, "ragged objective vectors");
        for &v in point {
            let _ = write!(line, " {:016x}", v.to_bits());
        }
    }
    line
}

fn parse_cell(line: &str) -> Option<(String, CellData)> {
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("cell") {
        return None;
    }
    let key = tokens.next()?.to_owned();
    let evaluations: usize = tokens.next()?.parse().ok()?;
    let points: usize = tokens.next()?.parse().ok()?;
    let arity: usize = tokens.next()?.parse().ok()?;
    let mut objectives = Vec::with_capacity(points);
    for _ in 0..points {
        let mut point = Vec::with_capacity(arity);
        for _ in 0..arity {
            // Exactly 16 hex digits: a line torn inside its last token
            // must not parse as a shorter bit pattern.
            let tok = tokens.next().filter(|tok| tok.len() == 16)?;
            let bits = u64::from_str_radix(tok, 16).ok()?;
            point.push(f64::from_bits(bits));
        }
        objectives.push(point);
    }
    if tokens.next().is_some() {
        return None; // trailing garbage: treat the line as torn
    }
    Some((
        key,
        CellData {
            evaluations,
            objectives,
        },
    ))
}

static ACTIVE: Mutex<Option<SweepLedger>> = Mutex::new(None);

/// Activates a process-wide ledger at `path` for every subsequent
/// [`cell`] call; `halt_after` optionally bounds the number of cells the
/// process may compute before [`cell`] starts refusing work.
///
/// # Errors
///
/// As for [`SweepLedger::open`].
pub fn configure(path: &Path, halt_after: Option<usize>) -> io::Result<()> {
    let mut ledger = SweepLedger::open(path)?;
    ledger.halt_after = halt_after;
    *ACTIVE.lock().expect("sweep ledger poisoned") = Some(ledger);
    Ok(())
}

/// Whether the active ledger refused a cell for lack of compute budget.
pub fn halted() -> bool {
    ACTIVE
        .lock()
        .expect("sweep ledger poisoned")
        .as_ref()
        .is_some_and(SweepLedger::halted)
}

/// Runs one grid cell through the active ledger: replay if journalled,
/// compute-and-journal otherwise, `None` once the halt budget is spent.
/// Without an active ledger this is a plain passthrough to `compute`.
pub fn cell(key: &str, compute: impl FnOnce() -> CellData) -> Option<CellData> {
    let mut guard = ACTIVE.lock().expect("sweep ledger poisoned");
    match guard.as_mut() {
        Some(ledger) => ledger.cell_with(key, compute),
        None => {
            drop(guard); // don't serialize unledgered runs
            Some(compute())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn sample(seed: f64) -> CellData {
        CellData {
            evaluations: 144,
            objectives: vec![vec![seed, 0.25], vec![seed * 0.5, 0.75]],
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clre-sweep-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The sealed line a ledger journals for one cell, newline included.
    fn journal_line(key: &str, data: &CellData) -> String {
        static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = temp_path(&format!("line-{}-{n}.sweep", std::process::id()));
        let _ = fs::remove_file(&path);
        let mut ledger = SweepLedger::open(&path).unwrap();
        ledger.cell_with(key, || data.clone()).unwrap();
        drop(ledger);
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        format!("{}\n", text.lines().nth(1).unwrap())
    }

    #[test]
    fn cells_roundtrip_through_the_journal() {
        let path = temp_path("roundtrip.sweep");
        let _ = fs::remove_file(&path);
        let mut ledger = SweepLedger::open(&path).unwrap();
        let a = sample(1.5);
        let b = CellData {
            evaluations: 7,
            objectives: Vec::new(),
        };
        assert_eq!(ledger.cell_with("t/a", || a.clone()), Some(a.clone()));
        assert_eq!(ledger.cell_with("t/b", || b.clone()), Some(b.clone()));
        assert_eq!(ledger.computed, 2);

        let reopened = SweepLedger::open(&path).unwrap();
        assert_eq!(reopened.cells.get("t/a"), Some(&a));
        assert_eq!(reopened.cells.get("t/b"), Some(&b));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(LEDGER_HEADER));
    }

    #[test]
    fn cached_cells_do_not_recompute() {
        let path = temp_path("cached.sweep");
        let _ = fs::remove_file(&path);
        let mut ledger = SweepLedger::open(&path).unwrap();
        ledger.cell_with("t/a", || sample(2.0)).unwrap();
        let mut reopened = SweepLedger::open(&path).unwrap();
        let hit = reopened
            .cell_with("t/a", || panic!("must replay, not recompute"))
            .unwrap();
        assert_eq!(hit, sample(2.0));
        assert_eq!(reopened.computed, 0);
    }

    #[test]
    fn torn_tail_and_duplicates_are_handled() {
        let path = temp_path("torn.sweep");
        let mut text = format!("{LEDGER_HEADER}\n");
        text.push_str(&journal_line("t/a", &sample(1.0)));
        text.push_str(&journal_line("t/a", &sample(9.0)));
        // A kill mid-write leaves a truncated final line.
        let torn = journal_line("t/b", &sample(3.0));
        text.push_str(&torn[..torn.len() / 2]);
        fs::write(&path, text).unwrap();

        let ledger = SweepLedger::open(&path).unwrap();
        assert_eq!(ledger.cells.get("t/a"), Some(&sample(9.0)), "latest wins");
        assert_eq!(ledger.cells.get("t/b"), None, "torn tail skipped");
    }

    #[test]
    fn every_cut_of_a_line_is_rejected_or_exact() {
        let line = encode_cell("t/a", &sample(1.0));
        let whole = Some(("t/a".to_owned(), sample(1.0)));
        for cut in 0..=line.len() {
            let parsed = parse_cell(&line[..cut]);
            assert!(
                parsed.is_none() || parsed == whole,
                "cut at {cut} parsed as {parsed:?}"
            );
        }
        assert_eq!(parse_cell(&line), whole);
    }

    #[test]
    fn torn_duplicate_never_replaces_a_good_cell() {
        let path = temp_path("torn-duplicate.sweep");
        let line = journal_line("t/a", &sample(9.0));
        for cut in 0..line.len() {
            let mut text = format!("{LEDGER_HEADER}\n");
            text.push_str(&journal_line("t/a", &sample(1.0)));
            text.push_str(&line[..cut]);
            fs::write(&path, text).unwrap();
            let ledger = SweepLedger::open(&path).unwrap();
            assert_eq!(ledger.cells.get("t/a"), Some(&sample(1.0)), "cut at {cut}");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_cut_of_the_last_cell_replays_nothing_or_all_and_the_next_cell_survives() {
        let path = temp_path("cuts.sweep");
        let first = journal_line("t/a", &sample(1.0));
        let last = journal_line("t/b", &sample(2.0));
        let prefix = format!("{LEDGER_HEADER}\n{first}");
        for cut in 0..=last.len() {
            fs::write(&path, format!("{prefix}{}", &last[..cut])).unwrap();
            let mut ledger = SweepLedger::open(&path).unwrap();
            assert_eq!(ledger.cells.get("t/a"), Some(&sample(1.0)));
            let whole = cut == last.len();
            assert_eq!(
                ledger.cells.get("t/b").cloned(),
                whole.then(|| sample(2.0)),
                "cut at {cut}"
            );
            ledger.cell_with("t/c", || sample(3.0)).unwrap();
            drop(ledger);

            let mut replay = SweepLedger::open(&path).unwrap();
            replay.halt_after = Some(0);
            assert_eq!(
                replay.cell_with("t/c", || panic!("must replay")),
                Some(sample(3.0)),
                "the cell journalled after a cut at {cut} was lost"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn halt_budget_refuses_uncached_cells_only() {
        let path = temp_path("halt.sweep");
        let _ = fs::remove_file(&path);
        let mut warm = SweepLedger::open(&path).unwrap();
        warm.cell_with("t/a", || sample(1.0)).unwrap();

        let mut ledger = SweepLedger::open(&path).unwrap();
        ledger.halt_after = Some(1);
        assert!(!ledger.halted());
        // Cached replay is free; one compute fits the budget; then halt.
        assert!(ledger.cell_with("t/a", || panic!("cached")).is_some());
        assert!(ledger.cell_with("t/b", || sample(2.0)).is_some());
        assert!(ledger.cell_with("t/c", || sample(3.0)).is_none());
        assert!(ledger.halted());
        // Cached keys keep replaying even after the halt.
        assert!(ledger.cell_with("t/b", || panic!("cached")).is_some());
    }

    #[test]
    fn rejects_foreign_files() {
        let path = temp_path("foreign.sweep");
        fs::write(&path, "not a ledger\n").unwrap();
        assert!(SweepLedger::open(&path).is_err());
    }

    #[test]
    fn keys_must_be_whitespace_free() {
        let mut ledger = SweepLedger::default();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ledger.cell_with("bad key", || sample(0.0))
        }));
        assert!(err.is_err());
    }
}
