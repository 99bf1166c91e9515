//! Append-only sweep ledger: per-cell memoization for the system-level
//! experiment grids.
//!
//! Every `(experiment, task-count, method)` grid cell of the system
//! sweeps is keyed, computed through the Campaign runner, and journalled
//! to a sidecar file as one self-contained line. A killed `experiments`
//! run restarted with the same `--ledger` file replays the finished
//! cells from the journal — bit-exact, since objectives round-trip as
//! IEEE-754 bit patterns — and resumes computing at the first missing
//! cell. `--halt-after-cells N` bounds how many cells one invocation may
//! compute; it is the deterministic stand-in for `kill -9` used by the
//! CI sweep-resume leg.
//!
//! The journal is tolerant of torn tails: a process killed mid-write
//! leaves at most one malformed final line, which the loader skips.
//! Re-recorded cells simply append; the latest occurrence of a key wins.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First line of every ledger file.
pub const LEDGER_HEADER: &str = "clrearly-sweep v1";

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
    path: Option<PathBuf>,
    cells: HashMap<String, CellData>,
    /// How many cells this ledger may compute (cached replays are free);
    /// past it, [`SweepLedger::cell_with`] returns `None` for new keys.
    halt_after: Option<usize>,
    computed: usize,
    halted: bool,
}

impl SweepLedger {
    /// Opens (or creates) the journal at `path` and loads every finished
    /// cell. Malformed lines — at most the torn tail of a killed run —
    /// are skipped; for duplicate keys the latest line wins.
    ///
    /// # Errors
    ///
    /// I/O failure, or a first line that is not [`LEDGER_HEADER`] (the
    /// file is some other format — refuse rather than misparse).
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut ledger = SweepLedger {
            path: Some(path.to_path_buf()),
            ..SweepLedger::default()
        };
        match fs::read_to_string(path) {
            Ok(text) => {
                let mut lines = text.lines();
                match lines.next() {
                    None => {}
                    Some(first) if first == LEDGER_HEADER => {
                        for line in lines {
                            if let Some((key, data)) = parse_cell(line) {
                                ledger.cells.insert(key, data);
                            }
                        }
                    }
                    Some(first) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("not a sweep ledger (header {first:?})"),
                        ));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(ledger)
    }

    /// Whether a cell was refused because the compute budget ran out.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of cells computed (not replayed) through this ledger.
    pub fn computed(&self) -> usize {
        self.computed
    }

    /// The finished cell for `key`, if the journal has one.
    pub fn lookup(&self, key: &str) -> Option<&CellData> {
        self.cells.get(key)
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
        self.append(key, &data)
            .unwrap_or_else(|e| panic!("sweep ledger append failed: {e}"));
        self.cells.insert(key.to_owned(), data.clone());
        Some(data)
    }

    /// Appends one finished cell to the journal (writing the header
    /// first when the file is new or empty). In-memory ledgers (no
    /// path) skip the write.
    fn append(&self, key: &str, data: &CellData) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if file.metadata()?.len() == 0 {
            writeln!(file, "{LEDGER_HEADER}")?;
        }
        writeln!(file, "{}", encode_cell(key, data))?;
        Ok(())
    }
}

/// One journal line: `cell <key> <evaluations> <points> <arity> <hex>*`
/// with every objective as an IEEE-754 bit pattern (exact round-trip).
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
        assert_eq!(ledger.computed(), 2);

        let reopened = SweepLedger::open(&path).unwrap();
        assert_eq!(reopened.lookup("t/a"), Some(&a));
        assert_eq!(reopened.lookup("t/b"), Some(&b));
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
        assert_eq!(reopened.computed(), 0);
    }

    #[test]
    fn torn_tail_and_duplicates_are_handled() {
        let path = temp_path("torn.sweep");
        let mut text = format!("{LEDGER_HEADER}\n");
        text.push_str(&encode_cell("t/a", &sample(1.0)));
        text.push('\n');
        text.push_str(&encode_cell("t/a", &sample(9.0)));
        text.push('\n');
        // A kill mid-write leaves a truncated final line.
        let torn = encode_cell("t/b", &sample(3.0));
        text.push_str(&torn[..torn.len() / 2]);
        fs::write(&path, text).unwrap();

        let ledger = SweepLedger::open(&path).unwrap();
        assert_eq!(ledger.lookup("t/a"), Some(&sample(9.0)), "latest wins");
        assert_eq!(ledger.lookup("t/b"), None, "torn tail skipped");
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
        let line = encode_cell("t/a", &sample(9.0));
        for cut in 0..line.len() {
            let mut text = format!("{LEDGER_HEADER}\n");
            text.push_str(&encode_cell("t/a", &sample(1.0)));
            text.push('\n');
            text.push_str(&line[..cut]);
            fs::write(&path, text).unwrap();
            let ledger = SweepLedger::open(&path).unwrap();
            assert_eq!(ledger.lookup("t/a"), Some(&sample(1.0)), "cut at {cut}");
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
