//! One append-only record log behind the evaluation-cache journal, the
//! sweep ledger, the quarantine sidecar and the server's trace spill.
//!
//! A log file is a header line naming its format and version, then one
//! record per line, each sealed with ` i=<hex>`: the FNV-1a digest of the
//! bytes before it. Reading replays every record whose seal verifies and
//! counts the rest as skipped, so a torn write or a bit flip costs one
//! record, never a wrong one. A foreign file is refused or set aside.
//!
//! A process killed mid-write leaves a torn tail (bytes after the last
//! newline). [`RecordLog::open`] cuts it off, so the next record starts a
//! line of its own instead of gluing onto the fragment. Appends are
//! buffered: each owner picks its flush points, and dropping the log
//! flushes it.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read as _, Write as _};
use std::path::Path;

use clre_num::digest::Fnv;

/// One sealed, newline-terminated record line. Sealing is pure, so a
/// caller may seal outside the lock that guards its [`RecordLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed(String);

/// Seals a one-line record body.
pub fn seal(mut body: String) -> Sealed {
    debug_assert!(!body.contains('\n'), "a record body is one line");
    let digest = Fnv::hash_bytes(body.as_bytes());
    let _ = writeln!(body, " i={digest:016x}");
    Sealed(body)
}

/// The body of a sealed line whose seal verifies.
fn verify(line: &[u8]) -> Option<&str> {
    let (body, token) = std::str::from_utf8(line).ok()?.rsplit_once(" i=")?;
    let digest = u64::from_str_radix(token, 16).ok()?;
    (token.len() == 16 && Fnv::hash_bytes(body.as_bytes()) == digest).then_some(body)
}

/// A record log open for appending.
#[derive(Debug)]
pub struct RecordLog {
    out: BufWriter<File>,
}

impl RecordLog {
    /// Opens the log at `path`, creating it, its missing parent
    /// directories and its `header` line if needed. Each verified record
    /// is passed to `each` in file order, then a torn tail is cut off.
    /// Returns the log and the number of records skipped: failed seals,
    /// the torn tail, and records `each` answers `false` for.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`io::ErrorKind::InvalidData`] when the first line
    /// is not `header` (the file is then left untouched).
    pub fn open(
        path: &Path,
        header: &str,
        each: impl FnMut(&str) -> bool,
    ) -> io::Result<(Self, usize)> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (complete, skipped) = scan(path, &bytes, header, each)?;
        if complete < bytes.len() {
            file.set_len(complete as u64)?;
        }
        if complete == 0 {
            file.write_all(format!("{header}\n").as_bytes())?;
        }
        let out = BufWriter::new(file);
        Ok((RecordLog { out }, skipped))
    }

    /// As [`RecordLog::open`], but a foreign file (a headerless log of an
    /// older version, say) is first moved aside to `<path>.foreign` and
    /// counts as one skipped record.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn open_or_set_aside(
        path: &Path,
        header: &str,
        mut each: impl FnMut(&str) -> bool,
    ) -> io::Result<(Self, usize)> {
        match RecordLog::open(path, header, &mut each) {
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let mut aside = path.as_os_str().to_owned();
                aside.push(".foreign");
                fs::rename(path, aside)?;
                RecordLog::open(path, header, each).map(|(log, skipped)| (log, skipped + 1))
            }
            opened => opened,
        }
    }

    /// Reads the log at `path` as [`RecordLog::open`] does, but creates,
    /// cuts and opens nothing; a missing file is zero records.
    ///
    /// # Errors
    ///
    /// As for [`RecordLog::open`].
    pub fn replay(path: &Path, header: &str, each: impl FnMut(&str) -> bool) -> io::Result<usize> {
        match fs::read(path) {
            Ok(bytes) => scan(path, &bytes, header, each).map(|(_, skipped)| skipped),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Buffers one record.
    ///
    /// # Errors
    ///
    /// I/O failure when the buffer writes through.
    pub fn append(&mut self, record: &Sealed) -> io::Result<()> {
        self.out.write_all(record.0.as_bytes())
    }

    /// Writes the buffered records through to the file.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Checks the header and replays the records of `bytes`. Returns the
/// length up to the last newline (0 if not even the header is complete)
/// and the skipped count.
fn scan(
    path: &Path,
    bytes: &[u8],
    header: &str,
    mut each: impl FnMut(&str) -> bool,
) -> io::Result<(usize, usize)> {
    let complete = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |at| at + 1);
    let mut lines = bytes[..complete].split(|&b| b == b'\n');
    let torn_header = complete == 0 && header.as_bytes().starts_with(bytes);
    if !torn_header && lines.next() != Some(header.as_bytes()) {
        let what = format!("{} is not a {header:?} log", path.display());
        return Err(io::Error::new(io::ErrorKind::InvalidData, what));
    }
    let mut skipped = usize::from(complete > 0 && complete < bytes.len());
    for line in lines.filter(|line| !line.is_empty()) {
        skipped += usize::from(!verify(line).is_some_and(&mut each));
    }
    Ok((complete, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const HEADER: &str = "clrearly-test v1";

    impl Sealed {
        /// The sealed line, newline included (tests build files from it).
        pub(crate) fn as_str(&self) -> &str {
            &self.0
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clre-journal-tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        path
    }

    fn read_all(path: &Path) -> (Vec<String>, usize) {
        let mut records = Vec::new();
        let skipped = RecordLog::replay(path, HEADER, |body| {
            records.push(body.to_owned());
            true
        })
        .unwrap();
        (records, skipped)
    }

    fn write_records(path: &Path, bodies: &[&str]) {
        let (mut log, _) = RecordLog::open(path, HEADER, |_| true).unwrap();
        for body in bodies {
            log.append(&seal((*body).to_owned())).unwrap();
        }
    }

    #[test]
    fn new_logs_get_a_header_and_their_parent_directories() {
        let dir = std::env::temp_dir()
            .join("clre-journal-tests")
            .join("fresh-parent");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("deep").join("log.txt");
        write_records(&path, &["a", "b c"]);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&format!("{HEADER}\n")));
        assert_eq!(text.lines().count(), 3);
        assert_eq!(read_all(&path), (vec!["a".to_owned(), "b c".to_owned()], 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_headers_are_refused_and_left_untouched() {
        let path = temp_path("foreign.log");
        fs::write(&path, "clrearly-other v1\nrecord\n").unwrap();
        let err = RecordLog::open(&path, HEADER, |_| true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = RecordLog::replay(&path, HEADER, |_| true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "clrearly-other v1\nrecord\n"
        );
        // Bytes with no newline that are not a torn header are foreign too.
        fs::write(&path, "garbage").unwrap();
        assert!(RecordLog::open(&path, HEADER, |_| true).is_err());
    }

    #[test]
    fn foreign_files_can_be_set_aside_for_a_new_log() {
        let path = temp_path("aside.log");
        let aside = path.with_extension("log.foreign");
        fs::write(&path, "a headerless line\n").unwrap();
        let (mut log, skipped) = RecordLog::open_or_set_aside(&path, HEADER, |_| true).unwrap();
        assert_eq!(skipped, 1, "the foreign file counts as one skipped record");
        log.append(&seal("fresh".to_owned())).unwrap();
        drop(log);
        assert_eq!(read_all(&path), (vec!["fresh".to_owned()], 0));
        assert_eq!(fs::read_to_string(&aside).unwrap(), "a headerless line\n");
        // A log of this format opens as usual and is not moved.
        let (_, skipped) = RecordLog::open_or_set_aside(&path, HEADER, |_| true).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(read_all(&path).0, vec!["fresh".to_owned()]);
        fs::remove_file(&aside).unwrap();
    }

    #[test]
    fn a_torn_header_starts_the_log_over() {
        let path = temp_path("torn-header.log");
        fs::write(&path, &HEADER[..5]).unwrap();
        write_records(&path, &["x"]);
        assert_eq!(read_all(&path), (vec!["x".to_owned()], 0));
    }

    #[test]
    fn seals_catch_bit_flips_and_missing_tokens() {
        let path = temp_path("flips.log");
        write_records(&path, &["keep", "flip me"]);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 25; // inside the last record's body
        bytes[at] ^= 0x01;
        bytes.extend_from_slice(b"unsealed line\nbad i=zz\n\n");
        fs::write(&path, &bytes).unwrap();
        // Blank lines are not records; the rest fail their seals.
        assert_eq!(read_all(&path), (vec!["keep".to_owned()], 3));
    }

    #[test]
    fn rejected_bodies_count_as_skipped() {
        let path = temp_path("rejected.log");
        write_records(&path, &["old-kind 1", "new-kind 2"]);
        let skipped = RecordLog::replay(&path, HEADER, |body| body.starts_with("new")).unwrap();
        assert_eq!(skipped, 1);
    }

    #[test]
    fn replay_of_a_missing_file_is_empty_and_creates_nothing() {
        let path = temp_path("absent.log");
        assert_eq!(read_all(&path), (Vec::new(), 0));
        assert!(!path.exists());
    }

    #[test]
    fn every_cut_replays_nothing_or_the_whole_record_and_the_next_append_survives() {
        let path = temp_path("cuts.log");
        write_records(&path, &["first record", "last record"]);
        let whole = fs::read(&path).unwrap();
        let last_start = whole[..whole.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in last_start..=whole.len() {
            fs::write(&path, &whole[..cut]).unwrap();
            let (records, skipped) = read_all(&path);
            let expected: &[&str] = if cut == whole.len() {
                &["first record", "last record"]
            } else {
                &["first record"]
            };
            assert_eq!(records, expected, "cut at {cut}");
            assert_eq!(skipped, usize::from(cut > last_start && cut < whole.len()));

            write_records(&path, &["appended"]);
            let (records, _) = read_all(&path);
            assert_eq!(
                records.last().map(String::as_str),
                Some("appended"),
                "cut at {cut}"
            );
            assert_eq!(records.len(), expected.len() + 1, "cut at {cut}");
        }
    }

    #[test]
    fn dropping_the_log_flushes_it() {
        let path = temp_path("drop.log");
        let (mut log, _) = RecordLog::open(&path, HEADER, |_| true).unwrap();
        log.append(&seal("buffered".to_owned())).unwrap();
        assert_eq!(read_all(&path).0, Vec::<String>::new(), "still buffered");
        log.flush().unwrap();
        assert_eq!(read_all(&path).0, vec!["buffered".to_owned()]);
    }
}
