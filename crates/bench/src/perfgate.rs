//! Performance trend gate over the bench reports.
//!
//! CI runs a bench and diffs its fresh report against a committed
//! baseline with `experiments perfgate --baseline --current`. One table,
//! `GATES`, holds a row per gated bench: the fields that identify a
//! cell, the timings the gate watches, the fields that must equal the
//! baseline and the flags that must be `true`. For every baseline cell:
//!
//! * each timing must stay under `max(2 × baseline, baseline + 500 µs)`.
//!   The 2× factor absorbs runner-to-runner noise; the 500 µs floor keeps
//!   sub-millisecond cells from tripping on scheduler jitter;
//! * each pinned field (a front digest) must equal the baseline's, so a
//!   faster kernel or solver cannot silently change an answer;
//! * each flag (backend agreement) must read `true` in the current report.
//!
//! A cell present in only one report, a missing field, an unknown or
//! mismatched `"bench"` name, or a baseline that is the current file are
//! hard errors, never silent passes. The reports are read with
//! `report::parse_report`, the inverse of the [`BenchReport`] layout
//! every bench writes.
//!
//! [`BenchReport`]: crate::report::BenchReport

use std::path::Path;

use crate::report::{parse_report, Cells};

/// Absolute slack in microseconds added on top of the 2× ratio.
const ABSOLUTE_SLACK_US: u64 = 500;

/// What the gate checks in one bench's reports.
struct Gate {
    /// The report's `"bench"` name.
    bench: &'static str,
    /// The fields that identify a cell across the two reports.
    id: &'static [&'static str],
    /// Timings held to the allowance.
    timings: &'static [&'static str],
    /// Fields that must equal the baseline's.
    equal: &'static [&'static str],
    /// Fields that must be `true` in the current report.
    flags: &'static [&'static str],
}

/// One row per gated bench. Oracle timings (`sort_naive_us`,
/// `truncate_naive_us`) and the full-rebuild reference `dist_refill_us`
/// are deliberately ungated: they validate results, and their cost is
/// not a product property.
const GATES: [Gate; 3] = [
    Gate {
        bench: "moea_kernels",
        id: &["n", "m"],
        timings: &[
            "sort_ens_us",
            "crowding_us",
            "truncate_cached_us",
            "hv_us",
            "truncate_incremental_us",
            "dist_update_us",
        ],
        equal: &[],
        flags: &[],
    },
    Gate {
        bench: "scenarios",
        id: &["scenario"],
        timings: &["chain_analysis_us"],
        equal: &["proposed_digest", "agnostic_digest"],
        flags: &[],
    },
    Gate {
        bench: "islands",
        id: &["plan", "islands"],
        timings: &["campaign_us"],
        equal: &["inprocess_digest"],
        flags: &["digest_match"],
    },
];

/// What a baseline value allows the current value to reach.
fn limit(baseline_us: u64) -> u64 {
    (2 * baseline_us).max(baseline_us + ABSOLUTE_SLACK_US)
}

/// The value of `key` in `cell`, or an error naming the cell.
fn field<'a>(
    cell: &[(&str, &'a str)],
    key: &str,
    label: &str,
    id: &str,
) -> Result<&'a str, String> {
    cell.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("{label}: cell {id} has no {key:?} field"))
}

impl Gate {
    /// The cell's identifying fields, rendered `key=value ...`.
    fn id(&self, cell: &[(&str, &str)], label: &str) -> Result<String, String> {
        let parts = self
            .id
            .iter()
            .map(|key| Ok(format!("{key}={}", field(cell, key, label, "?")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(parts.join(" "))
    }

    /// Diffs the current cells against the baseline's. `Err` is a
    /// malformed or shrunk report; `Ok` lists the failed checks, each as
    /// `cell: what`.
    fn check(&self, base: &Cells, cur: &Cells) -> Result<Vec<String>, String> {
        if base.is_empty() {
            return Err("baseline: no cells found".to_owned());
        }
        let cur_ids = cur
            .iter()
            .map(|c| self.id(c, "current"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut regressions = Vec::new();
        for b in base {
            let id = self.id(b, "baseline")?;
            let c = cur_ids
                .iter()
                .position(|cid| *cid == id)
                .map(|i| &cur[i])
                .ok_or_else(|| format!("current report lost cell {id}"))?;
            let mut fail = |what: String| regressions.push(format!("{id}: {what}"));
            for key in self.timings {
                let us = |cell, label| {
                    field(cell, key, label, &id)?
                        .parse::<u64>()
                        .map_err(|_| format!("{label}: cell {id} has a non-integer {key:?}"))
                };
                let (base_us, cur_us) = (us(b, "baseline")?, us(c, "current")?);
                let limit_us = limit(base_us);
                if cur_us > limit_us {
                    fail(format!(
                        "{key}: {base_us}us -> {cur_us}us (limit {limit_us}us)"
                    ));
                }
            }
            for key in self.equal {
                let (was, now) = (
                    field(b, key, "baseline", &id)?,
                    field(c, key, "current", &id)?,
                );
                if was != now {
                    fail(format!("{key}: {was} -> {now} (must equal the baseline)"));
                }
            }
            for key in self.flags {
                let now = field(c, key, "current", &id)?;
                if now != "true" {
                    fail(format!("{key} is {now} (must be true)"));
                }
            }
        }
        if cur.len() != base.len() {
            return Err(format!(
                "cell count changed: baseline {} vs current {}",
                base.len(),
                cur.len()
            ));
        }
        Ok(regressions)
    }
}

/// File-level entry point for the `experiments perfgate` subcommand:
/// reads both reports, picks the `GATES` row their `"bench"` name
/// names, and renders a human-readable verdict. `Ok` = gate passed
/// (report text), `Err` = regressions or unreadable input (the caller
/// exits non-zero). A baseline and current that resolve to the same file
/// are an error: such a gate compares a report with itself and can never
/// trip.
pub fn gate_files(baseline: &Path, current: &Path) -> Result<String, String> {
    let (b_name, c_name) = (baseline.display(), current.display());
    if let (Ok(b), Ok(c)) = (baseline.canonicalize(), current.canonicalize()) {
        if b == c {
            return Err(format!(
                "baseline and current are the same file ({}); compare against a committed baseline\n",
                b.display()
            ));
        }
    }
    let base_text =
        std::fs::read_to_string(baseline).map_err(|e| format!("reading baseline {b_name}: {e}"))?;
    let cur_text =
        std::fs::read_to_string(current).map_err(|e| format!("reading current {c_name}: {e}"))?;
    let (bench, base) = parse_report(&base_text).map_err(|e| format!("baseline {b_name}: {e}"))?;
    let (cur_bench, cur) = parse_report(&cur_text).map_err(|e| format!("current {c_name}: {e}"))?;
    if bench != cur_bench {
        return Err(format!(
            "baseline {b_name} is bench {bench:?} but current {c_name} is bench {cur_bench:?}\n"
        ));
    }
    let gate = GATES.iter().find(|g| g.bench == bench).ok_or_else(|| {
        format!("no gate for {bench:?} reports (baseline {b_name}, current {c_name})\n")
    })?;
    let regressions = gate.check(&base, &cur)?;
    if regressions.is_empty() {
        return Ok(format!(
            "perfgate: ok — {} {bench} cells within max(2x, +{ABSOLUTE_SLACK_US}us) of {b_name}, \
             pinned fields equal, flags true\n",
            base.len()
        ));
    }
    let mut out = String::from("perfgate: FAIL\n");
    for r in &regressions {
        out.push_str(&format!("  {r}\n"));
    }
    Err(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const BASELINES: [(&str, &str); 3] = [
        (
            "moea_kernels",
            include_str!("../../../BENCH_moea_kernels.baseline.json"),
        ),
        (
            "scenarios",
            include_str!("../../../BENCH_scenarios.baseline.json"),
        ),
        (
            "islands",
            include_str!("../../../BENCH_islands.baseline.json"),
        ),
    ];

    /// A scratch directory holding one test's report files.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("perfgate-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn write(&self, name: &str, body: &str) -> PathBuf {
            let path = self.0.join(name);
            std::fs::write(&path, body).unwrap();
            path
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `report` with the first cell line rewritten by `edit`.
    fn edit_first_cell(report: &str, edit: impl Fn(&str) -> String) -> String {
        let mut done = false;
        let mut out: Vec<String> = Vec::new();
        for line in report.lines() {
            if !done && line.starts_with("    {") {
                done = true;
                out.push(edit(line));
            } else {
                out.push(line.to_owned());
            }
        }
        out.join("\n") + "\n"
    }

    /// `line` with the value of `key` replaced by `value` (written as is).
    fn set_field(line: &str, key: &str, value: &str) -> String {
        let start = line.find(&format!("\"{key}\": ")).unwrap() + key.len() + 4;
        let rest = &line[start..];
        let end = match rest.strip_prefix('"') {
            Some(quoted) => quoted.find('"').unwrap() + 2,
            None => rest.find([',', '}']).unwrap(),
        };
        format!("{}{value}{}", &line[..start], &rest[end..])
    }

    /// The value of `key` in `line`.
    fn get_field<'a>(line: &'a str, key: &str) -> &'a str {
        let start = line.find(&format!("\"{key}\": ")).unwrap() + key.len() + 4;
        let rest = &line[start..];
        &rest[..rest.find([',', '}']).unwrap()]
    }

    #[test]
    fn every_gate_fails_on_the_committed_baselines() {
        let dir = Scratch::new("baselines");
        for (bench, text) in BASELINES {
            let gate = GATES.iter().find(|g| g.bench == bench).unwrap();
            let base = dir.write(&format!("{bench}.json"), text);
            let gate_with = |body: &str| gate_files(&base, &dir.write("current.json", body));

            // An unmodified copy at another path passes.
            let ok = gate_with(text).unwrap();
            assert!(ok.contains("perfgate: ok"), "{bench}: {ok}");

            // Each gated timing raised one microsecond past its allowance.
            for key in gate.timings {
                let slow = edit_first_cell(text, |line| {
                    let us: u64 = get_field(line, key).parse().unwrap();
                    set_field(line, key, &(limit(us) + 1).to_string())
                });
                let err = gate_with(&slow).unwrap_err();
                assert!(err.contains(&format!("{key}: ")), "{bench} {key}: {err}");
                // At the allowance itself the gate still passes.
                let edge = edit_first_cell(text, |line| {
                    let us: u64 = get_field(line, key).parse().unwrap();
                    set_field(line, key, &limit(us).to_string())
                });
                assert!(gate_with(&edge).is_ok(), "{bench} {key} at the limit");
            }

            // A changed pinned field fails, even with every timing faster.
            for key in gate.equal {
                let changed = edit_first_cell(text, |line| {
                    let mut line = set_field(line, key, "\"0000000000000000\"");
                    for t in gate.timings {
                        line = set_field(&line, t, "0");
                    }
                    line
                });
                let err = gate_with(&changed).unwrap_err();
                assert!(
                    err.contains(&format!("{key}: ")) && err.contains("-> 0000000000000000"),
                    "{bench} {key}: {err}"
                );
            }

            // A false flag fails.
            for key in gate.flags {
                let split = edit_first_cell(text, |line| set_field(line, key, "false"));
                let err = gate_with(&split).unwrap_err();
                assert!(
                    err.contains(&format!("{key} is false")),
                    "{bench} {key}: {err}"
                );
            }

            // A dropped cell fails.
            let dropped = edit_first_cell(text, |_| String::new());
            let err = gate_with(&dropped).unwrap_err();
            assert!(err.contains("lost cell"), "{bench}: {err}");

            // A missing or non-integer gated field fails instead of passing.
            let key = gate.timings[0];
            let torn = text.replacen(&format!("\"{key}\""), "\"renamed\"", 1);
            let err = gate_with(&torn).unwrap_err();
            assert!(err.contains(key), "{bench}: {err}");
            let torn = edit_first_cell(text, |line| set_field(line, key, "\"oops\""));
            let err = gate_with(&torn).unwrap_err();
            assert!(err.contains("non-integer"), "{bench}: {err}");

            // A baseline without cells gates nothing, so it fails.
            let bare: String = text
                .lines()
                .filter(|l| !l.starts_with("    {"))
                .map(|l| format!("{l}\n"))
                .collect();
            let err = gate_files(&dir.write("bare.json", &bare), &base).unwrap_err();
            assert!(err.contains("no cells"), "{bench}: {err}");

            // The same file under two spellings fails.
            let dotted = dir.0.join(".").join(format!("{bench}.json"));
            let err = gate_files(&base, &dotted).unwrap_err();
            assert!(err.contains("same file"), "{bench}: {err}");
        }
    }

    #[test]
    fn gate_files_checks_the_bench_name() {
        let dir = Scratch::new("names");
        let kernels = dir.write("kernels.json", BASELINES[0].1);
        let scenarios = dir.write("scenarios.json", BASELINES[1].1);
        let err = gate_files(&kernels, &scenarios).unwrap_err();
        assert!(
            err.contains("kernels.json") && err.contains("scenarios.json"),
            "{err}"
        );
        assert!(
            err.contains("\"moea_kernels\"") && err.contains("\"scenarios\""),
            "{err}"
        );
        // A report with no row in the gate table is refused, not read
        // as a kernel report.
        let chaos = include_str!("../../../BENCH_chaos.json");
        let a = dir.write("chaos-a.json", chaos);
        let b = dir.write("chaos-b.json", chaos);
        let err = gate_files(&a, &b).unwrap_err();
        assert!(
            err.contains("no gate for \"chaos\"")
                && err.contains("chaos-a.json")
                && err.contains("chaos-b.json"),
            "{err}"
        );
    }

    #[test]
    fn small_cells_get_absolute_slack_but_big_ones_get_the_ratio() {
        assert_eq!(limit(40), 540);
        assert_eq!(limit(500), 1_000);
        assert_eq!(limit(10_000), 20_000);
    }

    #[test]
    fn real_kernelbench_output_parses() {
        // The gate must understand the exact shape kernelbench emits.
        let json = crate::kernelbench::moea_kernels(crate::RunScale::Tiny);
        let _ = std::fs::remove_file("BENCH_moea_kernels.json");
        let (bench, cells) = parse_report(&json).unwrap();
        assert_eq!(
            (bench, cells.len()),
            ("moea_kernels", 6),
            "3 sizes x 2 dims"
        );
        assert!(GATES[0].check(&cells, &cells).unwrap().is_empty());
    }

    #[test]
    fn real_islandbench_output_parses() {
        // The gate must understand the exact shape islandbench emits.
        let json = crate::islandbench::islands(
            crate::RunScale::Tiny,
            &crate::exec_config::ExecConfig::new().with_workers(2),
        );
        let _ = std::fs::remove_file("BENCH_islands.json");
        let (bench, cells) = parse_report(&json).unwrap();
        assert_eq!(
            (bench, cells.len()),
            ("islands", 6),
            "2 plans x 3 island counts"
        );
        assert!(GATES[2].check(&cells, &cells).unwrap().is_empty());
    }
}
