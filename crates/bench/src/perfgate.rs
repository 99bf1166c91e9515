//! Performance trend gate over the MOEA kernel and scenario benchmarks.
//!
//! CI runs `experiments kernelbench` and diffs the fresh
//! `BENCH_moea_kernels.json` against the committed baseline with
//! [`compare`]: for every (N, M) cell and every gated timing key, the
//! current value must stay under `max(2 × baseline, baseline + 500 µs)`.
//! The 2× factor absorbs runner-to-runner noise; the 500 µs absolute
//! floor keeps sub-millisecond cells from tripping on scheduler jitter
//! (doubling 40 µs is not a regression signal).
//!
//! The same gate covers `BENCH_scenarios.json` via
//! [`compare_scenarios`]: each reliability scenario's
//! `chain_analysis_us` cell (the Markov solves of that scenario's chain
//! templates) is held to the identical allowance, so a new or modified
//! chain template cannot silently regress the task-level analysis cost,
//! and its `proposed_digest` and `agnostic_digest` fronts must equal the
//! baseline's exactly, so a faster solver cannot silently change them.
//! [`gate_files`] dispatches on the report's `"bench"` header, so one
//! `experiments perfgate --baseline --current` invocation serves both.
//!
//! The reports are the hand-formatted JSON the benches write — one cell
//! object per line inside `"cases": [...]` / `"cells": [...]` — so the
//! parser here is a line-oriented key scanner, not a general JSON
//! reader. A baseline that stops matching that shape is a hard error,
//! never a silent pass.

use std::path::Path;

/// The timing keys the gate watches. Oracle timings (`sort_naive_us`,
/// `truncate_naive_us`) are deliberately absent: the naive algorithms
/// exist to validate results, and their cost is not a product property.
/// `dist_refill_us` is likewise ungated — it is the full-rebuild
/// reference the incremental path is compared against, not a path the
/// generation loop takes.
const GATED_KEYS: [&str; 6] = [
    "sort_ens_us",
    "crowding_us",
    "truncate_cached_us",
    "hv_us",
    "truncate_incremental_us",
    "dist_update_us",
];

/// Number of gated keys (the per-cell timing array length).
const N_GATED: usize = GATED_KEYS.len();

/// Absolute slack in microseconds added on top of the 2× ratio.
const ABSOLUTE_SLACK_US: u64 = 500;

/// One gated timing that got worse than the allowance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Cloud size of the cell.
    pub n: u64,
    /// Objective count of the cell.
    pub m: u64,
    /// The timing key that regressed.
    pub key: &'static str,
    /// Baseline microseconds.
    pub baseline_us: u64,
    /// Current microseconds.
    pub current_us: u64,
    /// The allowance the current value exceeded.
    pub limit_us: u64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} {}: {}us -> {}us (limit {}us)",
            self.n, self.m, self.key, self.baseline_us, self.current_us, self.limit_us
        )
    }
}

/// Extracts `"key": <integer>` from one cell line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One `(n, m)` cell with its gated timings.
#[derive(Debug, PartialEq, Eq)]
struct CellTimings {
    n: u64,
    m: u64,
    values: [(/* key idx */ usize, u64); N_GATED],
}

/// Parses every cell line of a kernel-bench report. Errors if the report
/// contains no cells or a cell is missing a gated key — a malformed
/// baseline must fail the gate loudly.
fn parse_cells(report: &str, label: &str) -> Result<Vec<CellTimings>, String> {
    let mut cells = Vec::new();
    for line in report.lines() {
        let Some(n) = field_u64(line, "n") else {
            continue;
        };
        let m = field_u64(line, "m")
            .ok_or_else(|| format!("{label}: cell n={n} has no \"m\" field: {line}"))?;
        let mut values = [(0usize, 0u64); N_GATED];
        for (idx, key) in GATED_KEYS.iter().enumerate() {
            let us = field_u64(line, key)
                .ok_or_else(|| format!("{label}: cell n={n} m={m} has no \"{key}\" field"))?;
            values[idx] = (idx, us);
        }
        cells.push(CellTimings { n, m, values });
    }
    if cells.is_empty() {
        return Err(format!("{label}: no benchmark cells found"));
    }
    Ok(cells)
}

/// What a baseline value allows the current value to reach.
fn limit(baseline_us: u64) -> u64 {
    (2 * baseline_us).max(baseline_us + ABSOLUTE_SLACK_US)
}

/// Diffs a current kernel-bench report against a baseline report.
/// Returns the regressions (empty = gate passes). Cells present only in
/// one report are an error: a shrunk benchmark must not pass by
/// omission.
pub fn compare(baseline: &str, current: &str) -> Result<Vec<Regression>, String> {
    let base_cells = parse_cells(baseline, "baseline")?;
    let cur_cells = parse_cells(current, "current")?;
    let mut regressions = Vec::new();
    for base in &base_cells {
        let cur = cur_cells
            .iter()
            .find(|c| c.n == base.n && c.m == base.m)
            .ok_or_else(|| format!("current report lost cell n={} m={}", base.n, base.m))?;
        for ((idx, base_us), (_, cur_us)) in base.values.iter().zip(&cur.values) {
            let limit_us = limit(*base_us);
            if *cur_us > limit_us {
                regressions.push(Regression {
                    n: base.n,
                    m: base.m,
                    key: GATED_KEYS[*idx],
                    baseline_us: *base_us,
                    current_us: *cur_us,
                    limit_us,
                });
            }
        }
    }
    if cur_cells.len() != base_cells.len() {
        return Err(format!(
            "cell count changed: baseline {} vs current {}",
            base_cells.len(),
            cur_cells.len()
        ));
    }
    Ok(regressions)
}

/// One scenario cell that got slower than the allowance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRegression {
    /// Scenario name of the cell.
    pub scenario: String,
    /// Baseline microseconds of the chain analyses.
    pub baseline_us: u64,
    /// Current microseconds.
    pub current_us: u64,
    /// The allowance the current value exceeded.
    pub limit_us: u64,
}

impl std::fmt::Display for ScenarioRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario={} chain_analysis_us: {}us -> {}us (limit {}us)",
            self.scenario, self.baseline_us, self.current_us, self.limit_us
        )
    }
}

/// Extracts `"key": "<text>"` from one cell line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// The front digests a scenario cell pins.
const SCENARIO_DIGESTS: [&str; 2] = ["proposed_digest", "agnostic_digest"];

/// One scenario cell: its name, chain-analysis microseconds and front
/// digests.
type ScenarioCell<'a> = (&'a str, u64, [&'a str; 2]);

/// Parses every scenario cell line of a scenario-bench report. As
/// [`parse_cells`], malformed or empty reports are hard errors.
fn parse_scenario_cells<'a>(report: &'a str, label: &str) -> Result<Vec<ScenarioCell<'a>>, String> {
    let mut cells = Vec::new();
    for line in report.lines() {
        let Some(name) = field_str(line, "scenario") else {
            continue;
        };
        let us = field_u64(line, "chain_analysis_us").ok_or_else(|| {
            format!("{label}: scenario {name:?} has no \"chain_analysis_us\" field")
        })?;
        let mut digests = [""; 2];
        for (digest, key) in digests.iter_mut().zip(SCENARIO_DIGESTS) {
            *digest = field_str(line, key)
                .ok_or_else(|| format!("{label}: scenario {name:?} has no {key:?} field"))?;
        }
        cells.push((name, us, digests));
    }
    if cells.is_empty() {
        return Err(format!("{label}: no scenario cells found"));
    }
    Ok(cells)
}

/// Diffs a current scenario-bench report against a baseline report:
/// each scenario's chain-analysis time must stay within the same
/// allowance the kernel gate uses, and its front digests must equal the
/// baseline's. A changed front, or a scenario present in only one report,
/// is an error — a regressed answer or a dropped chain-template family
/// must not pass as a timing result.
pub fn compare_scenarios(baseline: &str, current: &str) -> Result<Vec<ScenarioRegression>, String> {
    let base_cells = parse_scenario_cells(baseline, "baseline")?;
    let cur_cells = parse_scenario_cells(current, "current")?;
    let mut regressions = Vec::new();
    for &(name, base_us, base_digests) in &base_cells {
        let &(_, cur_us, cur_digests) = cur_cells
            .iter()
            .find(|(n, ..)| *n == name)
            .ok_or_else(|| format!("current report lost scenario {name:?}"))?;
        for ((key, base), cur) in SCENARIO_DIGESTS.iter().zip(base_digests).zip(cur_digests) {
            if base != cur {
                return Err(format!(
                    "scenario {name:?} changed its front: {key} {base} -> {cur}"
                ));
            }
        }
        let limit_us = limit(base_us);
        if cur_us > limit_us {
            regressions.push(ScenarioRegression {
                scenario: name.to_owned(),
                baseline_us: base_us,
                current_us: cur_us,
                limit_us,
            });
        }
    }
    if cur_cells.len() != base_cells.len() {
        return Err(format!(
            "scenario count changed: baseline {} vs current {}",
            base_cells.len(),
            cur_cells.len()
        ));
    }
    Ok(regressions)
}

/// One island cell that regressed: a digest disagreement between
/// backends, or a campaign that got slower than the allowance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IslandRegression {
    /// Plan name of the cell.
    pub plan: String,
    /// Island count of the cell.
    pub islands: u64,
    /// What went wrong, human-readable.
    pub what: String,
}

impl std::fmt::Display for IslandRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan={} islands={}: {}",
            self.plan, self.islands, self.what
        )
    }
}

/// Parses every cell line of an islands report into
/// `(plan, islands, digest_match, campaign_us)`.
fn parse_island_cells(report: &str, label: &str) -> Result<Vec<(String, u64, bool, u64)>, String> {
    let mut cells = Vec::new();
    for line in report.lines() {
        let Some(plan) = field_str(line, "plan") else {
            continue;
        };
        let islands = field_u64(line, "islands")
            .ok_or_else(|| format!("{label}: cell {plan:?} has no \"islands\" field"))?;
        let matched = line
            .split("\"digest_match\": ")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|tok| tok.trim().parse().ok())
            .ok_or_else(|| format!("{label}: cell {plan:?} has no \"digest_match\" field"))?;
        let us = field_u64(line, "campaign_us")
            .ok_or_else(|| format!("{label}: cell {plan:?} has no \"campaign_us\" field"))?;
        cells.push((plan.to_owned(), islands, matched, us));
    }
    if cells.is_empty() {
        return Err(format!("{label}: no island cells found"));
    }
    Ok(cells)
}

/// Diffs a current islands report against a baseline report. Two gates
/// per cell: the current backends must still agree on the front digest
/// (the determinism contract — non-negotiable, no allowance), and the
/// campaign wall-clock must stay within the usual timing allowance. A
/// cell present in only one report is an error.
pub fn compare_islands(baseline: &str, current: &str) -> Result<Vec<IslandRegression>, String> {
    let base_cells = parse_island_cells(baseline, "baseline")?;
    let cur_cells = parse_island_cells(current, "current")?;
    let mut regressions = Vec::new();
    for (plan, islands, _, base_us) in &base_cells {
        let (_, _, matched, cur_us) = cur_cells
            .iter()
            .find(|(p, n, _, _)| p == plan && n == islands)
            .ok_or_else(|| format!("current report lost cell plan={plan:?} islands={islands}"))?;
        if !matched {
            regressions.push(IslandRegression {
                plan: plan.clone(),
                islands: *islands,
                what: "backend digests disagree".to_owned(),
            });
        }
        let limit_us = limit(*base_us);
        if *cur_us > limit_us {
            regressions.push(IslandRegression {
                plan: plan.clone(),
                islands: *islands,
                what: format!("campaign_us: {base_us}us -> {cur_us}us (limit {limit_us}us)"),
            });
        }
    }
    if cur_cells.len() != base_cells.len() {
        return Err(format!(
            "island cell count changed: baseline {} vs current {}",
            base_cells.len(),
            cur_cells.len()
        ));
    }
    Ok(regressions)
}

/// File-level entry point for the `experiments perfgate` subcommand:
/// reads both reports, dispatches on the `"bench"` header
/// (`moea_kernels` vs `scenarios` vs `islands`), and renders a
/// human-readable verdict. `Ok` = gate passed (report text), `Err` =
/// regressions or unreadable input (the caller exits non-zero). A
/// baseline and current that resolve to the same file are an error: such
/// a gate compares a report with itself and can never trip.
pub fn gate_files(baseline: &Path, current: &Path) -> Result<String, String> {
    if let (Ok(b), Ok(c)) = (baseline.canonicalize(), current.canonicalize()) {
        if b == c {
            return Err(format!(
                "baseline and current are the same file ({}); compare against a committed baseline\n",
                b.display()
            ));
        }
    }
    let base = std::fs::read_to_string(baseline)
        .map_err(|e| format!("reading baseline {}: {e}", baseline.display()))?;
    let cur = std::fs::read_to_string(current)
        .map_err(|e| format!("reading current {}: {e}", current.display()))?;
    let regressions: Vec<String> = if base.contains("\"bench\": \"scenarios\"") {
        compare_scenarios(&base, &cur)?
            .iter()
            .map(ToString::to_string)
            .collect()
    } else if base.contains("\"bench\": \"islands\"") {
        compare_islands(&base, &cur)?
            .iter()
            .map(ToString::to_string)
            .collect()
    } else {
        compare(&base, &cur)?
            .iter()
            .map(ToString::to_string)
            .collect()
    };
    if regressions.is_empty() {
        Ok(format!(
            "perfgate: ok — every gated timing within max(2x, +{ABSOLUTE_SLACK_US}us) of {}\n",
            baseline.display()
        ))
    } else {
        let mut out = String::from("perfgate: FAIL\n");
        for r in &regressions {
            out.push_str(&format!("  {r}\n"));
        }
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cells: &[(u64, u64, [u64; 6])]) -> String {
        let body: Vec<String> = cells
            .iter()
            .map(|(n, m, v)| {
                format!(
                    "    {{\"n\": {n}, \"m\": {m}, \"sort_naive_us\": 9999, \"sort_ens_us\": {}, \
                     \"fronts_identical\": true, \"crowding_us\": {}, \"truncate_cached_us\": {}, \
                     \"truncate_naive_us\": null, \"hv_us\": {}, \"hv_points\": 7, \
                     \"dist_refill_us\": 9999, \"dist_update_us\": {}, \
                     \"truncate_incremental_us\": {}, \"dist_identical\": true}}",
                    v[0], v[1], v[2], v[3], v[5], v[4]
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"moea_kernels\",\n  \"cases\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[
            (100, 2, [50, 60, 70, 80, 90, 40]),
            (400, 4, [900, 800, 700, 600, 500, 400]),
        ]);
        assert_eq!(compare(&r, &r).unwrap(), vec![]);
    }

    #[test]
    fn small_cells_get_absolute_slack_but_big_ones_get_the_ratio() {
        let base = report(&[
            (100, 2, [50, 60, 70, 80, 90, 40]),
            (1600, 2, [10_000, 10, 10, 10, 10, 10]),
        ]);
        // 50us -> 500us is under the +500us floor; 10_000us -> 21_000us
        // is past 2x and must trip.
        let cur = report(&[
            (100, 2, [500, 60, 70, 80, 90, 40]),
            (1600, 2, [21_000, 10, 10, 10, 10, 10]),
        ]);
        let regressions = compare(&base, &cur).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(
            (
                regressions[0].n,
                regressions[0].key,
                regressions[0].limit_us
            ),
            (1600, "sort_ens_us", 20_000)
        );
    }

    #[test]
    fn every_gated_key_is_watched() {
        let base = report(&[(400, 4, [100, 100, 100, 100, 100, 100])]);
        let cur = report(&[(400, 4, [100, 100, 100, 5_000, 100, 100])]);
        let regressions = compare(&base, &cur).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "hv_us");
        assert!(regressions[0].to_string().contains("hv_us"));
        // The incremental keys added in round 2 are gated too.
        let cur = report(&[(400, 4, [100, 100, 100, 100, 9_000, 100])]);
        assert_eq!(
            compare(&base, &cur).unwrap()[0].key,
            "truncate_incremental_us"
        );
        let cur = report(&[(400, 4, [100, 100, 100, 100, 100, 9_000])]);
        assert_eq!(compare(&base, &cur).unwrap()[0].key, "dist_update_us");
    }

    #[test]
    fn missing_cells_and_malformed_reports_error_instead_of_passing() {
        let base = report(&[
            (100, 2, [50, 60, 70, 80, 90, 40]),
            (400, 2, [50, 60, 70, 80, 90, 40]),
        ]);
        let cur = report(&[(100, 2, [50, 60, 70, 80, 90, 40])]);
        assert!(compare(&base, &cur).unwrap_err().contains("lost cell"));
        assert!(compare("{}", &base).unwrap_err().contains("no benchmark"));
        let torn = base.replace("\"hv_us\": 80", "\"hv_us\": \"oops\"");
        assert!(compare(&base, &torn).unwrap_err().contains("hv_us"));
    }

    fn scenario_report(cells: &[(&str, u64)]) -> String {
        let body: Vec<String> = cells
            .iter()
            .map(|(name, us)| {
                format!(
                    "    {{\"scenario\": \"{name}\", \"catalog\": 80, \"candidates\": 640, \
                     \"chain_analysis_us\": {us}, \"objectives\": 2, \
                     \"proposed_digest\": \"00000000deadbeef\", \"proposed_points\": 5, \
                     \"agnostic_digest\": \"00000000cafef00d\", \"agnostic_points\": 3}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"scenarios\",\n  \"nproc\": 2,\n  \"cells\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn scenario_gate_passes_identical_and_trips_on_regression() {
        let base = scenario_report(&[("transient", 40_000), ("lifetime:5000", 90_000)]);
        assert_eq!(compare_scenarios(&base, &base).unwrap(), vec![]);
        // Within allowance: 40ms -> 79ms is under 2x.
        let ok = scenario_report(&[("transient", 79_000), ("lifetime:5000", 90_000)]);
        assert_eq!(compare_scenarios(&base, &ok).unwrap(), vec![]);
        // Past 2x: the lifetime chain templates got slower.
        let bad = scenario_report(&[("transient", 40_000), ("lifetime:5000", 200_000)]);
        let regressions = compare_scenarios(&base, &bad).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].scenario, "lifetime:5000");
        assert_eq!(regressions[0].limit_us, 180_000);
        assert!(regressions[0].to_string().contains("chain_analysis_us"));
    }

    #[test]
    fn scenario_gate_gives_tiny_cells_the_absolute_slack() {
        let base = scenario_report(&[("transient", 100)]);
        let cur = scenario_report(&[("transient", 600)]);
        assert_eq!(compare_scenarios(&base, &cur).unwrap(), vec![]);
        let over = scenario_report(&[("transient", 601)]);
        assert_eq!(compare_scenarios(&base, &over).unwrap().len(), 1);
    }

    #[test]
    fn scenario_gate_errors_on_lost_cells_and_malformed_reports() {
        let base = scenario_report(&[("transient", 100), ("fpga", 200)]);
        let cur = scenario_report(&[("transient", 100)]);
        assert!(compare_scenarios(&base, &cur)
            .unwrap_err()
            .contains("lost scenario"));
        assert!(compare_scenarios("{}", &base)
            .unwrap_err()
            .contains("no scenario cells"));
        let torn = base.replace("\"chain_analysis_us\": 200", "\"chain_us\": 200");
        assert!(compare_scenarios(&base, &torn)
            .unwrap_err()
            .contains("chain_analysis_us"));
    }

    #[test]
    fn scenario_gate_fails_on_a_changed_front_digest() {
        let base = scenario_report(&[("transient", 40_000), ("fpga", 90_000)]);
        for (key, digest) in [
            ("proposed_digest", "00000000deadbeef"),
            ("agnostic_digest", "00000000cafef00d"),
        ] {
            // Tamper with the fpga cell only, and make it faster: a
            // quicker wrong front must still fail.
            let tampered = base
                .lines()
                .map(|line| {
                    if line.contains("\"fpga\"") {
                        line.replace(digest, "00000000feedface")
                            .replace("\"chain_analysis_us\": 90000", "\"chain_analysis_us\": 1")
                    } else {
                        line.to_owned()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            let err = compare_scenarios(&base, &tampered).unwrap_err();
            assert!(err.contains("\"fpga\"") && err.contains(key), "{err}");
            assert!(
                err.contains(&format!("{digest} -> 00000000feedface")),
                "{err}"
            );
        }
        let torn = base.replace("\"agnostic_digest\"", "\"agnostic\"");
        assert!(compare_scenarios(&base, &torn)
            .unwrap_err()
            .contains("agnostic_digest"));
    }

    fn island_report(cells: &[(&str, u64, bool, u64)]) -> String {
        let body: Vec<String> = cells
            .iter()
            .map(|(plan, islands, matched, us)| {
                format!(
                    "    {{\"plan\": \"{plan}\", \"islands\": {islands}, \
                     \"inprocess_digest\": \"00000000deadbeef\", \
                     \"threads_digest\": \"00000000deadbeef\", \
                     \"subprocess_digest\": null, \"digest_match\": {matched}, \
                     \"points\": 5, \"campaign_us\": {us}}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"islands\",\n  \"subprocess_exercised\": false,\n  \
             \"cells\": [\n{}\n  ],\n  \"all_digests_match\": true\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn island_gate_trips_on_digest_disagreement_and_slowdowns() {
        let base = island_report(&[("fcCLR", 1, true, 40_000), ("proposed", 4, true, 90_000)]);
        assert_eq!(compare_islands(&base, &base).unwrap(), vec![]);
        // A digest disagreement is gated with no allowance at all.
        let split = island_report(&[("fcCLR", 1, false, 40_000), ("proposed", 4, true, 90_000)]);
        let regressions = compare_islands(&base, &split).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].to_string().contains("digests disagree"));
        // Timing uses the shared allowance.
        let slow = island_report(&[("fcCLR", 1, true, 40_000), ("proposed", 4, true, 200_000)]);
        let regressions = compare_islands(&base, &slow).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(
            (regressions[0].plan.as_str(), regressions[0].islands),
            ("proposed", 4)
        );
        // Lost cells and malformed reports are errors, not passes.
        let lost = island_report(&[("fcCLR", 1, true, 40_000)]);
        assert!(compare_islands(&base, &lost)
            .unwrap_err()
            .contains("lost cell"));
        assert!(compare_islands("{}", &base)
            .unwrap_err()
            .contains("no island cells"));
    }

    #[test]
    fn real_islandbench_output_parses() {
        // The gate must understand the exact shape islandbench emits.
        let json = crate::islandbench::islands(
            crate::RunScale::Tiny,
            &crate::exec_config::ExecConfig::new().with_workers(2),
        );
        let _ = std::fs::remove_file("BENCH_islands.json");
        assert_eq!(compare_islands(&json, &json).unwrap(), vec![]);
        let cells = parse_island_cells(&json, "self").unwrap();
        assert_eq!(cells.len(), 6, "2 plans x 3 island counts");
    }

    #[test]
    fn gate_files_dispatches_on_the_bench_header() {
        let dir = std::env::temp_dir().join(format!("perfgate-dispatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, body: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            path
        };
        let kernels = write("k.json", &report(&[(100, 2, [50, 60, 70, 80, 90, 40])]));
        let kernels_again = write("k2.json", &report(&[(100, 2, [50, 60, 70, 80, 90, 40])]));
        let scenarios = write("s.json", &scenario_report(&[("transient", 100)]));
        let scenarios_again = write("s1.json", &scenario_report(&[("transient", 100)]));
        assert!(gate_files(&kernels, &kernels_again).is_ok());
        assert!(gate_files(&scenarios, &scenarios_again).is_ok());
        let slow = write("s2.json", &scenario_report(&[("transient", 9_000)]));
        let fail = gate_files(&scenarios, &slow).unwrap_err();
        assert!(fail.contains("scenario=transient"), "{fail}");
        // Mismatched report kinds cannot pass: the scenario parser finds
        // no cells in a kernel report.
        assert!(gate_files(&scenarios, &kernels).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_baselines_parse() {
        let scenarios = include_str!("../../../BENCH_scenarios.baseline.json");
        assert!(scenarios.contains("\"nproc\": "));
        assert_eq!(
            parse_scenario_cells(scenarios, "baseline").unwrap().len(),
            4
        );
        let islands = include_str!("../../../BENCH_islands.baseline.json");
        assert_eq!(parse_island_cells(islands, "baseline").unwrap().len(), 6);
    }

    #[test]
    fn gate_files_rejects_a_baseline_that_is_the_current_report() {
        let dir = std::env::temp_dir().join(format!("perfgate-same-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("islands.json");
        std::fs::write(&path, island_report(&[("fcCLR", 1, true, 40_000)])).unwrap();
        // The same file by two spellings still resolves to one file.
        let dotted = dir.join(".").join("islands.json");
        let err = gate_files(&path, &dotted).unwrap_err();
        assert!(err.contains("same file"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn real_kernelbench_output_parses() {
        // The gate must understand the exact shape kernelbench emits.
        let json = crate::kernelbench::moea_kernels(crate::RunScale::Tiny);
        let _ = std::fs::remove_file("BENCH_moea_kernels.json");
        assert_eq!(compare(&json, &json).unwrap(), vec![]);
        let cells = parse_cells(&json, "self").unwrap();
        assert_eq!(cells.len(), 6, "3 sizes x 2 dims");
    }
}
