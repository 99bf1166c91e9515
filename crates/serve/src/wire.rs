//! `clre-wire v1` — the server's length-prefixed text protocol.
//!
//! Every frame is a big-endian `u32` byte length followed by that many
//! bytes of UTF-8, one logical line per frame (no trailing newline). The
//! first frame each side sends is the version handshake; after that the
//! client sends request lines and the server answers with response and
//! event lines. All payloads are plain text with space-separated
//! `key=value` tokens, so the protocol can be driven by hand and grepped
//! in captures; everything that must survive a round-trip bit-exactly
//! (seeds, salts) travels as decimal integers, and front digests as
//! fixed-width hex.
//!
//! The campaign-plan grammar is a faithful, whitespace-free projection
//! of [`CampaignPlan`]:
//!
//! ```text
//! plan      := <name> '|' stage (';' stage)*
//! stage     := label ',' algo ',' mode ',' lib ',' salt ',' divisor ',' seed_from
//! algo      := 'nsga2' | 'nsga2:' k | 'spea2'
//! mode      := 'full' | 'pf'
//! lib       := 'main' | 'layer:' index | 'subset:' seed
//! seed_from := '-' | index (':' index)*
//! ```
//!
//! `seed_from` lists every seeding edge in order — `-` for none, a
//! single index for the proposed flow's pf → fc hand-off, and a
//! `:`-joined list for island-model migration stages that merge fronts
//! from several predecessors.
//!
//! A submission additionally carries an optional `scenario=` key — a
//! reliability scenario name (`transient`, `lifetime[:hours]`,
//! `chkmodes`, `fpga`) selecting the fault mechanism, CLR catalog and
//! objective set the campaign runs under; command-line front ends
//! accept the combined `plan@scenario` shorthand via
//! [`plan_scenario_from_arg`]. Unknown scenario axes are rejected with
//! the typed [`clre::DseError::Scenario`] message, never a panic.
//!
//! # Examples
//!
//! ```
//! use clre::CampaignPlan;
//! use clre_serve::wire::{encode_plan, parse_plan};
//!
//! let plan = CampaignPlan::proposed();
//! let text = encode_plan(&plan);
//! assert_eq!(parse_plan(&text).unwrap(), plan);
//! ```

use clre::campaign::{CampaignPlan, LibrarySource, StageAlgorithm, StagePlan};
use clre::encoding::ChoiceMode;
use clre::methodology::{Layer, StageBudget};
use clre::Scenario;

/// The protocol version token exchanged in the handshake.
pub const WIRE_VERSION: &str = "clre-wire v1";

/// The length-prefixed framing, shared with the `exec-wire` protocol.
pub use clre_exec::wire::{read_frame, write_frame, MAX_FRAME};

pub use clre::apps::AppSpec;

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("malformed {what}"))
}

/// One campaign submission: who is asking, what to optimize, with what
/// budget, under which plan and reliability scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Tenant name (whitespace-free); the quota and on-disk namespace.
    pub tenant: String,
    /// The workload.
    pub app: AppSpec,
    /// Population / generations / seed of every stage.
    pub budget: StageBudget,
    /// The stage graph to run.
    pub plan: CampaignPlan,
    /// The reliability scenario: fault mechanism + catalog axes +
    /// objective set the campaign runs under. Omitted on the wire when
    /// [`Scenario::Transient`] (the default), so pre-scenario captures
    /// and `meta.txt` sidecars keep parsing.
    pub scenario: Scenario,
}

impl SubmitRequest {
    /// The `submit …` request line.
    pub fn encode(&self) -> String {
        let scenario = match self.scenario {
            Scenario::Transient => String::new(),
            ref s => format!(" scenario={}", s.name()),
        };
        format!(
            "submit tenant={} app={} population={} generations={} seed={} plan={}{scenario}",
            self.tenant,
            self.app.encode(),
            self.budget.population,
            self.budget.generations,
            self.budget.seed,
            encode_plan(&self.plan),
        )
    }

    /// Parses a `submit …` line (the verb token included).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed token.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut tenant = None;
        let mut app = None;
        let mut population = None;
        let mut generations = None;
        let mut seed = None;
        let mut plan = None;
        let mut scenario = Scenario::Transient;
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("submit") {
            return Err("not a submit line".to_owned());
        }
        for tok in tokens {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed token {tok:?}"))?;
            match key {
                "tenant" => tenant = Some(value.to_owned()),
                "app" => app = Some(AppSpec::parse(value)?),
                "population" => population = Some(parse_num(Some(value), "population")?),
                "generations" => generations = Some(parse_num(Some(value), "generations")?),
                "seed" => seed = Some(parse_num(Some(value), "seed")?),
                "plan" => plan = Some(parse_plan(value)?),
                "scenario" => scenario = Scenario::parse(value).map_err(|e| e.to_string())?,
                _ => return Err(format!("unknown submit key {key:?}")),
            }
        }
        let tenant: String = tenant.ok_or("missing tenant")?;
        if tenant.is_empty()
            || !tenant
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-')
        {
            return Err(format!(
                "tenant {tenant:?} must be non-empty [a-zA-Z0-9-] (it names a directory)"
            ));
        }
        Ok(SubmitRequest {
            tenant,
            app: app.ok_or("missing app")?,
            budget: StageBudget::new(
                population.ok_or("missing population")?,
                generations.ok_or("missing generations")?,
            )
            .with_seed(seed.ok_or("missing seed")?),
            plan: plan.ok_or("missing plan")?,
            scenario,
        })
    }
}

/// Encodes a [`CampaignPlan`] in the whitespace-free plan grammar (see
/// the [module docs](self)).
pub fn encode_plan(plan: &CampaignPlan) -> String {
    let stages: Vec<String> = plan.stages.iter().map(encode_stage).collect();
    format!("{}|{}", plan.name, stages.join(";"))
}

fn encode_stage(stage: &StagePlan) -> String {
    let algo = match stage.algorithm {
        StageAlgorithm::Nsga2 { tournament: None } => "nsga2".to_owned(),
        StageAlgorithm::Nsga2 {
            tournament: Some(k),
        } => format!("nsga2:{k}"),
        StageAlgorithm::Spea2 => "spea2".to_owned(),
    };
    let mode = match stage.mode {
        ChoiceMode::Full => "full",
        ChoiceMode::ParetoFiltered => "pf",
    };
    let lib = match stage.library {
        LibrarySource::Main => "main".to_owned(),
        LibrarySource::SingleLayer(layer) => {
            let index = Layer::ALL
                .iter()
                .position(|&l| l == layer)
                .expect("Layer::ALL is exhaustive");
            format!("layer:{index}")
        }
        LibrarySource::RandomSubset(seed) => format!("subset:{seed}"),
    };
    let seed_from = if stage.seed_from.is_empty() {
        "-".to_owned()
    } else {
        stage
            .seed_from
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(":")
    };
    format!(
        "{},{algo},{mode},{lib},{},{},{seed_from}",
        stage.label, stage.salt, stage.generations_divisor,
    )
}

/// Parses the plan grammar back into a [`CampaignPlan`].
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_plan(text: &str) -> Result<CampaignPlan, String> {
    let (name, stages) = text
        .split_once('|')
        .ok_or_else(|| format!("plan {text:?} missing '|' name separator"))?;
    if name.is_empty() {
        return Err("empty plan name".to_owned());
    }
    let mut plan = CampaignPlan::named(name);
    for stage in stages.split(';') {
        plan = plan.with_stage(parse_stage(stage)?);
    }
    if plan.stages.is_empty() {
        return Err("plan has no stages".to_owned());
    }
    Ok(plan)
}

fn parse_stage(text: &str) -> Result<StagePlan, String> {
    let fields: Vec<&str> = text.split(',').collect();
    let [label, algo, mode, lib, salt, divisor, seed_from] = fields.as_slice() else {
        return Err(format!("stage {text:?} must have 7 comma-separated fields"));
    };
    if label.is_empty() {
        return Err("empty stage label".to_owned());
    }
    let algorithm = match algo.split_once(':') {
        None if *algo == "nsga2" => StageAlgorithm::Nsga2 { tournament: None },
        None if *algo == "spea2" => StageAlgorithm::Spea2,
        Some(("nsga2", k)) => StageAlgorithm::Nsga2 {
            tournament: Some(parse_num(Some(k), "tournament size")?),
        },
        _ => return Err(format!("unknown algorithm {algo:?}")),
    };
    if matches!(
        algorithm,
        StageAlgorithm::Nsga2 {
            tournament: Some(0)
        }
    ) {
        return Err("tournament size must be at least 1".to_owned());
    }
    let mode = match *mode {
        "full" => ChoiceMode::Full,
        "pf" => ChoiceMode::ParetoFiltered,
        other => return Err(format!("unknown choice mode {other:?}")),
    };
    let library = match lib.split_once(':') {
        None if *lib == "main" => LibrarySource::Main,
        Some(("layer", index)) => {
            let index: usize = parse_num(Some(index), "layer index")?;
            let layer = *Layer::ALL
                .get(index)
                .ok_or_else(|| format!("layer index {index} out of range"))?;
            LibrarySource::SingleLayer(layer)
        }
        Some(("subset", seed)) => {
            LibrarySource::RandomSubset(parse_num(Some(seed), "subset seed")?)
        }
        _ => return Err(format!("unknown library source {lib:?}")),
    };
    let divisor: usize = parse_num(Some(divisor), "generations divisor")?;
    if divisor == 0 {
        return Err("generations divisor must be at least 1".to_owned());
    }
    Ok(StagePlan {
        label: (*label).to_owned(),
        algorithm,
        mode,
        library,
        salt: parse_num(Some(salt), "salt")?,
        generations_divisor: divisor,
        seed_from: match *seed_from {
            "-" => Vec::new(),
            list => list
                .split(':')
                .map(|n| parse_num(Some(n), "seed_from index"))
                .collect::<Result<Vec<usize>, String>>()?,
        },
    })
}

/// Resolves a plan argument: a built-in name (`fc`, `pf`, `proposed`,
/// `agnostic`, `pf-spea2`, `pf-tournament:<k>`, `random-subset:<seed>`)
/// or a raw plan-grammar string. Any built-in name may carry an
/// `/islands<n>` suffix — `proposed/islands4` runs the island-model
/// expansion of the proposed flow over four subpopulations.
///
/// # Errors
///
/// As [`parse_plan`] for raw strings; unknown built-in names report the
/// valid set.
pub fn plan_from_arg(arg: &str) -> Result<CampaignPlan, String> {
    if !arg.contains('|') {
        if let Some((base, count)) = arg.rsplit_once("/islands") {
            let islands: usize = parse_num(Some(count), "island count")?;
            if islands == 0 {
                return Err("island count must be at least 1".to_owned());
            }
            let plan = plan_from_arg(base)?;
            if matches!(plan.stages[0].algorithm, StageAlgorithm::Spea2) {
                return Err(format!(
                    "plan {base:?} cannot run as islands: migration seeds the \
                     first stage, which must be NSGA-II"
                ));
            }
            return Ok(plan.islands(islands));
        }
    }
    match arg {
        "fc" => return Ok(CampaignPlan::fc()),
        "pf" => return Ok(CampaignPlan::pf()),
        "proposed" => return Ok(CampaignPlan::proposed()),
        "agnostic" => return Ok(CampaignPlan::agnostic()),
        "pf-spea2" => return Ok(CampaignPlan::pf_spea2()),
        _ => {}
    }
    if let Some(("pf-tournament", k)) = arg.split_once(':') {
        let k: usize = parse_num(Some(k), "tournament size")?;
        if k == 0 {
            return Err("tournament size must be at least 1".to_owned());
        }
        return Ok(CampaignPlan::pf_with_tournament(k));
    }
    if let Some(("random-subset", seed)) = arg.split_once(':') {
        return Ok(CampaignPlan::random_subset(parse_num(
            Some(seed),
            "subset seed",
        )?));
    }
    if arg.contains('|') {
        return parse_plan(arg);
    }
    Err(format!(
        "unknown plan {arg:?}: expected fc|pf|proposed|agnostic|pf-spea2|pf-tournament:<k>|\
         random-subset:<seed> or a raw plan string"
    ))
}

/// Resolves a plan argument with an optional `@<scenario>` suffix:
/// `fc@lifetime:40000` runs the fcCLR plan under the permanent-fault
/// scenario, `proposed@chkmodes` the proposed flow over the
/// checkpoint-mode catalog. Without a suffix the plan runs under
/// [`Scenario::Transient`] — the original pipeline. `@` is reserved by
/// this shorthand and cannot appear in raw plan strings passed through
/// it.
///
/// # Errors
///
/// As [`plan_from_arg`] for the plan half; an unknown or malformed
/// scenario suffix reports the typed [`Scenario::parse`] message
/// (never panics).
pub fn plan_scenario_from_arg(arg: &str) -> Result<(CampaignPlan, Scenario), String> {
    match arg.split_once('@') {
        Some((plan, scenario)) => Ok((
            plan_from_arg(plan)?,
            Scenario::parse(scenario).map_err(|e| e.to_string())?,
        )),
        None => Ok((plan_from_arg(arg)?, Scenario::Transient)),
    }
}

/// One terminal summary of a finished campaign, carried by the `done`
/// event and the `done.txt` sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneSummary {
    /// FNV-1a digest over the front's objective bits, point order
    /// preserved — the determinism contract's fingerprint.
    pub digest: u64,
    /// Front size.
    pub points: usize,
    /// Total fitness evaluations spent.
    pub evaluations: usize,
}

impl DoneSummary {
    /// The `done …` event line.
    pub fn encode(&self) -> String {
        format!(
            "done digest={:016x} points={} evaluations={}",
            self.digest, self.points, self.evaluations
        )
    }

    /// Parses a `done …` line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed token.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut digest = None;
        let mut points = None;
        let mut evaluations = None;
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("done") {
            return Err("not a done line".to_owned());
        }
        for tok in tokens {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed token {tok:?}"))?;
            match key {
                "digest" => {
                    digest = Some(u64::from_str_radix(value, 16).map_err(|_| "malformed digest")?);
                }
                "points" => points = Some(parse_num(Some(value), "points")?),
                "evaluations" => evaluations = Some(parse_num(Some(value), "evaluations")?),
                _ => return Err(format!("unknown done key {key:?}")),
            }
        }
        Ok(DoneSummary {
            digest: digest.ok_or("missing digest")?,
            points: points.ok_or("missing points")?,
            evaluations: evaluations.ok_or("missing evaluations")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_plans_roundtrip_through_the_grammar() {
        for plan in [
            CampaignPlan::fc(),
            CampaignPlan::pf(),
            CampaignPlan::proposed(),
            CampaignPlan::agnostic(),
            CampaignPlan::pf_spea2(),
            CampaignPlan::pf_with_tournament(3),
            CampaignPlan::random_subset(9),
            CampaignPlan::single_layer(Layer::ALL[2]),
        ] {
            let text = encode_plan(&plan);
            assert_eq!(parse_plan(&text).unwrap(), plan, "plan {text}");
        }
    }

    #[test]
    fn submit_requests_roundtrip() {
        let req = SubmitRequest {
            tenant: "team-a".to_owned(),
            app: AppSpec::Synthetic { tasks: 12, seed: 3 },
            budget: StageBudget::new(8, 4).with_seed(11),
            plan: CampaignPlan::proposed(),
            scenario: Scenario::Transient,
        };
        assert_eq!(SubmitRequest::parse(&req.encode()).unwrap(), req);
        assert!(
            !req.encode().contains("scenario="),
            "default scenario stays off the wire for back-compat"
        );
        let sobel = SubmitRequest {
            app: AppSpec::Sobel { seed: 42 },
            ..req
        };
        assert_eq!(SubmitRequest::parse(&sobel.encode()).unwrap(), sobel);
    }

    #[test]
    fn submit_requests_carry_scenarios() {
        for scenario in [
            Scenario::PermanentAging {
                mission_time_hours: 40_000.0,
            },
            Scenario::CheckpointModes,
            Scenario::FpgaMitigation,
        ] {
            let req = SubmitRequest {
                tenant: "team-a".to_owned(),
                app: AppSpec::Sobel { seed: 7 },
                budget: StageBudget::new(8, 4).with_seed(11),
                plan: CampaignPlan::fc(),
                scenario,
            };
            let line = req.encode();
            assert!(line.contains("scenario="), "non-default rides the wire");
            assert_eq!(SubmitRequest::parse(&line).unwrap(), req);
        }
        // Unknown axes come back as the typed scenario message.
        let bad = SubmitRequest::parse(
            "submit tenant=a app=sobel:1 population=4 generations=2 seed=1 \
             plan=fcCLR|f,nsga2,full,main,1,1,- scenario=warpdrive",
        );
        let msg = bad.expect_err("unknown scenario must be rejected");
        assert!(msg.contains("invalid scenario"), "typed message: {msg}");
    }

    #[test]
    fn malformed_wire_inputs_are_rejected_with_reasons() {
        assert!(AppSpec::parse("synthetic:12").is_err(), "missing seed");
        assert!(AppSpec::parse("synthetic:12:3:9").is_err(), "trailing");
        assert!(AppSpec::parse("fpga:1").is_err(), "unknown app");
        assert!(parse_plan("noname").is_err(), "missing separator");
        assert!(parse_plan("x|a,nsga2,full,main,1").is_err(), "short stage");
        assert!(
            parse_plan("x|a,nsga2,full,layer:9,1,1,-").is_err(),
            "bad layer"
        );
        assert!(
            parse_plan("x|a,nsga2,full,main,1,0,-").is_err(),
            "zero divisor"
        );
        assert!(SubmitRequest::parse("submit tenant=a b app=sobel:1").is_err());
        assert!(
            SubmitRequest::parse("submit tenant=../up app=sobel:1 population=4 generations=2 seed=1 plan=fcCLR|f,nsga2,full,main,1,1,-")
                .is_err(),
            "tenant is a directory name, path metacharacters rejected"
        );
    }

    #[test]
    fn plan_arg_shorthands_resolve() {
        assert_eq!(plan_from_arg("fc").unwrap(), CampaignPlan::fc());
        assert_eq!(
            plan_from_arg("pf-tournament:3").unwrap(),
            CampaignPlan::pf_with_tournament(3)
        );
        assert_eq!(
            plan_from_arg("random-subset:9").unwrap(),
            CampaignPlan::random_subset(9)
        );
        let raw = encode_plan(&CampaignPlan::proposed());
        assert_eq!(plan_from_arg(&raw).unwrap(), CampaignPlan::proposed());
        assert!(plan_from_arg("mystery").is_err());
    }

    #[test]
    fn plan_at_scenario_shorthands_resolve() {
        assert_eq!(
            plan_scenario_from_arg("fc").unwrap(),
            (CampaignPlan::fc(), Scenario::Transient)
        );
        assert_eq!(
            plan_scenario_from_arg("fc@lifetime:40000").unwrap(),
            (
                CampaignPlan::fc(),
                Scenario::PermanentAging {
                    mission_time_hours: 40_000.0
                }
            )
        );
        assert_eq!(
            plan_scenario_from_arg("proposed@chkmodes").unwrap(),
            (CampaignPlan::proposed(), Scenario::CheckpointModes)
        );
        assert_eq!(
            plan_scenario_from_arg("pf-tournament:3@fpga").unwrap(),
            (
                CampaignPlan::pf_with_tournament(3),
                Scenario::FpgaMitigation
            )
        );
        let err = plan_scenario_from_arg("fc@warpdrive").expect_err("unknown axis");
        assert!(err.contains("invalid scenario"), "typed message: {err}");
        assert!(plan_scenario_from_arg("mystery@fpga").is_err(), "bad plan");
    }

    #[test]
    fn done_summaries_roundtrip() {
        let done = DoneSummary {
            digest: 0xdead_beef_0123_4567,
            points: 7,
            evaluations: 640,
        };
        assert_eq!(DoneSummary::parse(&done.encode()).unwrap(), done);
        assert!(DoneSummary::parse("trace foo").is_err());
    }
}
