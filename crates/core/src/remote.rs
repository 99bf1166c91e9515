//! Remote evaluation of the system-level mapping problem: the
//! `clre-eval v1` context grammar plus the vocabulary that lets a
//! subprocess worker (`clre-exec-worker`) reconstruct a
//! [`SystemProblem`] from a one-line description and evaluate genomes
//! shipped as text (DESIGN.md §17).
//!
//! The contract is *reconstruct, then verify*: a context names the
//! application ([`AppSpec`]), the reliability [`Scenario`], the choice
//! mode and the stage's library source — everything needed to rebuild
//! the problem from scratch — **and** carries the client-side
//! [`SystemProblem::content_digest`]. The worker rebuilds the problem
//! and refuses the context unless its own digest matches, so a client
//! that customized objectives or QoS bounds beyond what the scenario
//! implies falls back to in-process evaluation instead of silently
//! computing different fitness values. Combined with the bit-exact
//! `f64` hex transport of [`clre_exec::wire`], a remote evaluation is
//! indistinguishable from a local one.
//!
//! # Examples
//!
//! ```
//! use clre::apps::AppSpec;
//! use clre::campaign::LibrarySource;
//! use clre::encoding::ChoiceMode;
//! use clre::remote::RemoteContext;
//! use clre::scenario::Scenario;
//!
//! let ctx = RemoteContext {
//!     app: AppSpec::Synthetic { tasks: 8, seed: 3 },
//!     scenario: Scenario::Transient,
//!     mode: ChoiceMode::ParetoFiltered,
//!     library: LibrarySource::Main,
//!     digest: 0xdead_beef,
//! };
//! let line = ctx.encode();
//! assert_eq!(RemoteContext::parse(&line).unwrap(), ctx);
//! ```

use std::sync::Arc;

use clre_exec::{EvalVocab, ExecPool, ItemEval};
use clre_model::{Platform, TaskGraph};

use crate::apps::AppSpec;
use crate::campaign::LibrarySource;
use crate::encoding::{ChoiceMode, Codec, Genome};
use crate::library::ImplLibrary;
use crate::methodology::{ClrEarly, Layer};
use crate::problem::SystemProblem;
use crate::resilience::{encode_genome, parse_genome};
use crate::scenario::Scenario;
use crate::tdse::build_library_on;
use crate::DseError;

/// Version tag opening every evaluation context line.
const CONTEXT_HEADER: &str = "clre-eval v1";

/// Everything a worker needs to rebuild one stage's [`SystemProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteContext {
    /// The application + platform pair, by name.
    pub app: AppSpec,
    /// The reliability scenario (fault model, catalog, objectives).
    pub scenario: Scenario,
    /// The stage's genome sampling mode.
    pub mode: ChoiceMode,
    /// The stage's implementation-library source.
    pub library: LibrarySource,
    /// The client-side [`SystemProblem::content_digest`]; the worker
    /// verifies its reconstruction against this before evaluating.
    pub digest: u64,
}

impl RemoteContext {
    /// The canonical one-line form:
    /// `clre-eval v1 app=<spec> scenario=<name> mode=<full|pf>
    /// lib=<main|layer:NAME|subset:SEED> digest=<016x>`.
    pub fn encode(&self) -> String {
        format!(
            "{CONTEXT_HEADER} app={} scenario={} mode={} lib={} digest={:016x}",
            self.app.encode(),
            self.scenario.name(),
            encode_mode(self.mode),
            encode_library(self.library),
            self.digest,
        )
    }

    /// Parses the canonical form back.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field —
    /// surfaced verbatim to the submitting client as the context
    /// rejection.
    pub fn parse(text: &str) -> Result<Self, String> {
        let rest = text
            .strip_prefix(CONTEXT_HEADER)
            .ok_or_else(|| format!("expected {CONTEXT_HEADER:?} header in {text:?}"))?;
        let mut app = None;
        let mut scenario = None;
        let mut mode = None;
        let mut library = None;
        let mut digest = None;
        for field in rest.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed context field {field:?}"))?;
            match key {
                "app" => app = Some(AppSpec::parse(value)?),
                "scenario" => {
                    scenario = Some(Scenario::parse(value).map_err(|e| e.to_string())?);
                }
                "mode" => mode = Some(parse_mode(value)?),
                "lib" => library = Some(parse_library(value)?),
                "digest" => {
                    digest = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| format!("malformed digest {value:?}"))?,
                    );
                }
                other => return Err(format!("unknown context field {other:?}")),
            }
        }
        let missing = |what: &str| format!("context missing {what}= field");
        Ok(RemoteContext {
            app: app.ok_or_else(|| missing("app"))?,
            scenario: scenario.ok_or_else(|| missing("scenario"))?,
            mode: mode.ok_or_else(|| missing("mode"))?,
            library: library.ok_or_else(|| missing("lib"))?,
            digest: digest.ok_or_else(|| missing("digest"))?,
        })
    }
}

fn encode_mode(mode: ChoiceMode) -> &'static str {
    match mode {
        ChoiceMode::Full => "full",
        ChoiceMode::ParetoFiltered => "pf",
    }
}

fn parse_mode(text: &str) -> Result<ChoiceMode, String> {
    match text {
        "full" => Ok(ChoiceMode::Full),
        "pf" => Ok(ChoiceMode::ParetoFiltered),
        other => Err(format!("unknown choice mode {other:?} (expected full|pf)")),
    }
}

fn encode_library(library: LibrarySource) -> String {
    match library {
        LibrarySource::Main => "main".to_owned(),
        LibrarySource::SingleLayer(layer) => format!("layer:{}", layer.name()),
        LibrarySource::RandomSubset(seed) => format!("subset:{seed}"),
    }
}

fn parse_library(text: &str) -> Result<LibrarySource, String> {
    if text == "main" {
        return Ok(LibrarySource::Main);
    }
    if let Some(name) = text.strip_prefix("layer:") {
        let layer = Layer::ALL
            .into_iter()
            .find(|l| l.name() == name)
            .ok_or_else(|| format!("unknown layer {name:?}"))?;
        return Ok(LibrarySource::SingleLayer(layer));
    }
    if let Some(seed) = text.strip_prefix("subset:") {
        return seed
            .parse()
            .map(LibrarySource::RandomSubset)
            .map_err(|_| format!("malformed subset seed {seed:?}"));
    }
    Err(format!(
        "unknown library source {text:?} (expected main, layer:NAME, or subset:SEED)"
    ))
}

/// The text form of one genome item: `len task:pe:choice …` — the same
/// codec the checkpoint format uses, so every wire-visible genome reads
/// the same everywhere.
pub fn encode_genome_text(genome: &Genome) -> String {
    let mut out = String::new();
    encode_genome(&mut out, genome);
    out
}

/// Parses [`encode_genome_text`]'s form back.
///
/// # Errors
///
/// [`DseError::Checkpoint`] describing the first malformed token.
fn decode_genome_text(item: &str) -> Result<Genome, DseError> {
    let mut tokens = item.split_whitespace();
    let genome = parse_genome(&mut tokens)?;
    match tokens.next() {
        Some(extra) => Err(DseError::Checkpoint {
            what: format!("trailing genome token {extra:?}"),
        }),
        None => Ok(genome),
    }
}

/// The evaluation vocabulary of the DSE: resolves `clre-eval v1`
/// contexts into ready-to-run [`SystemProblem`] evaluators. This is
/// what the `clre-exec-worker` binary serves and what an in-process
/// [`ThreadBackend`](clre_exec::ThreadBackend) is given to mirror the
/// subprocess path exactly.
///
/// Each distinct context leaks its reconstructed platform, graph and
/// library (they must outlive the `'static` evaluator); backends cache
/// resolved contexts, so the leak is bounded by the number of distinct
/// stages a process ever evaluates for.
#[derive(Debug, Default, Clone, Copy)]
pub struct DseVocab;

impl EvalVocab for DseVocab {
    fn resolve(&self, context: &str) -> Result<Arc<dyn ItemEval>, String> {
        let ctx = RemoteContext::parse(context)?;
        let (platform, graph) = ctx.app.build().map_err(|e| e.to_string())?;
        let platform: &'static Platform = Box::leak(Box::new(platform));
        let graph: &'static TaskGraph = Box::leak(Box::new(graph));
        // A worker process runs beside its sibling workers, so it builds
        // `with_scenario`'s libraries on its own thread instead of on an
        // `ExecPool::auto` pool of its own.
        let serial = ExecPool::serial();
        let tdse = ctx.scenario.tdse_config().map_err(|e| e.to_string())?;
        let (main, health) =
            build_library_on(graph, platform, &tdse, &serial).map_err(|e| e.to_string())?;
        let dse = ClrEarly::from_library(graph, platform, tdse, Arc::new(main), health)
            .map_err(|e| e.to_string())?
            .with_objectives(ctx.scenario.system_objectives());
        let library: &'static ImplLibrary = Box::leak(Box::new(
            dse.resolve_library(ctx.library, &serial)
                .map_err(|e| e.to_string())?
                .into_owned(),
        ));
        let codec = Codec::new(graph, platform, library, ctx.mode).map_err(|e| e.to_string())?;
        let problem = SystemProblem::new(codec, dse.objectives.clone(), dse.spec);
        let got = problem.content_digest();
        if got != ctx.digest {
            return Err(format!(
                "problem digest mismatch (client {:016x}, worker {got:016x}): the submitting \
                 problem carries customizations the context grammar cannot express",
                ctx.digest
            ));
        }
        Ok(Arc::new(DseItemEval { problem }))
    }
}

/// One resolved context: a reconstructed, digest-verified problem.
struct DseItemEval {
    problem: SystemProblem<'static>,
}

impl ItemEval for DseItemEval {
    fn eval(&self, item: &str) -> Result<String, String> {
        let genome = decode_genome_text(item).map_err(|e| e.to_string())?;
        let evaluation = self
            .problem
            .try_evaluate(&genome)
            .map_err(|e| e.to_string())?;
        let mut values = Vec::with_capacity(1 + evaluation.objectives.len());
        values.push(evaluation.violation);
        values.extend(evaluation.objectives);
        Ok(clre_exec::wire::encode_f64s(&values))
    }
}

/// Where a campaign's evaluation batches run. The choice never changes
/// results — fronts are bit-identical across all three — only where the
/// work happens.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// No [`EvalBackend`](clre_exec::EvalBackend): the executor's
    /// in-process pool evaluates decoded genomes directly (the historic
    /// path, and the only one that supports chaos injection).
    #[default]
    InProcess,
    /// [`ThreadBackend`](clre_exec::ThreadBackend) over [`DseVocab`]:
    /// still in-process, but through the same encoded-batch API the
    /// subprocess path uses.
    Threads,
    /// [`SubprocessBackend`](clre_exec::SubprocessBackend): a pool of
    /// `clre-exec-worker` children.
    Subprocess {
        /// The worker executable; `None` resolves through
        /// [`SubprocessBackend::default_command`](clre_exec::SubprocessBackend::default_command)
        /// (`$CLRE_EXEC_WORKER`, else a sibling of the current binary).
        command: Option<std::path::PathBuf>,
    },
}

impl BackendChoice {
    /// The short name reports carry (`inprocess`, `threads`,
    /// `subprocess`).
    pub fn name(&self) -> &'static str {
        match self {
            BackendChoice::InProcess => "inprocess",
            BackendChoice::Threads => "threads",
            BackendChoice::Subprocess { .. } => "subprocess",
        }
    }

    /// Parses a command-line argument:
    /// `inprocess` | `threads` | `subprocess[:<worker-path>]`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the unknown choice.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "inprocess" => return Ok(BackendChoice::InProcess),
            "threads" => return Ok(BackendChoice::Threads),
            "subprocess" => return Ok(BackendChoice::Subprocess { command: None }),
            _ => {}
        }
        if let Some(path) = text.strip_prefix("subprocess:") {
            if path.is_empty() {
                return Err("empty subprocess worker path".to_owned());
            }
            return Ok(BackendChoice::Subprocess {
                command: Some(std::path::PathBuf::from(path)),
            });
        }
        Err(format!(
            "unknown backend {text:?} (expected inprocess, threads, or subprocess[:<worker-path>])"
        ))
    }

    /// Builds the backend this choice names, for `workers` workers.
    /// `Ok(None)` means [`BackendChoice::InProcess`] — attach nothing
    /// and let the executor pool evaluate directly.
    ///
    /// # Errors
    ///
    /// When a subprocess worker executable cannot be located.
    pub fn build(&self, workers: usize) -> Result<Option<Arc<dyn clre_exec::EvalBackend>>, String> {
        match self {
            BackendChoice::InProcess => Ok(None),
            BackendChoice::Threads => Ok(Some(Arc::new(clre_exec::ThreadBackend::new(
                clre_exec::ExecPool::new(workers),
                Arc::new(DseVocab),
            )))),
            BackendChoice::Subprocess { command } => {
                let command = command
                    .clone()
                    .or_else(clre_exec::SubprocessBackend::default_command)
                    .ok_or_else(|| {
                        format!(
                            "cannot locate the clre-exec-worker binary: pass \
                             subprocess:<path> or set ${}",
                            clre_exec::WORKER_PATH_ENV
                        )
                    })?;
                Ok(Some(Arc::new(clre_exec::SubprocessBackend::new(
                    command, workers,
                ))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::synthetic_app;
    use crate::methodology::StageBudget;
    use clre_model::qos::QosSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn contexts() -> Vec<RemoteContext> {
        vec![
            RemoteContext {
                app: AppSpec::Synthetic { tasks: 8, seed: 3 },
                scenario: Scenario::Transient,
                mode: ChoiceMode::ParetoFiltered,
                library: LibrarySource::Main,
                digest: 7,
            },
            RemoteContext {
                app: AppSpec::Sobel { seed: 1 },
                scenario: Scenario::PermanentAging {
                    mission_time_hours: 100.0,
                },
                mode: ChoiceMode::Full,
                library: LibrarySource::SingleLayer(Layer::Ssw),
                digest: u64::MAX,
            },
            RemoteContext {
                app: AppSpec::Synthetic { tasks: 6, seed: 9 },
                scenario: Scenario::CheckpointModes,
                mode: ChoiceMode::Full,
                library: LibrarySource::RandomSubset(42),
                digest: 0,
            },
        ]
    }

    #[test]
    fn contexts_roundtrip() {
        for ctx in contexts() {
            let line = ctx.encode();
            assert_eq!(RemoteContext::parse(&line).unwrap(), ctx, "{line}");
        }
    }

    #[test]
    fn malformed_contexts_are_described() {
        for bad in [
            "clre-exec v1 app=sobel:1",
            "clre-eval v1 app=sobel:1 scenario=transient mode=pf lib=main",
            "clre-eval v1 app=sobel:1 scenario=transient mode=mid lib=main digest=0",
            "clre-eval v1 app=sobel:1 scenario=warp mode=pf lib=main digest=0",
            "clre-eval v1 app=sobel:1 scenario=transient mode=pf lib=layer:Zz digest=0",
            "clre-eval v1 app=sobel:1 scenario=transient mode=pf lib=main digest=zz",
            "clre-eval v1 app=sobel:1 scenario=transient mode=pf lib=main digest=0 x=1",
        ] {
            let err = RemoteContext::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn genome_text_roundtrips_and_rejects_trailers() {
        let (platform, graph) = synthetic_app(8, 3).unwrap();
        let dse = ClrEarly::new(&graph, &platform).unwrap();
        let codec =
            Codec::new(&graph, &platform, dse.library(), ChoiceMode::ParetoFiltered).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..8 {
            let genome = codec.random_genome(&mut rng);
            let text = encode_genome_text(&genome);
            assert_eq!(decode_genome_text(&text).unwrap(), genome);
            assert!(decode_genome_text(&format!("{text} 1:1:1")).is_err());
        }
        assert!(decode_genome_text("not-a-genome").is_err());
    }

    #[test]
    fn vocab_reconstructs_and_evaluates_bit_identically() {
        let (platform, graph) = synthetic_app(8, 3).unwrap();
        let dse = ClrEarly::new(&graph, &platform).unwrap();
        let codec =
            Codec::new(&graph, &platform, dse.library(), ChoiceMode::ParetoFiltered).unwrap();
        let problem = SystemProblem::new(
            codec.clone(),
            Scenario::Transient.system_objectives(),
            QosSpec::new(),
        );
        let ctx = RemoteContext {
            app: AppSpec::Synthetic { tasks: 8, seed: 3 },
            scenario: Scenario::Transient,
            mode: ChoiceMode::ParetoFiltered,
            library: LibrarySource::Main,
            digest: problem.content_digest(),
        };
        let eval = DseVocab.resolve(&ctx.encode()).unwrap();
        let mut rng = StdRng::seed_from_u64(StageBudget::smoke_test().seed);
        for _ in 0..6 {
            let genome = codec.random_genome(&mut rng);
            let want = problem.try_evaluate(&genome).unwrap();
            let got =
                clre_exec::wire::decode_f64s(&eval.eval(&encode_genome_text(&genome)).unwrap())
                    .unwrap();
            assert_eq!(got[0].to_bits(), want.violation.to_bits());
            assert_eq!(got.len(), 1 + want.objectives.len());
            for (g, w) in got[1..].iter().zip(&want.objectives) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn vocab_rejects_digest_mismatches() {
        let (platform, graph) = synthetic_app(8, 3).unwrap();
        let dse = ClrEarly::new(&graph, &platform).unwrap();
        let codec =
            Codec::new(&graph, &platform, dse.library(), ChoiceMode::ParetoFiltered).unwrap();
        let problem = SystemProblem::new(
            codec,
            Scenario::Transient.system_objectives(),
            QosSpec::new(),
        );
        let ctx = RemoteContext {
            app: AppSpec::Synthetic { tasks: 8, seed: 3 },
            scenario: Scenario::Transient,
            mode: ChoiceMode::ParetoFiltered,
            library: LibrarySource::Main,
            digest: problem.content_digest() ^ 1,
        };
        let err = DseVocab
            .resolve(&ctx.encode())
            .err()
            .expect("digest mismatch must be rejected");
        assert!(err.contains("digest mismatch"), "{err}");
    }
}
