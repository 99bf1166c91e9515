//! Regenerates the paper's tables and figures.
//!
//! Usage: `experiments <id> [--smoke|--tiny] [--workers N] [--trace FILE]
//! [--ledger FILE] [--halt-after-cells N] [--cache FILE]
//! [--backend inprocess|threads|subprocess[:PATH]]` where `<id>` is
//! one of `fig6a fig6b table4 fig7 table5 fig8 table6 fig9 fig10 table7
//! scaling chkpt multiobj ablations cachebench islandbench kernelbench scenariobench
//! servebench chaos all`.
//!
//! `--workers N` sets the evaluation worker-pool size (default: available
//! parallelism); results are bit-identical for any value. `--trace FILE`
//! writes the machine-readable per-generation execution trace (see
//! DESIGN.md §10) next to the printed report. `--ledger FILE` journals
//! every finished `(task count, method)` sweep cell so a killed run can
//! be restarted with the same file and resume at the last finished cell;
//! `--halt-after-cells N` stops after computing N uncached cells (exit
//! code 3) — the deterministic stand-in for a kill used by CI.
//! `--cache FILE` enables the process-wide evaluation cache (DESIGN.md
//! §12) persisted at FILE, so a rerun or a resumed sweep warm-starts from
//! everything already evaluated; results stay bit-identical, only faster.
//! `--ledger FILE` enables it implicitly, persisting next to the ledger.
//! `--backend` selects where evaluation batches run (in-process, a
//! thread pool, or supervised `clre-exec-worker` subprocesses); fronts
//! are bit-identical across backends.

use std::path::PathBuf;
use std::process::ExitCode;

use clre::remote::BackendChoice;
use clre_bench::exec_config::ExecConfig;
use clre_bench::{
    cachebench, chaosbench, islandbench, kernelbench, perfgate, scenariobench, servebench, sweep,
    system, tasklevel, RunScale,
};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig6a|fig6b|table4|fig7|table5|fig8|table6|fig9|fig10|table7|scaling|chkpt|multiobj|ablations|cachebench|islandbench|kernelbench|scenariobench|servebench|chaos|all> [--smoke|--tiny] [--workers N] [--trace FILE] [--ledger FILE] [--halt-after-cells N] [--cache FILE] [--backend inprocess|threads|subprocess[:PATH]]\n       experiments perfgate --baseline FILE --current FILE"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = RunScale::Paper;
    let mut workers = 0;
    let mut backend = BackendChoice::InProcess;
    let mut id: Option<&str> = None;
    let mut trace: Option<PathBuf> = None;
    let mut ledger: Option<PathBuf> = None;
    let mut halt_after: Option<usize> = None;
    let mut cache_file: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i).map(String::as_str).unwrap_or_else(|| usage())
        };
        match arg {
            "--smoke" => scale = RunScale::Smoke,
            "--tiny" => scale = RunScale::Tiny,
            "--workers" => match value(&mut i).parse() {
                Ok(n) => workers = n,
                Err(_) => usage(),
            },
            "--backend" => match BackendChoice::parse(value(&mut i)) {
                Ok(choice) => backend = choice,
                Err(e) => {
                    eprintln!("--backend: {e}");
                    usage();
                }
            },
            "--trace" => trace = Some(PathBuf::from(value(&mut i))),
            "--ledger" => ledger = Some(PathBuf::from(value(&mut i))),
            "--halt-after-cells" => match value(&mut i).parse() {
                Ok(n) => halt_after = Some(n),
                Err(_) => usage(),
            },
            "--cache" => cache_file = Some(PathBuf::from(value(&mut i))),
            "--baseline" => baseline = Some(PathBuf::from(value(&mut i))),
            "--current" => current = Some(PathBuf::from(value(&mut i))),
            _ if arg.starts_with("--") => usage(),
            _ if id.is_none() => id = Some(arg),
            _ => usage(),
        }
        i += 1;
    }
    let Some(id) = id else { usage() };
    // The perf gate is a pure file diff — no scale, workers or sidecar
    // machinery applies, so it short-circuits the experiment plumbing.
    if id == "perfgate" {
        let (Some(baseline), Some(current)) = (baseline, current) else {
            eprintln!("perfgate requires --baseline FILE and --current FILE");
            usage();
        };
        match perfgate::gate_files(&baseline, &current) {
            Ok(report) => {
                print!("{report}");
                return ExitCode::SUCCESS;
            }
            Err(report) => {
                eprint!("{report}");
                return ExitCode::FAILURE;
            }
        }
    }
    if halt_after.is_some() && ledger.is_none() {
        eprintln!("--halt-after-cells requires --ledger");
        usage();
    }
    if let Some(path) = &ledger {
        if let Err(e) = sweep::configure(path, halt_after) {
            eprintln!("failed to open sweep ledger {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // A journaled sweep warm-starts its evaluations too: persist the
        // cache next to the ledger unless --cache chose a spot itself.
        if cache_file.is_none() {
            cache_file = Some(clre::cache::cache_sidecar_path(path));
        }
    }
    let mut config = ExecConfig::new().with_workers(workers);
    if trace.is_some() {
        config = config.with_trace();
    }
    if let Some(path) = &cache_file {
        let cache = clre::EvalCache::shared();
        if let Err(e) = cache.bind_sidecar(path) {
            // The cache is an accelerator, never a correctness input:
            // run cold in memory rather than abort.
            eprintln!(
                "cache sidecar {} unusable ({e}); running cold",
                path.display()
            );
        }
        config = config.with_cache(cache);
    }
    let config = match config.with_backend(&backend) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("experiments: backend: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match id {
        "fig6a" => tasklevel::fig6a(),
        "fig6b" => tasklevel::fig6b(),
        "table4" => tasklevel::table4(),
        "fig9" => tasklevel::fig9(),
        "fig7" => system::fig7(scale, &config),
        "table5" => system::table5(scale, &config),
        "fig8" => system::fig8(scale, &config),
        "table6" => system::table6(scale, &config),
        "fig10" => system::fig10(scale, &config),
        "table7" => system::table7(scale, &config),
        "scaling" => system::scaling(scale, &config),
        "chkpt" => tasklevel::chkpt(),
        "multiobj" => system::multiobj(scale, &config),
        "ablations" => format!(
            "-- seeding --\n{}-- tournament --\n{}-- pruning --\n{}-- moea --\n{}-- communication --\n{}",
            system::ablation_seeding(scale, &config),
            system::ablation_tournament(scale, &config),
            system::ablation_pruning(scale, &config),
            system::ablation_moea(scale, &config),
            system::ablation_comm(scale, &config)
        ),
        "cachebench" => cachebench::eval_cache(scale, &config),
        "islandbench" => islandbench::islands(scale, &config),
        "chaos" => chaosbench::chaos(scale),
        "kernelbench" => kernelbench::moea_kernels(scale),
        "scenariobench" => scenariobench::scenarios(scale),
        "servebench" => servebench::serve(scale),
        "all" => clre_bench::run_all(scale, &config),
        _ => usage(),
    };
    println!("{out}");
    if let (Some(path), Some(sink)) = (trace, config.trace()) {
        let telemetry = sink.lock().expect("trace sink poisoned");
        if let Err(e) = telemetry.write_trace(&path) {
            eprintln!("failed to write trace to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace: {} records, {} evaluations -> {}",
            telemetry.records().len(),
            telemetry.total_evaluations(),
            path.display()
        );
    }
    if sweep::halted() {
        eprintln!("sweep halted: cell budget exhausted; rerun with the same --ledger to resume");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
