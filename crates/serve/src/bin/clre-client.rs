//! `clre-client` — command-line client for `clre-server`.
//!
//! ```text
//! clre-client submit --addr A --tenant T --app SPEC --plan PLAN
//!             --population N --generations N --seed N [--quiet]
//! clre-client attach --addr A --tenant T --id ID [--from N] [--quiet]
//! clre-client local  --app SPEC --plan PLAN --population N
//!             --generations N --seed N [--workers N]
//!             [--backend inprocess|threads|subprocess[:PATH]]
//! clre-client ping|stats|shutdown --addr A
//! ```
//!
//! `submit` streams trace lines to stdout and ends with the `done` (or
//! `parked`) line. `local` runs the identical campaign in-process and
//! prints the same `done digest=…` line — diffing the two is the
//! determinism check CI runs. APP is `synthetic:<tasks>:<seed>` or
//! `sobel:<seed>`; PLAN is a built-in name (`fc`, `pf`, `proposed`,
//! `agnostic`, `pf-spea2`, `pf-tournament:<k>`, `random-subset:<seed>`)
//! or a raw plan string, optionally suffixed `@<scenario>` to run it
//! under a reliability scenario (`transient`, `lifetime[:hours]`,
//! `chkmodes`, `fpga`) — e.g. `--plan fc@lifetime:40000`. Built-in plan
//! names also take an `/islands<n>` suffix (`proposed/islands4`) for
//! the island-model expansion. `local --backend` selects where
//! evaluation batches run; the printed digest is identical regardless.
//!
//! Exit codes: 0 done, 3 parked (reattach after restart), 4 rejected,
//! 1 error.

use std::process::exit;
use std::sync::Arc;

use clre::methodology::{ClrEarly, StageBudget};
use clre::remote::BackendChoice;
use clre::tdse::build_library_on;
use clre_exec::{ExecPool, Executor};
use clre_serve::client::{Event, ServeClient, Submission};
use clre_serve::server::{build_app, front_digest};
use clre_serve::wire::{plan_scenario_from_arg, AppSpec, DoneSummary, SubmitRequest};

fn usage() -> ! {
    eprintln!(
        "usage: clre-client submit|attach|local|ping|stats|shutdown [--addr HOST:PORT] \
         [--tenant T] [--app SPEC] [--plan PLAN] [--population N] [--generations N] \
         [--seed N] [--id ID] [--from N] [--workers N] \
         [--backend inprocess|threads|subprocess[:PATH]] [--quiet]"
    );
    exit(2);
}

#[derive(Default)]
struct Args {
    addr: Option<String>,
    tenant: Option<String>,
    app: Option<String>,
    plan: Option<String>,
    population: Option<usize>,
    generations: Option<usize>,
    seed: Option<u64>,
    id: Option<String>,
    from: usize,
    workers: usize,
    backend: BackendChoice,
    quiet: bool,
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else { usage() };
    let mut args = Args {
        workers: 1,
        ..Args::default()
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--tenant" => args.tenant = Some(value("--tenant")),
            "--app" => args.app = Some(value("--app")),
            "--plan" => args.plan = Some(value("--plan")),
            "--population" => args.population = value("--population").parse().ok(),
            "--generations" => args.generations = value("--generations").parse().ok(),
            "--seed" => args.seed = value("--seed").parse().ok(),
            "--id" => args.id = Some(value("--id")),
            "--from" => args.from = value("--from").parse().unwrap_or(0),
            "--workers" => args.workers = value("--workers").parse().unwrap_or(1),
            "--backend" => {
                args.backend = BackendChoice::parse(&value("--backend")).unwrap_or_else(|e| {
                    eprintln!("--backend: {e}");
                    usage()
                });
            }
            "--quiet" => args.quiet = true,
            _ => usage(),
        }
    }
    let code = match command.as_str() {
        "submit" => submit(&args),
        "attach" => attach(&args),
        "local" => local(&args),
        "ping" => simple(&args, |c| c.ping().map(|()| "pong".to_owned())),
        "stats" => simple(&args, ServeClient::stats),
        "shutdown" => simple(&args, |c| c.shutdown().map(|()| "bye".to_owned())),
        _ => usage(),
    };
    exit(code);
}

fn connect(args: &Args) -> ServeClient {
    let Some(addr) = &args.addr else {
        eprintln!("--addr is required");
        usage()
    };
    ServeClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("clre-client: connect {addr}: {e}");
        exit(1);
    })
}

fn request_from(args: &Args) -> SubmitRequest {
    let missing = |what: &str| -> ! {
        eprintln!("--{what} is required");
        usage()
    };
    let app =
        AppSpec::parse(args.app.as_deref().unwrap_or_else(|| missing("app"))).unwrap_or_else(|e| {
            eprintln!("clre-client: {e}");
            exit(2);
        });
    let (plan, scenario) =
        plan_scenario_from_arg(args.plan.as_deref().unwrap_or_else(|| missing("plan")))
            .unwrap_or_else(|e| {
                eprintln!("clre-client: {e}");
                exit(2);
            });
    SubmitRequest {
        tenant: args.tenant.clone().unwrap_or_else(|| "default".to_owned()),
        app,
        budget: StageBudget::new(
            args.population.unwrap_or_else(|| missing("population")),
            args.generations.unwrap_or_else(|| missing("generations")),
        )
        .with_seed(args.seed.unwrap_or_else(|| missing("seed"))),
        plan,
        scenario,
    }
}

fn stream_events(client: &mut ServeClient, quiet: bool) -> i32 {
    loop {
        match client.next_event() {
            Ok(Event::Trace(line)) => {
                if !quiet {
                    println!("{line}");
                }
            }
            Ok(Event::Done(summary)) => {
                println!("{}", summary.encode());
                return 0;
            }
            Ok(Event::Parked {
                id,
                generation,
                lines,
            }) => {
                println!("parked id={id} generation={generation} lines={lines}");
                return 3;
            }
            Ok(Event::Error(msg)) => {
                eprintln!("clre-client: server error: {msg}");
                return 1;
            }
            Err(e) => {
                eprintln!("clre-client: stream: {e}");
                return 1;
            }
        }
    }
}

fn submit(args: &Args) -> i32 {
    let request = request_from(args);
    let mut client = connect(args);
    match client.submit(&request) {
        Ok(Submission::Accepted { id }) => {
            println!("accepted id={id}");
            stream_events(&mut client, args.quiet)
        }
        Ok(Submission::Rejected { reason, detail }) => {
            if detail.is_empty() {
                eprintln!("clre-client: rejected: {reason}");
            } else {
                eprintln!("clre-client: rejected ({reason}): {detail}");
            }
            4
        }
        Err(e) => {
            eprintln!("clre-client: submit: {e}");
            1
        }
    }
}

fn attach(args: &Args) -> i32 {
    let (Some(tenant), Some(id)) = (&args.tenant, &args.id) else {
        eprintln!("--tenant and --id are required");
        usage()
    };
    let mut client = connect(args);
    match client.attach(tenant, id, args.from) {
        Ok(_lines) => stream_events(&mut client, args.quiet),
        Err(e) => {
            eprintln!("clre-client: attach: {e}");
            1
        }
    }
}

/// Runs the identical campaign in-process and prints the same
/// `done digest=…` line the server would send: the two outputs diffing
/// clean IS the determinism contract.
fn local(args: &Args) -> i32 {
    let request = request_from(args);
    let (platform, graph) = match build_app(&request.app) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("clre-client: {e}");
            return 1;
        }
    };
    let backend = match args.backend.build(args.workers) {
        Ok(backend) => backend,
        Err(e) => {
            eprintln!("clre-client: backend: {e}");
            return 1;
        }
    };
    let mut exec = Executor::new(ExecPool::new(args.workers));
    if let Some(backend) = backend {
        exec = exec.with_eval_backend(backend);
    }
    // The library sweep keeps to `--workers` as well, as the server's
    // cold builds keep to its worker budget.
    let built = request.scenario.tdse_config().and_then(|tdse| {
        let (library, health) =
            build_library_on(&graph, &platform, &tdse, &ExecPool::new(args.workers))?;
        ClrEarly::from_library(&graph, &platform, tdse, Arc::new(library), health)
    });
    let dse = match built {
        Ok(dse) => dse
            .with_objectives(request.scenario.system_objectives())
            .with_executor(exec)
            .with_remote(request.app.clone(), request.scenario),
        Err(e) => {
            eprintln!("clre-client: task-level DSE: {e}");
            return 1;
        }
    };
    match dse.run(&request.plan, &request.budget) {
        Ok(front) => {
            let summary = DoneSummary {
                digest: front_digest(&front),
                points: front.front().len(),
                evaluations: front.evaluations,
            };
            println!("{}", summary.encode());
            0
        }
        Err(e) => {
            eprintln!("clre-client: campaign: {e}");
            1
        }
    }
}

fn simple(args: &Args, call: impl FnOnce(&mut ServeClient) -> std::io::Result<String>) -> i32 {
    let mut client = connect(args);
    match call(&mut client) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("clre-client: {e}");
            1
        }
    }
}
