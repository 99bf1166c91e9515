//! `clre-server` — the resident campaign server binary.
//!
//! ```text
//! clre-server --root DIR [--addr 127.0.0.1:7171] [--workers N]
//!             [--max-active N] [--tenant-quota N]
//!             [--trace-ring LINES] [--cache-ceiling ENTRIES]
//!             [--backend inprocess|threads|subprocess[:PATH]]
//! ```
//!
//! `--trace-ring` bounds each campaign's in-memory trace history (0 =
//! unbounded, default 4096 lines); older lines spill to `trace.txt`
//! and `attach from=n` replays them from there. `--cache-ceiling`
//! bounds the fitness entries of each shared evaluation cache (0 =
//! unbounded); beyond it the least-recently-used entries are evicted and
//! reported in `stats`.
//! `--backend` selects where evaluation batches run (default
//! `inprocess`); `subprocess` supervises a pool of `clre-exec-worker`
//! children, located via `$CLRE_EXEC_WORKER`, a sibling of this binary,
//! or the explicit `:PATH` suffix. Fronts are bit-identical across
//! backends.
//!
//! Prints `listening <addr>` once the socket is bound (so scripts using
//! `--addr 127.0.0.1:0` can read the ephemeral port), then serves until
//! `SIGTERM` or a `shutdown` request — both checkpoint and park every
//! in-flight campaign; restarting on the same `--root` resumes them.

use std::process::exit;

use clre::remote::BackendChoice;
use clre_serve::server::{install_sigterm_handler, ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: clre-server --root DIR [--addr HOST:PORT] [--workers N] \
         [--max-active N] [--tenant-quota N] [--trace-ring LINES] \
         [--cache-ceiling ENTRIES] [--backend inprocess|threads|subprocess[:PATH]]"
    );
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root = None;
    let mut addr = "127.0.0.1:7171".to_owned();
    let mut workers = 1;
    let mut max_active = 8;
    let mut tenant_quota = 4;
    let mut trace_ring = 4096;
    let mut cache_ceiling = 0;
    let mut backend = BackendChoice::InProcess;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--root" => root = Some(value("--root")),
            "--addr" => addr = value("--addr"),
            "--workers" => workers = parse(&value("--workers"), "--workers"),
            "--max-active" => max_active = parse(&value("--max-active"), "--max-active"),
            "--tenant-quota" => tenant_quota = parse(&value("--tenant-quota"), "--tenant-quota"),
            "--trace-ring" => trace_ring = parse(&value("--trace-ring"), "--trace-ring"),
            "--cache-ceiling" => {
                cache_ceiling = parse(&value("--cache-ceiling"), "--cache-ceiling");
            }
            "--backend" => {
                backend = BackendChoice::parse(&value("--backend")).unwrap_or_else(|e| {
                    eprintln!("--backend: {e}");
                    usage()
                });
            }
            _ => usage(),
        }
    }
    let Some(root) = root else { usage() };
    let config = ServeConfig::new(root)
        .with_workers(workers)
        .with_max_active(max_active)
        .with_tenant_quota(tenant_quota)
        .with_trace_ring(trace_ring)
        .with_cache_ceiling(cache_ceiling)
        .with_backend(backend);
    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("clre-server: bind {addr}: {e}");
            exit(1);
        }
    };
    install_sigterm_handler();
    match server.local_addr() {
        Ok(bound) => {
            // Stdout is the contract with wrapper scripts; flush so a
            // piped reader sees the port before the first connection.
            use std::io::Write as _;
            println!("listening {bound}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => eprintln!("clre-server: local_addr: {e}"),
    }
    server.run();
    println!("stopped");
}

fn parse(text: &str, what: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{what}: not a number: {text}");
        usage()
    })
}
