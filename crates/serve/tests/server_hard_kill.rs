//! Hard-kill recovery: a `clre-server` process killed with `SIGKILL` in
//! the middle of a campaign's second stage loses at most one generation.
//! Its checkpoint chain sits in that stage, no more than one generation
//! behind the last streamed trace line, and a server restarted on the
//! same root finishes the campaign with the uninterrupted in-process
//! digest.

#[allow(dead_code)] // the in-process server scaffolding is unused here
mod common;

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use clre::resilience::Checkpoint;
use clre::CampaignPlan;
use clre_serve::client::{Event, ServeClient, Submission};
use common::{fresh_root, local_digest, tiny_request};

/// Generations per stage: the second stage is still running long after
/// the kill lands.
const GENERATIONS: usize = 4_000;

/// The second-stage generation whose trace line triggers the kill.
const KILL_AT: usize = 5;

/// The checkpoint generations the server keeps (`drive_campaign`).
const KEEP: usize = 2;

/// A `clre-server` child process and its stdout, which stays open so the
/// server can still print on its way out.
struct ServerProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProcess {
    fn start(root: &Path) -> ServerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_clre-server"))
            .arg("--root")
            .arg(root)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn clre-server");
        let mut stdout = BufReader::new(child.stdout.take().expect("server stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening line");
        let addr = line
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("expected `listening ADDR`, got {line:?}"))
            .trim()
            .to_owned();
        ServerProcess {
            child,
            _stdout: stdout,
            addr,
        }
    }
}

#[test]
fn sigkill_mid_stage_loses_at_most_one_generation() {
    let root = fresh_root("hard-kill");
    let request = tiny_request("alpha", CampaignPlan::proposed(), GENERATIONS);
    let expected = local_digest(&request);

    let mut server = ServerProcess::start(&root);
    let mut client = ServeClient::connect(&server.addr).expect("connect");
    let id = match client.submit(&request).expect("submit") {
        Submission::Accepted { id } => id,
        Submission::Rejected { reason, detail } => panic!("rejected: {reason} {detail}"),
    };
    let kill_line = format!("trace-v1 phase=proposed/fc-stage step={KILL_AT} ");
    loop {
        match client.next_event().expect("stream until the kill point") {
            Event::Trace(line) if line.starts_with(&kill_line) => break,
            Event::Trace(_) => {}
            other => panic!("campaign ended before the kill point: {other:?}"),
        }
    }
    // `Child::kill` is SIGKILL on Unix: no stop flag, no parking save.
    server.child.kill().expect("kill server");
    server.child.wait().expect("reap server");
    drop(client);

    // A generation's trace line is flushed before its own save, so the
    // save of generation KILL_AT - 1 had completed when the line arrived.
    let ckpt = root.join("alpha").join(&id).join("run.ckpt");
    let (cp, _) = Checkpoint::load_with_fallback(&ckpt, KEEP).expect("checkpoint chain loads");
    assert_eq!(cp.stage, 1, "killed in the second stage");
    assert!(
        cp.state.generation + 1 >= KILL_AT,
        "checkpoint at generation {} lags the streamed generation {KILL_AT} by more than one",
        cp.state.generation
    );

    // Restart on the same root: the unfinished campaign resumes from the
    // checkpoint with no client involvement.
    let mut server = ServerProcess::start(&root);
    let mut client = ServeClient::connect(&server.addr).expect("reconnect");
    client.attach("alpha", &id, 0).expect("attach");
    let (lines, terminal) = client.drain().expect("drain resumed campaign");
    // The completed first stage came back from the checkpoint: its trace
    // lines (one per generation plus the initial batch) appear once.
    let first_stage = lines
        .iter()
        .filter(|l| l.starts_with("trace-v1 phase=proposed/pf-stage "))
        .count();
    assert_eq!(first_stage, GENERATIONS + 1, "the first stage ran again");
    match terminal {
        Event::Done(summary) => assert_eq!(
            summary.digest, expected,
            "hard-killed and resumed front must equal the uninterrupted baseline"
        ),
        other => panic!("expected done after restart, got {other:?}"),
    }
    let mut admin = ServeClient::connect(&server.addr).expect("admin connect");
    admin.shutdown().expect("bye");
    server.child.wait().expect("server exits");
    let _ = std::fs::remove_dir_all(&root);
}
