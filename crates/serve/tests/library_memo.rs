//! The server's task-level library memo: single-flight cold builds, the
//! `2 × workers` LRU bound, front parity between memo hits and cold
//! builds under every scenario preset, and failed builds never staying
//! resident.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{fresh_root, local_digest, stat, tiny_request, RunningServer};

use clre::CampaignPlan;
use clre_serve::client::{Event, ServeClient, Submission};
use clre_serve::memo::LibraryMemo;
use clre_serve::server::{ServeConfig, MEMO_PER_WORKER};
use clre_serve::wire::{AppSpec, SubmitRequest};

/// Submits `request` and returns its front digest.
fn digest_of(addr: &str, request: &SubmitRequest) -> u64 {
    let mut client = ServeClient::connect(addr).expect("connect");
    match client.submit(request).expect("submit") {
        Submission::Accepted { .. } => {}
        Submission::Rejected { reason, detail } => panic!("rejected: {reason} {detail}"),
    }
    match client.drain().expect("drain").1 {
        Event::Done(summary) => summary.digest,
        other => panic!("expected done, got {other:?}"),
    }
}

fn stats(addr: &str) -> String {
    ServeClient::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats")
}

fn on_app(mut request: SubmitRequest, seed: u64) -> SubmitRequest {
    request.app = AppSpec::Synthetic { tasks: 12, seed };
    request
}

/// Two concurrent submissions naming one new application solve its
/// library once: one build, the other submission a hit or a wait, and
/// equal fronts.
#[test]
fn concurrent_submissions_of_a_new_app_build_it_once() {
    let server = RunningServer::start(ServeConfig::new(fresh_root("memo-flight")).with_workers(2));
    let request = tiny_request("alpha", CampaignPlan::fc(), 3);
    let twin = SubmitRequest {
        tenant: "beta".to_owned(),
        ..request.clone()
    };
    let digests = std::thread::scope(|scope| {
        [
            scope.spawn(|| digest_of(&server.addr, &request)),
            scope.spawn(|| digest_of(&server.addr, &twin)),
        ]
        .map(|h| h.join().expect("tenant thread"))
    });
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], local_digest(&request));
    let stats = stats(&server.addr);
    assert_eq!(stat(&stats, "library.builds"), 1, "{stats}");
    assert_eq!(
        stat(&stats, "library.memo_hits") + stat(&stats, "library.waits"),
        1,
        "{stats}"
    );
    assert_eq!(stat(&stats, "library.resident"), 1, "{stats}");
    server.stop();
}

/// At most `2 × workers` libraries stay resident: one more distinct
/// application evicts the least recently used, which rebuilds to the
/// same front when named again.
#[test]
fn lru_bound_evicts_one_and_the_evicted_app_rebuilds_identically() {
    let workers = 1;
    let server =
        RunningServer::start(ServeConfig::new(fresh_root("memo-lru")).with_workers(workers));
    let capacity = MEMO_PER_WORKER * workers;
    let base = tiny_request("alpha", CampaignPlan::fc(), 2);
    let digests: Vec<u64> = (0..=capacity as u64)
        .map(|seed| digest_of(&server.addr, &on_app(base.clone(), 3 + seed)))
        .collect();
    let stats_after_fill = stats(&server.addr);
    assert_eq!(stat(&stats_after_fill, "library.evictions"), 1);
    assert_eq!(
        stat(&stats_after_fill, "library.resident"),
        capacity as u64,
        "{stats_after_fill}"
    );
    let again = digest_of(&server.addr, &on_app(base, 3));
    assert_eq!(
        again, digests[0],
        "the evicted app rebuilds to the same front"
    );
    let stats = stats(&server.addr);
    assert_eq!(
        stat(&stats, "library.builds"),
        capacity as u64 + 2,
        "{stats}"
    );
    assert_eq!(stat(&stats, "library.memo_hits"), 0, "{stats}");
    server.stop();
}

/// Under every scenario preset, a campaign whose library is a memo hit
/// reaches the same front as the cold build before it and as the
/// in-process run.
#[test]
fn memo_hit_fronts_equal_cold_build_fronts_for_every_scenario() {
    let server = RunningServer::start(ServeConfig::new(fresh_root("memo-parity")).with_workers(2));
    let scenarios = ["transient", "lifetime", "chkmodes", "fpga"];
    for (i, name) in scenarios.iter().enumerate() {
        let mut request = tiny_request("alpha", CampaignPlan::proposed(), 2);
        request.scenario = clre::Scenario::parse(name).unwrap();
        let cold = digest_of(&server.addr, &request);
        let warm = digest_of(&server.addr, &request);
        assert_eq!(warm, cold, "{name}: memo hit changed the front");
        assert_eq!(cold, local_digest(&request), "{name}: server vs in-process");
        let stats = stats(&server.addr);
        assert_eq!(stat(&stats, "library.builds"), i as u64 + 1, "{stats}");
        assert_eq!(stat(&stats, "library.memo_hits"), i as u64 + 1, "{stats}");
    }
    server.stop();
}

/// Every caller waiting on a failed build receives its error, and the
/// failed entry does not stay resident: the next call builds afresh.
#[test]
fn failed_build_reaches_every_waiter_and_is_not_resident() {
    let memo = Arc::new(LibraryMemo::new(4));
    let (started_tx, started_rx) = mpsc::channel();
    let builder = {
        let memo = Arc::clone(&memo);
        std::thread::spawn(move || {
            memo.get_or_build("app", || {
                started_tx.send(()).unwrap();
                // Long enough for the second caller to join this flight.
                std::thread::sleep(Duration::from_millis(300));
                Err("first build failed".to_owned())
            })
        })
    };
    started_rx.recv().unwrap();
    let waiter = memo.get_or_build("app", || Err("a second build ran".to_owned()));
    let built = builder.join().unwrap();
    assert_eq!(built.unwrap_err(), "first build failed");
    assert_eq!(waiter.unwrap_err(), "first build failed");
    let counts = memo.counts();
    assert_eq!((counts.builds, counts.waits, counts.resident), (1, 1, 0));

    let (platform, graph) =
        clre_serve::server::build_app(&tiny_request("alpha", CampaignPlan::fc(), 1).app).unwrap();
    let (library, health) =
        clre::tdse::build_library_with_health(&graph, &platform, &Default::default()).unwrap();
    memo.get_or_build("app", || Ok((Arc::new(library), health)))
        .expect("a later build succeeds");
    let counts = memo.counts();
    assert_eq!((counts.builds, counts.resident), (2, 1));
}
