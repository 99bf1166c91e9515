//! Server round-trip contracts: digest parity with in-process runs,
//! cross-tenant sharing of task-level work, admission control, and the
//! request surface (`ping`/`stats`).

mod common;

use common::{fresh_root, local_digest, stat, tiny_request, RunningServer};

use clre::CampaignPlan;
use clre_serve::client::{Event, ServeClient, Submission};
use clre_serve::server::ServeConfig;

fn submit_and_drain(addr: &str, request: &clre_serve::wire::SubmitRequest) -> (Vec<String>, Event) {
    let mut client = ServeClient::connect(addr).expect("connect");
    match client.submit(request).expect("submit") {
        Submission::Accepted { .. } => {}
        Submission::Rejected { reason, detail } => panic!("rejected: {reason} {detail}"),
    }
    client.drain().expect("drain")
}

/// The determinism contract: a campaign run through the server — pooled
/// workers, shared cache, fair gate, supervision — produces a front
/// digest bit-identical to the same plan run in-process (serial, no
/// cache). Checked for the single-stage fcCLR and the seeded two-stage
/// proposed flow.
#[test]
fn server_digest_matches_in_process_for_fc_and_proposed() {
    let server = RunningServer::start(ServeConfig::new(fresh_root("parity")).with_workers(2));
    for (tenant, plan) in [
        ("alpha", CampaignPlan::fc()),
        ("beta", CampaignPlan::proposed()),
    ] {
        let request = tiny_request(tenant, plan, 4);
        let expected = local_digest(&request);
        let (traces, terminal) = submit_and_drain(&server.addr, &request);
        assert!(
            !traces.is_empty(),
            "{tenant}: live trace lines streamed per generation"
        );
        assert!(
            traces.iter().all(|l| l.starts_with("trace-v1 ")),
            "{tenant}: events carry trace-v1 payloads"
        );
        match terminal {
            Event::Done(summary) => {
                assert_eq!(
                    summary.digest, expected,
                    "{tenant}: server front must be bit-identical to in-process"
                );
                assert!(summary.points > 0);
            }
            other => panic!("{tenant}: expected done, got {other:?}"),
        }
    }
    server.stop();
}

/// Two tenants on the same application run concurrently: both fronts
/// stay bit-identical to their isolated in-process runs, and the second
/// tenant reuses the first one's task-level work — its library comes
/// from the server's library memo (a hit, or a wait on the first
/// tenant's in-flight build).
#[test]
fn concurrent_tenants_share_task_level_work_without_result_drift() {
    let server = RunningServer::start(ServeConfig::new(fresh_root("xtenant")).with_workers(2));
    let fc = tiny_request("alpha", CampaignPlan::fc(), 4);
    let pf = tiny_request("beta", CampaignPlan::pf(), 4);
    let expected_fc = local_digest(&fc);
    let expected_pf = local_digest(&pf);

    let addr = server.addr.clone();
    let results = std::thread::scope(|scope| {
        let handles = [
            scope.spawn(|| submit_and_drain(&addr, &fc)),
            scope.spawn(|| submit_and_drain(&addr, &pf)),
        ];
        handles.map(|h| h.join().expect("tenant thread"))
    });
    for ((_, terminal), expected) in results.iter().zip([expected_fc, expected_pf]) {
        match terminal {
            Event::Done(summary) => assert_eq!(
                summary.digest, expected,
                "sharing must not perturb either tenant's front"
            ),
            other => panic!("expected done, got {other:?}"),
        }
    }

    let mut client = ServeClient::connect(&server.addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains(" cache.paper.fitness_hits="),
        "stats reports the paper-platform cache: {stats}"
    );
    let memo_shared = stat(&stats, "library.memo_hits") + stat(&stats, "library.waits");
    assert!(
        memo_shared > 0,
        "one tenant must reuse the other's library (stats: {stats})"
    );
    server.stop();
}

/// Stopping the server writes every buffered cache journal through, even
/// while a client connection (and so the server's shared state) is still
/// open: a fresh cache bound to the platform sidecar holds exactly the
/// entries the same campaign inserts in process.
#[test]
fn stopped_server_leaves_every_cache_entry_in_its_sidecar() {
    let root = fresh_root("cache-flush");
    let server = RunningServer::start(ServeConfig::new(&root).with_workers(2));
    let request = tiny_request("alpha", CampaignPlan::fc(), 4);
    let (_, terminal) = submit_and_drain(&server.addr, &request);
    assert!(matches!(terminal, Event::Done(_)), "got {terminal:?}");
    let mut idle = ServeClient::connect(&server.addr).expect("connect");
    idle.ping().expect("pong");
    server.stop();

    let (platform, graph) = clre_serve::server::build_app(&request.app).unwrap();
    let local = clre::EvalCache::shared();
    let tdse = request
        .scenario
        .apply_to(clre::tdse::TdseConfig::default())
        .unwrap();
    clre::methodology::ClrEarly::with_tdse_config(&graph, &platform, tdse)
        .unwrap()
        .with_objectives(request.scenario.system_objectives())
        .with_cache(std::sync::Arc::clone(&local))
        .run(&request.plan, &request.budget)
        .unwrap();

    let warm = clre::EvalCache::new();
    warm.bind_sidecar(&root.join("cache-paper.cache"))
        .expect("sidecar binds");
    assert_eq!(warm.sidecar_skipped(), 0);
    assert_eq!(
        warm.fitness_len(),
        local.fitness_len(),
        "the sidecar lost buffered entries"
    );
    drop(idle);
}

/// Admission control rejects deterministically: a zero per-tenant quota
/// reports `tenant-quota`, a zero global ceiling reports `server-busy`,
/// and a malformed submit line never reaches admission.
#[test]
fn admission_rejections_are_reported_with_reasons() {
    let server = RunningServer::start(ServeConfig::new(fresh_root("quota")).with_tenant_quota(0));
    let mut client = ServeClient::connect(&server.addr).expect("connect");
    match client
        .submit(&tiny_request("alpha", CampaignPlan::fc(), 2))
        .expect("submit")
    {
        Submission::Rejected { reason, .. } => assert_eq!(reason, "tenant-quota"),
        other => panic!("expected rejection, got {other:?}"),
    }
    server.stop();

    let server = RunningServer::start(ServeConfig::new(fresh_root("busy")).with_max_active(0));
    let mut client = ServeClient::connect(&server.addr).expect("connect");
    match client
        .submit(&tiny_request("alpha", CampaignPlan::fc(), 2))
        .expect("submit")
    {
        Submission::Rejected { reason, .. } => assert_eq!(reason, "server-busy"),
        other => panic!("expected rejection, got {other:?}"),
    }
    client
        .ping()
        .expect("connection stays usable after rejection");
    server.stop();
}

/// A submission carrying a reliability scenario runs the campaign under
/// that scenario's fault mechanism, catalog and objectives — and its
/// front digest matches the same scenario run in-process. The default
/// transient submissions above pin the original pipeline unchanged.
#[test]
fn scenario_submissions_run_under_their_scenario() {
    let server = RunningServer::start(
        // A tiny trace ring: the campaign streams more lines than the
        // ring holds, so `attach from=0` must replay from trace.txt.
        ServeConfig::new(fresh_root("scenario"))
            .with_workers(2)
            .with_trace_ring(2),
    );
    let mut request = tiny_request("alpha", CampaignPlan::fc(), 4);
    request.scenario = clre::Scenario::parse("lifetime:5000").unwrap();
    let expected = local_digest(&request);
    let (traces, terminal) = submit_and_drain(&server.addr, &request);
    let streamed = traces.len();
    match terminal {
        Event::Done(summary) => assert_eq!(
            summary.digest, expected,
            "server scenario run must match the in-process scenario run"
        ),
        other => panic!("expected done, got {other:?}"),
    }

    // The transient run of the same plan must differ: the scenario
    // actually changed the physics, it did not just relabel the run.
    let transient = tiny_request("alpha", CampaignPlan::fc(), 4);
    assert_ne!(
        local_digest(&transient),
        expected,
        "lifetime scenario must change the front"
    );

    // Attach from line 0: everything older than the 2-line ring comes
    // back from the trace.txt spill, indices intact.
    let mut client = ServeClient::connect(&server.addr).expect("connect");
    let id = "c1".to_owned();
    let lines = client.attach("alpha", &id, 0).expect("attach");
    assert_eq!(lines, streamed, "global line count survives the ring");
    let (replayed, terminal) = client.drain().expect("drain replay");
    assert_eq!(
        replayed.len(),
        streamed,
        "ring-evicted lines replay from disk"
    );
    assert!(matches!(terminal, Event::Done(_)));
    server.stop();
}

/// The request surface outside campaign streaming: ping, stats on an
/// idle server, and unknown-campaign attach.
#[test]
fn ping_stats_and_unknown_attach_behave() {
    let server = RunningServer::start(ServeConfig::new(fresh_root("surface")));
    let mut client = ServeClient::connect(&server.addr).expect("connect");
    client.ping().expect("pong");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("active=0"), "idle server: {stats}");
    let err = client
        .attach("ghost", "c99", 0)
        .expect_err("unknown campaign is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    server.stop();
}
