//! Server resilience contracts: graceful shutdown parks in-flight
//! campaigns and a restarted server resumes them bit-identically; a
//! dead client parks nothing — reconnecting resumes the stream from the
//! last received line.

mod common;

use common::{fresh_root, local_digest, tiny_request, RunningServer};

use clre::CampaignPlan;
use clre_serve::client::{Event, ServeClient, Submission};
use clre_serve::server::ServeConfig;
use clre_serve::wire::SubmitRequest;

/// `DeathPlan`-style connection-drop injector: a deterministic,
/// content-addressed choice of how many trace events to receive before
/// killing the connection — seeded like the chaos plans so reruns drop
/// at the same point.
struct DropPlan {
    seed: u64,
}

impl DropPlan {
    fn new(seed: u64) -> Self {
        DropPlan { seed }
    }

    /// How many trace events to consume before dropping, in
    /// `1..=ceiling` — FNV-1a over seed ‖ campaign key, so the plan is
    /// a pure function of its inputs.
    fn drop_after(&self, key: &str, ceiling: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize % ceiling.max(1)) + 1
    }
}

/// Generations of the park/resume campaign: enough that the campaign
/// outlasts a shutdown round trip by orders of magnitude, so it is always
/// still running when the stop flag lands.
const PARK_GENERATIONS: usize = 4_000;

fn accept(client: &mut ServeClient, request: &SubmitRequest) -> String {
    match client.submit(request).expect("submit") {
        Submission::Accepted { id } => id,
        Submission::Rejected { reason, detail } => panic!("rejected: {reason} {detail}"),
    }
}

/// Graceful shutdown mid-run: the in-flight campaign checkpoints and
/// parks (the streaming client is told so), a restarted server on the
/// same root resumes it automatically, and the resumed front digest is
/// bit-identical to the uninterrupted in-process baseline. Trace
/// history stays contiguous across the restart.
#[test]
fn shutdown_parks_and_restart_resumes_bit_identically() {
    let root = fresh_root("park-resume");
    // A budget that cannot finish first: after the two trace lines read
    // below, thousands of generations (about a second) remain, against a
    // shutdown round trip of a few milliseconds.
    let request = tiny_request("alpha", CampaignPlan::fc(), PARK_GENERATIONS);
    let expected = local_digest(&request);

    let server = RunningServer::start(ServeConfig::new(&root).with_workers(2));
    let mut client = ServeClient::connect(&server.addr).expect("connect");
    let id = accept(&mut client, &request);

    // Let the campaign get demonstrably under way, then ask the server
    // to shut down from a second connection (the wire-level equivalent
    // of SIGTERM, which CI exercises against the real binary).
    let mut pre_lines = Vec::new();
    for _ in 0..2 {
        match client.next_event().expect("early trace") {
            Event::Trace(line) => pre_lines.push(line),
            other => panic!("campaign ended before shutdown: {other:?}"),
        }
    }
    let mut admin = ServeClient::connect(&server.addr).expect("admin connect");
    admin.shutdown().expect("bye");

    let parked_lines = loop {
        match client.next_event().expect("stream until parked") {
            Event::Trace(line) => pre_lines.push(line),
            Event::Parked {
                id: parked_id,
                lines,
                ..
            } => {
                assert_eq!(parked_id, id);
                break lines;
            }
            other => panic!("expected parked, got {other:?}"),
        }
    };
    assert_eq!(
        parked_lines,
        pre_lines.len(),
        "parked event reports exactly the lines already streamed"
    );
    server.join();

    // Restart on the same root: the parked campaign resumes without any
    // client asking for it. Reattach from where streaming left off.
    let server = RunningServer::start(ServeConfig::new(&root).with_workers(2));
    let mut client = ServeClient::connect(&server.addr).expect("reconnect");
    client
        .attach("alpha", &id, pre_lines.len())
        .expect("reattach");
    let (post_lines, terminal) = client.drain().expect("drain resumed campaign");
    match terminal {
        Event::Done(summary) => assert_eq!(
            summary.digest, expected,
            "resumed front must be bit-identical to the uninterrupted baseline"
        ),
        other => panic!("expected done after resume, got {other:?}"),
    }

    // Full replay equals what the two attachments saw in pieces: the
    // trace history survived the park/restart contiguously.
    let mut replay = ServeClient::connect(&server.addr).expect("replay connect");
    replay.attach("alpha", &id, 0).expect("replay attach");
    let (all_lines, _) = replay.drain().expect("replay drain");
    let stitched: Vec<String> = pre_lines.iter().chain(post_lines.iter()).cloned().collect();
    assert_eq!(all_lines, stitched, "no lines lost or duplicated");
    server.stop();
}

/// The connection-drop injector: a client that dies mid-stream parks
/// nothing — the campaign runs to completion server-side — and a
/// reconnect resumes streaming from the last received line with no gap
/// and no overlap.
#[test]
fn client_disconnect_mid_stream_loses_nothing() {
    let root = fresh_root("drop-injector");
    let request = tiny_request("alpha", CampaignPlan::fc(), 8);
    let expected = local_digest(&request);

    let server = RunningServer::start(ServeConfig::new(&root).with_workers(2));
    let plan = DropPlan::new(0xD0_5E_ED);
    let drop_after = plan.drop_after("alpha/fcCLR", 3);

    let mut client = ServeClient::connect(&server.addr).expect("connect");
    let id = accept(&mut client, &request);
    let mut seen = Vec::new();
    for _ in 0..drop_after {
        match client.next_event().expect("pre-drop trace") {
            Event::Trace(line) => seen.push(line),
            other => panic!("campaign ended before the injected drop: {other:?}"),
        }
    }
    drop(client); // the injected mid-stream death

    // Reconnect and resume from the exact line index we had received.
    let mut client = ServeClient::connect(&server.addr).expect("reconnect");
    client
        .attach("alpha", &id, seen.len())
        .expect("reattach after drop");
    let (rest, terminal) = client.drain().expect("drain to completion");
    match terminal {
        Event::Done(summary) => assert_eq!(
            summary.digest, expected,
            "client death must not perturb the campaign"
        ),
        other => panic!("expected done, got {other:?}"),
    }

    // Continuity: replaying the whole log equals pre-drop ++ post-drop.
    let mut replay = ServeClient::connect(&server.addr).expect("replay connect");
    replay.attach("alpha", &id, 0).expect("replay attach");
    let (all_lines, _) = replay.drain().expect("replay drain");
    let stitched: Vec<String> = seen.iter().chain(rest.iter()).cloned().collect();
    assert_eq!(
        all_lines, stitched,
        "resumed stream continues from the last emitted generation"
    );
    server.stop();
}
