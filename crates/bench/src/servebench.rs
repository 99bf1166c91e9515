//! Server benchmark: stands up an in-process `clre-serve` server, drives
//! three concurrent tenants (fcCLR / pfCLR / proposed, same platform)
//! through it, and reports per-tenant submit-to-first-trace and
//! submit-to-done latencies plus the cross-tenant library sharing.
//!
//! Two correctness flags ride along with the timings:
//!
//! * `digest_parity` — every tenant's server-side front digest equals the
//!   same plan run in-process (serial, uncached); a latency number for a
//!   server that changes answers is worthless;
//! * `cross_tenant_sharing` — some tenant reused another's task-level
//!   work: its library came from the server's library memo (a hit, or a
//!   wait on another tenant's in-flight build). Tenants on distinct
//!   applications share no library and read `false`.
//!
//! [`serve`] returns the report as JSON (hand-formatted, like the other
//! bench reports) and writes it to `BENCH_serve.json` for CI to archive.

use std::time::Instant;

use clre::methodology::{ClrEarly, StageBudget};
use clre::CampaignPlan;
use clre_serve::client::{Event, ServeClient, Submission};
use clre_serve::server::{build_app, front_digest, ServeConfig, Server};
use clre_serve::wire::{AppSpec, SubmitRequest};

use crate::RunScale;

/// Task count of the benchmark workload (all tenants share it — sharing
/// the platform and application is what lets them share a library).
const TASKS: usize = 12;
/// Application seed, distinct from the other benches' workloads.
const APP_SEED: u64 = 3;
/// Worker budget the server schedules the tenants over.
const WORKERS: usize = 2;

/// GA budget per scale: the server bench measures scheduling and
/// streaming overhead, not GA convergence, so it stays modest even at
/// paper scale.
fn budget(scale: RunScale) -> StageBudget {
    match scale {
        RunScale::Tiny => StageBudget::new(8, 4).with_seed(11),
        RunScale::Smoke => StageBudget::new(16, 10).with_seed(11),
        RunScale::Paper => StageBudget::new(32, 30).with_seed(11),
    }
}

/// The three tenants and their plans.
fn tenants() -> [(&'static str, &'static str, CampaignPlan); 3] {
    [
        ("alpha", "fcCLR", CampaignPlan::fc()),
        ("beta", "pfCLR", CampaignPlan::pf()),
        ("gamma", "proposed", CampaignPlan::proposed()),
    ]
}

fn request(tenant: &str, plan: CampaignPlan, budget: &StageBudget, app_seed: u64) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_owned(),
        app: AppSpec::Synthetic {
            tasks: TASKS,
            seed: app_seed,
        },
        budget: budget.clone(),
        plan,
        scenario: clre::Scenario::Transient,
    }
}

/// One tenant's measured run through the server.
struct TenantRun {
    tenant: &'static str,
    plan: &'static str,
    submit_to_first_trace_us: u64,
    submit_to_done_us: u64,
    digest: u64,
    digest_matches: bool,
}

impl TenantRun {
    fn json(&self) -> String {
        format!(
            "{{\"tenant\": \"{}\", \"plan\": \"{}\", \"submit_to_first_trace_us\": {}, \
             \"submit_to_done_us\": {}, \"front_digest\": \"{:016x}\", \
             \"digest_matches_in_process\": {}}}",
            self.tenant,
            self.plan,
            self.submit_to_first_trace_us,
            self.submit_to_done_us,
            self.digest,
            self.digest_matches,
        )
    }
}

/// Submits `req` and streams to completion, timing first-trace and done
/// against the moment the submit frame went out.
fn drive_tenant(addr: &str, req: &SubmitRequest, expected: u64) -> TenantRun {
    let mut client = ServeClient::connect(addr).expect("connect");
    let t0 = Instant::now();
    match client.submit(req).expect("submit") {
        Submission::Accepted { .. } => {}
        Submission::Rejected { reason, detail } => {
            panic!("{}: rejected: {reason} {detail}", req.tenant)
        }
    }
    let mut first_trace_us = 0u64;
    let (digest, done_us) = loop {
        match client.next_event().expect("event") {
            Event::Trace(_) => {
                if first_trace_us == 0 {
                    first_trace_us = t0.elapsed().as_micros() as u64;
                }
            }
            Event::Done(summary) => break (summary.digest, t0.elapsed().as_micros() as u64),
            other => panic!("{}: campaign did not complete: {other:?}", req.tenant),
        }
    };
    let (tenant, plan) = tenants()
        .iter()
        .find(|(t, ..)| *t == req.tenant)
        .map(|(t, p, _)| (*t, *p))
        .expect("known tenant");
    TenantRun {
        tenant,
        plan,
        submit_to_first_trace_us: first_trace_us,
        submit_to_done_us: done_us,
        digest,
        digest_matches: digest == expected,
    }
}

/// The in-process baseline digest: same plan, serial, uncached.
fn local_digest(req: &SubmitRequest) -> u64 {
    let (platform, graph) = build_app(&req.app).expect("app builds");
    let front = ClrEarly::new(&graph, &platform)
        .expect("tDSE succeeds")
        .run(&req.plan, &req.budget)
        .expect("in-process campaign completes");
    front_digest(&front)
}

/// Sum of every `stats` counter whose key ends in `suffix`.
fn stat_sum(stats: &str, suffix: &str) -> u64 {
    stats
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .filter(|(key, _)| key.ends_with(suffix))
        .filter_map(|(_, value)| value.parse::<u64>().ok())
        .sum()
}

/// Runs the server benchmark at `scale` and returns the JSON report
/// (also written to `BENCH_serve.json`; a write failure is reported
/// inside the JSON rather than aborting the bench).
pub fn serve(scale: RunScale) -> String {
    let json = report(scale, [APP_SEED; 3]);
    if let Err(e) = std::fs::write("BENCH_serve.json", &json) {
        return format!("{json}# write failed: {e}\n");
    }
    json
}

/// The JSON report of the three tenants run concurrently through one
/// server, tenant `i` on the synthetic application seeded `app_seeds[i]`.
fn report(scale: RunScale, app_seeds: [u64; 3]) -> String {
    let budget = budget(scale);
    let requests: Vec<SubmitRequest> = tenants()
        .into_iter()
        .zip(app_seeds)
        .map(|((tenant, _, plan), seed)| request(tenant, plan, &budget, seed))
        .collect();
    let expected: Vec<u64> = requests.iter().map(local_digest).collect();

    let root = std::env::temp_dir().join(format!(
        "clre-servebench-{}-{}",
        std::process::id(),
        app_seeds.map(|s| s.to_string()).join("-")
    ));
    let _ = std::fs::remove_dir_all(&root);
    let config = ServeConfig::new(&root).with_workers(WORKERS);
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let stop = server.stop_flag();
    let server_thread = std::thread::spawn(move || server.run());

    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .zip(&expected)
            .map(|(req, &exp)| {
                let addr = &addr;
                scope.spawn(move || drive_tenant(addr, req, exp))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect::<Vec<_>>()
    });

    let mut client = ServeClient::connect(&addr).expect("stats connect");
    let stats = client.stats().expect("stats");
    drop(client);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);

    let memo_hits = stat_sum(&stats, "library.memo_hits");
    let memo_waits = stat_sum(&stats, "library.waits");
    let digest_parity = runs.iter().all(|r| r.digest_matches);
    let body: Vec<String> = runs.iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"bench\": \"serve\",\n  \"application_tasks\": {TASKS},\n  \"population\": {},\n  \"generations\": {},\n  \"workers\": {WORKERS},\n  \"tenants\": [\n{}\n  ],\n  \"library_memo_hits\": {memo_hits},\n  \"library_waits\": {memo_waits},\n  \"cross_tenant_sharing\": {},\n  \"digest_parity\": {digest_parity}\n}}\n",
        budget.population,
        budget.generations,
        body.join(",\n"),
        memo_hits + memo_waits > 0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_meets_acceptance_floor() {
        let json = serve(RunScale::Tiny);
        assert!(
            json.contains("\"digest_parity\": true"),
            "server fronts diverged from in-process baselines:\n{json}"
        );
        assert!(
            json.contains("\"cross_tenant_sharing\": true"),
            "no tenant reused another's library:\n{json}"
        );
        let _ = std::fs::remove_file("BENCH_serve.json");
    }

    #[test]
    fn tenants_on_distinct_apps_read_no_sharing() {
        let json = report(RunScale::Tiny, [APP_SEED, APP_SEED + 1, APP_SEED + 2]);
        assert!(
            json.contains("\"digest_parity\": true"),
            "server fronts diverged from in-process baselines:\n{json}"
        );
        assert!(
            json.contains("\"library_memo_hits\": 0") && json.contains("\"library_waits\": 0"),
            "distinct apps share no library:\n{json}"
        );
        assert!(
            json.contains("\"cross_tenant_sharing\": false"),
            "the sharing flag must be able to fail:\n{json}"
        );
    }
}
