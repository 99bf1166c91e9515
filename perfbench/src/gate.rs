//! The correctness gate: every job's front digests must equal those of
//! the same job run serially, uncached and in-process. Comparisons run
//! after the timed phase, outside every timed interval.

/// Job outcome counters. A job counts once however many of its fronts
/// disagree.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    rejected: u64,
    mismatched: u64,
    tamper: bool,
    notes: Vec<String>,
}

impl Gate {
    /// A gate; with `tamper` set, the first reference digest it sees is
    /// corrupted, which must make the gate trip (the gate's self-test).
    pub fn new(tamper: bool) -> Self {
        Gate {
            tamper,
            ..Gate::default()
        }
    }

    /// Counts one submitted job.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// A job that returned an error instead of fronts.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.note(what.into());
    }

    /// A job the system refused to run.
    pub fn reject(&mut self, what: impl Into<String>) {
        self.rejected += 1;
        self.note(what.into());
    }

    /// Compares one job's front digests with its reference digests;
    /// returns whether they agree.
    pub fn compare(&mut self, job: &str, got: &[u64], reference: &[u64]) -> bool {
        let mut reference = reference.to_vec();
        if std::mem::take(&mut self.tamper) {
            if let Some(first) = reference.first_mut() {
                *first ^= 1;
            }
        }
        let ok = got == reference.as_slice();
        if !ok {
            self.mismatched += 1;
            self.note(format!(
                "{job}: front digests {} differ from the serial uncached reference {}",
                hex(got),
                hex(&reference)
            ));
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Jobs that failed, were rejected, or disagreed with their reference.
    pub fn bad(&self) -> u64 {
        self.failed + self.rejected + self.mismatched
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.bad() as f64 / self.attempted as f64
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    fn note(&mut self, what: String) {
        // Enough to diagnose; a broken run must not flood the report.
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

fn hex(digests: &[u64]) -> String {
    let parts: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre::apps::synthetic_app;
    use clre::{CampaignPlan, ClrEarly, StageBudget};
    use clre_exec::{ExecPool, Executor};
    use clre_serve::server::front_digest;

    /// One small real job: its digest at two workers, and the serial
    /// reference digest.
    fn small_job() -> (u64, u64) {
        let (platform, graph) = synthetic_app(8, 5).expect("app builds");
        let budget = StageBudget::new(8, 4).with_seed(9);
        let plan = CampaignPlan::proposed();
        let job = ClrEarly::new(&graph, &platform)
            .expect("tDSE")
            .with_executor(Executor::new(ExecPool::new(2)));
        let reference = ClrEarly::new(&graph, &platform).expect("tDSE");
        (
            front_digest(&job.run(&plan, &budget).expect("job runs")),
            front_digest(&reference.run(&plan, &budget).expect("reference runs")),
        )
    }

    #[test]
    fn gate_passes_matching_digests() {
        let (got, reference) = small_job();
        let mut gate = Gate::new(false);
        gate.attempt();
        assert!(gate.compare("job0", &[got], &[reference]));
        assert_eq!(gate.bad(), 0);
        assert_eq!(gate.error_rate(), 0.0);
    }

    #[test]
    fn gate_trips_on_a_tampered_reference_digest() {
        let (got, reference) = small_job();
        let mut gate = Gate::new(true);
        gate.attempt();
        gate.attempt();
        assert!(!gate.compare("job0", &[got], &[reference]));
        // Only the first comparison is tampered with.
        assert!(gate.compare("job1", &[got], &[reference]));
        assert_eq!(gate.bad(), 1);
        assert_eq!(gate.error_rate(), 0.5);
        assert!(gate.notes()[0].contains("job0"));
    }

    #[test]
    fn failures_and_rejections_count_as_errors() {
        let mut gate = Gate::new(false);
        for _ in 0..4 {
            gate.attempt();
        }
        gate.fail("job0: boom");
        gate.reject("job1: server-busy");
        assert_eq!(gate.bad(), 2);
        assert_eq!(gate.error_rate(), 0.5);
        assert_eq!(Gate::new(false).error_rate(), 1.0);
    }
}
