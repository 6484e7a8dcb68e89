//! Job scheduler: bounded queue, admission control, in-flight
//! deduplication, and per-request deadlines.
//!
//! A `RUN` request is admitted in one of four ways:
//!
//! 1. **Cached** — the content-addressed cache already holds the
//!    outcome (in-memory L1, or the persistent L2 store behind it —
//!    an L2 hit is promoted to L1 first); it is returned immediately,
//!    no job is created.
//! 2. **Joined** — an identical request (same canonical key) is already
//!    queued or running; the caller waits on that job's result instead
//!    of duplicating the work.
//! 3. **Submitted** — a fresh job enters the bounded queue.
//! 4. **Busy** — the queue is full; the caller is told to retry later
//!    rather than buffering unboundedly.
//!
//! Workers run jobs through [`asicgap::run_scenario_staged_observed`]
//! with an observer that feeds per-stage wall times into [`Metrics`]
//! and polls the request deadline between stages, so an expired
//! request abandons its flow at the next stage boundary instead of
//! holding a worker. Staged execution checkpoints every stage artifact
//! into the L2 store, so a request that shares a flow prefix with any
//! earlier one (this process or a previous incarnation) resumes from
//! the deepest cached checkpoint instead of recomputing from scratch.
//!
//! Lock discipline: the cache mutex and the scheduler state mutex are
//! never held at the same time, and job completion slots are only
//! locked after scheduler state is released.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use asicgap::frontend::DesignFormat;
use asicgap::netlist::{Netlist, NetlistError};
use asicgap::{
    close_timing_staged_cancellable, run_scenario_staged_observed, ArtifactStore, FlowObserver,
    FlowStage, GapError, MemStore, Verdict, WorkloadSpec,
};

use crate::cache::ResultCache;
use crate::metrics::Metrics;
use crate::proto::{CloseRequest, RunRequest};

/// The two kinds of flow work a job can carry: an open-loop scenario
/// run, or a closed-loop timing-closure run. Both are cached and
/// deduplicated under their own canonical keys, which can never collide
/// (the `CLOSE` key embeds the flow key under a distinct header).
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// `RUN`: one scenario flow.
    Run(RunRequest),
    /// `CLOSE`: one timing-closure flow.
    Close(CloseRequest),
}

impl Work {
    /// The content-addressed identity of the work.
    pub fn canonical_key(&self) -> String {
        match self {
            Work::Run(r) => r.canonical_key(),
            Work::Close(c) => c.canonical_key(),
        }
    }

    fn deadline_ms(&self) -> u32 {
        match self {
            Work::Run(r) => r.deadline_ms,
            Work::Close(c) => c.run.deadline_ms,
        }
    }
}

/// One submitted flow run, shared between the submitting connection,
/// any deduplicated joiners, and the worker that executes it.
pub struct Job {
    hash: u64,
    key: String,
    work: Work,
    submitted: Instant,
    deadline: Option<Instant>,
    slot: Mutex<Option<Result<String, String>>>,
    done: Condvar,
}

impl Job {
    fn new(hash: u64, key: String, work: Work) -> Job {
        let deadline = (work.deadline_ms() > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(work.deadline_ms())));
        Job {
            hash,
            key,
            work,
            submitted: Instant::now(),
            deadline,
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Blocks until the job completes; returns the canonical outcome
    /// text or a one-line error message.
    pub fn wait(&self) -> Result<String, String> {
        let mut slot = self.slot.lock().expect("job slot lock");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("job slot lock");
        }
        slot.clone().expect("loop exits only when filled")
    }

    /// The result if the job has completed, without blocking. The
    /// event loop polls this between readiness sweeps instead of
    /// parking a thread per pending reply.
    pub fn try_result(&self) -> Option<Result<String, String>> {
        self.slot.lock().expect("job slot lock").clone()
    }

    fn complete(&self, result: Result<String, String>) {
        *self.slot.lock().expect("job slot lock") = Some(result);
        self.done.notify_all();
    }
}

/// How [`Scheduler::submit`] disposed of a request.
pub enum Admission {
    /// Served from cache; the canonical outcome text.
    Cached(String),
    /// A fresh job was queued; wait on it.
    Submitted(Arc<Job>),
    /// An identical job was already in flight; wait on it.
    Joined(Arc<Job>),
    /// Queue full (or shutting down); retry later.
    Busy,
}

struct State {
    queue: VecDeque<Arc<Job>>,
    inflight: HashMap<u64, Arc<Job>>,
    shutdown: bool,
}

/// Flow observer wired to the metrics layer and a request deadline.
struct StageObserver<'a> {
    metrics: &'a Metrics,
    deadline: Option<Instant>,
}

impl FlowObserver for StageObserver<'_> {
    fn stage_done(&self, stage: FlowStage, elapsed: Duration) {
        self.metrics.record_stage(stage, elapsed);
    }

    fn poll_cancel(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The admission-controlled job scheduler.
pub struct Scheduler {
    queue_cap: usize,
    state: Mutex<State>,
    work_cv: Condvar,
    cache: ResultCache,
    /// L2: persistent artifact + outcome store behind the in-memory
    /// LRU. Flow checkpoints and finished outcome texts both land
    /// here, so they survive restarts and are shared across requests.
    store: Arc<dyn ArtifactStore>,
    metrics: Arc<Metrics>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Uploaded design payloads, keyed by [`asicgap::content_hash`] of
    /// the text. `LOAD` fills it; `RUN`/`CLOSE` on a `file/...` workload
    /// reads it.
    designs: Mutex<HashMap<u64, (DesignFormat, Arc<String>)>>,
}

impl Scheduler {
    /// Starts `workers` flow workers with a queue bounded at
    /// `queue_cap` and a result cache of `cache_budget` bytes, backed
    /// by a process-local in-memory L2.
    pub fn start(workers: usize, queue_cap: usize, cache_budget: usize) -> Arc<Scheduler> {
        Scheduler::start_with_store(workers, queue_cap, cache_budget, Arc::new(MemStore::new()))
    }

    /// [`Scheduler::start`] with an explicit L2 artifact store — the
    /// daemon passes a persistent segment store here so stage
    /// checkpoints and outcomes survive restarts.
    pub fn start_with_store(
        workers: usize,
        queue_cap: usize,
        cache_budget: usize,
        store: Arc<dyn ArtifactStore>,
    ) -> Arc<Scheduler> {
        let sched = Arc::new(Scheduler {
            queue_cap,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            cache: ResultCache::new(cache_budget),
            store,
            metrics: Arc::new(Metrics::default()),
            workers: Mutex::new(Vec::new()),
            designs: Mutex::new(HashMap::new()),
        });
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let me = Arc::clone(&sched);
            handles.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || me.worker_loop())
                    .expect("spawn worker"),
            );
        }
        *sched.workers.lock().expect("workers lock") = handles;
        sched
    }

    /// Snapshot of metrics plus current cache occupancy.
    pub fn stats(&self) -> crate::metrics::MetricsSnapshot {
        self.metrics
            .snapshot(self.cache.len(), self.cache.used_bytes())
    }

    /// Admits one `RUN` request; see the module docs for the four
    /// outcomes.
    pub fn submit(&self, req: RunRequest) -> Admission {
        self.submit_work(Work::Run(req))
    }

    /// Admits one `CLOSE` request, same admission paths as `RUN`.
    pub fn submit_close(&self, req: CloseRequest) -> Admission {
        self.submit_work(Work::Close(req))
    }

    /// Stores an uploaded design payload and returns its canonical
    /// `file/<format>/<hash>` workload key. The payload is parsed up
    /// front so a malformed design is rejected at `LOAD` time, not
    /// deep inside a flow run.
    ///
    /// # Errors
    ///
    /// A one-line message when the payload does not parse as `format`.
    pub fn load_design(&self, format: DesignFormat, payload: String) -> Result<String, String> {
        asicgap::frontend::parse_design(format, &payload)
            .map_err(|e| format!("load failed: {e}"))?;
        let hash = asicgap::content_hash(&payload);
        self.designs
            .lock()
            .expect("designs lock")
            .entry(hash)
            .or_insert((format, Arc::new(payload)));
        Ok(format!("file/{}/{hash:016x}", format.canonical()))
    }

    /// Builds a workload netlist, resolving `file/...` specs through
    /// the design store (wire-parsed `File` specs carry no path; their
    /// payload must have been `LOAD`ed first).
    fn build_workload(
        &self,
        spec: &WorkloadSpec,
        lib: &asicgap::cells::Library,
    ) -> Result<Netlist, NetlistError> {
        if let WorkloadSpec::File { path, format, hash } = spec {
            if path.is_empty() {
                let stored = self
                    .designs
                    .lock()
                    .expect("designs lock")
                    .get(hash)
                    .cloned();
                let Some((fmt, text)) = stored else {
                    return Err(NetlistError::Invalid {
                        summary: format!("design {} not loaded on this server", spec.canonical()),
                    });
                };
                if fmt != *format {
                    return Err(NetlistError::Invalid {
                        summary: format!("design {hash:016x} was loaded as {fmt}, not {format}"),
                    });
                }
                return asicgap::frontend::load_design(*format, &text, lib).map_err(|e| {
                    NetlistError::Invalid {
                        summary: format!("frontend: {e}"),
                    }
                });
            }
        }
        spec.build(lib)
    }

    /// Admits one unit of work; see the module docs for the four
    /// outcomes.
    fn submit_work(&self, work: Work) -> Admission {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let key = work.canonical_key();
        let hash = asicgap::content_hash(&key);
        if let Some(text) = self.cache.get(hash, &key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Admission::Cached(text);
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(text) = self.store.get(&key) {
            // L2 hit: an earlier process computed (or an evicted L1 line
            // held) this exact outcome. Promote and serve it.
            self.metrics.l2_hits.fetch_add(1, Ordering::Relaxed);
            self.cache.insert(hash, &key, &text);
            return Admission::Cached(text);
        }
        self.metrics.l2_misses.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock().expect("sched lock");
        if state.shutdown {
            self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Admission::Busy;
        }
        if let Some(job) = state.inflight.get(&hash) {
            // A colliding-but-different key must not join: it would get
            // the wrong outcome. It can't take the map slot either, so
            // reject it as Busy (vanishingly rare with 64-bit FNV).
            if job.key == key {
                self.metrics.dedup_joins.fetch_add(1, Ordering::Relaxed);
                return Admission::Joined(Arc::clone(job));
            }
            self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Admission::Busy;
        }
        if state.queue.len() >= self.queue_cap {
            self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Admission::Busy;
        }
        let job = Arc::new(Job::new(hash, key, work));
        state.queue.push_back(Arc::clone(&job));
        state.inflight.insert(hash, Arc::clone(&job));
        let depth = state.queue.len();
        // Stored under the lock, like the worker's store on pop, so the
        // last store is always the current depth.
        self.metrics
            .queue_depth
            .store(depth as u64, Ordering::Relaxed);
        drop(state);
        self.metrics.queue_depth_hist.record(depth as u64);
        self.work_cv.notify_one();
        Admission::Submitted(job)
    }

    /// Begins a graceful drain: no new jobs are admitted, queued jobs
    /// finish, workers then exit. Call [`Scheduler::join`] to wait.
    pub fn shutdown(&self) {
        self.state.lock().expect("sched lock").shutdown = true;
        self.work_cv.notify_all();
    }

    /// Waits for all workers to exit (after [`Scheduler::shutdown`]).
    pub fn join(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("sched lock");
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        let depth = state.queue.len();
                        self.metrics
                            .queue_depth
                            .store(depth as u64, Ordering::Relaxed);
                        break Some(job);
                    }
                    if state.shutdown {
                        break None;
                    }
                    state = self.work_cv.wait(state).expect("sched lock");
                }
            };
            let Some(job) = job else { return };
            let result = self.execute(&job);
            // Retire from in-flight before publishing the result so a
            // later identical request re-runs (or hits cache) instead of
            // joining a finished job.
            self.state
                .lock()
                .expect("sched lock")
                .inflight
                .remove(&job.hash);
            job.complete(result);
        }
    }

    fn execute(&self, job: &Job) -> Result<String, String> {
        let obs = StageObserver {
            metrics: &self.metrics,
            deadline: job.deadline,
        };
        if obs.poll_cancel() {
            self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            return Err("cancelled before start (deadline expired in queue)".to_string());
        }
        // A flow that panics must cost its own request and nothing
        // else: unwinding out of here would end the worker with the job
        // still in flight, and its client — and everyone joined on it —
        // would wait for ever. The flow owns what it mutates; the cache,
        // store and counters are written only after it has returned.
        let run = AssertUnwindSafe(|| match &job.work {
            Work::Run(req) => self.execute_run(job, req, &obs),
            Work::Close(req) => self.execute_close(job, req),
        });
        catch_unwind(run).unwrap_or_else(|panic| {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            // Replies are one line.
            Err(format!("flow panicked: {}", what.replace('\n', " ")))
        })
    }

    fn finish(&self, job: &Job, text: String) -> Result<String, String> {
        self.cache.insert(job.hash, &job.key, &text);
        self.store.put(&job.key, &text);
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .latency_us
            .record(job.submitted.elapsed().as_micros() as u64);
        Ok(text)
    }

    fn execute_run(
        &self,
        job: &Job,
        req: &RunRequest,
        obs: &StageObserver<'_>,
    ) -> Result<String, String> {
        let scenario = req.scenario();
        let run = run_scenario_staged_observed(
            &scenario,
            &req.workload.canonical(),
            |lib| self.build_workload(&req.workload, lib),
            req.verify,
            &*self.store,
            obs,
        );
        match run {
            Ok((outcome, reuse)) => {
                self.metrics.record_reuse(&reuse);
                self.finish(job, outcome.to_string())
            }
            Err(GapError::Cancelled { after }) => {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                Err(format!("cancelled after stage {}", after.label()))
            }
            Err(e) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Err(format!("flow failed: {e}"))
            }
        }
    }

    fn execute_close(&self, job: &Job, req: &CloseRequest) -> Result<String, String> {
        // The prep flow always completes (it is bounded work); only the
        // fix loop polls the deadline, so cancellation always lands on
        // an iteration boundary and never leaves a half-applied move.
        let scenario = req.run.scenario();
        let deadline = job.deadline;
        let cancel = move || deadline.is_some_and(|d| Instant::now() >= d);
        let run = close_timing_staged_cancellable(
            &scenario,
            &req.run.workload.canonical(),
            |lib| self.build_workload(&req.run.workload, lib),
            req.run.verify,
            &req.target(),
            &*self.store,
            &cancel,
        );
        match run {
            Ok((outcome, reuse)) => {
                self.metrics.record_reuse(&reuse);
                if let Verdict::Cancelled { iteration } = outcome.trace.verdict {
                    // A cancelled trace is a partial answer: never cache
                    // it, so a retry recomputes (or joins) the real one.
                    self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("cancelled at iteration boundary {iteration}"));
                }
                self.finish(job, outcome.canonical_text())
            }
            Err(e) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Err(format!("close failed: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{RunRequest, ScenarioPreset, Source};
    use asicgap::{VerifyLevel, WireModel, WorkloadSpec};

    fn small(seed: u64) -> RunRequest {
        RunRequest {
            seed,
            ..RunRequest::small()
        }
    }

    fn resolve(sched: &Scheduler, req: RunRequest) -> (Source, String) {
        match sched.submit(req) {
            Admission::Cached(text) => (Source::Cache, text),
            Admission::Submitted(job) => (Source::Computed, job.wait().expect("job ok")),
            Admission::Joined(job) => (Source::Deduped, job.wait().expect("job ok")),
            Admission::Busy => panic!("unexpected Busy"),
        }
    }

    #[test]
    fn cache_hit_returns_identical_bytes() {
        let sched = Scheduler::start(2, 8, 1 << 20);
        let (s1, t1) = resolve(&sched, small(1));
        let (s2, t2) = resolve(&sched, small(1));
        assert_eq!(s1, Source::Computed);
        assert_eq!(s2, Source::Cache);
        assert_eq!(t1, t2, "cached bytes differ from computed");
        let stats = sched.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.completed, 1);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn different_name_same_knobs_share_cache_line() {
        // Deadline is not part of identity either.
        let sched = Scheduler::start(1, 8, 1 << 20);
        let (_, t1) = resolve(&sched, small(1));
        let mut again = small(1);
        again.deadline_ms = 60_000;
        let (s2, t2) = resolve(&sched, again);
        assert_eq!(s2, Source::Cache);
        assert_eq!(t1, t2);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn queue_overflow_rejects_with_busy() {
        // One worker, queue of 1: jam it with distinct seeds.
        let sched = Scheduler::start(1, 1, 1 << 20);
        let mut submitted = Vec::new();
        let mut busy = 0;
        for seed in 0..32u64 {
            match sched.submit(small(seed)) {
                Admission::Submitted(j) => submitted.push(j),
                Admission::Busy => busy += 1,
                _ => {}
            }
        }
        assert!(busy > 0, "a 32-burst into a 1-deep queue must reject");
        for j in &submitted {
            j.wait().expect("admitted jobs complete");
        }
        assert_eq!(sched.stats().queue_depth, 0, "queue drains after burst");
        assert_eq!(sched.state.lock().expect("sched lock").inflight.len(), 0);
        assert_eq!(sched.stats().busy_rejections, busy);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn expired_deadline_cancels_without_running() {
        let sched = Scheduler::start(1, 8, 1 << 20);
        // Occupy the worker so the doomed job sits in queue past its
        // 1 ms deadline.
        let blocker = match sched.submit(small(77)) {
            Admission::Submitted(j) => j,
            _ => panic!("expected submit"),
        };
        let mut doomed_req = small(78);
        doomed_req.deadline_ms = 1;
        let doomed = match sched.submit(doomed_req) {
            Admission::Submitted(j) => j,
            _ => panic!("expected submit"),
        };
        std::thread::sleep(Duration::from_millis(5));
        blocker.wait().expect("blocker ok");
        let err = doomed.wait().expect_err("deadline must cancel");
        assert!(err.contains("cancelled"), "got {err:?}");
        assert_eq!(sched.stats().cancelled, 1);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains() {
        let sched = Scheduler::start(2, 8, 1 << 20);
        let job = match sched.submit(small(5)) {
            Admission::Submitted(j) => j,
            _ => panic!("expected submit"),
        };
        sched.shutdown();
        assert!(matches!(sched.submit(small(6)), Admission::Busy));
        job.wait().expect("queued job still completes");
        sched.join();
        assert_eq!(sched.stats().queue_depth, 0);
    }

    #[test]
    fn loaded_design_runs_through_the_flow() {
        use asicgap::cells::LibrarySpec;
        use asicgap::netlist::{generators, yosys_json};
        use asicgap::tech::Technology;

        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let design = generators::alu(&lib, 4).expect("alu4");
        let text = yosys_json::to_yosys_json(&design, &lib);

        let sched = Scheduler::start(1, 8, 1 << 20);
        let spec = sched
            .load_design(DesignFormat::YosysJson, text.clone())
            .expect("loads");
        // Re-loading the same bytes is idempotent and hits the same key.
        assert_eq!(
            sched
                .load_design(DesignFormat::YosysJson, text)
                .expect("reloads"),
            spec
        );
        let mut req = small(1);
        req.workload = WorkloadSpec::parse(&spec).expect("spec parses");
        let (s1, t1) = resolve(&sched, req.clone());
        assert_eq!(s1, Source::Computed);
        let (s2, t2) = resolve(&sched, req);
        assert_eq!(s2, Source::Cache);
        assert_eq!(t1, t2);

        // A file workload that was never loaded fails with a clear
        // message instead of a panic.
        let mut ghost = small(2);
        ghost.workload = WorkloadSpec::parse("file/yosys-json/00000000deadbeef").expect("parses");
        let err = match sched.submit(ghost) {
            Admission::Submitted(j) => j.wait().expect_err("must fail"),
            _ => panic!("expected submit"),
        };
        assert!(err.contains("not loaded"), "got {err:?}");

        // Malformed payloads are rejected at LOAD time.
        assert!(sched
            .load_design(DesignFormat::YosysJson, "{ not json".to_string())
            .is_err());
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn hostile_nesting_is_refused_at_load_not_a_stack_overflow() {
        // LOAD payloads are parsed on the event-loop thread; 2 MB of
        // open brackets (well under the 16 MiB payload cap) used to
        // overflow its stack and abort the process.
        let sched = Scheduler::start(1, 8, 1 << 20);
        for (format, open) in [(DesignFormat::YosysJson, "["), (DesignFormat::Edif, "(")] {
            let err = sched
                .load_design(format, open.repeat(2 << 20))
                .expect_err("must be refused");
            assert!(err.contains("syntax error"), "{format}: got {err:?}");
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn a_panicking_flow_fails_its_own_job_and_spares_the_worker() {
        // `array_multiplier` documents a panic below 2 bits; built
        // directly (the wire parser aside) that is a flow that panics.
        let mut bad = small(1);
        bad.workload = WorkloadSpec::ArrayMultiplier { width: 1 };
        let sched = Scheduler::start(1, 8, 1 << 20);
        let err = match sched.submit(bad.clone()) {
            Admission::Submitted(j) => j.wait().expect_err("must fail"),
            _ => panic!("expected submit"),
        };
        assert!(err.starts_with("flow panicked: "), "got {err:?}");
        assert!(!err.contains('\n'), "replies are one line: {err:?}");
        assert_eq!(sched.stats().errors, 1);
        // The only worker is still there, and the failed key is neither
        // cached nor stuck in flight: asking again runs (and fails) again.
        let (source, _) = resolve(&sched, small(2));
        assert_eq!(source, Source::Computed);
        assert!(matches!(sched.submit(bad), Admission::Submitted(_)));
        sched.shutdown();
        sched.join();
        assert_eq!(sched.stats().errors, 2);
    }

    #[test]
    fn verified_run_caches_too() {
        let mut req = small(9);
        req.verify = VerifyLevel::Full;
        req.preset = ScenarioPreset::BestPracticeAsic;
        req.wire_model = WireModel::Routed;
        req.workload = WorkloadSpec::KoggeStoneAdder { width: 8 };
        let sched = Scheduler::start(2, 8, 1 << 20);
        let (_, t1) = resolve(&sched, req.clone());
        let (s2, t2) = resolve(&sched, req);
        assert_eq!(s2, Source::Cache);
        assert_eq!(t1, t2);
        assert!(t1.contains("verify "), "verified outcome carries effort");
        sched.shutdown();
        sched.join();
    }
}
