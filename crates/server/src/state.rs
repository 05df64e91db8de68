//! Shared service state: one long-lived [`Harness`] (worker pool + scenario
//! cache) and one [`ArtifactStore`], plus the machinery behind asynchronous
//! sweep submission — a registry of run resources ([`RunStatus`] per run), a
//! bounded queue of accepted runs, and the background sweep-executor thread
//! pool that pulls queued runs and drains them.
//!
//! Submission ([`AppState::submit_sweep`]) only validates, reserves the run
//! directory, persists `state.json` (`queued`) and enqueues — constant-time
//! regardless of grid size, which is what lets `POST /v1/sweeps` answer
//! `202 Accepted` in milliseconds. Executors own the expensive part: they
//! advance runs `queued → running`, write the artifact and land the run in a
//! terminal state, with every transition persisted beside the artifact.
//!
//! Every executing run is drained one way: its jobs are published as a
//! [`LeaseTable`] (persisted as `leases.json`), and lease consumers settle
//! them first-write-wins. Remote workers lease through `/v1/work/*`; the
//! local worker pool is one more consumer, leasing every pending job to
//! `local-pool` whenever no worker is live. Each job is handed out once and
//! then settled or reclaimed exactly once, whoever runs it.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lassi_core::TranslationRecord;
use lassi_harness::{
    ArtifactStore, CancelToken, Harness, Job, JobOutput, JobWrite, LeaseError, LeaseTable,
    RunArtifact, RunState, RunStatus, ScannedRun, SweepGrid,
};
use lassi_obs::{EventRing, TraceEvent, TraceSink};
use parking_lot::{Condvar, Mutex};

/// Default number of sweep-executor threads — the number of sweeps that
/// *run* concurrently (each drives its own worker pool; the scenario cache
/// is shared). Queued runs beyond this wait their turn.
pub const DEFAULT_SWEEP_EXECUTORS: usize = 2;

/// Cap on accepted-but-not-started runs: past this, submission answers
/// `429` instead of letting the backlog (and its reserved run directories)
/// grow without bound.
pub const MAX_QUEUED_RUNS: usize = 256;

/// Capacity of the in-memory debug-event ring served by
/// `GET /v1/debug/events` — old events are evicted, never blocked on.
pub const DEBUG_EVENT_CAPACITY: usize = 1024;

/// Default lease time-to-live handed to remote workers: a worker that
/// neither heartbeats nor completes within this window is presumed dead
/// and its jobs are reclaimed. Tests shrink it to exercise expiry fast.
pub const DEFAULT_LEASE_TTL_MS: u64 = 10_000;

/// A worker counts toward the live fleet while its last contact (any
/// `/v1/work/*` call) is fresher than this many lease TTLs.
const WORKER_LIVENESS_TTLS: u64 = 3;

/// How often an executor waiting on the fleet sweeps for expired leases
/// (and re-checks cancellation/completion).
const RECLAIM_INTERVAL: Duration = Duration::from_millis(100);

/// The worker name the local pool leases under.
const LOCAL_POOL: &str = "local-pool";

/// Why [`AppState::submit_sweep`] refused a sweep.
#[derive(Debug)]
pub enum SubmitError {
    /// The server is draining; no new runs are accepted.
    Draining,
    /// [`MAX_QUEUED_RUNS`] runs are already waiting.
    QueueFull,
    /// The client-chosen run id is already taken.
    RunExists(String),
    /// Reserving the run directory or persisting `state.json` failed.
    Io(io::Error),
}

/// Why [`AppState::cancel_run`] refused a cancellation.
#[derive(Debug)]
pub enum CancelError {
    /// No such run.
    NotFound,
    /// The run is already terminal (carries the state it is in).
    NotCancellable(RunState),
}

/// Why `POST /v1/work/complete` refused a completion.
#[derive(Debug)]
pub enum CompleteError {
    /// No active run holds that lease (unknown id, or the run finished).
    UnknownLease(String),
    /// The returned records do not match the leased jobs (wrong count, or
    /// a record's application/model disagrees with the job it claims to
    /// answer) — the lease is failed and its jobs requeued.
    Invalid(String),
}

/// One batch of jobs granted to a worker, ready to serialize onto the wire.
pub struct LeaseGrant {
    /// The lease id the worker heartbeats and completes against.
    pub lease_id: String,
    /// The run the jobs belong to.
    pub run_id: String,
    /// Milliseconds until the lease expires unless extended.
    pub ttl_ms: u64,
    /// `(submission index, job spec)` pairs under the lease.
    pub jobs: Vec<(usize, Job)>,
}

/// Point-in-time fleet accounting for `/v1/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetSnapshot {
    /// Leases granted since the process started (remote and local-pool).
    pub leases_granted: u64,
    /// Leases expired (deadline missed or corrupt completion) and reclaimed.
    pub leases_expired: u64,
    /// Job indices requeued by reclaims.
    pub jobs_requeued: u64,
    /// Records dropped first-write-wins.
    pub duplicate_completions: u64,
    /// Records from `POST /v1/work/complete` accepted as a first write.
    pub records_accepted: u64,
    /// Heartbeat extensions served.
    pub heartbeats: u64,
    /// Workers that contacted the server within the liveness window.
    pub workers_active: u64,
    /// Leases currently held by workers or the local pool.
    pub leases_active: u64,
    /// Executing runs, each draining through its lease table.
    pub leased_runs: u64,
}

/// Process-wide fleet counters behind [`FleetSnapshot`].
#[derive(Default)]
struct FleetCounters {
    leases_granted: AtomicU64,
    leases_expired: AtomicU64,
    jobs_requeued: AtomicU64,
    duplicate_completions: AtomicU64,
    records_accepted: AtomicU64,
    heartbeats: AtomicU64,
}

impl FleetCounters {
    /// Count `leases` reclaimed leases that requeued `jobs` jobs.
    fn reclaimed(&self, leases: u64, jobs: usize) {
        self.leases_expired.fetch_add(leases, Ordering::Relaxed);
        self.jobs_requeued.fetch_add(jobs as u64, Ordering::Relaxed);
    }
}

/// An executing run as its lease consumers see it: the lease table plus
/// one first-write-wins output slot per job index.
struct LeasedRun {
    run_id: String,
    jobs: Vec<Job>,
    table: Mutex<LeaseTable>,
    outputs: Mutex<Vec<Option<JobOutput>>>,
}

impl LeasedRun {
    fn new(run_id: &str, jobs: &[Job]) -> LeasedRun {
        LeasedRun {
            run_id: run_id.to_string(),
            jobs: jobs.to_vec(),
            table: Mutex::new(LeaseTable::new(run_id, jobs.len())),
            outputs: Mutex::new(vec![None; jobs.len()]),
        }
    }
}

/// Check a completion body against the jobs its lease holds: the record
/// count must match, and each record must identify the scenario it claims
/// to answer. Catches truncated and chaos-corrupted completions before
/// they can reach the artifact.
fn validate_completion(
    leased: &[usize],
    jobs: &[Job],
    records: &[TranslationRecord],
) -> Result<(), String> {
    if records.len() != leased.len() {
        return Err(format!(
            "lease holds {} jobs but the completion carries {} records",
            leased.len(),
            records.len()
        ));
    }
    for (&index, record) in leased.iter().zip(records) {
        let job = &jobs[index];
        if record.application != job.application.name || record.model != job.model.name {
            return Err(format!(
                "record for job {index} claims `{}`/`{}` but the lease holds `{}`/`{}`",
                record.application, record.model, job.application.name, job.model.name
            ));
        }
    }
    Ok(())
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A run waiting for an executor.
struct QueuedRun {
    run_id: String,
    grid: SweepGrid,
}

/// The queue executors pull from. `open` flips false on drain: executors
/// finish their current run and exit instead of pulling more work.
struct RunQueue {
    items: VecDeque<QueuedRun>,
    open: bool,
}

/// Live bookkeeping for one run resource. The persisted [`RunStatus`] is
/// the durable truth; the atomics carry what changes too often to persist
/// (per-scenario progress, live wall-clock).
struct RunEntry {
    status: Mutex<RunStatus>,
    /// Scenarios completed so far (bumped per streamed output).
    completed: AtomicUsize,
    /// The running sweep's cancel token, present only while executing.
    cancel: Mutex<Option<CancelToken>>,
    /// A client asked for cancellation (consulted by the executor when the
    /// output stream comes up short, to pick `cancelled` over `failed`).
    cancel_requested: AtomicBool,
    /// When the executor started the sweep (live wall-clock source).
    started: Mutex<Option<Instant>>,
    /// The run's structured trace: lifecycle events accumulate here (with
    /// times relative to submission) and land in the artifact's
    /// `trace.jsonl` alongside the per-job spans.
    trace: TraceSink,
}

/// Everything the request handlers share, kept behind one `Arc`.
pub struct AppState {
    harness: Harness,
    store: ArtifactStore,
    run_counter: AtomicU64,
    shutdown: AtomicBool,
    queue: Mutex<RunQueue>,
    queue_signal: Condvar,
    runs: Mutex<HashMap<String, Arc<RunEntry>>>,
    executors: Mutex<Vec<JoinHandle<()>>>,
    executors_started: AtomicBool,
    /// Recent trace events across all runs, for `GET /v1/debug/events`.
    events: EventRing,
    /// Executors currently inside a run (vs. waiting on the queue).
    busy_executors: AtomicUsize,
    /// Size of the executor pool once started.
    executor_count: AtomicUsize,
    /// Every executing run's lease table (lease/work calls search these).
    leased_runs: Mutex<Vec<Arc<LeasedRun>>>,
    /// Worker id → last contact, for fleet liveness.
    workers: Mutex<HashMap<String, Instant>>,
    /// Lease time-to-live handed to workers.
    lease_ttl_ms: AtomicU64,
    /// Process-wide lease/reclaim/requeue accounting for `/v1/metrics`.
    fleet: FleetCounters,
}

impl AppState {
    /// Wrap a harness and an artifact store into service state.
    pub fn new(harness: Harness, store: ArtifactStore) -> AppState {
        AppState {
            harness,
            store,
            run_counter: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(RunQueue {
                items: VecDeque::new(),
                open: true,
            }),
            queue_signal: Condvar::new(),
            runs: Mutex::new(HashMap::new()),
            executors: Mutex::new(Vec::new()),
            executors_started: AtomicBool::new(false),
            events: EventRing::new(DEBUG_EVENT_CAPACITY),
            busy_executors: AtomicUsize::new(0),
            executor_count: AtomicUsize::new(0),
            leased_runs: Mutex::new(Vec::new()),
            workers: Mutex::new(HashMap::new()),
            lease_ttl_ms: AtomicU64::new(DEFAULT_LEASE_TTL_MS),
            fleet: FleetCounters::default(),
        }
    }

    /// The in-memory debug-event ring (`GET /v1/debug/events`).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Accepted-but-not-started runs waiting for an executor.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().items.len()
    }

    /// `(busy, total)` sweep executors — busy means inside a run.
    pub fn executor_counts(&self) -> (usize, usize) {
        (
            self.busy_executors.load(Ordering::Relaxed),
            self.executor_count.load(Ordering::Relaxed),
        )
    }

    /// Record a run-lifecycle transition as a structured trace event: into
    /// the process-wide debug ring and into the run's own trace sink
    /// (re-stamped on the run's submission-relative clock).
    fn record_transition(
        &self,
        entry: &RunEntry,
        run_id: &str,
        state: RunState,
        reason: Option<&str>,
    ) {
        let mut event = TraceEvent::event("runstate", self.events.now_us())
            .with("run_id", run_id)
            .with("state", state.slug());
        if let Some(reason) = reason {
            event = event.with("reason", reason);
        }
        let mut run_event = event.clone();
        run_event.t_us = entry.trace.now_us();
        entry.trace.push(run_event);
        self.events.push(event);
    }

    /// Land a live run in its terminal `state` (with `reason`, if any),
    /// persist `state.json` and trace the transition. The caller holds the
    /// run's status lock.
    fn finish_run(
        &self,
        entry: &RunEntry,
        run_id: &str,
        status: &mut RunStatus,
        state: RunState,
        reason: Option<&str>,
    ) {
        match reason {
            Some(reason) => status.finish(state, reason),
            None => status.advance(state),
        }
        .expect("a live run may always finish");
        let _ = status.save(&self.store.run_dir(run_id));
        self.record_transition(entry, run_id, state, reason);
    }

    /// The shared experiment service.
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// The shared artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Next server-assigned run id (`srv-000001`, `srv-000002`, …).
    pub fn next_run_id(&self) -> String {
        let n = self.run_counter.fetch_add(1, Ordering::Relaxed) + 1;
        format!("srv-{n:06}")
    }

    /// Has a cooperative shutdown been requested?
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Override the lease TTL handed to workers (tests shrink it so
    /// expiry/reclaim paths run in milliseconds instead of tens of
    /// seconds).
    pub fn set_lease_ttl_ms(&self, ttl_ms: u64) {
        self.lease_ttl_ms.store(ttl_ms.max(1), Ordering::Relaxed);
    }

    /// The lease TTL currently handed to workers.
    pub fn lease_ttl_ms(&self) -> u64 {
        self.lease_ttl_ms.load(Ordering::Relaxed)
    }

    /// Is at least one worker live (contacted the server within the
    /// liveness window)? While none is, an executor leases its run's
    /// pending jobs to the local pool instead of waiting for the fleet.
    pub fn fleet_available(&self) -> bool {
        self.workers_active() > 0
    }

    /// Workers that contacted the server within the liveness window.
    fn workers_active(&self) -> u64 {
        let window = Duration::from_millis(self.lease_ttl_ms() * WORKER_LIVENESS_TTLS);
        let workers = self.workers.lock();
        workers
            .values()
            .filter(|last| last.elapsed() <= window)
            .count() as u64
    }

    /// Record a `/v1/work/*` contact from a worker (implicit registration:
    /// the first lease poll is what makes a worker part of the fleet).
    fn touch_worker(&self, worker: &str) {
        self.workers
            .lock()
            .insert(worker.to_string(), Instant::now());
    }

    /// Push a lease lifecycle event into the debug ring.
    fn lease_event(&self, action: &str, run_id: &str, lease_id: &str, worker: &str, jobs: u64) {
        self.events.push(
            TraceEvent::event("lease", self.events.now_us())
                .with("action", action)
                .with("run_id", run_id)
                .with("lease_id", lease_id)
                .with("worker", worker)
                .with("jobs", jobs),
        );
    }

    /// `POST /v1/work/lease`: register the worker and hand it a batch of
    /// up to `capacity` jobs from the first executing run with pending
    /// work. `None` means no work right now — the worker should back off
    /// and poll again.
    pub fn lease_work(&self, worker: &str, capacity: usize) -> Option<LeaseGrant> {
        self.touch_worker(worker);
        let ttl_ms = self.lease_ttl_ms();
        let now_ms = unix_now_ms();
        let leased_runs: Vec<Arc<LeasedRun>> = self.leased_runs.lock().clone();
        for leased in leased_runs {
            let mut table = leased.table.lock();
            let Some(lease) = table.grant(worker, capacity, now_ms, ttl_ms) else {
                continue;
            };
            let grant = LeaseGrant {
                lease_id: lease.lease_id.clone(),
                run_id: leased.run_id.clone(),
                ttl_ms,
                jobs: lease
                    .jobs
                    .iter()
                    .map(|&index| (index, leased.jobs[index].clone()))
                    .collect(),
            };
            let _ = table.save(&self.store.run_dir(&leased.run_id));
            drop(table);
            self.fleet.leases_granted.fetch_add(1, Ordering::Relaxed);
            self.lease_event(
                "granted",
                &grant.run_id,
                &grant.lease_id,
                worker,
                grant.jobs.len() as u64,
            );
            return Some(grant);
        }
        None
    }

    /// `POST /v1/work/heartbeat`: extend an active lease's deadline by one
    /// TTL. Returns the TTL granted; a lease already settled or reclaimed
    /// (the worker stalled past its deadline) is refused so the worker
    /// knows to drop the batch and re-lease.
    pub fn heartbeat_work(&self, worker: &str, lease_id: &str) -> Result<u64, LeaseError> {
        self.touch_worker(worker);
        let ttl_ms = self.lease_ttl_ms();
        let now_ms = unix_now_ms();
        let leased_runs: Vec<Arc<LeasedRun>> = self.leased_runs.lock().clone();
        let mut refusal = LeaseError::UnknownLease(lease_id.to_string());
        for leased in leased_runs {
            match leased.table.lock().heartbeat(lease_id, now_ms, ttl_ms) {
                Ok(_) => {
                    self.fleet.heartbeats.fetch_add(1, Ordering::Relaxed);
                    return Ok(ttl_ms);
                }
                Err(LeaseError::UnknownLease(_)) => continue,
                Err(e) => refusal = e,
            }
        }
        Err(refusal)
    }

    /// `POST /v1/work/complete`: settle a lease with the records its
    /// worker computed. Records are validated against the leased jobs
    /// (count and application/model identity) — a corrupt completion fails
    /// the lease and requeues its jobs rather than poisoning the artifact.
    /// Valid records land first-write-wins; duplicates (a stale worker
    /// whose lease was reclaimed, racing the re-execution) are counted and
    /// dropped. Returns `(accepted, duplicates)`.
    pub fn complete_work(
        &self,
        worker: &str,
        lease_id: &str,
        records: Vec<TranslationRecord>,
    ) -> Result<(usize, usize), CompleteError> {
        self.touch_worker(worker);
        let leased_runs: Vec<Arc<LeasedRun>> = self.leased_runs.lock().clone();
        // A lease's job set never changes, so it can be read before the
        // table is locked for the settle.
        let (leased, held) = leased_runs
            .into_iter()
            .find_map(|leased| {
                let table = leased.table.lock();
                let lease = table.leases().iter().find(|l| l.lease_id == lease_id)?;
                let held = lease.jobs.clone();
                drop(table);
                Some((leased, held))
            })
            .ok_or_else(|| CompleteError::UnknownLease(lease_id.to_string()))?;
        let dir = self.store.run_dir(&leased.run_id);

        let mut table = leased.table.lock();
        if let Err(reason) = validate_completion(&held, &leased.jobs, &records) {
            // Fail-and-requeue only an active lease; a stale corrupt
            // completion (lease already reclaimed) is simply dropped.
            if let Ok(requeued) = table.fail_lease(lease_id) {
                self.fleet.reclaimed(1, requeued.len());
                let _ = table.save(&dir);
                self.lease_event(
                    "failed",
                    &leased.run_id,
                    lease_id,
                    worker,
                    requeued.len() as u64,
                );
            }
            return Err(CompleteError::Invalid(reason));
        }

        let (jobs, _was_active) = table
            .settle(lease_id)
            .expect("lease found above stays known");
        let mut accepted = 0usize;
        let mut duplicates = 0usize;
        {
            let mut slots = leased.outputs.lock();
            for (index, record) in jobs.into_iter().zip(records) {
                match table.record_job(index) {
                    JobWrite::Fresh => {
                        slots[index] = Some(JobOutput {
                            index,
                            direction: leased.jobs[index].direction,
                            record,
                            wall_seconds: 0.0,
                            queue_seconds: 0.0,
                            from_cache: false,
                        });
                        accepted += 1;
                    }
                    JobWrite::Duplicate => duplicates += 1,
                }
            }
        }
        let _ = table.save(&dir);
        drop(table);
        self.fleet
            .records_accepted
            .fetch_add(accepted as u64, Ordering::Relaxed);
        self.fleet
            .duplicate_completions
            .fetch_add(duplicates as u64, Ordering::Relaxed);
        self.lease_event(
            "completed",
            &leased.run_id,
            lease_id,
            worker,
            accepted as u64,
        );
        Ok((accepted, duplicates))
    }

    /// Point-in-time fleet accounting for the metrics endpoint.
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        let leased_runs = self.leased_runs.lock().clone();
        let leases_active = leased_runs
            .iter()
            .map(|r| r.table.lock().active_leases() as u64)
            .sum();
        FleetSnapshot {
            leases_granted: self.fleet.leases_granted.load(Ordering::Relaxed),
            leases_expired: self.fleet.leases_expired.load(Ordering::Relaxed),
            jobs_requeued: self.fleet.jobs_requeued.load(Ordering::Relaxed),
            duplicate_completions: self.fleet.duplicate_completions.load(Ordering::Relaxed),
            records_accepted: self.fleet.records_accepted.load(Ordering::Relaxed),
            heartbeats: self.fleet.heartbeats.load(Ordering::Relaxed),
            workers_active: self.workers_active(),
            leases_active,
            leased_runs: leased_runs.len() as u64,
        }
    }

    /// Accept a sweep for asynchronous execution: reserve the run id
    /// (atomically claiming its directory), persist the initial `queued`
    /// state and enqueue the run for the executor pool. Does no sweep work
    /// itself — the whole call is a couple of file-system operations, so
    /// submission latency is independent of grid size.
    pub fn submit_sweep(
        &self,
        grid: SweepGrid,
        requested_id: Option<String>,
    ) -> Result<RunStatus, SubmitError> {
        if self.shutting_down() {
            return Err(SubmitError::Draining);
        }
        // Reserve before any other work, so a colliding client-chosen id —
        // even one submitted concurrently — is a fast 409.
        let run_id = match requested_id {
            Some(id) => match self.store.reserve_run(&id) {
                Ok(()) => id,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    return Err(SubmitError::RunExists(id));
                }
                Err(e) => return Err(SubmitError::Io(e)),
            },
            None => loop {
                let id = self.next_run_id();
                match self.store.reserve_run(&id) {
                    Ok(()) => break id,
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                    Err(e) => return Err(SubmitError::Io(e)),
                }
            },
        };
        let release = |run_id: &str| {
            let _ = std::fs::remove_dir_all(self.store.run_dir(run_id));
        };

        let status = RunStatus::queued(&run_id, grid.len());
        if let Err(e) = status.save(&self.store.run_dir(&run_id)) {
            release(&run_id);
            return Err(SubmitError::Io(e));
        }
        let entry = Arc::new(RunEntry {
            status: Mutex::new(status.clone()),
            completed: AtomicUsize::new(0),
            cancel: Mutex::new(None),
            cancel_requested: AtomicBool::new(false),
            started: Mutex::new(None),
            trace: TraceSink::new(),
        });
        self.runs.lock().insert(run_id.clone(), Arc::clone(&entry));
        self.record_transition(&entry, &run_id, RunState::Queued, None);
        {
            let mut queue = self.queue.lock();
            if !queue.open {
                // Shutdown raced in between the check above and here.
                drop(queue);
                self.runs.lock().remove(&run_id);
                release(&run_id);
                return Err(SubmitError::Draining);
            }
            if queue.items.len() >= MAX_QUEUED_RUNS {
                drop(queue);
                self.runs.lock().remove(&run_id);
                release(&run_id);
                return Err(SubmitError::QueueFull);
            }
            queue.items.push_back(QueuedRun {
                run_id: run_id.clone(),
                grid,
            });
        }
        self.queue_signal.notify_one();
        Ok(status)
    }

    /// The queryable status of a run: live registry first (with fresh
    /// progress counts and wall-clock), then `state.json` from disk (runs
    /// from a previous process), then legacy manifests written before
    /// lifecycle tracking (reported as `done`).
    pub fn run_status(&self, id: &str) -> Option<RunStatus> {
        if let Some(entry) = self.runs.lock().get(id).cloned() {
            let mut status = entry.status.lock().clone();
            if status.state == RunState::Running {
                status.completed = entry.completed.load(Ordering::Relaxed);
                status.wall_seconds = entry
                    .started
                    .lock()
                    .map(|started| started.elapsed().as_secs_f64());
            }
            return Some(status);
        }
        let dir = self.store.run_dir(id);
        match RunStatus::load(&dir) {
            Ok(status) => Some(status),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let artifact = RunArtifact::load(&dir).ok()?;
                let mut status = RunStatus::done(id, artifact.manifest.scenarios);
                status.created_unix = artifact.manifest.created_unix;
                status.started_unix = None;
                status.finished_unix = None;
                Some(status)
            }
            Err(_) => None,
        }
    }

    /// Every known run as `(id, state, created_unix)`, sorted by id — the
    /// source for the paginated `GET /v1/runs`. Disk is the base (it has
    /// runs from previous processes); the live registry overlays it with
    /// fresher states.
    pub fn list_run_summaries(&self) -> io::Result<Vec<(String, RunState, Option<u64>)>> {
        let mut rows: Vec<(String, RunState, Option<u64>)> = self
            .store
            .scan_runs()?
            .into_iter()
            .map(|(id, scanned)| match scanned {
                ScannedRun::Status(status) => (id, status.state, status.created_unix),
                // Legacy artifact from before lifecycle tracking.
                ScannedRun::Legacy => (id, RunState::Done, None),
                // Torn state.json (recovery repairs it at startup; a fresh
                // tear mid-flight still lists as failed, never vanishes).
                ScannedRun::Corrupt(_) => (id, RunState::Failed, None),
            })
            .collect();
        let runs = self.runs.lock();
        for row in rows.iter_mut() {
            if let Some(entry) = runs.get(&row.0) {
                let status = entry.status.lock();
                row.1 = status.state;
                row.2 = status.created_unix;
            }
        }
        Ok(rows)
    }

    /// Cancel a run. A `queued` run is cancelled on the spot (the executor
    /// will skip it); a `running` run gets its [`CancelToken`] fired and
    /// lands in `cancelled` once its in-flight scenarios finish —
    /// cancellation is cooperative, so a run whose scenarios all completed
    /// before the token took effect still finishes `done`. Returns the
    /// status as of the cancel request.
    pub fn cancel_run(&self, id: &str) -> Result<RunStatus, CancelError> {
        let Some(entry) = self.runs.lock().get(id).cloned() else {
            // Runs from a previous process are terminal by construction
            // (recovery failed any that were live when it died).
            return match self.run_status(id) {
                Some(status) => Err(CancelError::NotCancellable(status.state)),
                None => Err(CancelError::NotFound),
            };
        };
        let mut status = entry.status.lock();
        match status.state {
            RunState::Queued => {
                entry.cancel_requested.store(true, Ordering::SeqCst);
                let reason = Some("cancelled by client before start");
                self.finish_run(&entry, id, &mut status, RunState::Cancelled, reason);
                Ok(status.clone())
            }
            RunState::Running => {
                entry.cancel_requested.store(true, Ordering::SeqCst);
                if let Some(token) = entry.cancel.lock().as_ref() {
                    token.cancel();
                }
                let event =
                    TraceEvent::event("cancel_requested", self.events.now_us()).with("run_id", id);
                self.events.push(event);
                Ok(status.clone())
            }
            terminal => Err(CancelError::NotCancellable(terminal)),
        }
    }

    /// Request shutdown with the drain semantics the run lifecycle needs:
    /// refuse new submissions, stop pulling queued runs (each is marked
    /// `failed` with a reason, persisted), and cancel running sweeps (their
    /// queued jobs are discarded, in-flight scenarios finish, and the
    /// executor marks them `failed` — the client did not ask for the stop).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.events
            .push(TraceEvent::event("drain", self.events.now_us()));
        let drained: Vec<QueuedRun> = {
            let mut queue = self.queue.lock();
            queue.open = false;
            queue.items.drain(..).collect()
        };
        self.queue_signal.notify_all();
        for run in &drained {
            if let Some(entry) = self.runs.lock().get(&run.run_id).cloned() {
                let mut status = entry.status.lock();
                if status.state == RunState::Queued {
                    let reason = Some("server drained before the run started");
                    self.finish_run(&entry, &run.run_id, &mut status, RunState::Failed, reason);
                }
            }
        }
        let entries: Vec<Arc<RunEntry>> = self.runs.lock().values().cloned().collect();
        for entry in entries {
            if let Some(token) = entry.cancel.lock().as_ref() {
                token.cancel();
            }
        }
    }

    /// Number of runs currently in a non-terminal state (tests and
    /// introspection).
    pub fn live_runs(&self) -> usize {
        self.runs
            .lock()
            .values()
            .filter(|entry| !entry.status.lock().state.is_terminal())
            .count()
    }

    /// Spawn the sweep-executor pool (idempotent; first call wins). Runs
    /// startup recovery first: any run left `queued`/`running` on disk by a
    /// previous process provably lost its executor and is marked `failed`
    /// with a reason, so the API never reports phantom progress.
    pub fn start_executors(self: &Arc<AppState>, count: usize) {
        if self.executors_started.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = self.recover_runs() {
            eprintln!("lassi-server: run recovery failed: {e}");
        }
        self.executor_count.store(count.max(1), Ordering::Relaxed);
        let mut handles = self.executors.lock();
        for i in 0..count.max(1) {
            let state = Arc::clone(self);
            let handle = thread::Builder::new()
                .name(format!("sweep-executor-{i}"))
                .spawn(move || executor_loop(&state))
                .expect("spawn sweep executor");
            handles.push(handle);
        }
    }

    /// Mark runs orphaned by a previous process as `failed`, and repair
    /// runs whose persisted state was torn by a crash mid-write: a
    /// truncated `state.json` (or lease file) is detected, rewritten as a
    /// clean `failed` state with the tear in the reason, and never panics
    /// the scan. Returns how many runs were recovered.
    pub fn recover_runs(&self) -> io::Result<usize> {
        let mut recovered = 0;
        for (id, scanned) in self.store.scan_runs()? {
            let dir = self.store.run_dir(&id);
            // A torn lease file is only a footnote: the lease table is
            // rebuilt per run, so it is noted in the reason and ignored.
            let lease_note = match LeaseTable::load(&dir) {
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    "; its lease file was also torn and is ignored"
                }
                _ => "",
            };
            match scanned {
                ScannedRun::Status(mut status) => {
                    if status.state.is_terminal() {
                        continue;
                    }
                    status
                        .finish(
                            RunState::Failed,
                            format!("server restarted before the run finished{lease_note}"),
                        )
                        .expect("queued/running → failed is legal");
                    let _ = status.save(&dir);
                    recovered += 1;
                }
                ScannedRun::Legacy => continue,
                ScannedRun::Corrupt(err) => {
                    let mut status = RunStatus::queued(&id, 0);
                    status
                        .finish(
                            RunState::Failed,
                            format!(
                                "state.json was torn or truncated (crash mid-write?); \
                                 marked failed by recovery: {err}{lease_note}"
                            ),
                        )
                        .expect("queued → failed is legal");
                    let _ = status.save(&dir);
                    recovered += 1;
                }
            }
        }
        Ok(recovered)
    }

    /// Wait for every executor to exit (the queue must already be closed
    /// via [`AppState::begin_shutdown`], or this blocks forever).
    pub fn join_executors(&self) {
        let handles: Vec<JoinHandle<()>> = self.executors.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Forget a run's registry entry (after its directory is deleted), so
    /// listings don't resurrect it from memory.
    pub fn forget_run(&self, id: &str) {
        self.runs.lock().remove(id);
    }

    /// One executor's run-to-completion of a single queued run, with a
    /// panic fence: a panicking scenario must fail its run, not kill the
    /// executor thread and wedge the queue behind it.
    fn execute(&self, run: QueuedRun) {
        let run_id = run.run_id.clone();
        self.busy_executors.fetch_add(1, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_inner(&run);
        }));
        self.busy_executors.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            eprintln!("lassi-server: sweep `{run_id}` panicked");
            // A panic mid-drain skipped unpublishing the run's lease table.
            self.leased_runs.lock().retain(|r| r.run_id != run_id);
            if let Some(entry) = self.runs.lock().get(&run_id).cloned() {
                let mut status = entry.status.lock();
                if !status.state.is_terminal() {
                    let reason = Some("sweep panicked; see server log");
                    self.finish_run(&entry, &run_id, &mut status, RunState::Failed, reason);
                }
            }
        }
    }

    fn execute_inner(&self, run: &QueuedRun) {
        let Some(entry) = self.runs.lock().get(&run.run_id).cloned() else {
            return;
        };
        let dir = self.store.run_dir(&run.run_id);
        {
            let mut status = entry.status.lock();
            // Cancelled (or drain-failed) while queued: nothing to do.
            if status.state != RunState::Queued {
                return;
            }
            status
                .advance(RunState::Running)
                .expect("queued → running is legal");
            *entry.started.lock() = Some(Instant::now());
            let _ = status.save(&dir);
        }
        self.record_transition(&entry, &run.run_id, RunState::Running, None);

        // The per-run cache delta is measured around the drain; under
        // concurrent runs the counters interleave, so the delta is
        // attributed, not exact — /v1/cache/stats has the authoritative
        // totals.
        let jobs = run.grid.jobs();
        let before = self.harness.cache_snapshot();
        let (outputs, table) = self.drain(&run.run_id, &entry, &jobs);

        // Write the artifact before taking the status lock, so polls of a
        // finishing run never wait on the file system.
        let (state, reason) = if outputs.len() == jobs.len() {
            let delta = self.harness.cache_snapshot().since(before);
            // The completion event goes into the sink *before* the artifact
            // write, so it makes it into `trace.jsonl`; the terminal
            // runstate transition below necessarily post-dates the file.
            entry.trace.push(
                TraceEvent::event("run_complete", entry.trace.now_us())
                    .with("run_id", run.run_id.as_str())
                    .with("scenarios", outputs.len() as u64),
            );
            match run.grid.write_artifact(
                &self.store,
                &run.run_id,
                true,
                &jobs,
                &outputs,
                delta,
                &entry.trace.snapshot(),
            ) {
                Ok(_) => (RunState::Done, None),
                Err(e) => (
                    RunState::Failed,
                    Some(format!("cannot write artifact: {e}")),
                ),
            }
        } else if entry.cancel_requested.load(Ordering::SeqCst) {
            (RunState::Cancelled, Some("cancelled by client".to_string()))
        } else {
            let reason = "server drained mid-run; partial outputs discarded";
            (RunState::Failed, Some(reason.to_string()))
        };
        // Saved after the artifact write, which replaces the run directory.
        let _ = table.save(&dir);
        let wall = entry
            .started
            .lock()
            .map(|started| started.elapsed().as_secs_f64());
        let mut status = entry.status.lock();
        status.completed = outputs.len();
        status.wall_seconds = wall;
        status.fleet = Some(table.stats());
        self.finish_run(&entry, &run.run_id, &mut status, state, reason.as_deref());
    }

    /// Drain a run through its lease table until every job has its output
    /// or the run is cancelled or drained. Remote workers lease and settle
    /// through `/v1/work/*` meanwhile; each pass here reclaims expired
    /// leases and publishes progress and fleet stats. With jobs pending and
    /// no worker live, the local pool leases them at once — a zero-worker
    /// run never sleeps — otherwise the pass waits [`RECLAIM_INTERVAL`] for
    /// the fleet. Returns the outputs in job order and the final table.
    fn drain(&self, run_id: &str, entry: &RunEntry, jobs: &[Job]) -> (Vec<JobOutput>, LeaseTable) {
        let dir = self.store.run_dir(run_id);
        let leased = Arc::new(LeasedRun::new(run_id, jobs));
        self.leased_runs.lock().push(Arc::clone(&leased));
        loop {
            let (stats, complete, pending) = {
                let mut table = leased.table.lock();
                let expired_before = table.stats().leases_expired;
                let requeued = table.reclaim_expired(unix_now_ms());
                let stats = table.stats();
                if stats.leases_expired > expired_before {
                    let expired = stats.leases_expired - expired_before;
                    self.fleet.reclaimed(expired, requeued.len());
                    let _ = table.save(&dir);
                    self.lease_event("reclaimed", run_id, "-", "-", requeued.len() as u64);
                }
                entry
                    .completed
                    .store(table.completed_count(), Ordering::Relaxed);
                (stats, table.is_complete(), table.pending_count() > 0)
            };
            entry.status.lock().fleet = Some(stats);
            if complete || entry.cancel_requested.load(Ordering::SeqCst) || self.shutting_down() {
                break;
            }
            if pending && !self.fleet_available() {
                self.lease_to_local_pool(&leased, entry);
            } else {
                thread::sleep(RECLAIM_INTERVAL);
            }
        }
        self.leased_runs.lock().retain(|r| !Arc::ptr_eq(r, &leased));
        let table = leased.table.lock().clone();
        // Cloned, not taken: a late remote completion may still hold the
        // run and land (as a duplicate) in its slots.
        let outputs = leased.outputs.lock().iter().flatten().cloned().collect();
        (outputs, table)
    }

    /// The local pool as a lease consumer: lease every pending job to
    /// [`LOCAL_POOL`], run the batch through the harness and land each
    /// output first-write-wins, keeping its real queue/wall timings. A
    /// cancel or drain that cuts the batch short fails the lease, so its
    /// unfinished jobs go back to the requeue set.
    fn lease_to_local_pool(&self, leased: &LeasedRun, entry: &RunEntry) {
        let (lease_id, indices) = {
            let mut table = leased.table.lock();
            let pending = table.pending_count();
            let Some(lease) = table.grant(LOCAL_POOL, pending, unix_now_ms(), u64::MAX / 2) else {
                return;
            };
            (lease.lease_id.clone(), lease.jobs.clone())
        };
        self.fleet.leases_granted.fetch_add(1, Ordering::Relaxed);
        self.lease_event(
            "granted",
            &leased.run_id,
            &lease_id,
            LOCAL_POOL,
            indices.len() as u64,
        );

        let subset: Vec<Job> = indices.iter().map(|&i| leased.jobs[i].clone()).collect();
        let stream = self.harness.submit(subset);
        let token = stream.cancel_token();
        *entry.cancel.lock() = Some(token.clone());
        // Re-check after publishing the token: a cancel or drain that raced
        // in before the token existed must still take effect.
        if entry.cancel_requested.load(Ordering::SeqCst) || self.shutting_down() {
            token.cancel();
        }
        let mut finished = 0usize;
        for mut output in stream {
            let index = indices[output.index];
            output.index = index;
            let mut table = leased.table.lock();
            if table.record_job(index) == JobWrite::Fresh {
                entry.completed.fetch_add(1, Ordering::Relaxed);
                leased.outputs.lock()[index] = Some(output);
            } else {
                self.fleet
                    .duplicate_completions
                    .fetch_add(1, Ordering::Relaxed);
            }
            finished += 1;
        }
        *entry.cancel.lock() = None;

        let mut table = leased.table.lock();
        if finished == indices.len() {
            let _ = table.settle(&lease_id);
        } else if let Ok(requeued) = table.fail_lease(&lease_id) {
            self.fleet.reclaimed(1, requeued.len());
        }
    }
}

/// The executor thread body: pull queued runs until the queue is closed
/// *and* empty, executing each to a terminal state.
fn executor_loop(state: &Arc<AppState>) {
    loop {
        let next = {
            let mut queue = state.queue.lock();
            loop {
                if let Some(run) = queue.items.pop_front() {
                    break Some(run);
                }
                if !queue.open {
                    break None;
                }
                queue = state.queue_signal.wait(queue);
            }
        };
        match next {
            Some(run) => state.execute(run),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_core::PipelineConfig;
    use lassi_harness::{FleetStats, HarnessOptions};
    use lassi_hecbench::application;
    use lassi_llm::gpt4;
    use std::time::Duration;

    fn test_store(name: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("lassi-state-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::new(dir)
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid::single(
            PipelineConfig::default(),
            vec![gpt4()],
            vec![application("layout").unwrap()],
            vec![lassi_core::Direction::CudaToOmp],
        )
    }

    fn state(store_name: &str) -> Arc<AppState> {
        let harness = Harness::new(HarnessOptions {
            workers: 2,
            ..HarnessOptions::default()
        });
        Arc::new(AppState::new(harness, test_store(store_name)))
    }

    #[test]
    fn run_ids_are_unique_and_ordered() {
        let s = state("ids");
        assert_eq!(s.next_run_id(), "srv-000001");
        assert_eq!(s.next_run_id(), "srv-000002");
    }

    #[test]
    fn executor_drives_a_submitted_run_to_done() {
        let s = state("exec");
        s.start_executors(1);
        let status = s.submit_sweep(tiny_grid(), Some("unit-1".into())).unwrap();
        assert_eq!(status.state, RunState::Queued);
        assert_eq!(status.total, 1);

        let status = wait_terminal(&s, "unit-1");
        assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
        assert_eq!(status.completed, 1);
        assert!(status.wall_seconds.is_some());
        // The terminal state is persisted beside the artifact.
        let on_disk = RunStatus::load(&s.store().run_dir("unit-1")).unwrap();
        assert_eq!(on_disk.state, RunState::Done);

        // Duplicate ids are refused at submission time.
        assert!(matches!(
            s.submit_sweep(tiny_grid(), Some("unit-1".into())),
            Err(SubmitError::RunExists(_))
        ));

        s.begin_shutdown();
        s.join_executors();
    }

    #[test]
    fn cancel_while_queued_is_immediate_and_shutdown_fails_queued_runs() {
        // No executors: everything submitted stays queued.
        let s = state("cancel");
        s.submit_sweep(tiny_grid(), Some("will-cancel".into()))
            .unwrap();
        s.submit_sweep(tiny_grid(), Some("will-drain".into()))
            .unwrap();
        assert_eq!(s.live_runs(), 2);

        let status = s.cancel_run("will-cancel").unwrap();
        assert_eq!(status.state, RunState::Cancelled);
        assert!(matches!(
            s.cancel_run("will-cancel"),
            Err(CancelError::NotCancellable(RunState::Cancelled))
        ));
        assert!(matches!(
            s.cancel_run("no-such-run"),
            Err(CancelError::NotFound)
        ));

        s.begin_shutdown();
        let drained = s.run_status("will-drain").unwrap();
        assert_eq!(drained.state, RunState::Failed);
        assert!(drained.reason.as_deref().unwrap().contains("drained"));
        // …and the failure is durable, not just in memory.
        let on_disk = RunStatus::load(&s.store().run_dir("will-drain")).unwrap();
        assert_eq!(on_disk.state, RunState::Failed);

        // New submissions are refused while draining.
        assert!(matches!(
            s.submit_sweep(tiny_grid(), None),
            Err(SubmitError::Draining)
        ));
    }

    fn two_job_grid() -> SweepGrid {
        SweepGrid::single(
            PipelineConfig::default(),
            vec![gpt4()],
            vec![application("layout").unwrap()],
            vec![
                lassi_core::Direction::CudaToOmp,
                lassi_core::Direction::OmpToCuda,
            ],
        )
    }

    fn wait_terminal(s: &Arc<AppState>, id: &str) -> RunStatus {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = s.run_status(id).expect("run must stay queryable");
            if status.state.is_terminal() {
                return status;
            }
            assert!(Instant::now() < deadline, "run `{id}` never finished");
            thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn fleet_drains_a_run_with_first_write_wins_duplicates() {
        let s = state("fleet");
        s.set_lease_ttl_ms(60_000);
        // The first lease poll registers the worker; there is no work yet.
        assert!(s.lease_work("w1", 4).is_none());
        assert!(s.fleet_available());
        s.start_executors(1);
        s.submit_sweep(two_job_grid(), Some("fleet-1".into()))
            .unwrap();

        // Pull one job at a time so the run stays incomplete between
        // leases (needed to pin the duplicate path deterministically).
        let deadline = Instant::now() + Duration::from_secs(30);
        let grant = loop {
            if let Some(grant) = s.lease_work("w1", 1) {
                break grant;
            }
            assert!(Instant::now() < deadline, "no lease granted");
            thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(grant.run_id, "fleet-1");
        assert_eq!(grant.jobs.len(), 1);
        assert!(s.heartbeat_work("w1", &grant.lease_id).is_ok());

        // A corrupt completion is refused, the lease failed and requeued.
        let (_, job) = &grant.jobs[0];
        let mut corrupt = job.run();
        corrupt.application = "chaos-corrupted".into();
        assert!(matches!(
            s.complete_work("w1", &grant.lease_id, vec![corrupt]),
            Err(CompleteError::Invalid(_))
        ));
        assert!(matches!(
            s.heartbeat_work("w1", &grant.lease_id),
            Err(LeaseError::NotActive { .. })
        ));

        // Re-lease the requeued job and complete it for real.
        let grant2 = s.lease_work("w1", 1).expect("requeued job must re-lease");
        let record = grant2.jobs[0].1.run();
        assert_eq!(
            s.complete_work("w1", &grant2.lease_id, vec![record.clone()])
                .unwrap(),
            (1, 0)
        );
        // A stale duplicate of the same completion is dropped,
        // first-write-wins.
        assert_eq!(
            s.complete_work("w1", &grant2.lease_id, vec![record])
                .unwrap(),
            (0, 1)
        );

        // Drain the second job and let the run finish.
        let grant3 = s.lease_work("w1", 4).expect("second job must lease");
        let records: Vec<TranslationRecord> =
            grant3.jobs.iter().map(|(_, job)| job.run()).collect();
        s.complete_work("w1", &grant3.lease_id, records).unwrap();

        let status = wait_terminal(&s, "fleet-1");
        assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
        let fleet = status.fleet.expect("fleet-drained run must carry stats");
        assert!(fleet.leases_granted >= 3, "{fleet:?}");
        assert_eq!(fleet.leases_expired, 1, "{fleet:?}");
        assert_eq!(fleet.jobs_requeued, 1, "{fleet:?}");
        assert_eq!(fleet.duplicate_completions, 1, "{fleet:?}");
        // …and the stats are durable in state.json, not just in memory.
        let on_disk = RunStatus::load(&s.store().run_dir("fleet-1")).unwrap();
        assert_eq!(on_disk.fleet, Some(fleet));
        assert!(s.fleet_snapshot().duplicate_completions >= 1);

        s.begin_shutdown();
        s.join_executors();
    }

    #[test]
    fn dead_fleet_leases_expire_and_the_local_pool_finishes_the_run() {
        let s = state("reclaim");
        s.set_lease_ttl_ms(100);
        assert!(s.lease_work("ghost", 4).is_none());
        s.start_executors(1);
        s.submit_sweep(tiny_grid(), Some("fleet-2".into())).unwrap();

        // The ghost worker takes the only job and is never heard from
        // again: its lease must expire, the job requeue, and — with the
        // whole fleet dark — the local pool must finish the run.
        let deadline = Instant::now() + Duration::from_secs(30);
        while s.lease_work("ghost", 4).is_none() {
            assert!(Instant::now() < deadline, "no lease granted");
            thread::sleep(Duration::from_millis(10));
        }

        let status = wait_terminal(&s, "fleet-2");
        assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
        let fleet = status.fleet.expect("fleet stats present");
        assert!(fleet.leases_expired >= 1, "{fleet:?}");
        assert!(fleet.jobs_requeued >= 1, "{fleet:?}");
        assert!(s.fleet_snapshot().leases_expired >= 1);

        s.begin_shutdown();
        s.join_executors();
    }

    #[test]
    fn zero_worker_run_drains_through_one_local_pool_lease() {
        let s = state("local");
        let accepted_before = s.fleet_snapshot().records_accepted;
        s.start_executors(1);
        s.submit_sweep(two_job_grid(), Some("local-1".into()))
            .unwrap();

        let status = wait_terminal(&s, "local-1");
        assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
        assert_eq!(status.completed, 2);
        assert_eq!(
            status.fleet,
            Some(FleetStats {
                leases_granted: 1,
                ..FleetStats::default()
            })
        );
        // The run's lease table is on disk beside state.json, settled.
        let table = LeaseTable::load(&s.store().run_dir("local-1")).unwrap();
        table.check_invariant().unwrap();
        assert!(table.is_complete());
        assert_eq!(table.leases().len(), 1);
        assert_eq!(table.leases()[0].worker, LOCAL_POOL);
        // Local outputs are not records accepted from remote workers.
        assert_eq!(s.fleet_snapshot().records_accepted, accepted_before);

        s.begin_shutdown();
        s.join_executors();
    }

    #[test]
    fn cancelled_local_drain_leaves_the_table_partitioned() {
        // No executors: the test plays the executor's part itself.
        let s = state("local-cancel");
        s.submit_sweep(two_job_grid(), Some("local-2".into()))
            .unwrap();
        let run = s.queue.lock().items.pop_front().expect("queued run");
        let entry = s.runs.lock().get("local-2").cloned().unwrap();
        entry.cancel_requested.store(true, Ordering::SeqCst);

        // A local drain entered with the cancel already requested: whatever
        // the pool finished is completed, the rest is requeued, and no
        // lease is left holding jobs.
        let jobs = run.grid.jobs();
        let leased = LeasedRun::new("local-2", &jobs);
        s.lease_to_local_pool(&leased, &entry);
        let table = leased.table.lock();
        table.check_invariant().unwrap();
        assert_eq!(
            table.completed_count() + table.pending_count(),
            table.total()
        );
        assert_eq!(table.active_leases(), 0);
        drop(table);

        // The run itself stops on the cancel and persists its table.
        s.execute(run);
        let status = s.run_status("local-2").unwrap();
        assert_eq!(status.state, RunState::Cancelled);
        assert!(status.reason.unwrap().contains("cancelled by client"));
        let on_disk = LeaseTable::load(&s.store().run_dir("local-2")).unwrap();
        on_disk.check_invariant().unwrap();
        assert_eq!(on_disk.active_leases(), 0);
    }

    #[test]
    fn recovery_repairs_torn_state_and_lease_files() {
        let s = state("torn");
        // Simulate a crash mid-write: state.json and leases.json both cut
        // off half-way (the partial write that never reached the rename).
        let dir = s.store().run_dir("tornrun");
        std::fs::create_dir_all(&dir).unwrap();
        let state_json = RunStatus::queued("tornrun", 8).to_json().to_pretty();
        std::fs::write(dir.join("state.json"), &state_json[..state_json.len() / 2]).unwrap();
        let lease_json = LeaseTable::new("tornrun", 8).to_json().to_pretty();
        std::fs::write(dir.join("leases.json"), &lease_json[..lease_json.len() / 2]).unwrap();

        assert_eq!(s.recover_runs().unwrap(), 1);
        let status = s.run_status("tornrun").expect("repaired run is queryable");
        assert_eq!(status.state, RunState::Failed);
        let reason = status.reason.expect("tear must be explained");
        assert!(reason.contains("torn"), "{reason}");
        assert!(reason.contains("lease file"), "{reason}");
        // The run lists as failed rather than vanishing.
        let rows = s.list_run_summaries().unwrap();
        assert!(rows
            .iter()
            .any(|(id, state, _)| id == "tornrun" && *state == RunState::Failed));
        // Recovery is idempotent: the rewritten state is clean.
        assert_eq!(s.recover_runs().unwrap(), 0);
    }

    #[test]
    fn recovery_fails_runs_orphaned_by_a_previous_process() {
        let s = state("recover");
        s.submit_sweep(tiny_grid(), Some("orphan".into())).unwrap();

        // Simulate a restart: a fresh AppState over the same store root,
        // with no memory of the queued run.
        let restarted = Arc::new(AppState::new(
            Harness::default(),
            ArtifactStore::new(s.store().run_dir("orphan").parent().unwrap()),
        ));
        assert_eq!(restarted.recover_runs().unwrap(), 1);
        let status = restarted.run_status("orphan").unwrap();
        assert_eq!(status.state, RunState::Failed);
        assert!(status.reason.as_deref().unwrap().contains("restarted"));
    }
}
