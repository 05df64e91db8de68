//! The lease table every server run is drained through.
//!
//! Each executing run's scenario jobs are handed out in batches, and every
//! batch travels under a *time-bounded lease*. Remote workers take one with
//! `POST /v1/work/lease`, extend it with heartbeats and settle it with
//! `POST /v1/work/complete`; the server's local pool is one more consumer,
//! leasing all pending jobs under the worker name `local-pool` while no
//! remote worker is live. A worker that dies or stalls simply stops
//! heartbeating — its lease expires, is reclaimed, and the jobs it held go
//! back to the requeue set for another consumer. Because the simulator is deterministic, re-executing a requeued
//! job reproduces the identical record, so duplicate completions (a stale
//! worker settling a lease that was already reclaimed) are resolved
//! first-write-wins without ever changing the artifact.
//!
//! ```text
//!             ┌─────────┐ heartbeat ┌──────────┐
//!  grant ───▶ │ granted │ ────────▶ │ extended │──┐
//!             └─────────┘           └──────────┘  │ complete
//!                  │  │ complete         │        ▼
//!                  │  └─────────────┐    │   ┌───────────┐
//!                  │ deadline       │    │   │ completed │
//!                  ▼ passes         ▼    │   └───────────┘
//!             ┌─────────┐      ┌────────┴──┐
//!             │ expired │ ───▶ │ reclaimed │  (jobs requeued)
//!             └─────────┘      └───────────┘
//! ```
//!
//! [`LeaseTable`] is the bookkeeping for one run: the requeue set of
//! unleased job indices, the leases in flight, and the first-write-wins
//! completion bitmap. Like [`crate::runstate::RunStatus`] it persists
//! write-then-rename (`leases.json` in the run directory), so a crash
//! mid-write never leaves a torn file for the recovery scan to trip over.
//! The table is deliberately clock-free: every operation takes `now_ms`
//! from the caller, which keeps the whole machine deterministic under test.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::Path;

use crate::json::{self, Json};

/// Name of the persisted lease-table file inside a run directory.
pub const LEASE_FILE: &str = "leases.json";

/// Lifecycle states of one lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeaseState {
    /// Granted to a worker, running against its initial deadline.
    Granted,
    /// At least one heartbeat extended the deadline.
    Extended,
    /// The worker returned records for every job under the lease.
    Completed,
    /// The deadline passed without completion (worker died or stalled).
    Expired,
    /// The reclaimer requeued the expired lease's uncompleted jobs.
    Reclaimed,
}

impl LeaseState {
    /// Every state, in lifecycle order.
    pub const ALL: [LeaseState; 5] = [
        LeaseState::Granted,
        LeaseState::Extended,
        LeaseState::Completed,
        LeaseState::Expired,
        LeaseState::Reclaimed,
    ];

    /// The wire/disk spelling (`granted`, `extended`, `completed`,
    /// `expired`, `reclaimed`).
    pub fn slug(self) -> &'static str {
        match self {
            LeaseState::Granted => "granted",
            LeaseState::Extended => "extended",
            LeaseState::Completed => "completed",
            LeaseState::Expired => "expired",
            LeaseState::Reclaimed => "reclaimed",
        }
    }

    /// Parse the wire/disk spelling.
    pub fn from_slug(s: &str) -> Option<LeaseState> {
        LeaseState::ALL.into_iter().find(|state| state.slug() == s)
    }

    /// A lease still holding its jobs: granted or extended.
    pub fn is_active(self) -> bool {
        matches!(self, LeaseState::Granted | LeaseState::Extended)
    }

    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(self, LeaseState::Completed | LeaseState::Reclaimed)
    }

    /// Is `self → next` a legal lease transition?
    ///
    /// A `granted` lease may be heartbeat-extended, completed, or expire;
    /// an `extended` one may complete or expire (further heartbeats only
    /// move the deadline, not the state); an `expired` lease is always
    /// reclaimed — requeueing its jobs is the only way out.
    pub fn can_transition_to(self, next: LeaseState) -> bool {
        matches!(
            (self, next),
            (
                LeaseState::Granted,
                LeaseState::Extended | LeaseState::Completed | LeaseState::Expired
            ) | (
                LeaseState::Extended,
                LeaseState::Completed | LeaseState::Expired
            ) | (LeaseState::Expired, LeaseState::Reclaimed)
        )
    }
}

impl fmt::Display for LeaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// A rejected lease transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalLeaseTransition {
    /// The state the lease was in.
    pub from: LeaseState,
    /// The state the caller asked for.
    pub to: LeaseState,
}

impl fmt::Display for IllegalLeaseTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal lease transition {} → {}", self.from, self.to)
    }
}

impl std::error::Error for IllegalLeaseTransition {}

/// Why a lease operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// No lease with that id in the table.
    UnknownLease(String),
    /// The lease exists but is no longer active (already settled or
    /// reclaimed out from under a slow worker).
    NotActive {
        /// The lease in question.
        lease_id: String,
        /// Its current (non-active) state.
        state: LeaseState,
    },
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::UnknownLease(id) => write!(f, "unknown lease `{id}`"),
            LeaseError::NotActive { lease_id, state } => {
                write!(f, "lease `{lease_id}` is {state}, not active")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// First-write-wins verdict for one delivered job record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobWrite {
    /// First record for this job index — keep it.
    Fresh,
    /// The job was already completed (a requeued twin or a stale worker
    /// raced us) — drop the record, the first write stands.
    Duplicate,
}

/// Per-run fleet accounting, surfaced by `GET /v1/runs/{id}` so a
/// degraded-but-succeeding run is visible without reading traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Leases handed to workers (including re-grants of requeued jobs).
    pub leases_granted: u64,
    /// Leases that expired (deadline passed) or were failed for a corrupt
    /// completion, then reclaimed.
    pub leases_expired: u64,
    /// Job indices pushed back into the requeue set by reclaims.
    pub jobs_requeued: u64,
    /// Records dropped because the job already had a first write.
    pub duplicate_completions: u64,
}

impl FleetStats {
    /// Serialize to the `state.json`/`leases.json` sub-object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("leases_granted".into(), Json::uint(self.leases_granted)),
            ("leases_expired".into(), Json::uint(self.leases_expired)),
            ("jobs_requeued".into(), Json::uint(self.jobs_requeued)),
            (
                "duplicate_completions".into(),
                Json::uint(self.duplicate_completions),
            ),
        ])
    }

    /// Decode the sub-object; missing counters default to zero.
    pub fn from_json(value: &Json) -> FleetStats {
        let count = |name: &str| value.get(name).and_then(Json::as_u64).unwrap_or(0);
        FleetStats {
            leases_granted: count("leases_granted"),
            leases_expired: count("leases_expired"),
            jobs_requeued: count("jobs_requeued"),
            duplicate_completions: count("duplicate_completions"),
        }
    }
}

/// One lease: a batch of job indices held by a worker until a deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Table-scoped id, e.g. `lease-smoke-0003` (embeds the run id so ids
    /// from different runs never collide at the server).
    pub lease_id: String,
    /// The worker that pulled the batch.
    pub worker: String,
    /// Current lifecycle state.
    pub state: LeaseState,
    /// Submission indices of the jobs under this lease.
    pub jobs: Vec<usize>,
    /// Milliseconds-since-epoch the lease was granted.
    pub granted_unix_ms: u64,
    /// Milliseconds-since-epoch the lease expires unless extended.
    pub deadline_unix_ms: u64,
}

impl Lease {
    fn advance(&mut self, next: LeaseState) -> Result<(), IllegalLeaseTransition> {
        if !self.state.can_transition_to(next) {
            return Err(IllegalLeaseTransition {
                from: self.state,
                to: next,
            });
        }
        self.state = next;
        Ok(())
    }
}

/// The lease bookkeeping for one run: requeue set, in-flight leases, and
/// the first-write-wins completion bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseTable {
    run_id: String,
    total: usize,
    /// Job indices awaiting a lease (initially `0..total`; reclaims push
    /// uncompleted jobs back here).
    pending: VecDeque<usize>,
    /// `completed[i]` — job `i` has its first (and final) record.
    completed: Vec<bool>,
    leases: Vec<Lease>,
    next_lease: u64,
    stats: FleetStats,
}

impl LeaseTable {
    /// A fresh table for a run of `total` jobs, all pending.
    pub fn new(run_id: impl Into<String>, total: usize) -> LeaseTable {
        LeaseTable {
            run_id: run_id.into(),
            total,
            pending: (0..total).collect(),
            completed: vec![false; total],
            leases: Vec::new(),
            next_lease: 0,
            stats: FleetStats::default(),
        }
    }

    /// The run this table belongs to.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Jobs the run expands to.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Jobs waiting in the requeue set.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Jobs with a first write recorded.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|&&c| c).count()
    }

    /// Leases currently holding jobs (granted or extended).
    pub fn active_leases(&self) -> usize {
        self.leases.iter().filter(|l| l.state.is_active()).count()
    }

    /// Every job has its record.
    pub fn is_complete(&self) -> bool {
        self.completed.iter().all(|&c| c)
    }

    /// Fleet accounting so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// All leases, in grant order.
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    fn find(&mut self, lease_id: &str) -> Result<&mut Lease, LeaseError> {
        self.leases
            .iter_mut()
            .find(|l| l.lease_id == lease_id)
            .ok_or_else(|| LeaseError::UnknownLease(lease_id.to_string()))
    }

    /// Grant up to `capacity` pending jobs to `worker` under a lease
    /// expiring at `now_ms + ttl_ms`. Returns `None` when nothing is
    /// pending (all jobs leased out or completed).
    pub fn grant(
        &mut self,
        worker: &str,
        capacity: usize,
        now_ms: u64,
        ttl_ms: u64,
    ) -> Option<&Lease> {
        if self.pending.is_empty() {
            return None;
        }
        let take = capacity.max(1).min(self.pending.len());
        let jobs: Vec<usize> = self.pending.drain(..take).collect();
        let lease_id = format!("lease-{}-{:04}", self.run_id, self.next_lease);
        self.next_lease += 1;
        self.stats.leases_granted += 1;
        self.leases.push(Lease {
            lease_id,
            worker: worker.to_string(),
            state: LeaseState::Granted,
            jobs,
            granted_unix_ms: now_ms,
            deadline_unix_ms: now_ms.saturating_add(ttl_ms),
        });
        self.leases.last()
    }

    /// Extend an active lease's deadline to `now_ms + ttl_ms`. The first
    /// heartbeat moves `granted → extended`; later ones only move the
    /// deadline. Returns the new deadline.
    pub fn heartbeat(
        &mut self,
        lease_id: &str,
        now_ms: u64,
        ttl_ms: u64,
    ) -> Result<u64, LeaseError> {
        let lease = self.find(lease_id)?;
        if !lease.state.is_active() {
            return Err(LeaseError::NotActive {
                lease_id: lease_id.to_string(),
                state: lease.state,
            });
        }
        if lease.state == LeaseState::Granted {
            lease
                .advance(LeaseState::Extended)
                .expect("granted → extended is legal");
        }
        lease.deadline_unix_ms = now_ms.saturating_add(ttl_ms);
        Ok(lease.deadline_unix_ms)
    }

    /// Settle a lease whose worker returned records. An active lease moves
    /// to `completed`; a lease already reclaimed (the worker was presumed
    /// dead, its jobs requeued) settles *late* — its records may still be
    /// delivered first-write-wins via [`LeaseTable::record_job`]. Returns
    /// the lease's job indices and whether it was still active.
    pub fn settle(&mut self, lease_id: &str) -> Result<(Vec<usize>, bool), LeaseError> {
        let lease = self.find(lease_id)?;
        let jobs = lease.jobs.clone();
        if lease.state.is_active() {
            lease
                .advance(LeaseState::Completed)
                .expect("active → completed is legal");
            Ok((jobs, true))
        } else {
            Ok((jobs, false))
        }
    }

    /// Record one job's completion, first-write-wins. A `Fresh` write marks
    /// the job done (and pulls it out of the requeue set if a reclaim had
    /// put it back); a `Duplicate` is counted and must be dropped.
    pub fn record_job(&mut self, index: usize) -> JobWrite {
        if index >= self.total || self.completed[index] {
            self.stats.duplicate_completions += 1;
            return JobWrite::Duplicate;
        }
        self.completed[index] = true;
        self.pending.retain(|&j| j != index);
        JobWrite::Fresh
    }

    /// Expire and reclaim every active lease whose deadline has passed,
    /// requeueing its uncompleted jobs. Returns the requeued indices.
    pub fn reclaim_expired(&mut self, now_ms: u64) -> Vec<usize> {
        let expired: Vec<String> = self
            .leases
            .iter()
            .filter(|l| l.state.is_active() && l.deadline_unix_ms <= now_ms)
            .map(|l| l.lease_id.clone())
            .collect();
        let mut requeued = Vec::new();
        for id in expired {
            requeued.extend(self.reclaim(&id, LeaseState::Expired));
        }
        requeued
    }

    /// Fail an active lease immediately (corrupt completion): same
    /// `expired → reclaimed` path as a deadline miss, without waiting.
    pub fn fail_lease(&mut self, lease_id: &str) -> Result<Vec<usize>, LeaseError> {
        let lease = self.find(lease_id)?;
        if !lease.state.is_active() {
            return Err(LeaseError::NotActive {
                lease_id: lease_id.to_string(),
                state: lease.state,
            });
        }
        Ok(self.reclaim(lease_id, LeaseState::Expired))
    }

    fn reclaim(&mut self, lease_id: &str, via: LeaseState) -> Vec<usize> {
        let lease = self.find(lease_id).expect("reclaim of a known lease");
        lease.advance(via).expect("active → expired is legal");
        lease
            .advance(LeaseState::Reclaimed)
            .expect("expired → reclaimed is legal");
        let jobs = lease.jobs.clone();
        self.stats.leases_expired += 1;
        let mut requeued = Vec::new();
        for job in jobs {
            if !self.completed[job] && !self.pending.contains(&job) {
                self.pending.push_back(job);
                requeued.push(job);
            }
        }
        self.stats.jobs_requeued += requeued.len() as u64;
        requeued
    }

    /// Serialize to the `leases.json` schema.
    pub fn to_json(&self) -> Json {
        let indices = |v: &[usize]| Json::Array(v.iter().map(|&i| Json::uint(i as u64)).collect());
        let leases = self
            .leases
            .iter()
            .map(|l| {
                Json::Object(vec![
                    ("lease_id".into(), Json::Str(l.lease_id.clone())),
                    ("worker".into(), Json::Str(l.worker.clone())),
                    ("state".into(), Json::Str(l.state.slug().into())),
                    ("jobs".into(), indices(&l.jobs)),
                    ("granted_unix_ms".into(), Json::uint(l.granted_unix_ms)),
                    ("deadline_unix_ms".into(), Json::uint(l.deadline_unix_ms)),
                ])
            })
            .collect();
        let completed: Vec<usize> = (0..self.total).filter(|&i| self.completed[i]).collect();
        let pending: Vec<usize> = self.pending.iter().copied().collect();
        Json::Object(vec![
            ("run_id".into(), Json::Str(self.run_id.clone())),
            ("total".into(), Json::uint(self.total as u64)),
            ("pending".into(), indices(&pending)),
            ("completed".into(), indices(&completed)),
            ("leases".into(), Json::Array(leases)),
            ("next_lease".into(), Json::uint(self.next_lease)),
            ("stats".into(), self.stats.to_json()),
        ])
    }

    /// Decode the `leases.json` schema.
    pub fn from_json(value: &Json) -> Result<LeaseTable, String> {
        let indices = |name: &str| -> Result<Vec<usize>, String> {
            value
                .get(name)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("leases.json: missing array `{name}`"))?
                .iter()
                .map(|v| {
                    v.as_usize()
                        .ok_or_else(|| format!("leases.json: non-index in `{name}`"))
                })
                .collect()
        };
        let run_id = value
            .get("run_id")
            .and_then(Json::as_str)
            .ok_or("leases.json: missing string `run_id`")?
            .to_string();
        let total = value
            .get("total")
            .and_then(Json::as_usize)
            .ok_or("leases.json: missing count `total`")?;
        let mut completed = vec![false; total];
        for index in indices("completed")? {
            if index >= total {
                return Err(format!("leases.json: completed index {index} out of range"));
            }
            completed[index] = true;
        }
        let leases = value
            .get("leases")
            .and_then(Json::as_array)
            .ok_or("leases.json: missing array `leases`")?
            .iter()
            .map(|entry| -> Result<Lease, String> {
                let str_field = |name: &str| {
                    entry
                        .get(name)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("leases.json: lease missing string `{name}`"))
                };
                let ms_field = |name: &str| {
                    entry
                        .get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("leases.json: lease missing stamp `{name}`"))
                };
                let state_slug = str_field("state")?;
                let state = LeaseState::from_slug(state_slug)
                    .ok_or_else(|| format!("leases.json: unknown lease state `{state_slug}`"))?;
                let jobs = entry
                    .get("jobs")
                    .and_then(Json::as_array)
                    .ok_or("leases.json: lease missing array `jobs`")?
                    .iter()
                    .map(|v| v.as_usize().ok_or("leases.json: non-index in lease `jobs`"))
                    .collect::<Result<Vec<usize>, _>>()?;
                Ok(Lease {
                    lease_id: str_field("lease_id")?.to_string(),
                    worker: str_field("worker")?.to_string(),
                    state,
                    jobs,
                    granted_unix_ms: ms_field("granted_unix_ms")?,
                    deadline_unix_ms: ms_field("deadline_unix_ms")?,
                })
            })
            .collect::<Result<Vec<Lease>, String>>()?;
        Ok(LeaseTable {
            run_id,
            total,
            pending: indices("pending")?.into_iter().collect(),
            completed,
            leases,
            next_lease: value
                .get("next_lease")
                .and_then(Json::as_u64)
                .ok_or("leases.json: missing count `next_lease`")?,
            stats: value
                .get("stats")
                .map(FleetStats::from_json)
                .unwrap_or_default(),
        })
    }

    /// Persist as `<run_dir>/leases.json`, write-then-rename so a crash
    /// mid-write never leaves a torn file.
    pub fn save(&self, run_dir: &Path) -> io::Result<()> {
        let mut text = self.to_json().to_pretty();
        text.push('\n');
        let tmp = run_dir.join(format!("{LEASE_FILE}.tmp"));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, run_dir.join(LEASE_FILE))
    }

    /// Load `<run_dir>/leases.json`. A missing file is
    /// [`io::ErrorKind::NotFound`]; a torn or malformed one is
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(run_dir: &Path) -> io::Result<LeaseTable> {
        let text = std::fs::read_to_string(run_dir.join(LEASE_FILE))?;
        let value = json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        LeaseTable::from_json(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Test-facing invariant: no schedule of grants, expiries and
    /// completions may lose or duplicate a job. Every uncompleted job sits
    /// in exactly one place — the requeue set or exactly one active lease —
    /// and completed jobs are never requeued.
    pub fn check_invariant(&self) -> Result<(), String> {
        for job in 0..self.total {
            let in_pending = self.pending.iter().filter(|&&j| j == job).count();
            let in_active = self
                .leases
                .iter()
                .filter(|l| l.state.is_active() && l.jobs.contains(&job))
                .count();
            if self.completed[job] {
                if in_pending != 0 {
                    return Err(format!("completed job {job} still in the requeue set"));
                }
            } else if in_pending + in_active != 1 {
                return Err(format!(
                    "job {job} held {in_pending}× pending + {in_active}× active (want exactly 1)"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip() {
        for state in LeaseState::ALL {
            assert_eq!(LeaseState::from_slug(state.slug()), Some(state));
        }
        assert_eq!(LeaseState::from_slug("vanished"), None);
    }

    #[test]
    fn transition_matrix_is_exactly_the_lease_lifecycle() {
        use LeaseState::*;
        let legal = [
            (Granted, Extended),
            (Granted, Completed),
            (Granted, Expired),
            (Extended, Completed),
            (Extended, Expired),
            (Expired, Reclaimed),
        ];
        for from in LeaseState::ALL {
            for to in LeaseState::ALL {
                assert_eq!(
                    from.can_transition_to(to),
                    legal.contains(&(from, to)),
                    "{from} → {to}"
                );
            }
        }
        // Terminal states are exactly the ones with no outgoing edges.
        for state in LeaseState::ALL {
            assert_eq!(
                state.is_terminal(),
                LeaseState::ALL
                    .iter()
                    .all(|&to| !state.can_transition_to(to)),
                "{state}"
            );
        }
        // Active states are exactly the ones a heartbeat or completion can
        // reach from.
        for state in LeaseState::ALL {
            assert_eq!(
                state.is_active(),
                matches!(state, Granted | Extended),
                "{state}"
            );
        }
    }

    #[test]
    fn grant_heartbeat_complete_happy_path() {
        let mut table = LeaseTable::new("happy", 6);
        assert_eq!(table.pending_count(), 6);

        let lease = table.grant("w1", 4, 1_000, 500).unwrap();
        let id = lease.lease_id.clone();
        assert_eq!(lease.state, LeaseState::Granted);
        assert_eq!(lease.jobs, vec![0, 1, 2, 3]);
        assert_eq!(lease.deadline_unix_ms, 1_500);
        assert_eq!(table.pending_count(), 2);
        assert_eq!(table.active_leases(), 1);

        // Heartbeat extends the deadline and moves granted → extended once.
        assert_eq!(table.heartbeat(&id, 1_400, 500), Ok(1_900));
        assert_eq!(table.leases()[0].state, LeaseState::Extended);
        assert_eq!(table.heartbeat(&id, 1_800, 500), Ok(2_300));
        assert_eq!(table.leases()[0].state, LeaseState::Extended);

        let (jobs, was_active) = table.settle(&id).unwrap();
        assert!(was_active);
        assert_eq!(jobs, vec![0, 1, 2, 3]);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Fresh);
        }
        assert_eq!(table.completed_count(), 4);
        assert!(!table.is_complete());

        // The remaining two jobs drain under a second lease.
        let lease2 = table.grant("w2", 8, 2_000, 500).unwrap();
        let id2 = lease2.lease_id.clone();
        assert_eq!(lease2.jobs, vec![4, 5]);
        assert!(
            table.grant("w3", 8, 2_000, 500).is_none(),
            "nothing pending"
        );
        let (jobs2, _) = table.settle(&id2).unwrap();
        jobs2.iter().for_each(|&j| {
            table.record_job(j);
        });
        assert!(table.is_complete());
        assert_eq!(table.stats().leases_granted, 2);
        assert_eq!(table.stats().leases_expired, 0);
        table.check_invariant().unwrap();
    }

    #[test]
    fn expiry_reclaims_and_requeues_only_uncompleted_jobs() {
        let mut table = LeaseTable::new("reclaim", 4);
        let id = table.grant("w1", 4, 0, 100).unwrap().lease_id.clone();
        // A late partial write lands for job 1 before the deadline passes.
        assert_eq!(table.record_job(1), JobWrite::Fresh);

        assert!(table.reclaim_expired(99).is_empty(), "deadline not reached");
        let requeued = table.reclaim_expired(100);
        assert_eq!(requeued, vec![0, 2, 3], "completed job 1 must not requeue");
        assert_eq!(table.leases()[0].state, LeaseState::Reclaimed);
        assert_eq!(table.pending_count(), 3);
        assert_eq!(table.stats().leases_expired, 1);
        assert_eq!(table.stats().jobs_requeued, 3);
        table.check_invariant().unwrap();

        // Heartbeat and repeat-expiry on the reclaimed lease are refused.
        assert_eq!(
            table.heartbeat(&id, 200, 100),
            Err(LeaseError::NotActive {
                lease_id: id.clone(),
                state: LeaseState::Reclaimed,
            })
        );
        assert!(table.reclaim_expired(10_000).is_empty());
        assert_eq!(
            table.heartbeat("lease-reclaim-9999", 0, 1),
            Err(LeaseError::UnknownLease("lease-reclaim-9999".into()))
        );
    }

    #[test]
    fn duplicate_completions_resolve_first_write_wins() {
        let mut table = LeaseTable::new("dup", 3);
        let stale = table.grant("w1", 3, 0, 100).unwrap().lease_id.clone();
        table.reclaim_expired(100);

        // The requeued jobs complete under a second worker's lease.
        let fresh = table.grant("w2", 3, 200, 100).unwrap().lease_id.clone();
        let (jobs, was_active) = table.settle(&fresh).unwrap();
        assert!(was_active);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Fresh);
        }

        // The presumed-dead worker then settles its reclaimed lease: the
        // lease stays reclaimed and every record is a duplicate.
        let (jobs, was_active) = table.settle(&stale).unwrap();
        assert!(!was_active);
        assert_eq!(table.leases()[0].state, LeaseState::Reclaimed);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Duplicate);
        }
        assert_eq!(table.stats().duplicate_completions, 3);
        assert!(table.is_complete());
        table.check_invariant().unwrap();
    }

    #[test]
    fn late_write_pulls_a_requeued_job_back_out_of_the_queue() {
        let mut table = LeaseTable::new("late", 2);
        let stale = table.grant("w1", 2, 0, 100).unwrap().lease_id.clone();
        table.reclaim_expired(100);
        assert_eq!(table.pending_count(), 2);

        // The stale worker's completion arrives before anyone re-leases.
        let (jobs, was_active) = table.settle(&stale).unwrap();
        assert!(!was_active);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Fresh);
        }
        assert_eq!(
            table.pending_count(),
            0,
            "completed jobs left the requeue set"
        );
        assert!(table.is_complete());
        assert!(table.grant("w2", 4, 300, 100).is_none());
        table.check_invariant().unwrap();
    }

    #[test]
    fn fail_lease_requeues_immediately() {
        let mut table = LeaseTable::new("corrupt", 3);
        let id = table.grant("w1", 2, 0, 60_000).unwrap().lease_id.clone();
        let requeued = table.fail_lease(&id).unwrap();
        assert_eq!(requeued, vec![0, 1]);
        assert_eq!(table.leases()[0].state, LeaseState::Reclaimed);
        assert_eq!(table.stats().leases_expired, 1);
        assert!(table.fail_lease(&id).is_err(), "already reclaimed");
        table.check_invariant().unwrap();
    }

    #[test]
    fn table_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("lassi-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut table = LeaseTable::new("persisted", 8);
        table.grant("w1", 3, 1_000, 500);
        table.grant("w2", 3, 1_100, 500);
        let extended = table.leases()[0].lease_id.clone();
        table.heartbeat(&extended, 1_300, 500).unwrap();
        let settled = table.leases()[1].lease_id.clone();
        let (jobs, _) = table.settle(&settled).unwrap();
        jobs.iter().for_each(|&j| {
            table.record_job(j);
        });
        table.reclaim_expired(5_000);

        table.save(&dir).unwrap();
        let loaded = LeaseTable::load(&dir).unwrap();
        assert_eq!(loaded, table);
        loaded.check_invariant().unwrap();

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_missing_or_torn_lease_files_maps_to_io_kinds() {
        let dir = std::env::temp_dir().join(format!("lassi-lease-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        assert_eq!(
            LeaseTable::load(&dir).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        // A torn write: the file stops mid-object, as if the process died
        // before the rename.
        let full = LeaseTable::new("torn", 4).to_json().to_pretty();
        std::fs::write(dir.join(LEASE_FILE), &full[..full.len() / 2]).unwrap();
        assert_eq!(
            LeaseTable::load(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::write(dir.join(LEASE_FILE), r#"{"run_id": "x"}"#).unwrap();
        assert_eq!(
            LeaseTable::load(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
