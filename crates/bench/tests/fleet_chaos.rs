//! Chaos suite for the remote worker fleet: a full 80-scenario grid is
//! drained by real `worker` processes while one crashes mid-batch
//! (`--chaos-crash-after`), one is SIGKILLed mid-grid, and one stalls past
//! the lease TTL and corrupts some completions. The run must still reach
//! `done`, with record sets **byte-identical** to the same grid drained by
//! the local pool — crashes cost leases (reclaimed + requeued, visible in
//! the run's fleet accounting), never records.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lassi_harness::{ArtifactStore, Harness, HarnessOptions, Json};
use lassi_server::{http, AppState, Server};

/// Lease TTL for the chaos server: short enough that a dead worker's jobs
/// requeue within the test's patience, long enough that healthy workers
/// (heartbeating at TTL/3) never lose a lease by accident.
const LEASE_TTL_MS: u64 = 500;

/// How long the fleet gets to finish the 80-scenario grid.
const RUN_DEADLINE: Duration = Duration::from_secs(180);

fn test_root(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lassi-fleet-chaos-{}-{label}", std::process::id()))
}

/// Start a server with **no scenario cache**: both the baseline and the
/// fleet run must actually execute every scenario, so byte-identity proves
/// deterministic re-execution, not cache hits.
fn start_server(root: &PathBuf) -> (SocketAddr, thread::JoinHandle<()>, Arc<AppState>) {
    let _ = std::fs::remove_dir_all(root);
    let store = ArtifactStore::new(root);
    let harness = Harness::new(HarnessOptions::default().with_workers(2));
    let state = Arc::new(AppState::new(harness, store));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state))
        .expect("bind")
        .with_max_connections(16)
        .with_lease_ttl_ms(LEASE_TTL_MS);
    let addr = server.local_addr();
    let state_handle = Arc::clone(server.state());
    let join = thread::spawn(move || server.run().expect("server run"));
    (addr, join, state_handle)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let resp = http::request(addr, "GET", path, None).expect("request");
    let value = lassi_harness::json::parse(&resp.text()).expect("json body");
    (resp.status, value)
}

/// Submit the paper's full product (4 models × 10 apps × 2 directions at
/// `timing_runs = 1`) under `run_id` and return its scenario total.
fn submit_grid(addr: SocketAddr, run_id: &str) -> u64 {
    let body = format!(r#"{{"timing_runs": [1], "seed": 20240704, "run_id": "{run_id}"}}"#);
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(body.as_bytes())).expect("submit");
    assert_eq!(resp.status, 202, "submit {run_id}: {}", resp.text());
    let view = lassi_harness::json::parse(&resp.text()).expect("submit body");
    view.get("progress")
        .and_then(|p| p.get("total"))
        .and_then(Json::as_u64)
        .expect("progress.total")
}

/// Poll `GET /v1/runs/{id}` until terminal; panic unless it ends `done`.
fn poll_done(addr: SocketAddr, run_id: &str) -> Json {
    let deadline = Instant::now() + RUN_DEADLINE;
    loop {
        let (status, view) = get_json(addr, &format!("/v1/runs/{run_id}"));
        assert_eq!(status, 200, "poll {run_id}: {view:?}");
        match view.get("state").and_then(Json::as_str) {
            Some("done") => return view,
            Some("queued" | "running") => {
                assert!(
                    Instant::now() < deadline,
                    "run {run_id} unfinished after {RUN_DEADLINE:?}: {view:?}"
                );
                thread::sleep(Duration::from_millis(25));
            }
            state => panic!(
                "run {run_id} ended {state:?} (reason {:?})",
                view.get("reason").and_then(Json::as_str)
            ),
        }
    }
}

/// The run's current `progress.completed`.
fn completed(addr: SocketAddr, run_id: &str) -> u64 {
    let (_, view) = get_json(addr, &format!("/v1/runs/{run_id}"));
    view.get("progress")
        .and_then(|p| p.get("completed"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Spawn one `worker` process against `addr` with extra chaos flags.
fn spawn_worker(addr: SocketAddr, id: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_worker"))
        .args([
            "--addr",
            &addr.to_string(),
            "--worker-id",
            id,
            "--capacity",
            "2",
            "--poll-ms",
            "10",
        ])
        .args(extra)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

/// Every `records-*.json` in a run directory, as `(file name, bytes)`
/// sorted by name.
fn record_sets(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut sets: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("run dir")
        .filter_map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("records-") && name.ends_with(".json") {
                Some((name.clone(), std::fs::read(entry.path()).expect("records")))
            } else {
                None
            }
        })
        .collect();
    sets.sort_by(|a, b| a.0.cmp(&b.0));
    sets
}

#[test]
fn chaos_fleet_drains_the_grid_byte_identically_to_the_local_pool() {
    let root = test_root("grid");
    let (addr, join, _state) = start_server(&root);
    let store = ArtifactStore::new(&root);

    // Baseline: no workers are registered, so the local pool leases the
    // whole grid in one batch and settles it.
    let total = submit_grid(addr, "baseline");
    assert_eq!(
        total, 80,
        "the paper's full product is the 80-scenario grid"
    );
    let baseline_view = poll_done(addr, "baseline");
    let one_local_lease = lassi_harness::json::parse(
        r#"{"leases_granted": 1, "leases_expired": 0, "jobs_requeued": 0, "duplicate_completions": 0}"#,
    )
    .expect("literal parses");
    assert_eq!(
        baseline_view.get("fleet"),
        Some(&one_local_lease),
        "a local-pool run holds one local-pool lease"
    );
    let baseline_sets = record_sets(&store.run_dir("baseline"));
    assert!(
        baseline_sets.len() >= 2,
        "the grid writes one record set per direction cell"
    );

    // The fleet: one healthy worker, one that aborts mid-batch after 6
    // jobs, one the test SIGKILLs mid-grid, and one that stalls past the
    // TTL (late completions exercise first-write-wins) and corrupts a
    // quarter of its completions (the server must reject + requeue them).
    let mut ok = spawn_worker(addr, "w-ok", &[]);
    let mut crash = spawn_worker(addr, "w-crash", &["--chaos-crash-after", "6"]);
    let mut kill_me = spawn_worker(addr, "w-kill", &[]);
    let mut stall = spawn_worker(
        addr,
        "w-stall",
        &[
            "--chaos-stall-ms",
            "2000",
            "--chaos-stall-prob",
            "0.4",
            "--chaos-corrupt-prob",
            "0.25",
            "--chaos-seed",
            "7",
        ],
    );

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        submit_grid(addr, "fleet");

        // SIGKILL one worker mid-grid: wait until the fleet has actually
        // made progress so the kill lands while leases are in flight.
        let deadline = Instant::now() + RUN_DEADLINE;
        while completed(addr, "fleet") < 10 {
            assert!(
                Instant::now() < deadline,
                "fleet never reached 10 completed jobs"
            );
            thread::sleep(Duration::from_millis(20));
        }
        kill_me.kill().expect("SIGKILL w-kill");

        let fleet_view = poll_done(addr, "fleet");

        // The run must account for the chaos: the crashed/SIGKILLed
        // workers' leases expired and their jobs were requeued.
        let fleet = fleet_view.get("fleet").expect("fleet accounting").clone();
        let count = |name: &str| fleet.get(name).and_then(Json::as_u64).unwrap_or(0);
        assert!(
            count("leases_granted") >= 40,
            "80 jobs at capacity 2 need at least 40 grants: {fleet:?}"
        );
        assert!(
            count("leases_expired") >= 1,
            "the aborted worker's lease must expire: {fleet:?}"
        );
        assert!(
            count("jobs_requeued") >= 1,
            "expired leases must requeue their jobs: {fleet:?}"
        );
        fleet
    }));

    // Reap the fleet before unwinding any assertion failure: a leaked
    // worker would keep polling the port across later tests. `kill_me`
    // is killed again unconditionally in case the panic fired before the
    // mid-grid SIGKILL.
    for child in [&mut kill_me, &mut ok, &mut crash, &mut stall] {
        let _ = child.kill();
        let _ = child.wait();
    }
    let fleet_accounting = match result {
        Ok(fleet) => fleet,
        Err(panic) => std::panic::resume_unwind(panic),
    };

    // Byte-identity: the fleet-drained artifact's record sets must equal
    // the local pool's exactly — deterministic re-execution after every
    // reclaim, first-write-wins on duplicates, corrupt completions
    // rejected.
    let fleet_sets = record_sets(&store.run_dir("fleet"));
    assert_eq!(
        baseline_sets.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        fleet_sets.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same record-set names"
    );
    for ((name, baseline), (_, fleet)) in baseline_sets.iter().zip(&fleet_sets) {
        assert!(
            baseline == fleet,
            "{name} differs between the local-pool and fleet runs \
             ({} vs {} bytes)",
            baseline.len(),
            fleet.len()
        );
    }

    // The process-wide fleet metrics must mirror the reclaim accounting.
    let metrics = http::request(addr, "GET", "/v1/metrics", None)
        .expect("metrics")
        .text();
    let metric = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or_else(|| panic!("no `{name}` in /v1/metrics"))
    };
    assert!(metric("lassi_leases_expired_total ") >= 1);
    assert!(metric("lassi_lease_jobs_requeued_total ") >= 1);
    assert_eq!(
        metric("lassi_leases_expired_total "),
        fleet_accounting
            .get("leases_expired")
            .and_then(Json::as_u64)
            .expect("leases_expired"),
        "per-run and process-wide expiry counts agree (one fleet run)"
    );

    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert!(resp.is_success());
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}
