//! The `serve-cached` workload: the HTTP service answering sweeps entirely
//! from its scenario cache.
//!
//! Set-up spawns the service (this executable in `serve` mode) over a
//! fresh artifact directory and warms its scenario cache with a pool of
//! overlapping 2-application × 1-model × 1-direction sweeps that together
//! cover the Table-IV grid; set-up is repeated and its median reported.
//! The timed window is an open loop from one generator process: slot `k`
//! is due at `k / OFFERED_PER_S` seconds, submits a pool sweep drawn from
//! the seed, polls its run at a fixed interval until `done`, then reads the
//! run's record set back. Every latency is timed from the slot's due
//! instant, so a stalled service is charged for the wait it imposes on
//! later slots.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lassi_core::{Direction, PipelineConfig};
use lassi_harness::{GridCell, Json};
use lassi_hecbench::applications;
use lassi_llm::all_models;
use lassi_server::{AppState, ClientConnection, Server};

use crate::catalog::Layers;
use crate::trace::Trace;
use crate::{prom, replay, stats, Args, Outcome, SplitMix};

/// Offered load, sweeps per second. A cached 2-scenario sweep takes the
/// service 5–10 ms end to end on a 2-core machine, so 20/s keeps both the
/// service and the generator's threads far from saturation while still
/// giving ≥ 100 latency samples (ten beyond p90) in a 10 s window.
const OFFERED_PER_S: f64 = 20.0;
/// Fixed interval between status polls of a submitted run.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Client socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One sweep of the warm-up pool.
#[derive(Clone)]
struct PoolSweep {
    body: String,
    set: String,
    scenarios: u64,
    /// Even pairs of one (model, direction) group are disjoint.
    even: bool,
}

/// Overlapping pairs of adjacent applications, per model and direction:
/// every grid scenario sits in two pool sweeps.
fn pool(smoke: bool) -> Vec<PoolSweep> {
    let apps: Vec<&str> = if smoke {
        vec!["layout", "atomicCost", "entropy"]
    } else {
        applications().iter().map(|a| a.name).collect()
    };
    let models = all_models();
    let models = if smoke { &models[..1] } else { &models[..] };
    let directions = if smoke {
        vec![Direction::CudaToOmp]
    } else {
        Direction::both().to_vec()
    };
    let config = PipelineConfig::default();
    let mut pool = Vec::new();
    for model in models {
        for &direction in &directions {
            for i in 0..apps.len() {
                let pair = [apps[i], apps[(i + 1) % apps.len()]];
                let body = Json::Object(vec![
                    (
                        "models".into(),
                        Json::Array(vec![Json::Str(model.name.into())]),
                    ),
                    (
                        "apps".into(),
                        Json::Array(pair.iter().map(|a| Json::Str((*a).into())).collect()),
                    ),
                    (
                        "directions".into(),
                        Json::Array(vec![Json::Str(direction.slug().into())]),
                    ),
                ]);
                let cell = GridCell {
                    direction,
                    max_self_corrections: config.max_self_corrections,
                    timing_runs: config.timing_runs,
                };
                pool.push(PoolSweep {
                    body: body.to_compact(),
                    set: cell.slug(),
                    scenarios: 2,
                    even: i % 2 == 0,
                });
            }
        }
    }
    pool
}

// ------------------------------------------------------------ serve mode

/// `perfbench serve --artifacts DIR --addr-file PATH`: build and run the
/// service the way the `serve` binary does with its default flags.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let (mut artifacts, mut addr_file) = (None, None);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--artifacts" => artifacts = iter.next().map(PathBuf::from),
            "--addr-file" => addr_file = iter.next().map(PathBuf::from),
            other => return Err(format!("unknown serve argument `{other}`")),
        }
    }
    let (Some(artifacts), Some(addr_file)) = (artifacts, addr_file) else {
        return Err("serve needs --artifacts and --addr-file".into());
    };
    let common = lassi_bench::CommonArgs {
        artifacts,
        ..lassi_bench::CommonArgs::default()
    };
    let harness = lassi_bench::build_harness(&common)?;
    let state = Arc::new(AppState::new(harness, lassi_bench::artifact_store(&common)));
    let server = Server::bind(("127.0.0.1", 0), state).map_err(|e| format!("cannot bind: {e}"))?;
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, server.local_addr().to_string())
        .and_then(|()| std::fs::rename(&tmp, &addr_file))
        .map_err(|e| format!("cannot write {}: {e}", addr_file.display()))?;
    server.run().map_err(|e| format!("server error: {e}"))
}

/// A running service process; dropping it kills and reaps the process.
struct ServerProc {
    child: Option<Child>,
    addr: String,
    spawn_ns: u64,
}

impl ServerProc {
    fn start(dir: &Path) -> Result<ServerProc, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let addr_file = dir.join("addr");
        let spawn_ns = crate::unix_ns();
        let child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .arg("serve")
            .arg("--artifacts")
            .arg(dir.join("artifacts"))
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the service: {e}"))?;
        let mut server = ServerProc {
            child: Some(child),
            addr: String::new(),
            spawn_ns,
        };
        let started = Instant::now();
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                server.addr = addr.trim().to_string();
                if lassi_server::request(server.addr.as_str(), "GET", "/v1/healthz", None)
                    .is_ok_and(|r| r.status == 200)
                {
                    return Ok(server);
                }
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("the service did not become healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(String::new, |c| c.id().to_string())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, String> {
        let response = lassi_server::request(self.addr.as_str(), "GET", path, None)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET {path}: status {}", response.status));
        }
        Ok(response.body)
    }

    /// Drain through `POST /v1/shutdown` and wait for the process to exit.
    fn shutdown(mut self) -> bool {
        let _ = lassi_server::request(self.addr.as_str(), "POST", "/v1/shutdown", None);
        self.child
            .take()
            .is_some_and(|child| crate::wait_with_deadline(child, Duration::from_secs(30)))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A keep-alive client connection that reconnects when the service closes
/// it, counting the connections it opens.
struct Client {
    addr: String,
    conn: Option<ClientConnection>,
    opened: u64,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            opened: 0,
        }
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<lassi_server::ClientResponse, String> {
        for _ in 0..2 {
            if self.conn.is_none() {
                let conn = ClientConnection::connect(self.addr.as_str(), IO_TIMEOUT)
                    .map_err(|e| format!("connect: {e}"))?;
                self.conn = Some(conn);
                self.opened += 1;
            }
            let conn = self.conn.as_mut().expect("connected above");
            match conn.send(method, path, body) {
                Ok(response) => {
                    if response.closes_connection() {
                        self.conn = None;
                    }
                    return Ok(response);
                }
                // The service closed an idle or exhausted connection before
                // this request: reconnect once and retry.
                Err(_) => self.conn = None,
            }
        }
        Err(format!("{method} {path}: connection failed twice"))
    }
}

fn state_of(body: &[u8]) -> (String, Option<f64>) {
    let value = lassi_harness::json::parse(&String::from_utf8_lossy(body)).unwrap_or(Json::Null);
    (
        value
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        value.get("wall_seconds").and_then(Json::as_f64),
    )
}

/// Submit one sweep, poll it to a terminal state at the fixed interval and
/// read its record set; returns the record bytes and fills `timing` with
/// what the client observed.
fn sweep_once(
    client: &mut Client,
    sweep: &PoolSweep,
    timing: &mut SlotTiming,
) -> Result<Vec<u8>, String> {
    let sent = Instant::now();
    timing.sent = Some(sent);
    let response = client.send("POST", "/v1/sweeps", Some(sweep.body.as_bytes()))?;
    let submitted = Instant::now();
    timing.submit_ms = ms(submitted - sent);
    if response.status == 429 || response.status == 503 {
        timing.refused = true;
        return Err(format!("sweep refused with {}", response.status));
    }
    if response.status != 202 {
        return Err(format!("sweep submission answered {}", response.status));
    }
    let location = response
        .header("location")
        .ok_or("202 without a Location header")?
        .to_string();
    loop {
        std::thread::sleep(POLL_INTERVAL);
        let poll_start = Instant::now();
        let poll = client.send("GET", &location, None)?;
        let poll_end = Instant::now();
        timing.polls.push((poll_start, poll_end));
        let (state, wall) = state_of(&poll.body);
        match state.as_str() {
            "done" => {
                timing.done = Some(poll_end);
                timing.exec_ms = wall.map_or(0.0, |w| w * 1e3);
                break;
            }
            "queued" | "running" => continue,
            other => return Err(format!("run ended `{other}`")),
        }
    }
    let read_start = Instant::now();
    let records = client.send("GET", &format!("{location}/records/{}", sweep.set), None)?;
    timing.read = Some((read_start, Instant::now()));
    if records.status != 200 {
        return Err(format!("record read answered {}", records.status));
    }
    Ok(records.body)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one open-loop slot observed.
#[derive(Default)]
struct SlotTiming {
    due: Option<Instant>,
    sent: Option<Instant>,
    submit_ms: f64,
    polls: Vec<(Instant, Instant)>,
    done: Option<Instant>,
    exec_ms: f64,
    read: Option<(Instant, Instant)>,
    refused: bool,
    ok: bool,
}

/// Warm the service's cache with the whole pool; returns each pool sweep's
/// record-set bytes, by pool index.
///
/// Adjacent pool sweeps share an application, and the service does not
/// deduplicate a scenario two executors compute at once, so the pool is
/// submitted even-numbered pairs first: those are disjoint and compute the
/// grid, and the odd ones that follow find every scenario cached. Set-up then
/// costs one cold grid instead of a timing-dependent share of a second one.
fn warm(server: &ServerProc, pool: &[PoolSweep]) -> Result<Vec<Vec<u8>>, String> {
    let mut client = Client::new(&server.addr);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by_key(|&i| !pool[i].even);
    let mut locations = Vec::new();
    for &i in &order {
        let response = client.send("POST", "/v1/sweeps", Some(pool[i].body.as_bytes()))?;
        if response.status != 202 {
            return Err(format!("warm-up sweep answered {}", response.status));
        }
        locations.push(response.header("location").unwrap_or("").to_string());
    }
    let mut bytes = vec![Vec::new(); pool.len()];
    for (location, &i) in locations.iter().zip(&order) {
        loop {
            let poll = client.send("GET", location, None)?;
            match state_of(&poll.body).0.as_str() {
                "done" => break,
                "queued" | "running" => std::thread::sleep(POLL_INTERVAL),
                other => return Err(format!("warm-up run ended `{other}`")),
            }
        }
        let path = format!("{location}/records/{}", pool[i].set);
        let records = client.send("GET", &path, None)?;
        if records.status != 200 {
            return Err(format!("warm-up record read answered {}", records.status));
        }
        bytes[i] = records.body;
    }
    Ok(bytes)
}

/// Counters scraped from the service around the timed window.
struct Scrape {
    metrics: String,
    cache: Json,
    store_bytes: f64,
}

fn scrape(server: &ServerProc, dir: &Path) -> Result<Scrape, String> {
    let metrics = String::from_utf8_lossy(&server.get("/v1/metrics")?).into_owned();
    let cache =
        lassi_harness::json::parse(&String::from_utf8_lossy(&server.get("/v1/cache/stats")?))
            .map_err(|e| e.to_string())?;
    Ok(Scrape {
        metrics,
        cache,
        store_bytes: crate::batch::dir_bytes(dir) as f64,
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let root = crate::scratch_dir("serve-cached");
    let result = run_inner(args, &root, &mut outcome);
    let _ = std::fs::remove_dir_all(&root);
    if let Err(message) = result {
        eprintln!("perfbench: serve-cached failed: {message}");
        outcome.attempted += 1;
        outcome.failed += 1;
        for (name, _) in crate::catalog::END_TO_END {
            if !outcome.metrics.iter().any(|(n, _)| n == name) {
                outcome.metric(name, 0.0);
            }
        }
    }
    outcome
}

fn run_inner(args: &Args, root: &Path, outcome: &mut Outcome) -> Result<(), String> {
    let pool = pool(args.smoke);
    let mut trace = Trace::new(args.trace);
    let now = Instant::now();
    let workload = trace.span(None, "workload", now, now);

    // ------------------------------------------------------------- set-up
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    // Peak RSS of each service process; its peak is set by the warm-up's
    // concurrent VM runs, so the median over set-ups is the steady figure.
    let mut rss = Vec::new();
    let mut server = None;
    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for i in 0..setups {
        let dir = root.join(format!("setup-{i}"));
        let started = Instant::now();
        let proc_ = ServerProc::start(&dir)?;
        let bytes = warm(&proc_, &pool)?;
        setup_s.push((crate::unix_ns() - proc_.spawn_ns) as f64 / 1e9);
        trace.span(Some(workload), "setup", started, Instant::now());
        outcome.attempted += pool.len() as u64;
        match &baseline {
            Some(first) if *first != bytes => {
                outcome.failed += pool.len() as u64;
                eprintln!("perfbench: set-up {i} produced different record sets");
            }
            Some(_) => {}
            None => baseline = Some(bytes),
        }
        if i + 1 < setups {
            rss.push(crate::vm_hwm_mb(&proc_.pid()));
            if !proc_.shutdown() {
                return Err("the service did not drain and exit".into());
            }
        } else {
            server = Some((proc_, dir));
        }
    }
    let (server, dir) = server.expect("at least one set-up");
    let baseline = baseline.expect("at least one set-up");

    // ------------------------------------------------------- timed window
    let before = scrape(&server, &dir)?;
    let slots = (OFFERED_PER_S * args.seconds as f64).round().max(1.0) as usize;
    let mut rng = SplitMix(args.seed);
    let choice: Vec<usize> = (0..slots).map(|_| rng.below(pool.len())).collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4);
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |k: usize| t0 + Duration::from_secs_f64(k as f64 / OFFERED_PER_S);
    let results: Vec<(Vec<(usize, SlotTiming)>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (pool, baseline, choice, addr) = (&pool, &baseline, &choice, &server.addr);
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut timings = Vec::new();
                    for k in (t..slots).step_by(threads) {
                        let mut timing = SlotTiming {
                            due: Some(due(k)),
                            ..SlotTiming::default()
                        };
                        if let Some(wait) = due(k).checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        match sweep_once(&mut client, &pool[choice[k]], &mut timing) {
                            Ok(bytes) if bytes == baseline[choice[k]] => timing.ok = true,
                            Ok(_) => {
                                eprintln!("perfbench: slot {k}: record set differs from set-up")
                            }
                            Err(e) => eprintln!("perfbench: slot {k}: {e}"),
                        }
                        timings.push((k, timing));
                    }
                    (timings, client.opened)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let window_end = Instant::now();
    let after = scrape(&server, &dir)?;
    rss.push(crate::vm_hwm_mb(&server.pid()));

    let mut timings: Vec<(usize, SlotTiming)> = Vec::new();
    let mut connections = 0;
    for (t, opened) in results {
        timings.extend(t);
        connections += opened;
    }
    timings.sort_by_key(|(k, _)| *k);

    // ------------------------------------------------------------ summary
    let ok: Vec<&SlotTiming> = timings.iter().map(|(_, t)| t).filter(|t| t.ok).collect();
    outcome.attempted += slots as u64;
    outcome.failed += (slots - ok.len()) as u64;
    let since_due = |t: &SlotTiming, at: Instant| ms(at - t.due.expect("due set"));
    let result_ms: Vec<f64> = ok
        .iter()
        .map(|t| since_due(t, t.read.expect("read").1))
        .collect();
    let first_due = due(0);
    let last_end = ok
        .iter()
        .filter_map(|t| t.read.map(|r| r.1))
        .max()
        .unwrap_or(window_end);
    let scenarios: u64 = timings
        .iter()
        .filter(|(_, t)| t.ok)
        .map(|(k, _)| pool[choice[*k]].scenarios)
        .sum();
    outcome.metric(
        "scenarios_per_s",
        scenarios as f64 / (last_end - first_due).as_secs_f64(),
    );
    outcome.metric("setup_s", stats::median(&setup_s));
    outcome.metric("peak_rss_mb", stats::median(&rss));
    outcome.note("offered_per_s", OFFERED_PER_S as u64);
    outcome.note("poll_interval_us", POLL_INTERVAL.as_micros() as u64);
    outcome.note("generator_threads", threads as u64);
    outcome.note("setups", setups as u64);
    outcome.note("pool_sweeps", pool.len() as u64);

    // Backlog: slots due by the last due instant but not done by then.
    let last_due = due(slots - 1);
    let backlog = timings
        .iter()
        .filter(|(_, t)| t.done.is_none_or(|d| d > last_due))
        .count()
        .saturating_sub(1);
    if backlog > threads {
        eprintln!(
            "perfbench: backlog grew: {backlog} sweeps unfinished when the load ended \
             (offered {OFFERED_PER_S}/s is past this machine's saturation)"
        );
    }

    if args.trace {
        let mut layers = window_layers(&before, &after);
        let pct = |v: &[f64], q: f64| stats::percentile(v, q);
        let tail = |v: &[f64]| stats::tail_percentile(v, 0.9).unwrap_or(0.0);
        let submit: Vec<f64> = ok.iter().map(|t| t.submit_ms).collect();
        let polls: Vec<f64> = ok
            .iter()
            .flat_map(|t| t.polls.iter().map(|(s, e)| ms(*e - *s)))
            .collect();
        let sweep_ms: Vec<f64> = ok
            .iter()
            .map(|t| since_due(t, t.done.expect("done")))
            .collect();
        let read_ms: Vec<f64> = ok
            .iter()
            .map(|t| t.read.map_or(0.0, |(s, e)| ms(e - s)))
            .collect();
        let exec: Vec<f64> = ok.iter().map(|t| t.exec_ms).collect();
        let wait: Vec<f64> = ok
            .iter()
            .map(|t| since_due(t, t.done.expect("done")) - t.exec_ms - t.submit_ms)
            .collect();
        let lag: Vec<f64> = timings
            .iter()
            .filter_map(|(_, t)| Some(ms(t.sent? - t.due?)))
            .collect();
        let mut put = |name: &str, v: f64| {
            layers.insert(name.to_string(), v);
        };
        put("server.submit_ms.p50", pct(&submit, 0.5));
        put("server.submit_ms.p90", tail(&submit));
        put("server.poll_ms.p50", pct(&polls, 0.5));
        put(
            "server.polls_per_sweep",
            polls.len() as f64 / ok.len().max(1) as f64,
        );
        put("server.sweep_ms.p50", pct(&sweep_ms, 0.5));
        put("server.sweep_ms.p90", tail(&sweep_ms));
        put("server.read_ms.p50", pct(&read_ms, 0.5));
        put("server.read_ms.p90", tail(&read_ms));
        put("server.run_exec_ms.p50", pct(&exec, 0.5));
        put("server.run_exec_ms.p90", tail(&exec));
        put("server.run_wait_ms.p50", pct(&wait, 0.5));
        put("server.connections_opened", connections as f64);
        put(
            "server.refusals",
            timings.iter().filter(|(_, t)| t.refused).count() as f64,
        );
        put("server.backlog_end", backlog as f64);
        put("loadgen.offered_per_s", OFFERED_PER_S);
        put("loadgen.lag_p90_ms", tail(&lag));
        put(
            "harness.store.bytes",
            after.store_bytes - before.store_bytes,
        );
        // Tracing here is the per-poll instants the even slots keep as
        // spans; compare their median result latency with the odd slots'.
        let half = |parity: usize| -> Vec<f64> {
            timings
                .iter()
                .filter(|(k, t)| k % 2 == parity && t.ok)
                .map(|(_, t)| since_due(t, t.read.expect("read").1))
                .collect()
        };
        let untraced = stats::median(&half(1));
        put(
            "obs.trace_overhead",
            if untraced > 0.0 {
                (stats::median(&half(0)) - untraced) / untraced
            } else {
                0.0
            },
        );
        let confirmed = layers.get("runtime.vm_runs").copied() == Some(0.0)
            && layers.get("harness.cache.hit_ratio").copied() == Some(1.0);
        layers.insert(
            "bench.workload_confirmed".into(),
            f64::from(u8::from(confirmed)),
        );
        for (k, t) in timings.iter().filter(|(k, _)| k % 2 == 0) {
            let (Some(due_at), Some(sent)) = (t.due, t.sent) else {
                continue;
            };
            let end = t.read.map_or(sent, |r| r.1);
            let sweep = trace.span(Some(workload), &format!("sweep.{k}"), due_at, end);
            trace.record(
                Some(sweep),
                "submit",
                trace.us(sent),
                trace.us(sent) + t.submit_ms * 1e3,
            );
            for (s, e) in &t.polls {
                trace.span(Some(sweep), "poll", *s, *e);
            }
            if let Some((s, e)) = t.read {
                trace.span(Some(sweep), "read", s, e);
            }
        }
        // Replay the programs behind the pool's records (the work set-up did).
        let records: Vec<lassi_core::TranslationRecord> = baseline
            .iter()
            .filter_map(|b| {
                let value = lassi_harness::json::parse(&String::from_utf8_lossy(b)).ok()?;
                lassi_harness::codec::records_from_json(&value).ok()
            })
            .flatten()
            .collect();
        let programs = replay::distinct_programs(&applications(), &records);
        replay::replay(&programs, &mut trace, Some(workload), &mut layers);
        trace.close(workload, Instant::now());
        outcome.layers = layers;
        outcome.trace = Some(trace);
        outcome.latency(&result_ms, args.smoke);
    }
    if !server.shutdown() {
        return Err("the service did not drain and exit".into());
    }
    Ok(())
}

/// Per-layer deltas of the service's own counters over the timed window.
fn window_layers(before: &Scrape, after: &Scrape) -> Layers {
    let mut layers = Layers::new();
    let delta = |name: &str, filter: &[(&str, &str)]| {
        prom::sum(&after.metrics, name, filter) - prom::sum(&before.metrics, name, filter)
    };
    let stage = |stage: &str, what: &str| {
        delta(&format!("lassi_stage_seconds_{what}"), &[("stage", stage)])
    };
    for (stage_name, calls, secs) in [
        ("parse", "lang.parse_calls", "lang.parse_s"),
        ("sema", "sema.check_calls", "sema.check_s"),
        ("compile", "runtime.compile_calls", "runtime.compile_s"),
        ("llm", "llm.completions", "llm.s"),
        (
            "similarity",
            "metrics.similarity_calls",
            "metrics.similarity_s",
        ),
    ] {
        layers.insert(calls.into(), stage(stage_name, "count"));
        layers.insert(secs.into(), stage(stage_name, "sum"));
    }
    layers.insert("runtime.execute_s".into(), stage("execute", "sum"));
    let total: f64 = lassi_core::STAGE_NAMES
        .iter()
        .map(|s| stage(s, "sum"))
        .sum();
    layers.insert("core.stage_s".into(), total);
    layers.insert(
        "sema.findings".into(),
        delta("lassi_diagnostics_total", &[("stage", "sema")]),
    );
    layers.insert(
        "server.http_requests".into(),
        delta("lassi_http_requests_total", &[]),
    );
    layers.insert(
        "server.job_queue_wait_s".into(),
        delta("lassi_job_queue_wait_seconds_sum", &[]),
    );
    layers.insert(
        "server.job_execute_s".into(),
        delta("lassi_job_execute_seconds_sum", &[]),
    );
    layers.insert(
        "harness.queue_wait_s".into(),
        delta("lassi_job_queue_wait_seconds_sum", &[]),
    );
    let counter = |path: &[&str], scrape: &Scrape| {
        path.iter()
            .try_fold(&scrape.cache, |v, key| v.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let cache_delta = |path: &[&str]| counter(path, after) - counter(path, before);
    let (hits, misses) = (cache_delta(&["hits"]), cache_delta(&["misses"]));
    layers.insert("harness.cache.lookups".into(), hits + misses);
    layers.insert("harness.cache.hits".into(), hits);
    layers.insert("harness.cache.misses".into(), misses);
    layers.insert("harness.cache.stores".into(), cache_delta(&["stores"]));
    layers.insert(
        "harness.cache.hit_ratio".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    for (family, prefix) in [
        ("program_cache", "core.program_cache"),
        ("report_cache", "core.report_cache"),
    ] {
        for (field, name) in [
            ("hits", "hits"),
            ("misses", "misses"),
            ("entries", "entries"),
        ] {
            layers.insert(format!("{prefix}.{name}"), cache_delta(&[family, field]));
        }
    }
    layers.insert(
        "core.program_cache.bytes".into(),
        cache_delta(&["program_cache", "approx_bytes"]),
    );
    let report_misses = cache_delta(&["report_cache", "misses"]);
    layers.insert("runtime.vm_runs".into(), report_misses);
    layers.insert(
        "core.report_cache.dup_runs".into(),
        report_misses - cache_delta(&["report_cache", "entries"]),
    );
    layers
}
