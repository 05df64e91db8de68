//! Request handlers: decode, run against the shared state, encode.
//!
//! The `/v1` API models runs as first-class resources. `POST /v1/sweeps`
//! only validates and enqueues — it answers `202 Accepted` with a
//! `Location: /v1/runs/{id}` header in milliseconds regardless of grid
//! size, and the sweep executes in the background. `GET /v1/runs/{id}` is
//! the lifecycle view (state + progress); the artifact itself is served by
//! `…/manifest` and `…/records/{set}` as *raw file bytes*, so those
//! responses stay byte-identical to what `--replay` and `--verify` read
//! from disk. Every non-2xx response carries the structured error envelope
//! (`{"error": {"code", "message", "status"}}`) built by
//! [`Response::error`].

use std::io;

use lassi_core::PipelineConfig;
use lassi_harness::{Json, LeaseError, RunStatus, SweepGrid};
use lassi_hecbench::{application, applications, Application};
use lassi_llm::{all_models, model_by_name, ModelSpec};

use crate::http::{Request, Response};
use crate::router::{is_slug, route, Route, RouteError};
use crate::state::{AppState, CancelError, CompleteError, SubmitError};

/// Cap on scenarios per submitted sweep: a single request must not be able
/// to occupy the worker pool for an unbounded amount of time.
pub const MAX_SCENARIOS_PER_SWEEP: usize = 4096;

/// Default page size of `GET /v1/runs`.
pub const DEFAULT_RUNS_PAGE: usize = 100;

/// Largest accepted `?limit=` of `GET /v1/runs`.
pub const MAX_RUNS_PAGE: usize = 1000;

/// Largest job batch one lease request may ask for.
pub const MAX_LEASE_CAPACITY: usize = 64;

/// Default job batch when a lease request omits `capacity`.
pub const DEFAULT_LEASE_CAPACITY: usize = 4;

/// `Retry-After` seconds on a `429 queue_full` refusal: the queue drains a
/// run at a time, so a short pause is usually enough.
pub const RETRY_AFTER_QUEUE_FULL: u64 = 1;

/// `Retry-After` seconds on a `503 draining` refusal: the process is going
/// away; clients should fail over, not hammer it.
pub const RETRY_AFTER_DRAINING: u64 = 5;

/// Dispatch one request, recording the per-request metrics around the
/// handler: a `lassi_http_requests_total{method, route, status}` counter
/// and a `lassi_http_request_seconds{method, route}` latency histogram.
/// The `route` label is the resolved *pattern* (`/v1/runs/{id}`), never
/// the raw path, so the series set stays bounded.
pub fn handle(state: &AppState, req: &Request) -> Response {
    let resolved = route(&req.method, &req.path);
    let pattern = crate::router::route_pattern(&resolved);
    let started = std::time::Instant::now();
    let response = dispatch(state, req, resolved);
    let registry = lassi_obs::global();
    registry
        .histogram(
            "lassi_http_request_seconds",
            "HTTP request handling latency, by method and route.",
            &[("method", &req.method), ("route", pattern)],
            lassi_obs::LATENCY_SECONDS,
        )
        .observe(started.elapsed().as_secs_f64());
    registry
        .counter(
            "lassi_http_requests_total",
            "HTTP requests served, by method, route and status.",
            &[
                ("method", &req.method),
                ("route", pattern),
                ("status", &response.status.to_string()),
            ],
        )
        .inc();
    response
}

fn dispatch(state: &AppState, req: &Request, resolved: Result<Route, RouteError>) -> Response {
    match resolved {
        Err(RouteError::NotFound) => Response::error(404, "not_found", "no such endpoint"),
        Err(RouteError::MethodNotAllowed) => Response::error(
            405,
            "method_not_allowed",
            &format!("{} not allowed here", req.method),
        ),
        Err(RouteError::BadSlug(slug)) => Response::error(
            400,
            "invalid_slug",
            &format!("invalid path segment `{slug}`"),
        ),
        Ok(Route::Healthz) => healthz(),
        Ok(Route::CacheStats) => cache_stats(state),
        Ok(Route::Metrics) => metrics(state),
        Ok(Route::DebugEvents) => debug_events(state),
        Ok(Route::ListRuns) => list_runs(state, &req.query),
        Ok(Route::GetRun(id)) => get_run(state, &id),
        Ok(Route::DeleteRun(id)) => delete_run(state, &id),
        Ok(Route::CancelRun(id)) => cancel_run(state, &id),
        Ok(Route::GetManifest(id)) => get_manifest(state, &id),
        Ok(Route::GetTrace(id)) => get_trace(state, &id),
        Ok(Route::GetDiagnostics(id)) => get_diagnostics(state, &id),
        Ok(Route::GetRecords(id, set)) => get_records(state, &id, &set),
        Ok(Route::SubmitSweep) => submit_sweep(state, &req.body),
        Ok(Route::LeaseWork) => lease_work(state, &req.body),
        Ok(Route::HeartbeatWork) => heartbeat_work(state, &req.body),
        Ok(Route::CompleteWork) => complete_work(state, &req.body),
        Ok(Route::Shutdown) => shutdown(state),
    }
}

/// `GET /v1/metrics`: the process-wide registry in Prometheus text
/// exposition format. Event-driven instruments (request counters, job
/// histograms, stage timings) are already up to date; state that lives
/// outside the registry — cache shard counters, writer queue, run queue,
/// executor occupancy — is mirrored in at scrape time, with the external
/// atomics staying the single source of truth so this view and
/// `/v1/cache/stats` can never disagree.
fn metrics(state: &AppState) -> Response {
    let registry = lassi_obs::global();
    if let Some(cache) = state.harness().cache() {
        for (i, shard) in cache.shard_snapshots().iter().enumerate() {
            let shard_label = format!("{i:02}");
            let labels = [("shard", shard_label.as_str())];
            registry
                .counter(
                    "lassi_cache_hits_total",
                    "Scenario-cache hits, by shard.",
                    &labels,
                )
                .record_total(shard.hits);
            registry
                .counter(
                    "lassi_cache_misses_total",
                    "Scenario-cache misses, by shard.",
                    &labels,
                )
                .record_total(shard.misses);
            registry
                .counter(
                    "lassi_cache_stores_total",
                    "Scenario-cache stores, by shard.",
                    &labels,
                )
                .record_total(shard.stores);
        }
        let writer = cache.writer_snapshot();
        registry
            .gauge(
                "lassi_cache_writer_queue_depth",
                "Store commands queued at the batched disk writer.",
                &[],
            )
            .set(writer.queue_depth as i64);
        registry
            .counter(
                "lassi_cache_writer_flushes_total",
                "Flush barriers completed by the batched disk writer.",
                &[],
            )
            .record_total(writer.flushes);
    }
    let programs = lassi_core::progcache::stats();
    registry
        .counter(
            "lassi_program_cache_hits_total",
            "Compiled-program cache hits.",
            &[],
        )
        .record_total(programs.hits);
    registry
        .counter(
            "lassi_program_cache_misses_total",
            "Compiled-program cache misses (bytecode compilations).",
            &[],
        )
        .record_total(programs.misses);
    registry
        .gauge(
            "lassi_program_cache_entries",
            "Distinct compiled programs retained in the cache.",
            &[],
        )
        .set(programs.entries as i64);
    registry
        .gauge(
            "lassi_program_cache_bytes",
            "Approximate retained size of the compiled-program cache.",
            &[],
        )
        .set(programs.approx_bytes as i64);
    let reports = lassi_core::progcache::report_stats();
    registry
        .counter(
            "lassi_report_cache_hits_total",
            "Execution-report cache hits (deterministic replays).",
            &[],
        )
        .record_total(reports.hits);
    registry
        .counter(
            "lassi_report_cache_misses_total",
            "Execution-report cache misses (actual VM executions).",
            &[],
        )
        .record_total(reports.misses);
    registry
        .gauge(
            "lassi_report_cache_entries",
            "Distinct execution reports retained in the cache.",
            &[],
        )
        .set(reports.entries as i64);
    registry
        .gauge(
            "lassi_report_cache_bytes",
            "Approximate retained size of the execution-report cache.",
            &[],
        )
        .set(reports.approx_bytes as i64);
    registry
        .gauge(
            "lassi_run_queue_depth",
            "Accepted runs waiting for a sweep executor.",
            &[],
        )
        .set(state.queue_depth() as i64);
    let (busy, total) = state.executor_counts();
    let executors = |occupancy: &'static str| {
        registry.gauge(
            "lassi_sweep_executors",
            "Sweep-executor threads, by occupancy.",
            &[("occupancy", occupancy)],
        )
    };
    executors("busy").set(busy as i64);
    executors("idle").set(total.saturating_sub(busy) as i64);
    registry
        .counter(
            "lassi_debug_events_dropped_total",
            "Trace events evicted from the debug ring before being read.",
            &[],
        )
        .record_total(state.events().dropped());
    let fleet = state.fleet_snapshot();
    registry
        .counter(
            "lassi_leases_granted_total",
            "Work leases granted to remote workers and the local pool.",
            &[],
        )
        .record_total(fleet.leases_granted);
    registry
        .counter(
            "lassi_leases_expired_total",
            "Work leases expired or failed and reclaimed.",
            &[],
        )
        .record_total(fleet.leases_expired);
    registry
        .counter(
            "lassi_lease_jobs_requeued_total",
            "Jobs requeued by lease reclaims.",
            &[],
        )
        .record_total(fleet.jobs_requeued);
    registry
        .counter(
            "lassi_lease_duplicate_completions_total",
            "Completed records dropped first-write-wins.",
            &[],
        )
        .record_total(fleet.duplicate_completions);
    registry
        .counter(
            "lassi_remote_records_accepted_total",
            "Records accepted from remote workers (POST /v1/work/complete) as a job's first write.",
            &[],
        )
        .record_total(fleet.records_accepted);
    registry
        .counter(
            "lassi_lease_heartbeats_total",
            "Lease heartbeat extensions served.",
            &[],
        )
        .record_total(fleet.heartbeats);
    registry
        .gauge(
            "lassi_fleet_workers_active",
            "Workers that contacted the server within the liveness window.",
            &[],
        )
        .set(fleet.workers_active as i64);
    registry
        .gauge(
            "lassi_fleet_leases_active",
            "Leases currently held by workers or the local pool across draining runs.",
            &[],
        )
        .set(fleet.leases_active as i64);
    registry
        .gauge(
            "lassi_fleet_remote_runs",
            "Executing runs, each draining through its lease table (fleet or local pool).",
            &[],
        )
        .set(fleet.leased_runs as i64);
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: registry.render().into_bytes(),
        chunked: false,
        location: None,
        retry_after: None,
    }
}

/// `GET /v1/debug/events`: the most recent trace events (ring-buffered,
/// bounded, lossy by design) — what the server was just doing, without
/// grepping artifact directories.
fn debug_events(state: &AppState) -> Response {
    let ring = state.events();
    let events: Vec<Json> = ring
        .snapshot()
        .iter()
        .map(lassi_harness::event_to_json)
        .collect();
    let body = Json::Object(vec![
        ("capacity".into(), Json::uint(ring.capacity() as u64)),
        ("dropped".into(), Json::uint(ring.dropped())),
        ("events".into(), Json::Array(events)),
    ]);
    Response::json(200, body.to_compact())
}

/// `GET /v1/runs/{id}/trace`: the run's `trace.jsonl` as raw bytes — one
/// compact `trace.v1` JSON object per line, exactly what the artifact
/// directory holds. Only written runs have one (404 otherwise).
fn get_trace(state: &AppState, id: &str) -> Response {
    if state.run_status(id).is_none() {
        return Response::error(404, "run_not_found", &format!("run `{id}` does not exist"));
    }
    let path = state.store().run_dir(id).join(lassi_harness::TRACE_FILE);
    match std::fs::read(&path) {
        Ok(bytes) => Response {
            status: 200,
            content_type: "application/x-ndjson",
            body: bytes,
            chunked: true,
            location: None,
            retry_after: None,
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => Response::error(
            404,
            "artifact_not_found",
            &format!("{} does not exist", path.display()),
        ),
        Err(e) => Response::error(
            500,
            "internal",
            &format!("cannot read {}: {e}", path.display()),
        ),
    }
}

/// `GET /v1/runs/{id}/diagnostics`: the run's `diagnostics.json` as raw
/// bytes — the `diag.v1` per-scenario findings document, byte-identical to
/// what the artifact directory holds. Only written runs have one (404
/// otherwise).
fn get_diagnostics(state: &AppState, id: &str) -> Response {
    if state.run_status(id).is_none() {
        return Response::error(404, "run_not_found", &format!("run `{id}` does not exist"));
    }
    serve_file(
        state
            .store()
            .run_dir(id)
            .join(lassi_harness::DIAGNOSTICS_FILE),
        true,
    )
}

fn healthz() -> Response {
    let body = Json::Object(vec![
        ("status".into(), Json::Str("ok".into())),
        ("service".into(), Json::Str("lassi-server".into())),
        (
            "version".into(),
            Json::Str(env!("CARGO_PKG_VERSION").into()),
        ),
    ]);
    Response::json(200, body.to_compact())
}

/// `GET /v1/cache/stats`: aggregate counters (unchanged shape, existing
/// clients keep parsing) plus the per-shard breakdown and the batched
/// disk-writer's queue/flush view. The shard rows read the same atomics
/// the aggregate sums, so `shards[*]` always add up to the totals.
fn cache_stats(state: &AppState) -> Response {
    let harness = state.harness();
    let snapshot = harness.cache_snapshot();
    let mut fields = vec![
        ("attached".into(), Json::Bool(harness.cache().is_some())),
        (
            "disk".into(),
            Json::Bool(harness.cache().and_then(|c| c.dir()).is_some()),
        ),
        ("hits".into(), Json::uint(snapshot.hits)),
        ("misses".into(), Json::uint(snapshot.misses)),
        ("stores".into(), Json::uint(snapshot.stores)),
        ("hit_rate".into(), Json::Float(snapshot.hit_rate())),
    ];
    if let Some(cache) = harness.cache() {
        let shards: Vec<Json> = cache
            .shard_snapshots()
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                Json::Object(vec![
                    ("shard".into(), Json::uint(i as u64)),
                    ("hits".into(), Json::uint(shard.hits)),
                    ("misses".into(), Json::uint(shard.misses)),
                    ("stores".into(), Json::uint(shard.stores)),
                ])
            })
            .collect();
        let writer = cache.writer_snapshot();
        fields.push(("shards".into(), Json::Array(shards)));
        fields.push((
            "writer".into(),
            Json::Object(vec![
                ("queue_depth".into(), Json::uint(writer.queue_depth)),
                ("flushes".into(), Json::uint(writer.flushes)),
            ]),
        ));
    }
    let cache_counters = |s: lassi_core::ProgramCacheStats| {
        Json::Object(vec![
            ("hits".into(), Json::uint(s.hits)),
            ("misses".into(), Json::uint(s.misses)),
            ("hit_rate".into(), Json::Float(s.hit_rate())),
            ("entries".into(), Json::uint(s.entries)),
            ("approx_bytes".into(), Json::uint(s.approx_bytes)),
        ])
    };
    fields.push((
        "program_cache".into(),
        cache_counters(lassi_core::progcache::stats()),
    ));
    fields.push((
        "report_cache".into(),
        cache_counters(lassi_core::progcache::report_stats()),
    ));
    Response::json(200, Json::Object(fields).to_compact())
}

/// The run-resource view `GET /v1/runs/{id}`, submission and cancel serve.
fn run_view(status: &RunStatus) -> Json {
    let opt_u64 = |v: Option<u64>| v.map(Json::uint).unwrap_or(Json::Null);
    Json::Object(vec![
        ("id".into(), Json::Str(status.run_id.clone())),
        ("state".into(), Json::Str(status.state.slug().into())),
        (
            "progress".into(),
            Json::Object(vec![
                ("completed".into(), Json::uint(status.completed as u64)),
                ("total".into(), Json::uint(status.total as u64)),
            ]),
        ),
        (
            "wall_seconds".into(),
            status.wall_seconds.map(Json::Float).unwrap_or(Json::Null),
        ),
        ("created_unix".into(), opt_u64(status.created_unix)),
        ("started_unix".into(), opt_u64(status.started_unix)),
        ("finished_unix".into(), opt_u64(status.finished_unix)),
        ("reason".into(), Json::opt_str(status.reason.as_deref())),
        (
            "fleet".into(),
            status.fleet.map_or(Json::Null, |f| f.to_json()),
        ),
    ])
}

/// Parse the `?limit=&after=` pagination query of `GET /v1/runs`.
fn parse_list_query(query: &str) -> Result<(usize, Option<String>), String> {
    let mut limit = DEFAULT_RUNS_PAGE;
    let mut after = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "limit" => {
                limit = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| (1..=MAX_RUNS_PAGE).contains(n))
                    .ok_or_else(|| {
                        format!("`limit` must be an integer in 1..={MAX_RUNS_PAGE}, got `{value}`")
                    })?;
            }
            "after" => {
                if !is_slug(value) {
                    return Err(format!("`after` must be a run id slug, got `{value}`"));
                }
                after = Some(value.to_string());
            }
            other => return Err(format!("unknown query parameter `{other}`")),
        }
    }
    Ok((limit, after))
}

/// `GET /v1/runs?limit=&after=`: one page of `{id, state, created}` rows
/// sorted by id, plus a `next` cursor (the last id of the page) when more
/// remain — pass it back as `?after=` for the following page.
fn list_runs(state: &AppState, query: &str) -> Response {
    let (limit, after) = match parse_list_query(query) {
        Ok(parsed) => parsed,
        Err(message) => return Response::error(400, "invalid_query", &message),
    };
    let rows = match state.list_run_summaries() {
        Ok(rows) => rows,
        Err(e) => {
            return Response::error(500, "internal", &format!("cannot list runs: {e}"));
        }
    };
    let remaining: Vec<_> = rows
        .into_iter()
        .filter(|(id, _, _)| after.as_deref().is_none_or(|a| id.as_str() > a))
        .collect();
    let has_more = remaining.len() > limit;
    let page: Vec<_> = remaining.into_iter().take(limit).collect();
    let next = if has_more {
        page.last()
            .map(|(id, _, _)| Json::Str(id.clone()))
            .unwrap_or(Json::Null)
    } else {
        Json::Null
    };
    let body = Json::Object(vec![
        (
            "runs".into(),
            Json::Array(
                page.into_iter()
                    .map(|(id, run_state, created)| {
                        Json::Object(vec![
                            ("id".into(), Json::Str(id)),
                            ("state".into(), Json::Str(run_state.slug().into())),
                            (
                                "created".into(),
                                created.map(Json::uint).unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("next".into(), next),
    ]);
    Response::json(200, body.to_compact())
}

/// `GET /v1/runs/{id}`: the lifecycle view — state, progress, timing.
fn get_run(state: &AppState, id: &str) -> Response {
    match state.run_status(id) {
        Some(status) => Response::json(200, run_view(&status).to_compact()),
        None => Response::error(404, "run_not_found", &format!("run `{id}` does not exist")),
    }
}

/// `POST /v1/runs/{id}/cancel`: cancel a queued run on the spot or fire a
/// running run's cancel token; the response is the (possibly still
/// `running`) resource view — poll `GET /v1/runs/{id}` to observe the
/// terminal `cancelled` state.
fn cancel_run(state: &AppState, id: &str) -> Response {
    match state.cancel_run(id) {
        Ok(status) => Response::json(200, run_view(&status).to_compact()),
        Err(CancelError::NotFound) => {
            Response::error(404, "run_not_found", &format!("run `{id}` does not exist"))
        }
        Err(CancelError::NotCancellable(terminal)) => Response::error(
            409,
            "not_cancellable",
            &format!("run `{id}` is already {terminal}"),
        ),
    }
}

/// Serve an artifact file's raw bytes, mapping a missing file to 404.
fn serve_file(path: std::path::PathBuf, chunked: bool) -> Response {
    match std::fs::read(&path) {
        Ok(bytes) => Response {
            status: 200,
            content_type: "application/json",
            body: bytes,
            chunked,
            location: None,
            retry_after: None,
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => Response::error(
            404,
            "artifact_not_found",
            &format!("{} does not exist", path.display()),
        ),
        Err(e) => Response::error(
            500,
            "internal",
            &format!("cannot read {}: {e}", path.display()),
        ),
    }
}

/// `GET /v1/runs/{id}/manifest`: raw manifest bytes, byte-identical to the
/// file `--replay`/`--verify` read. Only `done` runs have one — for live
/// or failed runs this is a 404 with code `artifact_not_found`.
fn get_manifest(state: &AppState, id: &str) -> Response {
    serve_file(state.store().run_dir(id).join("manifest.json"), false)
}

/// `DELETE /v1/runs/{id}`: artifact GC. The router has already
/// slug-validated `id`, and the store refuses anything still live — a
/// queued/running run (or a bare reservation) is a 409, because removing
/// it would let another client claim the id and race the executor's
/// artifact write. Terminal runs (done, failed, cancelled) are deletable;
/// the registry entry goes with the directory so listings don't resurrect
/// the id from memory.
fn delete_run(state: &AppState, id: &str) -> Response {
    match state.store().delete_run(id) {
        Ok(()) => {
            state.forget_run(id);
            let body = Json::Object(vec![("deleted".into(), Json::Str(id.into()))]);
            Response::json(200, body.to_compact())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Response::error(404, "run_not_found", &format!("run `{id}` does not exist"))
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            Response::error(400, "invalid_slug", &format!("invalid run id `{id}`"))
        }
        Err(e) if e.kind() == io::ErrorKind::Other => {
            Response::error(409, "run_active", &format!("cannot delete run `{id}`: {e}"))
        }
        Err(e) => Response::error(500, "internal", &format!("cannot delete run `{id}`: {e}")),
    }
}

fn get_records(state: &AppState, id: &str, set: &str) -> Response {
    // Record sets can be large (a full grid is 80 records per cell), so the
    // body goes out chunked.
    serve_file(
        state
            .store()
            .run_dir(id)
            .join(format!("records-{set}.json")),
        true,
    )
}

fn shutdown(state: &AppState) -> Response {
    state.begin_shutdown();
    let body = Json::Object(vec![("status".into(), Json::Str("draining".into()))]);
    Response::json(200, body.to_compact())
}

/// A decoded `POST /v1/sweeps` body.
#[derive(Debug)]
struct SweepRequest {
    grid: SweepGrid,
    run_id: Option<String>,
}

fn str_list<T>(
    value: &Json,
    what: &str,
    lookup: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("`{what}` must be an array of strings"))?;
    if items.is_empty() {
        return Err(format!("`{what}` must not be empty"));
    }
    items
        .iter()
        .map(|item| {
            let name = item
                .as_str()
                .ok_or_else(|| format!("`{what}` must be an array of strings"))?;
            lookup(name).ok_or_else(|| format!("unknown {what} `{name}`"))
        })
        .collect()
}

fn u32_list(value: &Json, what: &str) -> Result<Vec<u32>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("`{what}` must be an array of non-negative integers"))?;
    if items.is_empty() {
        return Err(format!("`{what}` must not be empty"));
    }
    items
        .iter()
        .map(|item| {
            item.as_u32()
                .ok_or_else(|| format!("`{what}` must be an array of non-negative integers"))
        })
        .collect()
}

/// Decode a sweep request. Every field is optional — the default is the
/// paper's full product at the default configuration — but present fields
/// are validated strictly, and unknown fields are rejected (a typo'd
/// dimension silently ignored would sweep the wrong grid).
fn decode_sweep_request(body: &[u8]) -> Result<SweepRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body; send a JSON object (may be `{}`)".into());
    }
    let value = lassi_harness::json::parse(text).map_err(|e| e.to_string())?;
    let Json::Object(fields) = &value else {
        return Err("body must be a JSON object".into());
    };

    let mut base = PipelineConfig::default();
    let mut models: Vec<ModelSpec> = all_models();
    let mut apps: Vec<Application> = applications();
    let mut directions = lassi_core::Direction::both().to_vec();
    let mut max_self_corrections = vec![base.max_self_corrections];
    let mut timing_runs = vec![base.timing_runs];
    let mut run_id = None;

    for (key, field) in fields {
        match key.as_str() {
            "models" => models = str_list(field, "model", model_by_name)?,
            "apps" => apps = str_list(field, "application", application)?,
            "directions" => {
                directions = str_list(field, "direction", lassi_core::Direction::from_slug)?
            }
            "max_self_corrections" => {
                max_self_corrections = u32_list(field, "max_self_corrections")?
            }
            "timing_runs" => timing_runs = u32_list(field, "timing_runs")?,
            "seed" => {
                base.seed = field
                    .as_u64()
                    .ok_or_else(|| "`seed` must be a non-negative integer".to_string())?
            }
            "run_id" => {
                let id = field
                    .as_str()
                    .ok_or_else(|| "`run_id` must be a string".to_string())?;
                if !is_slug(id) {
                    return Err(format!("`run_id` `{id}` is not a valid slug"));
                }
                run_id = Some(id.to_string());
            }
            other => return Err(format!("unknown field `{other}`")),
        }
    }

    Ok(SweepRequest {
        grid: SweepGrid {
            base,
            models,
            apps,
            directions,
            max_self_corrections,
            timing_runs,
        },
        run_id,
    })
}

/// `POST /v1/sweeps`: validate, reserve, enqueue, answer `202 Accepted`
/// with `Location: /v1/runs/{id}` and the initial resource view — the
/// sweep itself runs on the executor pool, so this returns in milliseconds
/// regardless of grid size.
fn submit_sweep(state: &AppState, body: &[u8]) -> Response {
    if state.shutting_down() {
        return Response::error(503, "draining", "server is shutting down")
            .with_retry_after(RETRY_AFTER_DRAINING);
    }
    let request = match decode_sweep_request(body) {
        Ok(request) => request,
        Err(message) => return Response::error(400, "invalid_sweep", &message),
    };
    let grid = request.grid;
    if grid.len() > MAX_SCENARIOS_PER_SWEEP {
        return Response::error(
            400,
            "sweep_too_large",
            &format!(
                "sweep expands to {} scenarios, above the per-request cap of {}",
                grid.len(),
                MAX_SCENARIOS_PER_SWEEP
            ),
        );
    }
    match state.submit_sweep(grid, request.run_id) {
        Ok(status) => {
            let location = format!("/v1/runs/{}", status.run_id);
            Response::json(202, run_view(&status).to_compact()).with_location(location)
        }
        Err(SubmitError::Draining) => Response::error(503, "draining", "server is shutting down")
            .with_retry_after(RETRY_AFTER_DRAINING),
        Err(SubmitError::QueueFull) => Response::error(
            429,
            "queue_full",
            &format!(
                "{} runs are already queued; retry later",
                crate::state::MAX_QUEUED_RUNS
            ),
        )
        .with_retry_after(RETRY_AFTER_QUEUE_FULL),
        Err(SubmitError::RunExists(id)) => {
            Response::error(409, "run_exists", &format!("run `{id}` already exists"))
        }
        Err(SubmitError::Io(e)) => {
            Response::error(500, "internal", &format!("cannot reserve run: {e}"))
        }
    }
}

/// Decode a `/v1/work/*` body into its fields. All three endpoints share
/// the shape: a JSON object with a required slug `worker_id`, plus
/// endpoint-specific fields pulled out by the caller.
fn decode_work_body(body: &[u8]) -> Result<Vec<(String, Json)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body; send a JSON object".into());
    }
    let value = lassi_harness::json::parse(text).map_err(|e| e.to_string())?;
    match value {
        Json::Object(fields) => Ok(fields),
        _ => Err("body must be a JSON object".into()),
    }
}

/// Pull the required `worker_id` slug out of a work body.
fn work_worker_id(fields: &[(String, Json)]) -> Result<String, String> {
    let id = fields
        .iter()
        .find(|(k, _)| k == "worker_id")
        .and_then(|(_, v)| v.as_str())
        .ok_or_else(|| "`worker_id` must be a string".to_string())?;
    if !is_slug(id) {
        return Err(format!("`worker_id` `{id}` is not a valid slug"));
    }
    Ok(id.to_string())
}

/// Pull the required `lease_id` slug out of a work body.
fn work_lease_id(fields: &[(String, Json)]) -> Result<String, String> {
    let id = fields
        .iter()
        .find(|(k, _)| k == "lease_id")
        .and_then(|(_, v)| v.as_str())
        .ok_or_else(|| "`lease_id` must be a string".to_string())?;
    if !is_slug(id) {
        return Err(format!("`lease_id` `{id}` is not a valid slug"));
    }
    Ok(id.to_string())
}

/// `POST /v1/work/lease`: a registered worker pulls up to `capacity` jobs
/// from whichever queued-or-running run is currently draining remotely.
/// The grant carries everything needed to rebuild each [`Job`] bit-exactly
/// on the worker (the simulator is deterministic, so re-execution after a
/// reclaim produces identical records). An idle fleet gets
/// `{"granted": false}` — poll again with backoff.
fn lease_work(state: &AppState, body: &[u8]) -> Response {
    if state.shutting_down() {
        return Response::error(503, "draining", "server is shutting down")
            .with_retry_after(RETRY_AFTER_DRAINING);
    }
    let fields = match decode_work_body(body) {
        Ok(fields) => fields,
        Err(message) => return Response::error(400, "invalid_work_request", &message),
    };
    let worker = match work_worker_id(&fields) {
        Ok(worker) => worker,
        Err(message) => return Response::error(400, "invalid_work_request", &message),
    };
    let capacity = match fields.iter().find(|(k, _)| k == "capacity") {
        None => DEFAULT_LEASE_CAPACITY,
        Some((_, value)) => match value.as_u64() {
            Some(n) if (1..=MAX_LEASE_CAPACITY as u64).contains(&n) => n as usize,
            _ => {
                return Response::error(
                    400,
                    "invalid_work_request",
                    &format!("`capacity` must be an integer in 1..={MAX_LEASE_CAPACITY}"),
                )
            }
        },
    };
    match state.lease_work(&worker, capacity) {
        None => Response::json(
            200,
            Json::Object(vec![("granted".into(), Json::Bool(false))]).to_compact(),
        ),
        Some(grant) => {
            let jobs: Vec<Json> = grant
                .jobs
                .iter()
                .map(|(index, job)| {
                    Json::Object(vec![
                        ("index".into(), Json::uint(*index as u64)),
                        ("application".into(), Json::Str(job.application.name.into())),
                        ("model".into(), Json::Str(job.model.name.into())),
                        ("direction".into(), Json::Str(job.direction.slug().into())),
                        ("seed".into(), Json::uint(job.config.seed)),
                        (
                            "max_self_corrections".into(),
                            Json::uint(job.config.max_self_corrections as u64),
                        ),
                        (
                            "timing_runs".into(),
                            Json::uint(job.config.timing_runs as u64),
                        ),
                    ])
                })
                .collect();
            let body = Json::Object(vec![
                ("granted".into(), Json::Bool(true)),
                ("lease_id".into(), Json::Str(grant.lease_id)),
                ("run_id".into(), Json::Str(grant.run_id)),
                ("ttl_ms".into(), Json::uint(grant.ttl_ms)),
                ("jobs".into(), Json::Array(jobs)),
            ]);
            Response::json(200, body.to_compact())
        }
    }
}

/// `POST /v1/work/heartbeat`: extend a held lease's deadline. Losing the
/// race against the reclaimer answers `409 lease_not_active` — the worker
/// should drop the batch (its jobs are already requeued) and lease anew.
fn heartbeat_work(state: &AppState, body: &[u8]) -> Response {
    let fields = match decode_work_body(body) {
        Ok(fields) => fields,
        Err(message) => return Response::error(400, "invalid_work_request", &message),
    };
    let (worker, lease_id) = match work_worker_id(&fields).and_then(|w| {
        let l = work_lease_id(&fields)?;
        Ok((w, l))
    }) {
        Ok(pair) => pair,
        Err(message) => return Response::error(400, "invalid_work_request", &message),
    };
    match state.heartbeat_work(&worker, &lease_id) {
        Ok(ttl_ms) => Response::json(
            200,
            Json::Object(vec![
                ("extended".into(), Json::Bool(true)),
                ("ttl_ms".into(), Json::uint(ttl_ms)),
            ])
            .to_compact(),
        ),
        Err(LeaseError::UnknownLease(id)) => Response::error(
            404,
            "lease_not_found",
            &format!("no draining run holds lease `{id}`"),
        ),
        Err(LeaseError::NotActive { lease_id, state }) => Response::error(
            409,
            "lease_not_active",
            &format!("lease `{lease_id}` is {}", state.slug()),
        ),
    }
}

/// `POST /v1/work/complete`: return a lease's records. Records ride the
/// same `record.v1` codec the artifact store uses, and land first-write-
/// wins — a duplicate completion (requeued batch finished twice) is
/// counted, not an error. A completion that fails validation fails the
/// lease and requeues its jobs, so a corrupting worker cannot poison the
/// artifact.
fn complete_work(state: &AppState, body: &[u8]) -> Response {
    let fields = match decode_work_body(body) {
        Ok(fields) => fields,
        Err(message) => return Response::error(400, "invalid_work_request", &message),
    };
    let (worker, lease_id) = match work_worker_id(&fields).and_then(|w| {
        let l = work_lease_id(&fields)?;
        Ok((w, l))
    }) {
        Ok(pair) => pair,
        Err(message) => return Response::error(400, "invalid_work_request", &message),
    };
    let records = match fields.iter().find(|(k, _)| k == "records") {
        None => return Response::error(400, "invalid_work_request", "`records` is required"),
        Some((_, value)) => match lassi_harness::codec::records_from_json(value) {
            Ok(records) => records,
            Err(e) => {
                return Response::error(
                    400,
                    "invalid_work_request",
                    &format!("`records` does not decode: {e}"),
                )
            }
        },
    };
    match state.complete_work(&worker, &lease_id, records) {
        Ok((accepted, duplicates)) => Response::json(
            200,
            Json::Object(vec![
                ("accepted".into(), Json::uint(accepted as u64)),
                ("duplicates".into(), Json::uint(duplicates as u64)),
            ])
            .to_compact(),
        ),
        Err(CompleteError::UnknownLease(id)) => Response::error(
            404,
            "lease_not_found",
            &format!("no draining run holds lease `{id}`"),
        ),
        Err(CompleteError::Invalid(message)) => {
            Response::error(400, "invalid_completion", &message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_harness::RunState;

    #[test]
    fn decodes_defaults_from_an_empty_object() {
        let req = decode_sweep_request(b"{}").unwrap();
        assert_eq!(req.grid.models.len(), all_models().len());
        assert_eq!(req.grid.apps.len(), applications().len());
        assert_eq!(req.grid.directions.len(), 2);
        assert!(req.run_id.is_none());
    }

    #[test]
    fn decodes_a_narrowed_grid() {
        let body = br#"{
            "models": ["GPT-4"],
            "apps": ["layout", "entropy"],
            "directions": ["cuda-to-omp"],
            "max_self_corrections": [10, 40],
            "timing_runs": [1],
            "seed": 7,
            "run_id": "client-1"
        }"#;
        let req = decode_sweep_request(body).unwrap();
        assert_eq!(req.grid.models.len(), 1);
        assert_eq!(req.grid.apps.len(), 2);
        assert_eq!(req.grid.directions, vec![lassi_core::Direction::CudaToOmp]);
        assert_eq!(req.grid.max_self_corrections, vec![10, 40]);
        assert_eq!(req.grid.base.seed, 7);
        assert_eq!(req.grid.len(), 4, "1 model x 2 apps x 1 dir x 2 msc");
        assert_eq!(req.run_id.as_deref(), Some("client-1"));
    }

    #[test]
    fn rejects_bad_requests_with_a_reason() {
        for (body, needle) in [
            (&b"not json"[..], "JSON"),
            (b"", "empty body"),
            (b"[1]", "must be a JSON object"),
            (br#"{"models": ["no-such-model"]}"#, "unknown model"),
            (br#"{"apps": []}"#, "must not be empty"),
            (br#"{"directions": ["sideways"]}"#, "unknown direction"),
            (br#"{"timing_runs": [-1]}"#, "non-negative"),
            (br#"{"seed": "abc"}"#, "`seed`"),
            (br#"{"run_id": "../evil"}"#, "not a valid slug"),
            (br#"{"modles": ["GPT-4"]}"#, "unknown field `modles`"),
        ] {
            let err = decode_sweep_request(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{:?} -> {err:?} (wanted {needle:?})",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn pagination_query_parses_and_validates() {
        assert_eq!(parse_list_query("").unwrap(), (DEFAULT_RUNS_PAGE, None));
        assert_eq!(parse_list_query("limit=5").unwrap(), (5, None));
        assert_eq!(
            parse_list_query("limit=2&after=run-a").unwrap(),
            (2, Some("run-a".into()))
        );
        for bad in [
            "limit=0",
            "limit=-3",
            "limit=abc",
            "limit=100000",
            "after=../evil",
            "nonsense=1",
        ] {
            assert!(parse_list_query(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn work_bodies_decode_and_validate() {
        let fields = decode_work_body(br#"{"worker_id": "w-1", "lease_id": "lease-r-0001"}"#)
            .expect("valid body");
        assert_eq!(work_worker_id(&fields).unwrap(), "w-1");
        assert_eq!(work_lease_id(&fields).unwrap(), "lease-r-0001");

        assert!(decode_work_body(b"").unwrap_err().contains("empty body"));
        assert!(decode_work_body(b"[]").unwrap_err().contains("JSON object"));
        let bad = decode_work_body(br#"{"worker_id": "../evil"}"#).unwrap();
        assert!(work_worker_id(&bad).unwrap_err().contains("slug"));
        let missing = decode_work_body(br#"{"worker_id": "w"}"#).unwrap();
        assert!(work_lease_id(&missing).unwrap_err().contains("`lease_id`"));
    }

    #[test]
    fn run_view_carries_fleet_counts_when_present() {
        let mut status = RunStatus::queued("v-2", 4);
        assert_eq!(run_view(&status).get("fleet"), Some(&Json::Null));
        status.fleet = Some(lassi_harness::FleetStats {
            leases_granted: 5,
            leases_expired: 1,
            jobs_requeued: 2,
            duplicate_completions: 1,
        });
        let fleet = run_view(&status);
        let fleet = fleet.get("fleet").expect("fleet object");
        assert_eq!(fleet.get("leases_granted").and_then(Json::as_u64), Some(5));
        assert_eq!(fleet.get("jobs_requeued").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn run_view_nests_progress_counts() {
        let mut status = RunStatus::queued("v-1", 8);
        status.advance(RunState::Running).unwrap();
        status.completed = 3;
        let view = run_view(&status);
        assert_eq!(view.get("id").and_then(Json::as_str), Some("v-1"));
        assert_eq!(view.get("state").and_then(Json::as_str), Some("running"));
        let progress = view.get("progress").expect("progress object");
        assert_eq!(progress.get("completed").and_then(Json::as_u64), Some(3));
        assert_eq!(progress.get("total").and_then(Json::as_u64), Some(8));
    }
}
