//! The traced run's runtime replay: every distinct program a run touched
//! (each application's two sources, which serve as both original and
//! reference, plus every record's final generated code) is taken through
//! `lassi_lang::parse` → `lassi_sema::compile` → `lassi_runtime::compile` →
//! `run_compiled` outside the pipeline's caches, so VM time and the
//! simulator's operation counts can be attributed per application and per
//! dialect. The counts are deterministic and repeat exactly.

use std::collections::BTreeSet;
use std::time::Instant;

use lassi_core::{PipelineConfig, TranslationRecord};
use lassi_hecbench::{Application, Machine};
use lassi_lang::Dialect;

use crate::catalog::Layers;
use crate::trace::Trace;

/// The distinct (application, dialect, source) triples behind `records`.
pub fn distinct_programs(
    apps: &[Application],
    records: &[TranslationRecord],
) -> Vec<(String, Dialect, String)> {
    let mut seen = BTreeSet::new();
    let mut programs = Vec::new();
    let mut push = |app: &str, dialect: Dialect, source: &str| {
        if seen.insert((dialect == Dialect::CudaLite, source.to_string())) {
            programs.push((app.to_string(), dialect, source.to_string()));
        }
    };
    for app in apps {
        for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
            push(app.name, dialect, app.source(dialect));
        }
    }
    for record in records {
        if let Some(code) = &record.generated_code {
            push(&record.application, record.target_dialect, code);
        }
    }
    programs
}

/// One timed stage of one program's replay.
type Step = (&'static str, Instant, Instant);

/// Replay `programs` and add the `runtime.*`, `gpusim.*` and `ompsim.*`
/// replay metrics to `layers`.
pub fn replay(
    programs: &[(String, Dialect, String)],
    trace: &mut Trace,
    parent: Option<u64>,
    layers: &mut Layers,
) {
    let run_config = PipelineConfig::default().run_config;
    let machine = Machine::a100();
    let root_start = Instant::now();
    let mut spans: Vec<(String, Vec<Step>)> = Vec::new();
    for (app, dialect, source) in programs {
        let mut steps = Vec::new();
        let mut stage = |name: &'static str, started: Instant| {
            steps.push((name, started, Instant::now()));
        };
        add(layers, "runtime.replay_programs", 1.0);
        let started = Instant::now();
        let parsed = lassi_lang::parse(source, *dialect);
        stage("parse", started);
        let Ok(program) = parsed else {
            add(layers, "runtime.replay_errors", 1.0);
            spans.push((app.clone(), steps));
            continue;
        };
        let started = Instant::now();
        let checked = lassi_sema::compile(&program);
        stage("sema", started);
        if checked.is_err() {
            add(layers, "runtime.replay_errors", 1.0);
            spans.push((app.clone(), steps));
            continue;
        }
        let started = Instant::now();
        let compiled = std::hint::black_box(lassi_runtime::compile(&program, 0));
        stage("compile", started);
        let started = Instant::now();
        let outcome = lassi_runtime::run_compiled(&compiled, &run_config, &machine, &[]);
        let run_s = started.elapsed().as_secs_f64();
        stage("run", started);
        add(layers, "runtime.vm_s", run_s);
        add(layers, &format!("runtime.vm_s.{app}"), run_s);
        let simulator = match dialect {
            Dialect::CudaLite => "gpusim.run_s",
            Dialect::OmpLite => "ompsim.run_s",
        };
        add(layers, simulator, run_s);
        match std::hint::black_box(outcome) {
            Ok(report) => {
                add(layers, "runtime.vm_steps", report.steps as f64);
                add(layers, "runtime.ops", report.cost.total_ops() as f64);
                add(
                    layers,
                    "runtime.bytes_moved",
                    report.cost.total_bytes() as f64,
                );
                add(
                    layers,
                    "runtime.allocations",
                    report.memory.allocations as f64,
                );
            }
            Err(_) => add(layers, "runtime.replay_errors", 1.0),
        }
        spans.push((app.clone(), steps));
    }
    let root = trace.span(parent, "replay", root_start, Instant::now());
    for (app, steps) in spans {
        let (Some(first), Some(last)) = (steps.first(), steps.last()) else {
            continue;
        };
        let parent = trace.span(Some(root), &format!("replay.{app}"), first.1, last.2);
        for (name, start, end) in steps {
            trace.span(Some(parent), name, start, end);
        }
    }
}

fn add(layers: &mut Layers, name: &str, v: f64) {
    *layers.entry(name.to_string()).or_insert(0.0) += v;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_counts_repeat_exactly() {
        let apps = vec![lassi_hecbench::application("layout").expect("layout exists")];
        let programs = distinct_programs(&apps, &[]);
        assert_eq!(programs.len(), 2);
        let run = || {
            let mut layers = Layers::new();
            replay(&programs, &mut Trace::new(true), None, &mut layers);
            layers
        };
        let (a, b) = (run(), run());
        for key in ["runtime.vm_steps", "runtime.ops", "runtime.bytes_moved"] {
            assert!(a[key] > 0.0, "{key}");
            assert_eq!(a[key], b[key], "{key}");
        }
        assert_eq!(a["runtime.replay_programs"], 2.0);
        assert!(!a.contains_key("runtime.replay_errors"));
    }
}
