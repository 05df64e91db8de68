//! The LASSI pipeline: source preparation, context preparation, code
//! generation and the self-correcting loops (Fig. 1 / §III of the paper).

use std::time::Instant;

use lassi_hecbench::{Application, Machine};
use lassi_lang::{parse, Diagnostic, Dialect, Program};
use lassi_llm::prompts::{extract_code_block, PromptDictionary};
use lassi_llm::ChatModel;
use lassi_metrics::{runtime_ratio, with_engine};
use lassi_obs::Histogram;
use lassi_runtime::{ExecutionReport, ParallelBackend};

use crate::config::PipelineConfig;

/// The instrumented pipeline stages, in execution order. Each stage's time
/// accumulates into the `lassi_stage_seconds{stage="..."}` histogram of the
/// process-wide registry — the breakdown `sweep --timings` tabulates and
/// perfbench reports per layer. The parse and sema timers count real front-end
/// work only: when the model answers with exactly the code whose parse or
/// sema just failed, the self-correction loop records that failure again
/// without re-running (and re-timing) either stage.
pub const STAGE_NAMES: &[&str] = &["parse", "sema", "compile", "llm", "execute", "similarity"];

/// Per-stage histogram handles, registered once per pipeline instance and
/// observed lock-free on the scenario hot path.
struct StageTimers {
    parse: Histogram,
    sema: Histogram,
    compile: Histogram,
    llm: Histogram,
    execute: Histogram,
    similarity: Histogram,
}

impl StageTimers {
    fn register() -> StageTimers {
        let stage = |name: &str| {
            lassi_obs::global().histogram(
                "lassi_stage_seconds",
                "Per-scenario pipeline stage timings, by stage.",
                &[("stage", name)],
                lassi_obs::LATENCY_SECONDS,
            )
        };
        StageTimers {
            parse: stage("parse"),
            sema: stage("sema"),
            compile: stage("compile"),
            llm: stage("llm"),
            execute: stage("execute"),
            similarity: stage("similarity"),
        }
    }
}

/// Run `f`, recording its wall-clock duration into `histogram`.
fn timed<T>(histogram: &Histogram, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let result = f();
    histogram.observe(started.elapsed().as_secs_f64());
    result
}

/// How a scenario ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Generated code compiled, executed and produced the expected output.
    Success,
    /// The original source or target reference failed to run (pipeline halts
    /// before translation, §III-A).
    BaselineFailed,
    /// The compile self-correction loop hit the iteration cap.
    CompileGaveUp,
    /// The execution self-correction loop hit the iteration cap.
    ExecuteGaveUp,
    /// The generated code ran but its output differed from the reference.
    OutputMismatch,
}

impl ScenarioStatus {
    /// True for the paper's "N/A" rows.
    pub fn is_na(self) -> bool {
        self != ScenarioStatus::Success
    }
}

/// Structured diagnostics captured from one attempt of one pipeline stage:
/// one entry per failed compile/execute attempt of the self-correction loops
/// (plus one entry for warnings surfaced by the final successful compile),
/// so a record explains *why* a scenario needed repair instead of flattening
/// everything into rendered text.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptDiagnostics {
    /// Self-correction round the attempt belongs to (0 = the initial
    /// generation, incrementing once per repair prompt).
    pub round: u32,
    /// Pipeline stage that emitted the findings (`"parse"`, `"sema"`,
    /// `"execute"` or `"llm"`).
    pub stage: String,
    /// The findings, in emission order, each carrying a stable code.
    pub diagnostics: Vec<Diagnostic>,
}

/// A failed parse, sema or execute stage, before it is anchored to a
/// self-correction round.
#[derive(Clone)]
struct StageFailure {
    stage: &'static str,
    diagnostics: Vec<Diagnostic>,
}

impl StageFailure {
    fn at_round(self, round: u32) -> AttemptDiagnostics {
        AttemptDiagnostics {
            round,
            stage: self.stage.to_string(),
            diagnostics: self.diagnostics,
        }
    }

    /// The rendered form handed back to the repair prompt.
    fn render(&self) -> String {
        lassi_lang::diag::render_structured(&self.diagnostics)
    }
}

/// Everything recorded about one (application, model, direction) scenario —
/// one row of Tables VI/VII.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationRecord {
    /// Application name.
    pub application: String,
    /// Model name.
    pub model: String,
    /// Dialect the source program was written in.
    pub source_dialect: Dialect,
    /// Dialect the program was translated into.
    pub target_dialect: Dialect,
    /// Outcome.
    pub status: ScenarioStatus,
    /// Number of self-correction iterations performed (Self-corr column).
    pub self_corrections: u32,
    /// Final generated code (present whenever the LLM produced any code).
    pub generated_code: Option<String>,
    /// Runtime of the generated code in seconds (Runtime column).
    pub generated_runtime: Option<f64>,
    /// Runtime of the reference code in the *target* language.
    pub reference_runtime: f64,
    /// Runtime of the original code in the *source* language.
    pub source_runtime: f64,
    /// Ratio column: reference runtime / generated runtime.
    pub ratio: Option<f64>,
    /// Sim-T column.
    pub sim_t: Option<f64>,
    /// Sim-L column.
    pub sim_l: Option<f64>,
    /// Total prompt tokens sent to the model over the scenario.
    pub prompt_tokens: usize,
    /// Total response tokens received from the model.
    pub response_tokens: usize,
    /// Per-attempt diagnostics history: every failed parse/sema/execute
    /// attempt in the self-correction loops, plus warnings from the final
    /// successful compile. Empty for clean zero-correction successes.
    pub diagnostics: Vec<AttemptDiagnostics>,
}

/// One LASSI pipeline instance: a chat model plus the simulated machine.
pub struct Lassi<M: ChatModel> {
    llm: M,
    machine: Machine,
    config: PipelineConfig,
    prompt_tokens: usize,
    response_tokens: usize,
    stages: StageTimers,
}

impl<M: ChatModel> Lassi<M> {
    /// Create a pipeline around a model.
    pub fn new(llm: M, config: PipelineConfig) -> Self {
        Lassi {
            llm,
            machine: Machine::a100(),
            config,
            prompt_tokens: 0,
            response_tokens: 0,
            stages: StageTimers::register(),
        }
    }

    /// Access the underlying model (e.g. to inspect its name).
    pub fn model(&self) -> &M {
        &self.llm
    }

    fn complete(&mut self, system: &str, user: &str) -> String {
        let llm = &mut self.llm;
        let resp = timed(&self.stages.llm, || llm.complete(system, user));
        self.prompt_tokens += resp.prompt_tokens;
        self.response_tokens += resp.response_tokens;
        resp.text
    }

    /// The front end: parse `code` and check the program, returning it with
    /// the check's non-fatal warnings, or the coded diagnostics of the stage
    /// that rejected it.
    fn check(
        &self,
        code: &str,
        dialect: Dialect,
    ) -> Result<(Program, Vec<Diagnostic>), StageFailure> {
        let program =
            timed(&self.stages.parse, || parse(code, dialect)).map_err(|d| StageFailure {
                stage: "parse",
                diagnostics: vec![d],
            })?;
        let warnings = timed(&self.stages.sema, || lassi_sema::compile(&program))
            .map_err(|diagnostics| StageFailure {
                stage: "sema",
                diagnostics,
            })?
            .warnings;
        Ok((program, warnings))
    }

    /// Compile and execute a checked program, averaging `timing_runs`
    /// executions the way the paper averages three runs. Returns the last
    /// report with the averaged runtime substituted.
    ///
    /// The program is lowered to register bytecode first (cached
    /// process-wide, so each distinct program compiles once per sweep) and
    /// the VM runs it; execution reports are memoized per (program, config,
    /// machine) — the simulator is deterministic, so the grid's timing
    /// repeats and cross-scenario re-runs of the same program replay the
    /// first run's report bit for bit instead of re-executing it.
    ///
    /// Execution errors come back as `exec/runtime-error` diagnostics of the
    /// `execute` stage.
    fn run(&self, program: &Program) -> Result<ExecutionReport, StageFailure> {
        let exec_failure = |msg: String| StageFailure {
            stage: "execute",
            diagnostics: vec![Diagnostic::error(0, msg).with_code("exec/runtime-error")],
        };
        let runs = self.config.timing_runs.max(1);
        let mut last: Option<ExecutionReport> = None;
        let mut total = 0.0;
        let (program_key, compiled) = timed(&self.stages.compile, || {
            let key = crate::progcache::cache_key(program, &self.config.run_config, 0);
            (key, crate::progcache::get_or_compile(key, program, 0))
        });
        let run_key = crate::progcache::report_key(program_key, self.machine.name());
        for _ in 0..runs {
            let report = timed(&self.stages.execute, || {
                crate::progcache::get_or_run(run_key, || {
                    lassi_runtime::run_compiled(
                        &compiled,
                        &self.config.run_config,
                        &self.machine,
                        &[],
                    )
                    .map_err(|e| e.to_string())
                })
            })
            .map_err(&exec_failure)?;
            total += report.simulated_seconds;
            last = Some(report);
        }
        let mut report = last.expect("at least one run");
        report.simulated_seconds = total / runs as f64;
        Ok(report)
    }

    /// Run the full pipeline for one application and source dialect,
    /// translating into the opposite dialect.
    pub fn translate_application(
        &mut self,
        app: &Application,
        source_dialect: Dialect,
    ) -> TranslationRecord {
        let target_dialect = source_dialect.other();
        let source_code = app.source(source_dialect);
        let reference_code = app.source(target_dialect);

        // The struct-level accumulators survive across scenarios on a reused
        // pipeline instance; the record must report this scenario's delta.
        let prompt_token_base = self.prompt_tokens;
        let response_token_base = self.response_tokens;

        let mut record = TranslationRecord {
            application: app.name.to_string(),
            model: self.llm.name().to_string(),
            source_dialect,
            target_dialect,
            status: ScenarioStatus::BaselineFailed,
            self_corrections: 0,
            generated_code: None,
            generated_runtime: None,
            reference_runtime: 0.0,
            source_runtime: 0.0,
            ratio: None,
            sim_t: None,
            sim_l: None,
            prompt_tokens: 0,
            response_tokens: 0,
            diagnostics: Vec::new(),
        };

        // ------------------------------------------------ source preparation
        // §III-A: both the original source and the target-language reference
        // must compile and run locally before translation proceeds.
        let baseline = |code: &str, dialect: Dialect| {
            self.check(code, dialect)
                .and_then(|(program, _)| self.run(&program))
        };
        let source_report = match baseline(source_code, source_dialect) {
            Ok(r) => r,
            Err(failure) => {
                record.diagnostics.push(failure.at_round(0));
                return record;
            }
        };
        let reference_report = match baseline(reference_code, target_dialect) {
            Ok(r) => r,
            Err(failure) => {
                record.diagnostics.push(failure.at_round(0));
                return record;
            }
        };
        record.source_runtime = source_report.simulated_seconds;
        record.reference_runtime = reference_report.simulated_seconds;

        // ------------------------------------- language-specific context prep
        // §III-B: self-prompted knowledge summary and code description.
        let system = PromptDictionary::system_prompt(source_dialect, target_dialect);
        let knowledge_summary = self.complete(
            system,
            &PromptDictionary::build_knowledge_summary_prompt(target_dialect),
        );
        let code_description = self.complete(
            system,
            &PromptDictionary::build_code_description_prompt(source_code),
        );

        // ----------------------------------------------------- code generation
        let translation_prompt = PromptDictionary::build_translation_prompt(
            source_dialect,
            target_dialect,
            &knowledge_summary,
            &code_description,
            source_code,
        );
        let response = self.complete(system, &translation_prompt);
        let mut code = match extract_code_block(&response) {
            Some(c) => c,
            None => {
                record.status = ScenarioStatus::CompileGaveUp;
                record.diagnostics.push(AttemptDiagnostics {
                    round: 0,
                    stage: "llm".to_string(),
                    diagnostics: vec![Diagnostic::error(
                        0,
                        "model response contained no fenced code block",
                    )
                    .with_code("llm/no-code-block")],
                });
                record.prompt_tokens = self.prompt_tokens - prompt_token_base;
                record.response_tokens = self.response_tokens - response_token_base;
                return record;
            }
        };

        // -------------------------------------------- self-correcting loops
        let compiler_command = target_dialect.compiler_command();
        let mut final_report: Option<ExecutionReport> = None;
        // The front end is deterministic in (code, dialect), so an answer
        // identical to the last code that failed to compile fails the same
        // way: its failure is recorded again without re-running parse and
        // sema. One entry per scenario.
        let mut last_failure: Option<(String, StageFailure)> = None;
        loop {
            // Compile loop (§III-D1): keep re-prompting until it compiles.
            let checked = loop {
                let compile_result = match &last_failure {
                    Some((failed_code, failure)) if *failed_code == code => Err(failure.clone()),
                    _ => self.check(&code, target_dialect),
                };
                match compile_result {
                    Ok(checked) => break Some(checked),
                    Err(failure) => {
                        let error_text = failure.render();
                        record
                            .diagnostics
                            .push(failure.clone().at_round(record.self_corrections));
                        if record.self_corrections >= self.config.max_self_corrections {
                            record.status = ScenarioStatus::CompileGaveUp;
                            break None;
                        }
                        record.self_corrections += 1;
                        let prompt = PromptDictionary::build_compile_correction_prompt(
                            &code,
                            compiler_command,
                            &error_text,
                        );
                        let response = self.complete(system, &prompt);
                        let failed_code = match extract_code_block(&response) {
                            Some(new_code) => std::mem::replace(&mut code, new_code),
                            None => code.clone(),
                        };
                        last_failure = Some((failed_code, failure));
                    }
                }
            };
            let Some((program, warnings)) = checked else {
                break;
            };

            // Execution loop (§III-D2).
            match self.run(&program) {
                Ok(report) => {
                    // Surface non-fatal warnings from the final successful
                    // compile instead of dropping them on the floor.
                    if !warnings.is_empty() {
                        record.diagnostics.push(AttemptDiagnostics {
                            round: record.self_corrections,
                            stage: "sema".to_string(),
                            diagnostics: warnings,
                        });
                    }
                    final_report = Some(report);
                    break;
                }
                Err(failure) => {
                    let error_text = failure.render();
                    record
                        .diagnostics
                        .push(failure.at_round(record.self_corrections));
                    if record.self_corrections >= self.config.max_self_corrections {
                        record.status = ScenarioStatus::ExecuteGaveUp;
                        break;
                    }
                    record.self_corrections += 1;
                    let prompt = PromptDictionary::build_execution_correction_prompt(
                        &code,
                        compiler_command,
                        &error_text,
                    );
                    let response = self.complete(system, &prompt);
                    if let Some(new_code) = extract_code_block(&response) {
                        code = new_code;
                    }
                    // Back to the compile loop with the new code.
                }
            }
        }

        record.generated_code = Some(code.clone());
        record.prompt_tokens = self.prompt_tokens - prompt_token_base;
        record.response_tokens = self.response_tokens - response_token_base;

        let Some(report) = final_report else {
            return record;
        };

        // ------------------------------------------------- output comparison
        // The prototype pipeline in the paper compares standard output by
        // hand; here the comparison is automated and exact.
        if normalize_output(&report.stdout) != normalize_output(&reference_report.stdout) {
            // The generated code *did* run — keep the measured runtime and
            // similarity scores as diagnostics. Ratio stays `None` so the
            // row still renders as the paper's N/A.
            record.status = ScenarioStatus::OutputMismatch;
            record.generated_runtime = Some(report.simulated_seconds);
            // The thread-local engine reuses one symbol table and one set of
            // DP scratch buffers across every scenario a worker thread runs.
            timed(&self.stages.similarity, || {
                with_engine(|engine| {
                    record.sim_t = Some(engine.sim_t(reference_code, &code));
                    record.sim_l = Some(engine.sim_l(reference_code, &code));
                })
            });
            return record;
        }

        record.status = ScenarioStatus::Success;
        record.generated_runtime = Some(report.simulated_seconds);
        record.ratio = runtime_ratio(record.reference_runtime, report.simulated_seconds);
        timed(&self.stages.similarity, || {
            with_engine(|engine| {
                record.sim_t = Some(engine.sim_t(reference_code, &code));
                record.sim_l = Some(engine.sim_l(reference_code, &code));
            })
        });
        record
    }
}

fn normalize_output(text: &str) -> String {
    text.lines()
        .map(str::trim_end)
        .collect::<Vec<_>>()
        .join("\n")
        .trim_end()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_hecbench::application;
    use lassi_llm::{models, SimulatedLlm};
    use lassi_runtime::HostInterpreter;

    /// A perfect model: no faults are ever injected (probabilities forced to 0).
    fn perfect_model() -> SimulatedLlm {
        let mut spec = models::gpt4();
        spec.profile.p_compile_fault = 0.0;
        spec.profile.p_runtime_fault = 0.0;
        spec.profile.p_semantic_fault = 0.0;
        spec.profile.p_perf_regression = 0.0;
        spec.profile.p_repair_regression = 0.0;
        SimulatedLlm::with_seed(spec, 1)
    }

    #[test]
    fn perfect_model_translates_layout_both_ways() {
        let app = application("layout").unwrap();
        for source in [Dialect::CudaLite, Dialect::OmpLite] {
            let mut pipeline = Lassi::new(perfect_model(), PipelineConfig::default());
            let record = pipeline.translate_application(&app, source);
            assert_eq!(
                record.status,
                ScenarioStatus::Success,
                "direction {source:?}: {:?}\n{}",
                record.status,
                record.generated_code.unwrap_or_default()
            );
            assert_eq!(record.self_corrections, 0);
            assert!(record.ratio.unwrap() > 0.0);
            assert!(record.sim_t.unwrap() > 0.0 && record.sim_t.unwrap() <= 1.0);
        }
    }

    /// Run `source` on the tree-walking interpreter `config.timing_runs`
    /// times and average the simulated clock the way `compile_and_run` does.
    fn interpreter_oracle(
        source: &str,
        dialect: Dialect,
        config: &PipelineConfig,
    ) -> ExecutionReport {
        let program = parse(source, dialect).expect("oracle input parses");
        let machine = Machine::a100();
        let runs = config.timing_runs.max(1);
        let mut total = 0.0;
        let mut last = None;
        for _ in 0..runs {
            let mut interp = HostInterpreter::new(&program, config.run_config.clone());
            let report = interp.run(&machine, &[]).expect("oracle run succeeds");
            total += report.simulated_seconds;
            last = Some(report);
        }
        let mut report = last.expect("at least one run");
        report.simulated_seconds = total / runs as f64;
        report
    }

    #[test]
    fn vm_pipeline_records_match_interpreter_oracle() {
        // End-to-end differential check through the whole pipeline: every
        // runtime the VM-backed pipeline records (compiled-program cache +
        // memoized deterministic execution reports) must equal, bit for
        // bit, what the reference interpreter measures for the same source,
        // reference and generated programs, and the interpreter's stdout
        // must give the same output-match verdict.
        let app = application("entropy").unwrap();
        let config = PipelineConfig::default();
        for source in [Dialect::CudaLite, Dialect::OmpLite] {
            let target = source.other();
            let mut pipeline = Lassi::new(perfect_model(), config.clone());
            let record = pipeline.translate_application(&app, source);
            assert_eq!(record.status, ScenarioStatus::Success, "{source:?}");

            let baseline = interpreter_oracle(app.source(source), source, &config);
            let reference = interpreter_oracle(app.source(target), target, &config);
            let generated = interpreter_oracle(
                record.generated_code.as_deref().expect("generated code"),
                target,
                &config,
            );
            assert_eq!(
                record.source_runtime.to_bits(),
                baseline.simulated_seconds.to_bits(),
                "source runtime, {source:?}"
            );
            assert_eq!(
                record.reference_runtime.to_bits(),
                reference.simulated_seconds.to_bits(),
                "reference runtime, {source:?}"
            );
            assert_eq!(
                record.generated_runtime.map(f64::to_bits),
                Some(generated.simulated_seconds.to_bits()),
                "generated runtime, {source:?}"
            );
            assert_eq!(
                normalize_output(&generated.stdout) == normalize_output(&reference.stdout),
                record.status != ScenarioStatus::OutputMismatch,
                "output-match verdict, {source:?}"
            );
        }
    }

    #[test]
    fn faulty_model_still_converges_via_self_correction() {
        // A model that always injects a compile fault but always repairs it.
        let mut spec = models::gpt4();
        spec.profile.p_compile_fault = 1.0;
        spec.profile.p_runtime_fault = 0.0;
        spec.profile.p_semantic_fault = 0.0;
        spec.profile.p_perf_regression = 0.0;
        spec.profile.p_repair_success = 1.0;
        spec.profile.p_repair_regression = 0.0;
        let llm = SimulatedLlm::with_seed(spec, 5);
        let app = application("entropy").unwrap();
        let mut pipeline = Lassi::new(llm, PipelineConfig::default());
        let record = pipeline.translate_application(&app, Dialect::CudaLite);
        assert_eq!(
            record.status,
            ScenarioStatus::Success,
            "{:?}",
            record.status
        );
        assert!(
            record.self_corrections >= 1,
            "the compile loop must have iterated"
        );
        // Every repaired attempt must have left a coded, span-anchored trail.
        assert!(
            !record.diagnostics.is_empty(),
            "self-corrected scenario must carry diagnostics"
        );
        assert_eq!(record.diagnostics[0].round, 0, "first failure is round 0");
        for attempt in &record.diagnostics {
            assert!(!attempt.diagnostics.is_empty());
            for d in &attempt.diagnostics {
                assert!(
                    !d.code.is_empty(),
                    "uncoded diagnostic in attempt history: {d:?}"
                );
            }
        }
    }

    /// A model that answers every prompt with the same fenced code.
    struct Stubborn(&'static str);

    impl ChatModel for Stubborn {
        fn name(&self) -> &str {
            "stubborn"
        }

        fn context_tokens(&self) -> usize {
            1 << 20
        }

        fn complete(&mut self, _system: &str, _user: &str) -> lassi_llm::LlmResponse {
            lassi_llm::LlmResponse {
                text: format!("```\n{}\n```", self.0),
                prompt_tokens: 1,
                response_tokens: 1,
                context_overflow: false,
            }
        }
    }

    #[test]
    fn repeated_identical_failures_are_recorded_at_every_round() {
        // One answer that never parses, one that parses but fails sema: the
        // loop skips the front end for the repeats, and every round's record
        // must still equal a fresh parse/sema of that code.
        let app = application("layout").unwrap();
        let config = PipelineConfig::default();
        for (code, stage) in [
            ("int main() { int x = ; return 0; }", "parse"),
            ("int main() { y = 1; return 0; }", "sema"),
        ] {
            let target = Dialect::OmpLite;
            let fresh = match parse(code, target) {
                Err(d) => ("parse", vec![d]),
                Ok(p) => (
                    "sema",
                    lassi_sema::compile(&p).expect_err("sema rejects it"),
                ),
            };
            assert_eq!(fresh.0, stage);
            let mut pipeline = Lassi::new(Stubborn(code), config.clone());
            let record = pipeline.translate_application(&app, Dialect::CudaLite);
            assert_eq!(record.status, ScenarioStatus::CompileGaveUp);
            assert_eq!(record.self_corrections, config.max_self_corrections);
            let rounds: Vec<u32> = record.diagnostics.iter().map(|a| a.round).collect();
            assert_eq!(
                rounds,
                (0..=config.max_self_corrections).collect::<Vec<_>>()
            );
            for attempt in &record.diagnostics {
                assert_eq!(attempt.stage, fresh.0, "round {}", attempt.round);
                assert_eq!(attempt.diagnostics, fresh.1, "round {}", attempt.round);
            }
        }
    }

    #[test]
    fn clean_success_has_no_diagnostics() {
        let app = application("layout").unwrap();
        let mut pipeline = Lassi::new(perfect_model(), PipelineConfig::default());
        let record = pipeline.translate_application(&app, Dialect::CudaLite);
        assert_eq!(record.status, ScenarioStatus::Success);
        assert!(record.diagnostics.is_empty(), "{:?}", record.diagnostics);
    }

    #[test]
    fn token_accounting_resets_between_scenarios_on_one_instance() {
        // A reused pipeline must not carry the first scenario's token totals
        // into the second record. With a perfect model both runs take the
        // identical zero-correction path, so the deltas must be equal.
        let app = application("layout").unwrap();
        let mut pipeline = Lassi::new(perfect_model(), PipelineConfig::default());
        let first = pipeline.translate_application(&app, Dialect::CudaLite);
        let second = pipeline.translate_application(&app, Dialect::CudaLite);
        assert!(first.prompt_tokens > 0 && first.response_tokens > 0);
        assert_eq!(first.prompt_tokens, second.prompt_tokens);
        assert_eq!(first.response_tokens, second.response_tokens);
    }

    #[test]
    fn output_mismatch_keeps_runtime_and_similarity_diagnostics() {
        // Force an unrecoverable semantic fault: the generated code runs but
        // prints the wrong output.
        let mut spec = models::gpt4();
        spec.profile.p_compile_fault = 0.0;
        spec.profile.p_runtime_fault = 0.0;
        spec.profile.p_semantic_fault = 1.0;
        spec.profile.p_perf_regression = 0.0;
        let llm = SimulatedLlm::with_seed(spec, 11);
        let app = application("layout").unwrap();
        let mut pipeline = Lassi::new(llm, PipelineConfig::default());
        let record = pipeline.translate_application(&app, Dialect::CudaLite);
        assert_eq!(record.status, ScenarioStatus::OutputMismatch);
        assert!(record.generated_runtime.is_some(), "measured runtime kept");
        assert!(record.sim_t.is_some() && record.sim_l.is_some());
        assert!(record.ratio.is_none(), "Ratio column stays N/A");
    }

    #[test]
    fn normalization_ignores_trailing_whitespace() {
        assert_eq!(normalize_output("a \nb\n"), normalize_output("a\nb"));
        assert_ne!(normalize_output("a\nb"), normalize_output("a\nc"));
    }
}
