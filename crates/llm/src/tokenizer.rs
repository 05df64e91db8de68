//! Approximate tokenizer.
//!
//! LASSI only needs token counts to check that a constructed prompt fits
//! each model's context window (Table V) and to report prompt and response
//! sizes. A simple word/punctuation splitter with a sub-word heuristic
//! tracks real BPE tokenizers closely enough for that. (The Sim-T
//! similarity metric tokenizes code with its own lexer,
//! `lassi_metrics::similarity::tokenize_code`.)

/// Approximate the number of LLM tokens in `text`.
///
/// Identifiers and numbers (runs of alphanumeric characters and `_`) are
/// words, every other non-whitespace character is its own token, and
/// whitespace separates. A word of up to 4 characters is one token; longer
/// words and string fragments count one sub-word token per 4 characters,
/// matching the common "~4 characters per token" rule of thumb for
/// code-heavy text. Counted in one pass, without materialising the tokens.
pub fn count_tokens(text: &str) -> usize {
    let word_tokens = |chars: usize| if chars <= 4 { 1 } else { chars.div_ceil(4) };
    let mut total = 0;
    let mut word = 0;
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            word += 1;
        } else {
            if word > 0 {
                total += word_tokens(word);
                word = 0;
            }
            if !c.is_whitespace() {
                total += 1;
            }
        }
    }
    if word > 0 {
        total += word_tokens(word);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts::{self, PromptDictionary};
    use lassi_lang::Dialect;

    /// The reference splitter: materialise every token, then price each one.
    fn tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for c in text.chars() {
            if c.is_alphanumeric() || c == '_' {
                current.push(c);
            } else {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
                if !c.is_whitespace() {
                    tokens.push(c.to_string());
                }
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    fn oracle_count(text: &str) -> usize {
        tokenize(text)
            .iter()
            .map(|t| {
                if t.chars().count() <= 4 {
                    1
                } else {
                    t.chars().count().div_ceil(4)
                }
            })
            .sum()
    }

    #[test]
    fn tokenize_code_line() {
        let toks = tokenize("out[i] = a[i] + b[i];");
        assert_eq!(
            toks,
            vec!["out", "[", "i", "]", "=", "a", "[", "i", "]", "+", "b", "[", "i", "]", ";"]
        );
        assert_eq!(count_tokens("out[i] = a[i] + b[i];"), toks.len());
    }

    #[test]
    fn count_scales_with_length() {
        let short = count_tokens("int x = 1;");
        let long = count_tokens(&"int x = 1;\n".repeat(100));
        assert!(long > short * 50);
    }

    #[test]
    fn long_identifiers_cost_more() {
        assert!(count_tokens("extraordinarily_long_identifier_name") > 1);
        assert_eq!(count_tokens("i"), 1);
    }

    #[test]
    fn empty_text_has_no_tokens() {
        assert_eq!(count_tokens(""), 0);
        assert!(tokenize("   \n\t ").is_empty());
        assert_eq!(count_tokens("   \n\t "), 0);
    }

    #[test]
    fn count_matches_oracle_on_edge_cases() {
        for text in [
            "",
            "   \n\t ",
            " ",
            "héllo wörld αβγ_δ → ü",
            "ab_cd",
            "abcd efghi",
            "abcdefgh ijklmnopqrst",
            "x+=1;",
            "__global__ void k()",
            "trailing_word",
        ] {
            assert_eq!(count_tokens(text), oracle_count(text), "{text:?}");
        }
    }

    #[test]
    fn count_matches_oracle_on_every_pipeline_prompt() {
        // Every prompt the pipeline builds, for every application in both
        // directions: the context-window check and the recorded prompt
        // totals must not move.
        let mut checked = 0;
        for app in lassi_hecbench::applications() {
            for source in [Dialect::CudaLite, Dialect::OmpLite] {
                let target = source.other();
                let code = app.source(source);
                let knowledge = PromptDictionary::build_knowledge_summary_prompt(target);
                let description = PromptDictionary::build_code_description_prompt(code);
                let translation = PromptDictionary::build_translation_prompt(
                    source,
                    target,
                    "Key points: offload loops and map the data.",
                    "This program computes a checksum.",
                    code,
                );
                let compiler = target.compiler_command();
                let compile_fix = PromptDictionary::build_compile_correction_prompt(
                    code,
                    compiler,
                    "error[sema/undeclared]: use of undeclared identifier 'n'",
                );
                let execute_fix = PromptDictionary::build_execution_correction_prompt(
                    code,
                    compiler,
                    "error[exec/runtime-error]: out-of-bounds access",
                );
                let system = PromptDictionary::system_prompt(source, target);
                for text in [
                    knowledge.as_str(),
                    description.as_str(),
                    translation.as_str(),
                    compile_fix.as_str(),
                    execute_fix.as_str(),
                    system,
                    code,
                ] {
                    assert_eq!(
                        count_tokens(text),
                        oracle_count(text),
                        "{} {source:?}",
                        app.name
                    );
                    checked += 1;
                }
            }
        }
        for system in [
            prompts::SYSTEM_CUDA_TO_OPENMP,
            prompts::SYSTEM_OPENMP_TO_CUDA,
            prompts::SYSTEM_GENERAL,
        ] {
            assert_eq!(count_tokens(system), oracle_count(system));
        }
        assert_eq!(checked, 10 * 2 * 7);
    }
}
