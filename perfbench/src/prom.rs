//! Reading counters out of the Prometheus text exposition that both the
//! in-process registry (`lassi_obs::global().render()`) and the service's
//! `GET /v1/metrics` produce, so a batch child and the HTTP scrape share
//! one code path.

/// One exposition sample: series name, labels and value.
type Sample<'a> = (&'a str, Vec<(String, String)>, f64);

/// Split `name{k="v",...} value` into its parts; `None` for comments.
fn parse_line(line: &str) -> Option<Sample<'_>> {
    if line.starts_with('#') || line.trim().is_empty() {
        return None;
    }
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.trim().parse().ok()?;
    let Some((name, rest)) = series.split_once('{') else {
        return Some((series, Vec::new(), value));
    };
    let body = rest.strip_suffix('}')?;
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            break;
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut val = String::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => val.push(chars.next()?),
                '"' => break,
                c => val.push(c),
            }
        }
        labels.push((key.trim_start_matches(',').to_string(), val));
    }
    Some((name, labels, value))
}

/// Sum of every sample named exactly `name` whose labels include `filter`.
pub fn sum(text: &str, name: &str, filter: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter_map(parse_line)
        .filter(|(n, labels, _)| {
            *n == name
                && filter
                    .iter()
                    .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|(_, _, value)| value)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP lassi_stage_seconds Per-scenario pipeline stage timings, by stage.
# TYPE lassi_stage_seconds histogram
lassi_stage_seconds_bucket{stage=\"llm\",le=\"0.001\"} 3
lassi_stage_seconds_sum{stage=\"llm\"} 0.25
lassi_stage_seconds_count{stage=\"llm\"} 4
lassi_stage_seconds_sum{stage=\"sema\"} 0.5
lassi_diagnostics_total{code=\"sema/x\",severity=\"error\",stage=\"sema\"} 2
lassi_diagnostics_total{code=\"exec/y\",severity=\"error\",stage=\"execute\"} 5
lassi_diagnostics_total{code=\"a\\\"b\",severity=\"warning\",stage=\"sema\"} 1
lassi_http_requests_total 7
";

    #[test]
    fn sums_series_matching_the_label_filter() {
        assert_eq!(
            sum(TEXT, "lassi_stage_seconds_sum", &[("stage", "llm")]),
            0.25
        );
        assert_eq!(sum(TEXT, "lassi_stage_seconds_sum", &[]), 0.75);
        assert_eq!(
            sum(TEXT, "lassi_stage_seconds_count", &[("stage", "llm")]),
            4.0
        );
        assert_eq!(
            sum(TEXT, "lassi_diagnostics_total", &[("stage", "sema")]),
            3.0
        );
        assert_eq!(sum(TEXT, "lassi_diagnostics_total", &[]), 8.0);
        assert_eq!(sum(TEXT, "lassi_http_requests_total", &[]), 7.0);
        assert_eq!(sum(TEXT, "missing", &[]), 0.0);
    }

    #[test]
    fn reads_escaped_label_values() {
        let parsed: Vec<_> = TEXT.lines().filter_map(parse_line).collect();
        let (_, labels, _) = &parsed[6];
        assert_eq!(labels[0], ("code".to_string(), "a\"b".to_string()));
    }
}
