//! A small `printf` formatter covering the conversions the benchmark
//! applications use (`%d`, `%ld`, `%u`, `%lu`, `%zu`, `%f`, `%.Nf`, `%e`,
//! `%g`, `%s`, `%c`, `%%`).
//!
//! Output equivalence between the original and LASSI-generated program is
//! judged on this text, so the formatter is deterministic and
//! locale-independent.

use crate::value::Value;

/// Format `args` according to the C-style format string `fmt`. `%s`
/// arguments that are string literals resolve through `strings`, the pool of
/// the program that issued them (see [`Value::Str`]).
///
/// Unknown conversions are emitted literally; missing arguments format as
/// `0`, mirroring the forgiving behaviour the pipeline needs when judging
/// partially wrong generated code.
pub fn format(fmt: &str, args: &[Value], strings: &[String]) -> String {
    let mut out = String::with_capacity(fmt.len() + 16);
    let chars: Vec<char> = fmt.chars().collect();
    let mut i = 0;
    let mut arg_idx = 0;

    let next_arg = |arg_idx: &mut usize| -> Value {
        let v = args.get(*arg_idx).copied().unwrap_or(Value::Int(0));
        *arg_idx += 1;
        v
    };

    while i < chars.len() {
        let c = chars[i];
        if c != '%' {
            out.push(c);
            i += 1;
            continue;
        }
        // A '%' conversion.
        i += 1;
        if i >= chars.len() {
            out.push('%');
            break;
        }
        if chars[i] == '%' {
            out.push('%');
            i += 1;
            continue;
        }
        // Optional width.precision, e.g. %8.3f, %.2f, %5d
        let mut width = String::new();
        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.' || chars[i] == '-') {
            width.push(chars[i]);
            i += 1;
        }
        // Length modifiers.
        while i < chars.len() && matches!(chars[i], 'l' | 'z' | 'h') {
            i += 1;
        }
        if i >= chars.len() {
            out.push('%');
            out.push_str(&width);
            break;
        }
        let conv = chars[i];
        i += 1;
        let (width_spec, precision) = split_width(&width);
        match conv {
            'd' | 'i' | 'u' => {
                let v = next_arg(&mut arg_idx).as_int();
                push_padded(&mut out, &v.to_string(), width_spec);
            }
            'f' | 'F' => {
                let v = next_arg(&mut arg_idx).as_float();
                let prec = precision.unwrap_or(6);
                push_padded(&mut out, &format!("{v:.prec$}"), width_spec);
            }
            'e' | 'E' => {
                let v = next_arg(&mut arg_idx).as_float();
                let prec = precision.unwrap_or(6);
                let s = format!("{v:.prec$e}");
                // C uses at least two exponent digits.
                push_padded(&mut out, &normalize_exponent(&s, conv == 'E'), width_spec);
            }
            'g' | 'G' => {
                let v = next_arg(&mut arg_idx).as_float();
                push_padded(&mut out, &format_g(v), width_spec);
            }
            's' => {
                let s = next_arg(&mut arg_idx).text(strings);
                push_padded(&mut out, &s, width_spec);
            }
            'c' => {
                let v = next_arg(&mut arg_idx).as_int();
                out.push(char::from_u32(v as u32).unwrap_or('?'));
            }
            'x' => {
                let v = next_arg(&mut arg_idx).as_int();
                push_padded(&mut out, &format!("{v:x}"), width_spec);
            }
            other => {
                out.push('%');
                out.push_str(&width);
                out.push(other);
            }
        }
    }
    out
}

fn split_width(spec: &str) -> (Option<i64>, Option<usize>) {
    if spec.is_empty() {
        return (None, None);
    }
    let mut parts = spec.splitn(2, '.');
    let width = parts.next().and_then(|w| {
        if w.is_empty() {
            None
        } else {
            w.parse::<i64>().ok()
        }
    });
    let precision = parts.next().and_then(|p| p.parse::<usize>().ok());
    (width, precision)
}

fn push_padded(out: &mut String, s: &str, width: Option<i64>) {
    match width {
        Some(w) if w >= 0 && (w as usize) > s.len() => {
            for _ in 0..(w as usize - s.len()) {
                out.push(' ');
            }
            out.push_str(s);
        }
        Some(w) if w < 0 && ((-w) as usize) > s.len() => {
            out.push_str(s);
            for _ in 0..((-w) as usize - s.len()) {
                out.push(' ');
            }
        }
        _ => out.push_str(s),
    }
}

fn normalize_exponent(s: &str, upper: bool) -> String {
    // Rust prints `1.5e3`; C prints `1.500000e+03`.
    let mut result = String::with_capacity(s.len() + 2);
    if let Some(pos) = s.find(['e', 'E']) {
        result.push_str(&s[..pos]);
        result.push(if upper { 'E' } else { 'e' });
        let exp = &s[pos + 1..];
        let (sign, digits) = match exp.strip_prefix('-') {
            Some(d) => ('-', d),
            None => ('+', exp.strip_prefix('+').unwrap_or(exp)),
        };
        result.push(sign);
        if digits.len() < 2 {
            result.push('0');
        }
        result.push_str(digits);
        result
    } else {
        s.to_string()
    }
}

fn format_g(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let abs = v.abs();
    if (1e-4..1e6).contains(&abs) {
        let s = format!("{v:.6}");
        trim_zeros(&s)
    } else {
        let s = format!("{v:.5e}");
        normalize_exponent(&trim_zeros(&s), false)
    }
}

fn trim_zeros(s: &str) -> String {
    if !s.contains('.') {
        return s.to_string();
    }
    if let Some(epos) = s.find(['e', 'E']) {
        let (mantissa, exp) = s.split_at(epos);
        return format!("{}{}", trim_zeros(mantissa), exp);
    }
    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
    trimmed.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_integers_and_floats() {
        assert_eq!(
            format("n=%d s=%f\n", &[Value::Int(7), Value::Float(2.5)], &[]),
            "n=7 s=2.500000\n"
        );
        assert_eq!(format("%ld", &[Value::Int(-12)], &[]), "-12");
        assert_eq!(format("%lu", &[Value::Int(12)], &[]), "12");
    }

    #[test]
    fn precision_and_width() {
        assert_eq!(format("%.2f", &[Value::Float(2.46913)], &[]), "2.47");
        assert_eq!(format("%8.3f", &[Value::Float(1.5)], &[]), "   1.500");
        assert_eq!(format("%5d", &[Value::Int(42)], &[]), "   42");
        assert_eq!(format("%-5d|", &[Value::Int(42)], &[]), "42   |");
    }

    #[test]
    fn exponent_format_matches_c() {
        assert_eq!(format("%e", &[Value::Float(1234.5)], &[]), "1.234500e+03");
        assert_eq!(format("%.2e", &[Value::Float(0.00125)], &[]), "1.25e-03");
    }

    #[test]
    fn g_format() {
        assert_eq!(format("%g", &[Value::Float(0.5)], &[]), "0.5");
        assert_eq!(format("%g", &[Value::Float(3.0)], &[]), "3");
        assert_eq!(format("%g", &[Value::Float(0.0)], &[]), "0");
    }

    #[test]
    fn percent_literal_and_strings() {
        assert_eq!(
            format(
                "100%% done: %s",
                &[Value::Str(1)],
                &["unused".into(), "ok".into()]
            ),
            "100% done: ok"
        );
    }

    #[test]
    fn missing_arguments_default_to_zero() {
        assert_eq!(format("%d %d", &[Value::Int(1)], &[]), "1 0");
    }

    #[test]
    fn char_and_hex() {
        assert_eq!(
            format("%c%c", &[Value::Int(104), Value::Int(105)], &[]),
            "hi"
        );
        assert_eq!(format("%x", &[Value::Int(255)], &[]), "ff");
    }
}
