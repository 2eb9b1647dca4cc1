//! Metric values, the host fingerprint, and the JSON the run prints.

use std::fmt::Write;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values, which JSON cannot hold, become null.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

/// What a result was measured on. Results whose `key` differs come
/// from a different host (or toolchain) and have no baseline to be
/// compared with.
pub struct Host {
    pub nproc: usize,
    pub features: Vec<&'static str>,
    pub rustc: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        let mut features = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("fma") {
                features.push("fma");
            }
            if std::is_x86_feature_detected!("avx2") {
                features.push("avx2");
            }
            if std::is_x86_feature_detected!("avx512f") {
                features.push("avx512f");
            }
        }
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            features,
            rustc: env!("E2EBENCH_RUSTC_VERSION"),
        }
    }

    pub fn key(&self) -> String {
        let version = self.rustc.split_whitespace().nth(1).unwrap_or("unknown");
        let mut key = format!("nproc{}", self.nproc);
        for f in &self.features {
            key.push('-');
            key.push_str(f);
        }
        key.push_str("-rustc");
        key.push_str(version);
        key
    }

    pub fn json(&self) -> String {
        let features: Vec<String> = self.features.iter().map(|f| string(f)).collect();
        format!(
            "{{\"key\":{},\"nproc\":{},\"features\":[{}],\"rustc\":{}}}",
            string(&self.key()),
            self.nproc,
            features.join(","),
            string(self.rustc)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_allowed_alphabet() {
        assert!(valid_name("p99_ms.25k"));
        assert!(valid_name("net.queue_wait_us.p50"));
        assert!(valid_name("wire_skew_swap"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("p99/ms"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("qps", 1.5, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"qps\":{\"value\":1.5,\"unit\":\"1/s\"}}}"
        );
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn host_key_names_cores_features_and_compiler() {
        let host = Host {
            nproc: 2,
            features: vec!["fma", "avx2"],
            rustc: "rustc 1.95.0 (59807616e 2026-04-14)",
        };
        assert_eq!(host.key(), "nproc2-fma-avx2-rustc1.95.0");
        assert!(host
            .json()
            .starts_with("{\"key\":\"nproc2-fma-avx2-rustc1.95.0\""));
    }
}
