//! Sample statistics, the system-information block and the result line.

use std::process::Command;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == name) {
            e.1 = value;
            e.2 = unit;
        } else {
            self.entries.push((name.to_string(), value, unit));
        }
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// One `name  value unit` line per metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            out.push_str(&format!("  {name:<28} {value:>18.6} {unit}\n"));
        }
        out
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Civil UTC date and time from Unix seconds (proleptic Gregorian).
fn utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    // Howard Hinnant's days-to-civil.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02} UTC",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The system-information block printed with every result, so numbers
/// from different hosts are never compared blind.
pub fn system_info() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let os = read("/etc/os-release").and_then(|t| {
        t.lines()
            .find_map(|l| l.strip_prefix("PRETTY_NAME="))
            .map(|v| v.trim_matches('"').to_string())
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let rows = [
        ("Kernel", read("/proc/sys/kernel/osrelease")),
        ("Architecture", Some(std::env::consts::ARCH.to_string())),
        ("OS", os),
        ("Rust", command_line("rustc", &["--version"])),
        ("nproc", Some(nproc.to_string())),
        (
            "Commit",
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
        ("Date", Some(utc(now))),
    ];
    let mut out =
        String::from("## System Information\n\n| Property | Value |\n|----------|-------|\n");
    for (k, v) in rows {
        out.push_str(&format!(
            "| {k} | {} |\n",
            v.unwrap_or_else(|| "unavailable".into())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn utc_formats_known_instants() {
        assert_eq!(utc(0), "1970-01-01 00:00:00 UTC");
        assert_eq!(utc(951_782_400), "2000-02-29 00:00:00 UTC");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.25, "s");
        m.count("refs", 7);
        let line = m.result_line(true, 3, 0);
        let v = serde_json::value_from_str(&line).expect("valid JSON");
        let metric = |name: &str, key: &str| v.get("metrics")?.get(name)?.get(key).cloned();
        assert_eq!(
            metric("wall_s", "value").and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            metric("refs", "unit").and_then(|x| x.as_str().map(String::from)),
            Some("count".into())
        );
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(3));
    }
}
