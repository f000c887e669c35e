//! Small numeric and text helpers: seeded randomness, quantiles, the
//! server's latency-histogram bucket bounds, and just enough JSON to read
//! a metrics frame and write the result line.

use std::time::{Duration, Instant};

/// splitmix64: the benchmark's only source of randomness, so a seed fixes
/// inputs, arrival schedules and revision weights.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Poisson arrival offsets at `rate` per second over `span`.
pub fn poisson_offsets(rng: &mut Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let mut out = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 16);
    let mut t = 0.0_f64;
    let end = span.as_secs_f64();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Linear-interpolated quantile of an unsorted sample (sorts in place).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median wall time in microseconds of `f`, timed in `rounds` rounds of
/// `iters` calls each after one untimed round.
pub fn time_us(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    median(&mut samples)
}

/// Iterations that make one timed round of `f` last about `target`.
pub fn calibrate(target: Duration, mut f: impl FnMut()) -> usize {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(50));
    ((target.as_secs_f64() / once.as_secs_f64()) as usize).clamp(1, 1_000_000)
}

/// Exclusive upper bound in µs of bucket `i` of the server's log-linear
/// latency histogram (16 unit buckets, then 16 sub-buckets per octave) —
/// the value the server itself reports for a quantile in that bucket.
pub fn bucket_upper_micros(i: usize) -> u64 {
    const SUB: usize = 16;
    if i < SUB {
        return i as u64 + 1;
    }
    let octave = (i - SUB) / SUB;
    let sub = ((i - SUB) % SUB) as u64;
    (SUB as u64 + sub + 1) << octave
}

/// Quantile in µs over histogram bucket counts: the server's bucket
/// choice, interpolated linearly by rank inside the bucket instead of
/// reporting its upper bound.
pub fn bucket_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        if seen + c >= rank {
            let lower = if i == 0 {
                0
            } else {
                bucket_upper_micros(i - 1)
            };
            let upper = bucket_upper_micros(i);
            let within = (rank - seen) as f64 / c as f64;
            return lower as f64 + (upper - lower) as f64 * within;
        }
        seen += c;
    }
    bucket_upper_micros(counts.len() - 1) as f64
}

/// First `"key":<number>` in `json`.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// First `"key":[n,n,...]` in `json`.
pub fn json_u64_array(json: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let start = json.find(&pat)? + pat.len();
    let end = start + json[start..].find(']')?;
    json[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().ok())
        .collect()
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_match_the_server() {
        assert_eq!(bucket_upper_micros(3), 4);
        assert_eq!(bucket_upper_micros(57), 104);
        assert_eq!(bucket_upper_micros(112), 1088);
        assert_eq!(bucket_upper_micros(163), 10_240);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        let mut counts = vec![0u64; 64];
        counts[57] = 4; // [100, 104) µs
        assert_eq!(bucket_quantile(&counts, 0.5), 102.0);
        assert_eq!(bucket_quantile(&counts, 1.0), 104.0);
        assert_eq!(bucket_quantile(&[0, 0], 0.5), 0.0);
    }

    #[test]
    fn json_extraction_reads_numbers_and_arrays() {
        let j = r#"{"submitted":12,"mean_batch_size":3.500,"latency_buckets":[0,2,1]}"#;
        assert_eq!(json_number(j, "submitted"), Some(12.0));
        assert_eq!(json_number(j, "mean_batch_size"), Some(3.5));
        assert_eq!(json_u64_array(j, "latency_buckets"), Some(vec![0, 2, 1]));
        assert_eq!(json_number(j, "missing"), None);
    }

    #[test]
    fn quantile_interpolates() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
    }
}
