//! An untraced run is measured in [`PARTS`] child processes, one after
//! the other, each with its own set-up and a share of the time.
//! Back-to-back single-process runs of one seed differ by more than the
//! noise inside a run (memory layout and thread placement are fixed for
//! a process's life); pooling the samples of several processes keeps
//! any one of them from setting a run's figures.
//!
//! A child prints its raw data as lines `@ <key> <value>...`; the parent
//! pools them.

use std::process::{Command, Stdio};

/// Child processes per untraced run.
pub const PARTS: usize = 3;

/// The data lines of one child.
pub struct Part(Vec<(String, Vec<f64>)>);

impl Part {
    fn parse(stdout: &str) -> Result<Part, String> {
        let mut lines = Vec::new();
        for line in stdout.lines() {
            let Some(rest) = line.strip_prefix("@ ") else {
                continue;
            };
            let mut words = rest.split_whitespace();
            let key = words.next().ok_or("empty data line")?.to_string();
            let values = words
                .map(|w| {
                    w.parse::<f64>()
                        .map_err(|_| format!("bad value {w:?} in {line:?}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            lines.push((key, values));
        }
        Ok(Part(lines))
    }

    /// Every line with `key`, in order.
    pub fn rows<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a [f64]> + 'a {
        self.0
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// The single line with `key`.
    pub fn one(&self, key: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("child printed no {key} line"))
    }
}

/// Prints one data line.
pub fn emit(key: &str, values: &[f64]) {
    let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    println!("@ {key} {}", values.join(" "));
}

/// Runs the [`PARTS`] children of an untraced run and collects their
/// data; fails when a child fails.
pub fn run(workload: &str, seed: u64, seconds: u64) -> Result<Vec<Part>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    (0..PARTS)
        .map(|k| {
            let out = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", "0"])
                .args(["--part", &format!("{k}/{PARTS}")])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run part {k}: {e}"))?;
            if !out.status.success() {
                return Err(format!("part {k} failed: {}", out.status));
            }
            Part::parse(&String::from_utf8_lossy(&out.stdout))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_lines_round_trip() {
        let part =
            Part::parse("noise\n@ sample 3 1.25 1\n@ rss 49.5\n@ sample 4 2 0\n").expect("parses");
        let samples: Vec<&[f64]> = part.rows("sample").collect();
        assert_eq!(samples, vec![&[3.0, 1.25, 1.0][..], &[4.0, 2.0, 0.0][..]]);
        assert_eq!(part.one("rss"), &[49.5]);
        assert!(Part::parse("@ x notanumber").is_err());
    }
}
