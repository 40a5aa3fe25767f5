//! `benchmark aa` and `benchmark compare`: judging two sets of runs.
//! Both only read the runner's JSON summary lines, one file per
//! workload (`<dir>/<workload>.jsonl`, one line per run).
//!
//! * `aa` runs the same build as interleaved sets and asks whether
//!   they agree within each metric's bound.
//! * `compare` applies the rule for claiming a gain: at least ten
//!   pairs, the change wins nine tenths of them (ties count for
//!   neither), and the medians differ by more than the distance
//!   between the parent's own quartiles.

use crate::contract::{Better, Metric, END_TO_END};
use crate::report::Summary;
use crate::stats::{median, quartiles};
use crate::workload::SPECS;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// End-to-end metrics that count properties of the inputs instead of
/// timing them: the same seed must give the same value to the last
/// digit, whatever the machine is doing.
const REPEATS_EXACTLY: [&str; 2] = ["precision", "bytes_per_row"];

/// Median, quartiles and spread of one metric over one set of runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First quartile (Python `statistics.quantiles(n=4)`).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Spread {
        let (q1, q3) = quartiles(values);
        Spread {
            median: median(values),
            q1,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// By what share of `a`'s median `b`'s median is worse (positive) or
/// better (negative), in the metric's own direction.
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// How two sets of the same build relate on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agreement {
    /// Medians agree within the bound and both spreads are inside it.
    Pass,
    /// A spread is wider than the bound: the runs cannot tell.
    Unresolved,
    /// Spreads are narrow and the medians still disagree.
    Fail,
}

/// The A/A verdict for one metric on one workload.
pub fn agreement(metric: &Metric, a: &[f64], b: &[f64]) -> Agreement {
    let bound = metric.bound.expect("only end-to-end metrics are judged");
    let (sa, sb) = (Spread::of(a), Spread::of(b));
    if sa.relative_iqr() > bound || sb.relative_iqr() > bound {
        Agreement::Unresolved
    } else if worsening(metric, sa.median, sb.median).abs() > bound {
        Agreement::Fail
    } else {
        Agreement::Pass
    }
}

/// `(pairs the change wins, pairs)` with runs paired by position; a
/// tie counts for neither side.
fn wins(metric: &Metric, a: &[f64], b: &[f64]) -> (usize, usize) {
    let pairs = a.len().min(b.len());
    let won = (0..pairs)
        .filter(|&i| worsening(metric, a[i], b[i]) < 0.0)
        .count();
    (won, pairs)
}

/// What `compare` concludes about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B wins ≥ 9/10 of ≥ 10 pairs and the gap exceeds A's IQR.
    Gain,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The spread is wider than the bound and the runs overlap.
    Unresolved,
    /// None of the above.
    NoChange,
}

/// Applies the paired rule to runs of parent `a` and change `b`
/// (paired by position; extra runs on one side are ignored).
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("only end-to-end metrics are judged");
    let better = |x: f64, y: f64| worsening(metric, y, x) < 0.0;
    let (wins, pairs) = wins(metric, a, b);
    let (sa, sb) = (Spread::of(a), Spread::of(b));
    let worse_by = worsening(metric, sa.median, sb.median);
    let gap = (sb.median - sa.median).abs();
    if pairs >= 10 && wins * 10 >= pairs * 9 && worse_by < 0.0 && gap > sa.q3 - sa.q1 {
        return Verdict::Gain;
    }
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if sa.relative_iqr().max(sb.relative_iqr()) > bound && !every_b_better {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::NoChange
    }
}

/// Reads `<dir>/<workload>.jsonl`: one summary per line.
fn read_set(dir: &Path, workload: &str) -> Result<Vec<Summary>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Summary::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn values(set: &[Summary], metric: &str) -> Result<Vec<f64>, String> {
    set.iter()
        .map(|s| {
            s.value(metric)
                .ok_or_else(|| format!("a run lacks `{metric}`"))
        })
        .collect()
}

fn spread_text(s: &Spread) -> String {
    format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3)
}

fn all_correct(sets: &[&[Summary]]) -> bool {
    sets.iter()
        .flat_map(|s| s.iter())
        .all(|s| s.correct && s.failed == 0)
}

/// `benchmark compare <a-dir> <b-dir>`: prints one row per metric ×
/// workload and returns whether no regression was found.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    println!("workload metric A:median[q1,q3] B:median[q1,q3] worse_by wins/pairs verdict");
    for spec in &SPECS {
        let (a, b) = (read_set(a_dir, spec.name)?, read_set(b_dir, spec.name)?);
        if !all_correct(&[&a, &b]) {
            println!("{} has incorrect or failed runs", spec.name);
            ok = false;
        }
        for m in &END_TO_END {
            let (va, vb) = (values(&a, m.name)?, values(&b, m.name)?);
            let (wins, pairs) = wins(m, &va, &vb);
            let v = verdict(m, &va, &vb);
            ok &= v != Verdict::Regression;
            println!(
                "{} {} {} {} {:+.4} {wins}/{pairs} {v:?}",
                spec.name,
                m.name,
                spread_text(&Spread::of(&va)),
                spread_text(&Spread::of(&vb)),
                worsening(m, median(&va), median(&vb)),
            );
        }
    }
    Ok(ok)
}

/// Runs the runner once (this same executable) and returns its
/// summary line.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last() {
        Some(line) if out.status.success() => Ok(line.to_owned()),
        _ => Err(format!(
            "run of {workload} seed {seed} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// `benchmark aa`: `sets` interleaved sets of `runs` runs (run `r`
/// uses seed `r + 1` in every set, as the driver gives every run
/// another seed) over all workloads, written under `out/set<k>/`,
/// then judged pairwise against the first set: spreads and the
/// disagreement of the medians against the bound, and for the counted
/// metrics exact equality run by run. Returns whether every metric on
/// every workload passed.
pub fn aa(sets: usize, runs: usize, seconds: f64, out: &Path) -> Result<bool, String> {
    let dirs: Vec<PathBuf> = (0..sets).map(|k| out.join(format!("set{k}"))).collect();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    for run in 0..runs {
        for dir in &dirs {
            for spec in &SPECS {
                let line = run_once(spec.name, run as u64 + 1, seconds)?;
                eprintln!("{} run {run}: {}", dir.display(), spec.name);
                let path = dir.join(format!("{}.jsonl", spec.name));
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
    }
    let mut ok = true;
    println!("workload metric set:median[q1,q3]... iqr/median... disagreement bound verdict");
    for spec in &SPECS {
        let loaded: Vec<Vec<Summary>> = dirs
            .iter()
            .map(|d| read_set(d, spec.name))
            .collect::<Result<_, _>>()?;
        if !all_correct(&loaded.iter().map(Vec::as_slice).collect::<Vec<_>>()) {
            println!("{} has incorrect or failed runs", spec.name);
            ok = false;
        }
        for m in &END_TO_END {
            let per_set: Vec<Vec<f64>> = loaded
                .iter()
                .map(|s| values(s, m.name))
                .collect::<Result<_, _>>()?;
            let spreads: Vec<Spread> = per_set.iter().map(|v| Spread::of(v)).collect();
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // With a single set there is nothing to disagree with; the
            // spread alone is judged.
            let mut worst = if spreads.iter().any(|s| s.relative_iqr() > bound) {
                Agreement::Unresolved
            } else {
                Agreement::Pass
            };
            let mut disagreement = 0.0f64;
            for other in &per_set[1..] {
                let d = worsening(m, spreads[0].median, median(other));
                if d.abs() > disagreement.abs() {
                    disagreement = d;
                }
                worst = match (worst, agreement(m, &per_set[0], other)) {
                    (Agreement::Fail, _) | (_, Agreement::Fail) => Agreement::Fail,
                    (Agreement::Unresolved, _) | (_, Agreement::Unresolved) => {
                        Agreement::Unresolved
                    }
                    _ => Agreement::Pass,
                };
            }
            // Run `r` has the same seed in every set, so a counted
            // metric must read the same in all of them.
            let repeats = !REPEATS_EXACTLY.contains(&m.name)
                || per_set[1..].iter().all(|other| other == &per_set[0]);
            ok &= worst == Agreement::Pass && repeats;
            println!(
                "{} {} {} iqr/median {} disagreement {:+.4} bound {} {}",
                spec.name,
                m.name,
                spreads
                    .iter()
                    .map(spread_text)
                    .collect::<Vec<_>>()
                    .join(" | "),
                spreads
                    .iter()
                    .map(|s| format!("{:.4}", s.relative_iqr()))
                    .collect::<Vec<_>>()
                    .join(" | "),
                disagreement,
                bound,
                match worst {
                    _ if !repeats => "FAIL (differs between sets at the same seed)",
                    Agreement::Pass => "PASS",
                    Agreement::Unresolved => "UNRESOLVED",
                    Agreement::Fail => "FAIL",
                },
            );
        }
    }
    Ok(ok)
}

/// `benchmark baseline`: `runs` runs of every workload at one seed,
/// written as `<out>/<workload>.json` — per end-to-end metric the
/// median, the quartiles and every value, beside the fingerprint of
/// the machine that measured them. A later change is compared with
/// runs of its parent made on the same machine at the same time
/// (`compare`); the committed baseline records what the numbers
/// looked like, and where, when the benchmark was defined.
pub fn baseline(runs: usize, seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let env = crate::env::fingerprint(&crate::setup::out_dir())
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "/").replace('"', "'")))
        .collect::<Vec<_>>()
        .join(", ");
    let mut ok = true;
    for spec in &SPECS {
        let set: Vec<Summary> = (0..runs)
            .map(|run| {
                eprintln!("baseline run {run}: {}", spec.name);
                run_once(spec.name, seed, seconds).and_then(|line| Summary::parse(&line))
            })
            .collect::<Result<_, _>>()?;
        ok &= all_correct(&[&set]);
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let v = values(&set, m.name)?;
                let s = Spread::of(&v);
                Ok(format!(
                    "    \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                    m.name,
                    m.unit,
                    s.median,
                    s.q1,
                    s.q3,
                    v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
                ))
            })
            .collect::<Result<Vec<_>, String>>()?
            .join(",\n");
        let text = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"runs\": {runs},\n  \"run_seconds\": {seconds},\n  \"env\": {{{env}}},\n  \"metrics\": {{\n{metrics}\n  }}\n}}\n",
            spec.name
        );
        let path = out.join(format!("{}.json", spec.name));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with a 10 % bound, whatever the contract declares.
    fn qps() -> &'static Metric {
        &Metric {
            name: "qps",
            unit: "req/s",
            better: Better::Higher,
            bound: Some(0.10),
        }
    }

    fn p50() -> &'static Metric {
        &Metric {
            name: "p50_us",
            unit: "us",
            better: Better::Lower,
            bound: Some(0.10),
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(qps(), 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(qps(), 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(p50(), 100.0, 110.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn same_build_sets_pass_when_tight_and_are_unresolved_when_wide() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let b = [100.4, 99.5, 101.2, 100.1, 99.9];
        assert_eq!(agreement(qps(), &a, &b), Agreement::Pass);
        let wide = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(agreement(qps(), &a, &wide), Agreement::Unresolved);
        let shifted = [80.0, 80.5, 79.5, 80.2, 79.9];
        assert_eq!(agreement(qps(), &a, &shifted), Agreement::Fail);
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_tenths_wins_and_a_gap_above_the_parents_iqr() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(qps(), &a, &b), Verdict::Gain);
        // Nine pairs are not enough, however clear.
        assert_eq!(verdict(qps(), &a[..9], &b[..9]), Verdict::NoChange);
        // Eight wins of ten are not nine tenths.
        let mut mixed = b.clone();
        mixed[0] = a[0] - 1.0;
        mixed[1] = a[1] - 1.0;
        assert_eq!(verdict(qps(), &a, &mixed), Verdict::NoChange);
        // A gap inside the parent's own IQR is not a gain.
        let tiny: Vec<f64> = a.iter().map(|x| x + 0.1).collect();
        assert_eq!(verdict(qps(), &a, &tiny), Verdict::NoChange);
    }

    #[test]
    fn regressions_and_wide_spreads_are_told_apart() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 0.85).collect();
        assert_eq!(verdict(qps(), &a, &slower), Verdict::Regression);
        let noisy: Vec<f64> = (0..10).map(|i| 60.0 + i as f64 * 9.0).collect();
        assert_eq!(verdict(qps(), &a, &noisy), Verdict::Unresolved);
        // Wide but every run better than every parent run: resolved.
        let better: Vec<f64> = (0..10).map(|i| 150.0 + i as f64 * 9.0).collect();
        assert_eq!(verdict(qps(), &a, &better), Verdict::Gain);
    }

    #[test]
    fn spread_uses_python_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.median, s.q1, s.q3), (5.5, 2.75, 8.25));
        assert_eq!(s.relative_iqr(), 1.0);
    }
}
