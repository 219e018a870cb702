//! # bench — figure reproductions and micro-benchmarks
//!
//! * `src/bin/` contains one binary per figure family of the paper
//!   (`fig1_teaser`, `fig6_abtree`, `fig8_time_varying`, …). Each prints the
//!   same series/rows the paper plots and accepts `--threads`, `--seconds`,
//!   `--scale`, `--updaters`, `--tms` and `--csv` (see
//!   [`harness::BenchArgs`]). Scale 1.0 reproduces the paper's 1M-key
//!   configuration; the defaults are laptop-sized.
//! * `benches/` contains three Criterion micro-benchmarks below the figure
//!   level: raw TM operations per TM (`stm_microbench`), the Multiverse
//!   substrates (`substrate_microbench`) and the `txset` hot-path
//!   primitives (`txset_microbench`), sized so `cargo bench -p bench`
//!   completes in minutes. The figures themselves are measured only by the
//!   `src/bin/` binaries.
//!
//! This library crate only hosts small helpers shared by those targets.

use harness::{KeyDist, WorkloadMix, WorkloadSpec};

/// The standard tree workloads of Figure 6 (and Figure 1), scaled by `scale`.
///
/// Returns `(label, spec)` pairs: {0, `updaters`} dedicated updaters ×
/// {no-RQ, 0.01% RQ} mixes.
pub fn fig6_workloads(scale: f64, updaters: usize, dist: KeyDist) -> Vec<(String, WorkloadSpec)> {
    let dist_label = match dist {
        KeyDist::Uniform => "uniform",
        KeyDist::Zipfian(_) => "zipf-0.9",
    };
    let mut out = Vec::new();
    for ups in [0usize, updaters] {
        for (mix_label, mix) in [
            (
                "90% search, 0% RQ, 5% ins, 5% del",
                WorkloadMix::no_rq_90_5_5(),
            ),
            (
                "89.99% search, 0.01% RQ, 5% ins, 5% del",
                WorkloadMix::rq_8999_001_5_5(),
            ),
        ] {
            out.push((
                format!("{dist_label}, {ups} updaters, {mix_label}"),
                WorkloadSpec::paper_tree(scale, mix, dist, ups),
            ));
        }
    }
    out
}

/// Print a short banner describing how a figure run was scaled relative to
/// the paper's setup.
pub fn print_scale_banner(figure: &str, scale: f64, seconds: f64) {
    println!(
        "# {figure}: scale={scale} (1.0 = paper's 1M-key prefill), {seconds}s per trial \
         (paper: 20s x 5 trials); shapes, not absolute numbers, are the comparison target."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_has_four_workloads() {
        let w = fig6_workloads(0.01, 16, KeyDist::Uniform);
        assert_eq!(w.len(), 4);
        assert!(w[0].0.contains("0 updaters"));
        assert!(w[3].0.contains("16 updaters"));
        assert_eq!(w[0].1.prefill, 10_000);
    }
}
