//! The paper's experiments (§5) and Table 1, one `--figure` name each:
//!
//! ```text
//! cargo run --release -p bench --bin figures -- --figure fig1,fig6 [--threads 1,2,4]
//!     [--seconds N] [--scale F] [--updaters N] [--tms multiverse,dctl,...] [--csv]
//! ```
//!
//! `--figure all` runs every figure in the paper's order; `--help` lists
//! the names. Scale 1.0 reproduces the paper's 1M-key configuration; the
//! defaults are laptop-sized. See `harness::figures`.

use harness::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    if args.figures.is_empty() {
        eprintln!("figures: --figure is required\n{}", BenchArgs::usage());
        std::process::exit(2);
    }
    for figure in &args.figures {
        figure.run(&args);
    }
}
