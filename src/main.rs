//! `multiverse-repro` — entry point that lists the pieces of the
//! reproduction and how to run them.

fn main() {
    println!("Multiverse: Transactional Memory with Dynamic Multiversioning — Rust reproduction");
    println!();
    println!("Crates:");
    println!("  tm-api      shared STM primitives (TxWord, versioned locks, clock, traits)");
    println!("  ebr         epoch-based reclamation with revocable retires");
    println!("  multiverse  the Multiverse STM (versioned/unversioned paths, modes, bg thread)");
    println!("  baselines   TL2, DCTL, NOrec, TinySTM-style, global-lock oracle");
    println!("  txstructs   (a,b)-tree, AVL, external BST, hashmap, linked list");
    println!("  harness     workload generator, dedicated updaters, drivers, measurements");
    println!("  wal         write-ahead log: group commit, checkpoints, recovery");
    println!("  store       keyed KV service with a checksummed protocol and a std-only server");
    println!("  sim         schedule explorer behind the `sim` feature");
    println!("  bench       `figures` (the paper's experiments), `bench_trajectory` (micro)");
    println!();
    println!("Examples:   cargo run --release --example quickstart");
    println!("            cargo run --release --example bank");
    println!("            cargo run --release --example range_query_analytics");
    println!("            cargo run --release --example time_varying_modes");
    println!();
    println!("Figures:    cargo run --release -p bench --bin figures -- --figure all|fig1,...");
    println!("            (fig1, fig3-4, fig6, fig7, fig8, fig9, fig11, fig12, fig13, modes;");
    println!("             --help lists the flags)");
    println!();
    println!("Tests:      cargo test --workspace");
    println!("Checkers:   cargo run --release -p harness --features record --bin harness -- check");
    println!("            (`explore` needs --features sim, `crash` --features crashpoint)");
    println!("Benchmark:  cargo run --release --manifest-path benchmark/Cargo.toml -- run --smoke");
    println!("Benches:    cargo run --release -p bench --bin bench_trajectory  (writes BENCH_txset.json)");
    println!("See TESTING.md (checkers and tests), benchmark/README.md (the benchmark)");
    println!("and ROADMAP.md (status and open items).");
}
