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
    println!("  bench       per-figure reproduction binaries + Criterion micro-benches");
    println!();
    println!("Examples:   cargo run --release --example quickstart");
    println!("            cargo run --release --example bank");
    println!("            cargo run --release --example range_query_analytics");
    println!("            cargo run --release --example time_varying_modes");
    println!();
    println!("Figures:    cargo run --release -p bench --bin fig1_teaser -- --help");
    println!("            (fig1_teaser, fig3_4_access_counts, fig6_abtree, fig7_flawed_workload,");
    println!("             fig8_time_varying, fig9_memory, fig11_avl, fig12_extbst,");
    println!("             fig13_hashmap, modes_table)");
    println!();
    println!("Tests:      cargo test --workspace");
    println!("Benchmark:  cargo run --release --manifest-path benchmark/Cargo.toml -- run --smoke");
    println!("Benches:    cargo bench --workspace");
    println!("See TESTING.md (checkers and tests), benchmark/README.md (the benchmark)");
    println!("and ROADMAP.md (status and open items).");
}
