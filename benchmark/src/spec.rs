//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table printed by `mvbench manifest`; `tests/smoke.rs`
//! fails when the two drift apart.

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "point-mix",
        why: "paper's common case, no long reads: Mode-Q begin/read/commit + abtree + ebr pools; versioning, mode machine, store, wal idle, so a versioned-path or server change predicts no change",
    },
    Workload {
        name: "zipf-update",
        why: "same TM layer, write-heavy and contended (Zipf 0.9, 50% updates): stripe locks, backoff, clock ticks, node-pool churn; a read-path gain that costs commits shows here",
    },
    Workload {
        name: "scan-under-updates",
        why: "paper's headline: 40000-key range queries under a dedicated updater; versioned reads, version lists, arena, K1/K2/K3 heuristics and ebr carry the time; store and wal idle",
    },
    Workload {
        name: "mode-shift",
        why: "the 'dynamic' in dynamic multiversioning: point-mix throughput after long reads stop (U-to-Q return, background unversioning, sticky Mode-U flags); same point path, different TM state",
    },
    Workload {
        name: "kv-blocking",
        why: "one connection, window 1: request latency is handoff + wake-ups + syscalls + codec + dispatch; the TM is under 2%, so a TM change predicts no change and a handoff change shows at full size",
    },
    Workload {
        name: "kv-pipelined",
        why: "two connections, window 16: the server used the other way, coalescing adjacent requests into one commit and ordering responses; throughput rather than wake latency",
    },
    Workload {
        name: "kv-durable",
        why: "kv-pipelined traffic with the WAL on (group commit every 500 us, fsync), then graceful shutdown and recovery: isolates the wal layer end to end and checks durability",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports all of these for its own unit of work (a set
/// operation, a range query, a request); see the README for the mapping.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics of the traced pass, `<module>.<metric>`. A workload
/// that does not exercise a layer reports its metrics as 0.
pub const PER_LAYER: [Layer; 69] = [
    // Unversioned TM path against the algorithm it is built on.
    layer("multiverse.begin_commit_empty_ns", "ns", "lower"),
    layer("multiverse.ro8_q_ns", "ns", "lower"),
    layer("multiverse.upd2_q_ns", "ns", "lower"),
    layer("multiverse.read_q_ns", "ns", "lower"),
    layer("baselines.dctl_ro8_ns", "ns", "lower"),
    layer("baselines.dctl_upd2_ns", "ns", "lower"),
    layer("baselines.dctl_ops_per_s", "1/s", "higher"),
    layer("multiverse.vs_dctl_ratio", "ratio", "higher"),
    // Versioned path.
    layer("multiverse.ro8_u_ns", "ns", "lower"),
    layer("multiverse.read_versioned_ns", "ns", "lower"),
    layer("multiverse.upd2_u_ns", "ns", "lower"),
    layer("txstructs.scan_versioned_ns_per_key", "ns", "lower"),
    layer("multiverse.attempts_per_rq", "ratio", "lower"),
    layer("multiverse.versioned_commit_share", "ratio", "higher"),
    layer("multiverse.mode_u_share", "ratio", "higher"),
    layer("multiverse.addresses_versioned", "count", "lower"),
    layer("multiverse.versioning_mb_end", "MB", "lower"),
    layer("baselines.dctl_rq_per_s", "1/s", "higher"),
    layer("multiverse.rq_vs_dctl_ratio", "ratio", "higher"),
    layer("update_ops_per_s", "1/s", "higher"),
    // Mode machine.
    layer("multiverse.mode_transitions", "count", "lower"),
    layer("multiverse.buckets_unversioned", "count", "higher"),
    layer("multiverse.mode_u_commit_share", "ratio", "lower"),
    layer("multiverse.before_ops_per_s", "1/s", "higher"),
    layer("multiverse.after_over_before", "ratio", "higher"),
    layer("multiverse.mode_at_end", "mode", "lower"),
    // Useful outcomes per attempt.
    layer("multiverse.aborts_per_commit", "ratio", "lower"),
    layer("multiverse.gave_up", "count", "lower"),
    layer("tm-api.clock_tick_retries_per_tick", "ratio", "lower"),
    layer("ebr.pool_hit_ratio", "ratio", "higher"),
    layer("ebr.pool_steals", "count", "lower"),
    layer("ebr.recycled_per_retire", "ratio", "higher"),
    layer("txstructs.pool_class_hit_ratio", "ratio", "higher"),
    layer("txstructs.pool_class_steals", "count", "lower"),
    // Structure operations.
    layer("txstructs.get_ns", "ns", "lower"),
    layer("txstructs.insert_remove_ns", "ns", "lower"),
    layer("txstructs.scan_quiet_ns_per_key", "ns", "lower"),
    layer("txstructs.reads_per_op", "ratio", "lower"),
    // Wire codec.
    layer("store.proto.encode_req1_ns", "ns", "lower"),
    layer("store.proto.decode_req1_ns", "ns", "lower"),
    layer("store.proto.encode_resp1_ns", "ns", "lower"),
    layer("store.proto.decode_resp1_ns", "ns", "lower"),
    layer("store.proto.encode_req16_ns", "ns", "lower"),
    layer("store.proto.decode_req16_ns", "ns", "lower"),
    layer("store.proto.encode_resp16_ns", "ns", "lower"),
    layer("store.proto.decode_resp16_ns", "ns", "lower"),
    layer("store.proto.req1_frame_bytes", "bytes", "lower"),
    // KV dispatch, in process.
    layer("store.kv.validate_ns", "ns", "lower"),
    layer("store.kv.execute_get_ns", "ns", "lower"),
    layer("store.kv.execute_put_ns", "ns", "lower"),
    layer("store.kv.execute_batch16_ns_per_op", "ns", "lower"),
    // Server: what is left of a request once the layers above are paid.
    layer("store.server.loopback_floor_us", "us", "lower"),
    layer("store.server.unexplained_us", "us", "lower"),
    layer("store.server.req_p999_us", "us", "lower"),
    layer("store.server.requests_per_batch", "ratio", "higher"),
    layer("store.server.protocol_errors", "count", "lower"),
    layer("store.server.shutdown_ms", "ms", "lower"),
    // Write-ahead log.
    layer("wal.tap_ns", "ns", "lower"),
    layer("wal.appends_per_fsync", "ratio", "higher"),
    layer("wal.bytes_per_update_op", "bytes", "lower"),
    layer("wal.fsyncs", "count", "lower"),
    layer("wal.finish_ms", "ms", "lower"),
    layer("wal.recover_ms", "ms", "lower"),
    layer("wal.recovered_records", "count", "higher"),
    layer("wal.durable_cost_pct", "%", "lower"),
    // The tail beyond the end-to-end p95: demoted, its run-to-run spread is
    // too wide to gate on (see the README).
    layer("lat_p99_us", "us", "lower"),
    // Process.
    layer("process.peak_rss_mb", "MB", "lower"),
    layer("process.cpu_s_per_mop", "s", "lower"),
    layer("process.trace_overhead_pct", "%", "lower"),
];

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}
