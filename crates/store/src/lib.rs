//! # store — the keyed multi-map / KV front door over the TM
//!
//! This crate turns the transactional structures of [`txstructs`] into a
//! service: a [`kv::Store`] holds named *spaces* (each one structure
//! instance), every request is an atomic batch of point/range operations
//! executed as **one** transaction via the `*_tx` composable ops, and a
//! std-only TCP server ([`server::Server`]) exposes the store over a
//! length-prefixed, checksummed binary protocol ([`proto`]) that reuses the
//! WAL frame discipline — torn or corrupted input degrades to a clean
//! connection error, never a panic.
//!
//! Layering: this crate sits below the benchmark harness and is generic
//! over [`tm_api::TmRuntime`], so any of the eight backends can serve it;
//! backend selection by name (`TmKind`) lives in `harness::registry`, and
//! the harness's OLTP driver and checker-audited end-to-end scenario drive
//! the server through the public [`client::Client`].
//!
//! Durability: pass [`server::ServerConfig::wal`] to open a WAL session for
//! the server's lifetime. With a Multiverse runtime built with its `wal`
//! feature, every commit the workers execute is logged; graceful shutdown
//! drains in-flight transactions, then closes the session with a final
//! flush, so no fsynced write is ever lost.

mod affinity;
pub mod client;
pub mod kv;
pub mod proto;
pub mod server;

pub use client::Client;
pub use kv::{Op, OpResult, SpaceKind, Store, StoreSpec};
pub use proto::{Request, Response};
pub use server::{Server, ServerConfig, ShutdownReport};
