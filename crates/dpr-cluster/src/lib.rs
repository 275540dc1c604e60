//! # dpr-cluster
//!
//! In-process distributed deployments of DPR: **D-FASTER** (§5) and
//! **D-Redis** (§6), plus the cluster manager (§4.1) and the client stack.
//!
//! The cluster is a set of shard *workers*, each owning a slice of the
//! keyspace (virtual partitions, §5.3), executing client batches against its
//! local cache-store, and running the libDPR server hooks. Workers
//! coordinate only through the shared metadata store (DPR table, ownership,
//! membership, recovery state) and the client-piggybacked headers — no
//! worker-to-worker traffic, as in the paper.
//!
//! Two network planes serve the same protocol code: the in-process message
//! bus with configurable one-way latency ([`transport`], for simulation and
//! chaos testing), and the real TCP plane ([`net`] server, [`tcp`] clients,
//! [`wire`] codec — specified byte-by-byte in `docs/NETWORK.md`).

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod dfaster;
pub mod dredis;
pub mod lease;
pub mod manager;
pub mod message;
mod metrics;
pub mod net;
pub mod proxy;
mod readiness;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use client::{SessionHandle, SessionStats};
pub use cluster::{Cluster, ClusterConfig, ClusterKind};
pub use dfaster::FasterShard;
pub use dredis::RedisShard;
pub use lease::{CutLease, OwnershipLease};
pub use manager::ClusterManager;
pub use message::{ClusterOp, OpResult};
pub use net::{NetServer, NetServerConfig};
pub use tcp::{Completed, CompletedRef, PipelinedClient, TcpClient};
pub use transport::{EndpointId, LinkFault, SimNetwork};
pub use worker::{ShardStore, Worker};
