//! The TCP serving layer: the same protocol over real sockets.

use dpr_cluster::tcp::TcpClient;
use dpr_cluster::{Cluster, ClusterConfig, ClusterOp, NetServer, NetServerConfig, OpResult};
use dpr_core::{Key, SessionId, ShardId, Value};
use libdpr::DprClientSession;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// A cluster with each worker behind its own single-threaded server, so
/// the client holds one connection per shard.
fn tcp_cluster(shards: usize) -> (Cluster, HashMap<ShardId, SocketAddr>, Vec<NetServer>) {
    let cluster = Cluster::start(ClusterConfig {
        shards,
        checkpoint_interval: Some(Duration::from_millis(20)),
        finder_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut addrs = HashMap::new();
    let mut servers = Vec::new();
    for w in cluster.workers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.insert(w.shard(), listener.local_addr().unwrap());
        let config = NetServerConfig {
            io_threads: 1,
            ..NetServerConfig::default()
        };
        servers.push(NetServer::start(vec![w.clone()], listener, config).unwrap());
    }
    (cluster, addrs, servers)
}

#[test]
fn ops_and_commits_flow_over_real_sockets() {
    let (cluster, addrs, servers) = tcp_cluster(2);
    let mut client = TcpClient::connect(DprClientSession::new(SessionId(100)), &addrs).unwrap();

    // Route keys the same way the cluster does and write over TCP.
    for i in 0..50u64 {
        let key = Key::from_u64(i);
        let shard = cluster.owner_of(&key).unwrap();
        let results = client
            .execute(shard, vec![ClusterOp::Upsert(key, Value::from_u64(i * 2))])
            .unwrap();
        assert_eq!(results, vec![OpResult::Done]);
    }
    // Read back over TCP.
    for i in 0..50u64 {
        let key = Key::from_u64(i);
        let shard = cluster.owner_of(&key).unwrap();
        let results = client.execute(shard, vec![ClusterOp::Read(key)]).unwrap();
        assert_eq!(results, vec![OpResult::Value(Some(Value::from_u64(i * 2)))]);
    }
    // Commits propagate through the same cut as bus clients.
    let cut_source = cluster.cut_source();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let cut = cut_source();
        let prefix = client.session_mut().refresh_commit(&cut);
        if prefix >= 100 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "commits must arrive");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.session_mut().committed_count(), 100);

    for server in servers {
        server.shutdown();
    }
    cluster.shutdown();
}

#[test]
fn tcp_client_observes_failures_via_world_line() {
    let (cluster, addrs, servers) = tcp_cluster(2);
    let mut client = TcpClient::connect(DprClientSession::new(SessionId(101)), &addrs).unwrap();
    let key = Key::from_u64(1);
    let shard = cluster.owner_of(&key).unwrap();
    client
        .execute(
            shard,
            vec![ClusterOp::Upsert(key.clone(), Value::from_u64(1))],
        )
        .unwrap();

    cluster.inject_failure().unwrap();
    cluster.wait_recovered(Duration::from_secs(10)).unwrap();

    // The first post-failure call is rejected with a world-line mismatch —
    // same protocol error as on the bus, now through JSON frames.
    let err = client.execute(shard, vec![ClusterOp::Read(key.clone())]);
    assert!(
        matches!(err, Err(dpr_core::DprError::WorldLineMismatch { .. })),
        "got {err:?}"
    );
    // Recover the session and continue.
    let wl = cluster.metadata().world_line().unwrap();
    let cut = cluster.metadata().read_cut().unwrap();
    client.session_mut().handle_failure(wl, &cut);
    let results = client.execute(shard, vec![ClusterOp::Read(key)]).unwrap();
    assert!(matches!(results[0], OpResult::Value(_)));

    for server in servers {
        server.shutdown();
    }
    cluster.shutdown();
}

#[test]
fn mixed_bus_and_tcp_clients_share_one_cluster() {
    let (cluster, addrs, servers) = tcp_cluster(2);
    // A bus client writes...
    let mut bus = cluster.open_session().unwrap();
    bus.execute(vec![ClusterOp::Upsert(
        Key::from_u64(7),
        Value::from_u64(77),
    )])
    .unwrap();
    // ...and a TCP client reads it (linearizable single-owner routing).
    let mut tcp = TcpClient::connect(DprClientSession::new(SessionId(102)), &addrs).unwrap();
    let shard = cluster.owner_of(&Key::from_u64(7)).unwrap();
    let results = tcp
        .execute(shard, vec![ClusterOp::Read(Key::from_u64(7))])
        .unwrap();
    assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(77))));

    for server in servers {
        server.shutdown();
    }
    cluster.shutdown();
}
