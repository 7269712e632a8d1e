//! `NetFrontend::shutdown` against stalled peers: a peer that sent part
//! of a frame and then went quiet, holding its socket open, must not
//! keep shutdown waiting.

use smp_bcc::query::Query;
use smp_bcc::serve::{
    component_grid, wire, Daemon, NetFrontend, Request, Response, ServeConfig, ShardedStore,
};
use smp_bcc::Pool;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Connects and completes one round trip, so the front-end has
/// accepted the connection and its thread is reading frames.
fn connected_peer(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    let q = Request::Query {
        id: 1,
        query: Query::SameBlock(0, 1),
    };
    wire::write_request(&mut s, &q).unwrap();
    let resp = wire::read_response(&mut s).unwrap();
    assert!(
        matches!(resp, Some(Response::Answer { id: 1, .. })),
        "{resp:?}"
    );
    s
}

#[test]
fn half_sent_frames_do_not_hold_up_shutdown() {
    let pool = Pool::new(1);
    let store = Arc::new(ShardedStore::new(&pool, &component_grid(60, 3, 11), 1).unwrap());
    let frontend =
        NetFrontend::spawn(Daemon::spawn(store, ServeConfig::default()), "127.0.0.1:0").unwrap();
    let addr = frontend.local_addr();

    // Two of the four header bytes.
    let mut in_header = connected_peer(addr);
    in_header.write_all(&[16, 0]).unwrap();
    // A full header announcing 16 payload bytes, then 8 of them.
    let mut in_payload = connected_peer(addr);
    in_payload.write_all(&16u32.to_le_bytes()).unwrap();
    in_payload.write_all(&[0u8; 8]).unwrap();
    // Let both connection threads read the partial frames.
    std::thread::sleep(Duration::from_millis(300));

    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        frontend.shutdown();
        let _ = done.send(());
    });
    let outcome = finished.recv_timeout(Duration::from_secs(2));
    // The peers stay open until the verdict is in.
    drop((in_header, in_payload));
    assert!(
        outcome.is_ok(),
        "shutdown still blocked after 2 s by peers stalled mid-frame"
    );
}
