//! Fixture: a router fan-out that blocks — a shard `Client` per request
//! on scoped threads, off the transport's event loop.

use crate::client::Client;

pub fn scatter(shards: &[std::net::SocketAddr]) -> Vec<u16> {
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .map(|&addr| s.spawn(move || Client::connect(addr).map_or(503, |_| 200)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(503)).collect()
    })
}
