//! Fixture: a second HTTP stack — its own listener and accept loop
//! outside the event-loop transport module.

use std::net::TcpListener;

pub fn serve(addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    for stream in listener.incoming() {
        drop(stream?);
    }
    Ok(())
}
