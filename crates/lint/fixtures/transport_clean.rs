//! Fixture: serving goes through the event-loop transport; only the
//! test module binds a throwaway `TcpListener`.

pub fn serve(addr: &str) -> std::io::Result<crate::http::HttpServer> {
    crate::http::HttpServer::serve(crate::handle(), addr, Default::default())
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    #[test]
    fn port_is_free() {
        assert!(TcpListener::bind("127.0.0.1:0").is_ok());
    }
}
