//! Fixture: the response is read by the shared framing; `read_line`
//! appears only in this comment, in a string, and in the test module's
//! scripted server.

use std::io::BufReader;
use std::net::TcpStream;

use slide_serve::conn::{read_response, ResponseParser};

pub const NOTE: &str = "never call read_line here";

pub fn status(reader: &mut BufReader<TcpStream>) -> Option<u16> {
    let mut parser = ResponseParser::new(8 << 20);
    read_response(&mut parser, reader).ok().map(|r| r.status)
}

#[cfg(test)]
mod tests {
    use std::io::BufRead;

    #[test]
    fn scripted_peer_reads_a_request_head() {
        let mut reader = std::io::Cursor::new(b"GET / HTTP/1.1\r\n\r\n".to_vec());
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
    }
}
