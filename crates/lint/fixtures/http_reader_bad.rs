//! Fixture: a client that frames responses itself, one `read_line` at a
//! time, with no line bound and no body limit of its own.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;

pub fn status(reader: &mut BufReader<TcpStream>) -> Option<u16> {
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let status = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut len = 0usize;
    loop {
        let mut h = String::new();
        BufRead::read_line(reader, &mut h).ok()?;
        if h.trim_end().is_empty() {
            break;
        }
        if let Some(v) = h.strip_prefix("Content-Length:") {
            len = v.trim().parse().ok()?;
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).ok()?;
    Some(status)
}
