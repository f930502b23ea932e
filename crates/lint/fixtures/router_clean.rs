//! Fixture: the router hands fan-outs to the event loop's shard links;
//! only its test module drives it through a blocking client, and a
//! `ClientError` or a local named `thread` is not a blocking call.

use crate::client::ClientError;

pub fn shard_error(thread: usize, e: &ClientError) -> String {
    format!("shard {thread}: {e}")
}

#[cfg(test)]
mod tests {
    use crate::client::Client;

    #[test]
    fn answers() {
        let t = std::thread::spawn(|| Client::connect("127.0.0.1:1".parse().unwrap()).is_err());
        assert!(t.join().unwrap());
    }
}
