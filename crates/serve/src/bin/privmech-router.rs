//! The `privmech-router` fleet front-end binary.
//!
//! Binds a TCP listener, prints the bound address (machine-greppable, for
//! scripts driving an ephemeral port), and routes frames to the given
//! `privmech-serve` shards by consistent hashing on the canonical request
//! key until a client sends the `shutdown` op (which is broadcast to every
//! shard before the router stops).
//!
//! ```text
//! privmech-router --shard HOST:PORT [--shard HOST:PORT ...]
//!                 [--addr HOST:PORT] [--max-inflight N]
//! ```

use privmech_serve::router::{self, RouterConfig};

fn main() {
    let mut shards = Vec::new();
    let mut config = RouterConfig::new(Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--shard" => shards.push(value("--shard")),
            "--max-inflight" => {
                config.max_inflight_per_conn = parse(&value("--max-inflight"), "--max-inflight")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: privmech-router --shard HOST:PORT [--shard HOST:PORT ...] \
                     [--addr HOST:PORT] [--max-inflight N]"
                );
                std::process::exit(2);
            }
        }
    }
    if shards.is_empty() {
        eprintln!("privmech-router needs at least one --shard HOST:PORT");
        std::process::exit(2);
    }
    config.shards = shards;

    let handle = match router::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    };
    // Scripts wait for this exact line to learn the ephemeral port.
    println!("privmech-router listening on {}", handle.addr());
    handle.join();
    println!("privmech-router stopped");
}

fn parse(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a non-negative integer, got {text:?}");
        std::process::exit(2);
    })
}
