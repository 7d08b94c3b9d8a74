//! The `privmech-serve` server binary.
//!
//! Binds a TCP listener, prints the bound address (machine-greppable, for
//! scripts driving an ephemeral port), and serves until a client sends the
//! `shutdown` op. With `--cache-file`, both response caches are loaded on
//! startup and dumped on shutdown (JSON Lines; entries are portable by the
//! bit-identity contract), so a restart keeps the hot set.
//!
//! ```text
//! privmech-serve [--addr HOST:PORT] [--threads N] [--cache-capacity N]
//!                [--cache-shards N] [--neg-cache-capacity N]
//!                [--cache-file PATH] [--verify-hits] [--max-inflight N]
//! ```

use privmech_serve::server::{self, ServerConfig};

fn main() {
    let mut config = ServerConfig::default();
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
            "--threads" => config.worker_threads = parse(&value("--threads"), "--threads"),
            "--cache-capacity" => {
                config.cache_capacity = parse(&value("--cache-capacity"), "--cache-capacity")
            }
            "--cache-shards" => {
                config.cache_shards = parse(&value("--cache-shards"), "--cache-shards")
            }
            "--neg-cache-capacity" => {
                config.neg_cache_capacity =
                    parse(&value("--neg-cache-capacity"), "--neg-cache-capacity")
            }
            "--cache-file" => config.cache_file = Some(value("--cache-file").into()),
            "--verify-hits" => config.verify_hits = true,
            "--max-inflight" => {
                config.max_inflight_per_conn = parse(&value("--max-inflight"), "--max-inflight")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: privmech-serve [--addr HOST:PORT] [--threads N] \
                     [--cache-capacity N] [--cache-shards N] [--neg-cache-capacity N] \
                     [--cache-file PATH] [--verify-hits] [--max-inflight N]"
                );
                std::process::exit(2);
            }
        }
    }

    let handle = match server::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    };
    // Scripts wait for this exact line to learn the ephemeral port.
    println!("privmech-serve listening on {}", handle.addr());
    handle.join();
    println!("privmech-serve stopped");
}

fn parse(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a non-negative integer, got {text:?}");
        std::process::exit(2);
    })
}
