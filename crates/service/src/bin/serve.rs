//! `birds-serve` — the updatable-view database as an always-on process.
//!
//! Server mode (default) binds a TCP listener and speaks the
//! line-delimited JSON protocol of `birds_service::protocol`, served by
//! the epoll reactor (`--workers` threads regardless of connection
//! count):
//!
//! ```text
//! birds-serve --listen 127.0.0.1:7878             # Example 3.1 demo views
//! birds-serve --listen 127.0.0.1:0 --exit-after 1 # exit after one session
//! birds-serve --listen 0.0.0.0:7878 --workers 8 --max-conns 10000
//! ```
//!
//! `--max-conns N` is a **live** connection cap: a connection accepted
//! while N are open is answered with a typed
//! `server at its N-connection limit` error and closed. (The old
//! exit-after-N-sessions behavior this flag once had lives on as
//! `--exit-after N`.) SIGTERM drains gracefully: accepted requests are
//! answered and outboxes flushed before the process exits.
//!
//! Client mode connects to a running server, forwards each line of
//! stdin as a request, and prints each response line to stdout —
//! enough to script a session from CI or a shell:
//!
//! ```text
//! echo '{"op":"query","relation":"v"}' | birds-serve --connect 127.0.0.1:7878
//! ```
//!
//! Durability: `--data-dir DIR` makes the database survive restarts —
//! every commit is written ahead to a per-shard WAL under `DIR/wal/`
//! before it is acknowledged, `--fsync epoch|off` picks the flush
//! policy (default `epoch`: one fdatasync per group-commit epoch; the
//! old `always` is refused with a pointer to `epoch`), and
//! `--checkpoint-every N` snapshots-then-truncates the log every N
//! commits (default 1024; 0 disables automatic checkpoints). A
//! checkpoint also deletes the segment series of shards that a
//! `register`/`unregister` re-shard retired, and those a previous run
//! left.
//! On startup the server recovers the latest snapshot and replays the
//! WAL in global commit-seq order, discarding torn tails by CRC.
//!
//! Schema: `--strategy FILE` loads a JSON catalogue instead of the
//! built-in demo — base tables plus update strategies:
//!
//! ```json
//! {"tables": [{"name":"r1","columns":[["a","int"]]},
//!             {"name":"r2","columns":[["a","int"]]}],
//!  "views":  [{"view":{"name":"v","columns":[["a","int"]]},
//!              "sources":[{"name":"r1","columns":[["a","int"]]},
//!                         {"name":"r2","columns":[["a","int"]]}],
//!              "putdelta":"-r1(X) :- r1(X), not v(X). …",
//!              "mode":"incremental"}]}
//! ```
//!
//! The views go through the **live** registration path
//! (`Service::register_view` — validation, quiesce, WAL logging) after
//! the service is up, exactly like a runtime `register` request; on a
//! recovered data directory a view that already exists (replayed from
//! the WAL or the checkpoint manifest) is tolerated and skipped. More
//! views can be added at runtime with the protocol's `register` op.
//!
//! Without `--strategy`, the demo database is the paper's Example 3.1:
//! `v = r1 ∪ r2` with the programmed strategy (deletions remove from
//! whichever table held the tuple; insertions go to `r1`), registered
//! in incremental mode.

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::protocol::{schema_from_json, spec_from_json};
use birds_service::{
    DurabilityConfig, Json, Server, ServerConfig, Service, ServiceConfig, ServiceError,
};
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
use birds_wal::FsyncPolicy;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn main() {
    let mut listen = String::from("127.0.0.1:7878");
    let mut connect: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::default();
    let mut checkpoint_every: Option<u64> = None;
    let mut strategy_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = require_value(args.next(), "--listen"),
            "--strategy" => strategy_file = Some(require_value(args.next(), "--strategy")),
            "--connect" => connect = Some(require_value(args.next(), "--connect")),
            "--max-conns" => {
                config.max_conns = Some(parse_flag(args.next(), "--max-conns", "an integer"))
            }
            "--exit-after" => {
                config.exit_after = Some(parse_flag(args.next(), "--exit-after", "an integer"))
            }
            "--workers" => config.workers = parse_flag(args.next(), "--workers", "a thread count"),
            "--max-line" => config.max_line = parse_flag(args.next(), "--max-line", "a byte count"),
            "--data-dir" => data_dir = Some(require_value(args.next(), "--data-dir")),
            "--fsync" => {
                fsync = require_value(args.next(), "--fsync")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    })
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_flag(args.next(), "--checkpoint-every", "an integer"))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: birds-serve [--listen ADDR] [--workers N] [--max-conns N]\n\
                     \x20                 [--exit-after N] [--max-line BYTES]\n\
                     \x20                 [--data-dir DIR] [--fsync epoch|off]\n\
                     \x20                 [--checkpoint-every N] [--strategy FILE]\n\
                     \x20      birds-serve --connect ADDR   (client mode, script on stdin)"
                );
                return;
            }
            flag => {
                eprintln!("unknown flag '{flag}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    if let Some(addr) = connect {
        run_client(&addr);
    } else {
        run_server(
            &listen,
            config,
            data_dir,
            fsync,
            checkpoint_every,
            strategy_file,
        );
    }
}

fn run_server(
    listen: &str,
    config: ServerConfig,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    checkpoint_every: Option<u64>,
    strategy_file: Option<String>,
) {
    // With `--strategy`, the seed engine is just the catalogue's base
    // tables; the views register through the live path below (same code
    // as a runtime `register` request). Without it, the built-in demo.
    let catalogue = strategy_file.map(|path| load_catalogue(&path));
    let seed = match &catalogue {
        Some(catalogue) => catalogue_engine(catalogue),
        None => demo_engine(),
    };
    let service = match data_dir {
        None => Service::new(seed),
        Some(dir) => {
            let mut durability = DurabilityConfig::new(&dir);
            durability.fsync = fsync;
            if let Some(every) = checkpoint_every {
                durability.checkpoint_every = (every > 0).then_some(every);
            }
            match Service::open(seed, ServiceConfig::default(), durability) {
                Ok(service) => {
                    println!(
                        "recovered {} committed transactions from {dir} (fsync {fsync})",
                        service.commits()
                    );
                    service
                }
                Err(e) => {
                    eprintln!("cannot recover data dir {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    if let Some(catalogue) = catalogue {
        register_catalogue_views(&service, &catalogue);
    }
    let server = Server::spawn_config(listen, service, config).unwrap_or_else(|e| {
        eprintln!("cannot listen on {listen}: {e}");
        std::process::exit(1);
    });
    // SIGTERM drains in-flight requests and flushes outboxes before
    // exit (crash-path coverage keeps using SIGKILL).
    server.enable_signal_shutdown();
    // Parseable by scripts that need the resolved port (`--listen :0`).
    println!("listening on {}", server.addr());
    if let Err(e) = server.join() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}

fn run_client(addr: &str) {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    // Lockstep request/response over small writes is the worst case for
    // Nagle + delayed ACK; disable it like the server does.
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone stream");
    let mut responses = BufReader::new(stream);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("read stdin");
        if line.trim().is_empty() {
            continue;
        }
        writer.write_all(line.as_bytes()).expect("send request");
        writer.write_all(b"\n").expect("send request");
        writer.flush().expect("send request");
        let mut response = String::new();
        if responses.read_line(&mut response).expect("read response") == 0 {
            eprintln!("server closed the connection");
            std::process::exit(1);
        }
        print!("{response}");
    }
    // Close the session so `--exit-after` servers can wind down.
    let _ = writer.write_all(b"{\"op\":\"quit\"}\n");
    let _ = writer.flush();
    let mut bye = String::new();
    let _ = responses.read_line(&mut bye);
}

/// Load and parse a `--strategy` catalogue file (exits on failure —
/// a misdeclared catalogue must not silently serve the demo schema).
fn load_catalogue(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read strategy file {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("strategy file {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

/// Build the seed engine from the catalogue's `"tables"`: every base
/// relation declared empty (contents come from recovery or from
/// runtime inserts). Views are *not* registered here — they go through
/// the live path once the service is up.
fn catalogue_engine(catalogue: &Json) -> Engine {
    let mut db = Database::new();
    let tables = catalogue
        .get("tables")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| {
            eprintln!("strategy file needs an array field 'tables'");
            std::process::exit(1);
        });
    for table in tables {
        let schema = schema_from_json(table).unwrap_or_else(|e| {
            eprintln!("bad table declaration: {e}");
            std::process::exit(1);
        });
        db.add_relation(
            Relation::with_tuples(&schema.name, schema.arity(), vec![])
                .expect("empty relation is well-formed"),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot declare table '{}': {e}", schema.name);
            std::process::exit(1);
        });
    }
    Engine::new(db)
}

/// Register the catalogue's `"views"` through the live registration
/// path — validation, quiesce barrier, WAL logging — exactly like a
/// runtime `register` request. `ViewExists` is tolerated: on a
/// recovered data directory the WAL replay or the checkpoint manifest
/// may have re-created the view already.
fn register_catalogue_views(service: &Service, catalogue: &Json) {
    let Some(views) = catalogue.get("views").and_then(Json::as_arr) else {
        return;
    };
    for view in views {
        let spec = spec_from_json(view).unwrap_or_else(|e| {
            eprintln!("bad view declaration: {e}");
            std::process::exit(1);
        });
        let mode = match view.get("mode").and_then(Json::as_str) {
            None | Some("incremental") => StrategyMode::Incremental,
            Some("original") => StrategyMode::Original,
            Some(other) => {
                eprintln!("view '{}': unknown mode '{other}'", spec.view.name);
                std::process::exit(1);
            }
        };
        let strategy = match spec.to_strategy() {
            Ok(strategy) => strategy,
            Err(e) => {
                eprintln!("view '{}': {e}", spec.view.name);
                std::process::exit(1);
            }
        };
        match service.register_view(strategy, mode) {
            Ok(seq) => println!("registered view '{}' (commit seq {seq})", spec.view.name),
            Err(ServiceError::ViewExists(name)) => {
                println!("view '{name}' already registered (recovered)")
            }
            Err(e) => {
                eprintln!("cannot register view '{}': {e}", spec.view.name);
                std::process::exit(1);
            }
        }
    }
}

/// Example 3.1: `v = r1 ∪ r2`, seeded with r1 = {1}, r2 = {2, 4}.
fn demo_engine() -> Engine {
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).expect("seed r1"))
        .expect("add r1");
    db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).expect("seed r2"))
        .expect("add r2");
    let strategy = UpdateStrategy::parse(
        DatabaseSchema::new()
            .with(Schema::new("r1", vec![("a", SortKind::Int)]))
            .with(Schema::new("r2", vec![("a", SortKind::Int)])),
        Schema::new("v", vec![("a", SortKind::Int)]),
        "
        -r1(X) :- r1(X), not v(X).
        -r2(X) :- r2(X), not v(X).
        +r1(X) :- v(X), not r1(X), not r2(X).
        ",
        None,
    )
    .expect("demo strategy parses");
    let mut engine = Engine::new(db);
    engine
        .register_view(strategy, StrategyMode::Incremental)
        .expect("demo view registers");
    engine
}

fn require_value(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_flag<T: std::str::FromStr>(v: Option<String>, flag: &str, what: &str) -> T {
    require_value(v, flag).parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs {what}");
        std::process::exit(2);
    })
}
