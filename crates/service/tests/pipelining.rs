//! Out-of-order pipelining and serving-limit guarantees of the epoll
//! reactor (ISSUE 7).
//!
//! The ordering contract under test (see `birds_service::protocol`):
//! same-session requests stay FIFO; independent `query`/`stats`/
//! autocommit requests may complete in any order — in particular, a
//! slow request on shard A must not delay a fast request on shard B
//! *on the same connection*; every id is answered exactly once; `quit`
//! is a barrier whose bye is the connection's last response.
//!
//! Determinism: the "slow" request is made slow by parking on its
//! shard's write lock via the `debug_write_lock_shard` test hook, not
//! by timing, so the tests cannot flake on an oversubscribed runner.
//! Every socket carries a read timeout so a regression fails the test
//! instead of hanging it.
//!
//! The engine fixture is the disjoint-union shape from `sharding.rs`:
//! independent components `v{i} = a{i} ∪ b{i}`, one shard each. The
//! connection-scaling test runs a real `birds-serve` child instead, so
//! its thread count can be read from outside, via `/proc`.

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::{Json, LocalClient, Server, ServerConfig, Service};
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn union_strategy(view: &str, r1: &str, r2: &str) -> UpdateStrategy {
    UpdateStrategy::parse(
        DatabaseSchema::new()
            .with(Schema::new(r1, vec![("a", SortKind::Int)]))
            .with(Schema::new(r2, vec![("a", SortKind::Int)])),
        Schema::new(view, vec![("a", SortKind::Int)]),
        &format!(
            "
            -{r1}(X) :- {r1}(X), not {view}(X).
            -{r2}(X) :- {r2}(X), not {view}(X).
            +{r1}(X) :- {view}(X), not {r1}(X), not {r2}(X).
            "
        ),
        None,
    )
    .unwrap()
}

fn disjoint_engine(views: usize) -> Engine {
    let mut db = Database::new();
    for i in 0..views {
        db.add_relation(Relation::with_tuples(format!("a{i}"), 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples(format!("b{i}"), 1, vec![tuple![2]]).unwrap())
            .unwrap();
    }
    let mut engine = Engine::new(db);
    for i in 0..views {
        engine
            .register_view(
                union_strategy(&format!("v{i}"), &format!("a{i}"), &format!("b{i}")),
                StrategyMode::Incremental,
            )
            .unwrap();
    }
    engine
}

/// A pipelining-capable test connection with a read timeout (so a
/// lost response fails loudly instead of hanging the suite).
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Fire a burst of request lines without reading any response.
    fn pipeline(&mut self, lines: &[&str]) {
        let mut burst = String::new();
        for line in lines {
            burst.push_str(line);
            burst.push('\n');
        }
        self.writer.write_all(burst.as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    /// Read one response line ("" on clean EOF).
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response line");
        line
    }

    /// Lockstep round trip.
    fn send(&mut self, line: &str) -> String {
        self.pipeline(&[line]);
        self.read_line()
    }
}

fn response_id(line: &str) -> Option<Json> {
    Json::parse(line).ok()?.get("id").cloned()
}

#[test]
fn slow_shard_does_not_delay_fast_shard_on_one_connection() {
    // THE acceptance check: a same-connection fast request completes
    // while a slow cross-shard request is still in flight.
    let service = Service::new(disjoint_engine(2));
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    // Park v0's shard behind a held write lock: the autocommit INSERT
    // below blocks in its group commit until the guard drops.
    let guard = service.debug_write_lock_shard("v0").expect("v0 shard");

    client.pipeline(&[
        r#"{"op":"execute","sql":"INSERT INTO v0 VALUES (71);","id":"slow"}"#,
        r#"{"op":"query","relation":"v1","id":"fast"}"#,
    ]);

    // The fast query answers first — while the slow execute is still
    // wedged on shard 0's lock. (Under in-order execution this read
    // would block behind the guard and the test would time out.)
    let first = client.read_line();
    assert_eq!(
        response_id(&first),
        Some(Json::str("fast")),
        "fast response overtakes the in-flight slow one: {first}"
    );
    assert!(first.contains("[2]"), "{first}");

    // Release the shard; the slow execute now completes and answers.
    drop(guard);
    let second = client.read_line();
    assert_eq!(response_id(&second), Some(Json::str("slow")), "{second}");
    assert!(second.contains("\"applied\": true"), "{second}");

    let bye = client.send(r#"{"op":"quit","id":"q"}"#);
    assert!(bye.contains("\"bye\": true"), "{bye}");
    server.shutdown();
    server.join().unwrap();
    assert!(service.query("v0").unwrap().contains(&tuple![71]));
}

#[test]
fn slow_autocommit_does_not_delay_an_autocommit_on_another_shard() {
    // The write form of the contract above: a connection's pipelined
    // autocommits may travel to a worker as one job, and one of them
    // parked on its shard must not hold back the other's answer.
    let service = Service::new(disjoint_engine(2));
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    let guard = service.debug_write_lock_shard("v0").expect("v0 shard");
    client.pipeline(&[
        r#"{"op":"execute","sql":"INSERT INTO v0 VALUES (71);","id":"slow"}"#,
        r#"{"op":"execute","sql":"INSERT INTO v1 VALUES (72);","id":"fast"}"#,
    ]);

    let first = client.read_line();
    assert_eq!(
        response_id(&first),
        Some(Json::str("fast")),
        "v1's autocommit answers while v0's is parked: {first}"
    );
    assert!(first.contains("\"applied\": true"), "{first}");
    assert!(service.query("v1").unwrap().contains(&tuple![72]));

    drop(guard);
    let second = client.read_line();
    assert_eq!(response_id(&second), Some(Json::str("slow")), "{second}");
    assert!(second.contains("\"applied\": true"), "{second}");

    server.shutdown();
    server.join().unwrap();
    assert!(service.query("v0").unwrap().contains(&tuple![71]));
}

#[test]
fn autocommits_parked_on_two_shards_answer_as_each_shard_frees() {
    // Both shards of a pipelined pair are held when the run reaches a
    // worker: each shard is led by a job of its own, so the one
    // released first answers first, whatever the run's order.
    let service = Service::new(disjoint_engine(2));
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    let v0 = service.debug_write_lock_shard("v0").expect("v0 shard");
    let v1 = service.debug_write_lock_shard("v1").expect("v1 shard");
    client.pipeline(&[
        r#"{"op":"execute","sql":"INSERT INTO v0 VALUES (81);","id":"first"}"#,
        r#"{"op":"execute","sql":"INSERT INTO v1 VALUES (82);","id":"second"}"#,
    ]);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while service.debug_queue_len("v0") + service.debug_queue_len("v1") < 2 {
        assert!(std::time::Instant::now() < deadline, "the run never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    drop(v1);
    let line = client.read_line();
    assert_eq!(
        response_id(&line),
        Some(Json::str("second")),
        "v1's autocommit answers while v0 is still held: {line}"
    );
    assert!(line.contains("\"applied\": true"), "{line}");

    drop(v0);
    let line = client.read_line();
    assert_eq!(response_id(&line), Some(Json::str("first")), "{line}");
    assert!(line.contains("\"applied\": true"), "{line}");

    server.shutdown();
    server.join().unwrap();
    assert!(service.query("v0").unwrap().contains(&tuple![81]));
    assert!(service.query("v1").unwrap().contains(&tuple![82]));
}

/// A `stats` counter of the server, read over the connection.
fn stat(client: &mut Client, field: &str) -> i64 {
    let stats = Json::parse(&client.send(r#"{"op":"stats"}"#)).expect("stats is JSON");
    match stats.get(field) {
        Some(Json::Int(n)) => *n,
        other => panic!("stats field {field}: {other:?}"),
    }
}

#[test]
fn pipelined_autocommits_on_one_shard_share_one_wal_sync() {
    // Eight autocommits pipelined on one connection while their shard
    // is parked all queue in its group-commit queue — two workers could
    // hold at most two of them if each were its own job — so the
    // leader that wins the released shard commits them as one epoch:
    // one WAL record, one sync.
    let dir = std::env::temp_dir().join(format!("birds-pipelined-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::open(
        disjoint_engine(1),
        birds_service::ServiceConfig::default(),
        birds_service::DurabilityConfig::new(&dir),
    )
    .unwrap();
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());
    let (commits, syncs) = (stat(&mut client, "commits"), stat(&mut client, "wal_syncs"));

    let guard = service.debug_write_lock_shard("v0").expect("v0 shard");
    let burst: Vec<String> = (0..8)
        .map(|i| {
            format!(
                r#"{{"op":"execute","sql":"INSERT INTO v0 VALUES ({});","id":{i}}}"#,
                50 + i
            )
        })
        .collect();
    client.pipeline(&burst.iter().map(String::as_str).collect::<Vec<_>>());
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while service.debug_queue_len("v0") < 8 {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of 8 autocommits queued",
            service.debug_queue_len("v0")
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(guard);
    for _ in 0..8 {
        let line = client.read_line();
        assert!(line.contains("\"applied\": true"), "{line}");
    }

    assert_eq!(stat(&mut client, "commits") - commits, 8);
    assert_eq!(
        stat(&mut client, "wal_syncs") - syncs,
        1,
        "8 commits cost exactly 1 sync"
    );
    server.shutdown();
    server.join().unwrap();
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interleaved_mixed_lanes_answer_every_id_exactly_once_in_session_order() {
    // N interleaved requests — a FIFO batch conversation, concurrent
    // stateless reads, and a malformed line — fired down one connection
    // without reading. Every id must be answered exactly once,
    // same-session responses in submission order, bye last.
    let service = Service::new(disjoint_engine(3));
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    let mut burst: Vec<String> = Vec::new();
    burst.push(r#"{"op":"begin","id":"s0"}"#.into());
    for i in 1..=5 {
        burst.push(format!(
            r#"{{"op":"execute","sql":"INSERT INTO v0 VALUES ({});","id":"s{i}"}}"#,
            70 + i
        ));
    }
    burst.push(r#"{"op":"commit","id":"s6"}"#.into());
    for i in 0..4 {
        burst.push(format!(r#"{{"op":"query","relation":"v1","id":"q{i}"}}"#));
        burst.push(format!(r#"{{"op":"ping","id":"p{i}"}}"#));
    }
    burst.push(r#"{"op":"stats","id":"t0"}"#.into());
    burst.push(r#"{"op":"nope","id":"bad"}"#.into());
    burst.push(r#"{"op":"quit","id":"z"}"#.into());
    let lines: Vec<&str> = burst.iter().map(String::as_str).collect();
    client.pipeline(&lines);

    let mut responses = Vec::new();
    for _ in 0..burst.len() {
        let line = client.read_line();
        assert!(!line.is_empty(), "connection closed early: {responses:?}");
        responses.push(line);
    }

    // Exactly once: the multiset of response ids equals the request ids.
    let mut got: Vec<String> = responses
        .iter()
        .map(|l| {
            response_id(l)
                .and_then(|id| id.as_str().map(str::to_owned))
                .unwrap_or_else(|| panic!("response without id: {l}"))
        })
        .collect();
    let order = got.clone();
    let mut want: Vec<String> = burst
        .iter()
        .map(|l| {
            Json::parse(l)
                .ok()
                .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_owned))
                .unwrap_or_else(|| "bad".into())
        })
        .collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "every id answered exactly once");

    // Same-session responses (s0..s6) arrive in submission order.
    let session_order: Vec<&String> = order.iter().filter(|id| id.starts_with('s')).collect();
    let expected: Vec<String> = (0..=6).map(|i| format!("s{i}")).collect();
    assert_eq!(
        session_order.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        expected.iter().map(String::as_str).collect::<Vec<_>>(),
        "session lane stays FIFO: {order:?}"
    );
    // And their payloads reflect FIFO batch state: buffered 1..=5, then
    // a 5-statement commit.
    let by_id = |id: &str| {
        responses
            .iter()
            .find(|l| response_id(l) == Some(Json::str(id)))
            .unwrap()
    };
    assert!(by_id("s0").contains("\"batch\": true"));
    for i in 1..=5 {
        assert!(
            by_id(&format!("s{i}")).contains(&format!("\"buffered\": {i}")),
            "{}",
            by_id(&format!("s{i}"))
        );
    }
    assert!(by_id("s6").contains("\"statements\": 5"), "{}", by_id("s6"));
    assert!(by_id("bad").contains("\"ok\": false"));
    assert_eq!(order.last().map(String::as_str), Some("z"), "bye is last");

    server.shutdown();
    server.join().unwrap();
    assert!(service.query("v0").unwrap().contains(&tuple![75]));
}

#[test]
fn max_conns_is_a_live_limit_with_typed_accept_time_rejection() {
    let service = Service::new(disjoint_engine(1));
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 2,
            max_conns: Some(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    // Round-trip both so they are registered (accept is asynchronous).
    assert!(a.send(r#"{"op":"ping"}"#).contains("pong"));
    assert!(b.send(r#"{"op":"ping"}"#).contains("pong"));

    // Third connection: typed rejection, then close — not a hang, not a
    // silent drop, and crucially not a stolen thread.
    let mut c = Client::connect(addr);
    let rejection = c.read_line();
    assert!(
        rejection.contains("\"ok\": false")
            && rejection.contains("server at its 2-connection limit"),
        "{rejection}"
    );
    assert_eq!(c.read_line(), "", "rejected connection is closed");

    // The limit is *live*: closing one connection frees a slot (the old
    // thread-per-connection server counted accepted-ever, so a freed
    // slot is exactly what its semantics could not provide). The close
    // is asynchronous, so poll until the slot opens.
    assert!(a.send(r#"{"op":"quit"}"#).contains("bye"));
    let mut admitted = false;
    for _ in 0..100 {
        // Probe with a ping: an accepted connection sends no greeting,
        // so the first line is either "pong" (admitted) or the typed
        // rejection. Writes/reads on a just-rejected socket can fail
        // with a reset — that also just means "retry".
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = (&stream).write_all(b"{\"op\":\"ping\",\"id\":\"d\"}\n");
        let mut line = String::new();
        match BufReader::new(stream).read_line(&mut line) {
            Ok(_) if line.contains("pong") => {
                admitted = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(admitted, "slot freed by quit was never granted");

    server.shutdown();
    server.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests_and_flushes_outboxes() {
    let service = Service::new(disjoint_engine(2));
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    // Wedge a write in flight on shard 0…
    let guard = service.debug_write_lock_shard("v0").expect("v0 shard");
    client.pipeline(&[
        r#"{"op":"execute","sql":"INSERT INTO v0 VALUES (88);","id":"w"}"#,
        r#"{"op":"query","relation":"v1","id":"r"}"#,
    ]);
    let fast = client.read_line();
    assert_eq!(response_id(&fast), Some(Json::str("r")), "{fast}");

    // …request shutdown while it is still wedged…
    server.shutdown();
    std::thread::sleep(Duration::from_millis(50));
    drop(guard);

    // …and the drain still answers it before closing the connection.
    let slow = client.read_line();
    assert_eq!(
        response_id(&slow),
        Some(Json::str("w")),
        "in-flight request answered during drain: {slow}"
    );
    assert!(slow.contains("\"applied\": true"), "{slow}");
    assert_eq!(client.read_line(), "", "connection closed after drain");

    server.join().unwrap();
    assert!(
        service.query("v0").unwrap().contains(&tuple![88]),
        "drained write is applied"
    );
}

#[test]
fn rejected_connection_does_not_count_toward_exit_after() {
    // `--exit-after N` counts *served* connections closing; an
    // accept-time rejection must not tick it (it never became a
    // connection).
    let service = Service::new(disjoint_engine(1));
    let server = Server::spawn_config(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 2,
            max_conns: Some(1),
            exit_after: Some(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut a = Client::connect(addr);
    assert!(a.send(r#"{"op":"ping"}"#).contains("pong"));
    let mut rejected = Client::connect(addr);
    assert!(rejected.read_line().contains("connection limit"));
    assert!(a.send(r#"{"op":"quit"}"#).contains("bye"));

    // One served connection closed (plus one rejection): the server
    // must still be accepting. A second served close reaches the limit.
    let mut b = Client::connect(addr);
    assert!(b.send(r#"{"op":"ping"}"#).contains("pong"));
    assert!(b.send(r#"{"op":"quit"}"#).contains("bye"));
    server.join().unwrap();
}

#[test]
fn a_pipelined_script_answers_like_a_local_session_byte_for_byte() {
    // The session lane hands a worker whole runs of queued lines. Fired
    // down one connection in a single write, a script's session-lane
    // answers must be exactly — bytes and order — what one in-process
    // session answers line by line on an identical service.
    let spec = concat!(
        r#""view":{"name":"w","columns":[["a","int"]]},"#,
        r#""sources":[{"name":"p","columns":[["a","int"]]},{"name":"q","columns":[["a","int"]]}],"#,
        r#""putdelta":"-p(X) :- p(X), not w(X). -q(X) :- q(X), not w(X). +p(X) :- w(X), not p(X), not q(X).""#,
    );
    let mut session_lines = vec![r#"{"op":"begin","id":"s"}"#.to_owned()];
    let mut stateless_ids = Vec::new();
    let mut script = session_lines.clone();
    for i in 0..1000 {
        let line = format!(
            r#"{{"op":"execute","sql":"INSERT INTO v0 VALUES ({});","id":{i}}}"#,
            100 + i
        );
        script.push(line.clone());
        session_lines.push(line);
        if i % 100 == 50 {
            script.push(format!(r#"{{"op":"ping","id":"ping{i}"}}"#));
            script.push(format!(
                r#"{{"op":"query","relation":"v0","id":"query{i}"}}"#
            ));
            stateless_ids.extend([format!("ping{i}"), format!("query{i}")]);
        }
    }
    for line in [
        r#"{"op":"commit","id":"c1"}"#.to_owned(),
        r#"{"op":"begin","id":"b2"}"#.to_owned(),
        r#"{"op":"execute","sql":"INSERT INTO v0 VALUES (;","id":"bad-sql"}"#.to_owned(),
        r#"{"op":"begin","id":"b3"}"#.to_owned(),
        r#"{"op":"rollback","id":"r"}"#.to_owned(),
        r#"{"op":"commit","id":"c2"}"#.to_owned(),
        format!(r#"{{"op":"register",{spec},"mode":"incremental","id":"reg"}}"#),
        r#"{"op":"unregister","view":"w","id":"unreg"}"#.to_owned(),
    ] {
        script.push(line.clone());
        session_lines.push(line);
    }
    script.push(r#"{"op":"quit","id":"bye"}"#.to_owned());

    let engine = || {
        let mut db = Database::new();
        for (name, value) in [("a0", 1), ("b0", 2), ("p", 10), ("q", 20)] {
            db.add_relation(Relation::with_tuples(name, 1, vec![tuple![value]]).unwrap())
                .unwrap();
        }
        let mut engine = Engine::new(db);
        engine
            .register_view(union_strategy("v0", "a0", "b0"), StrategyMode::Incremental)
            .unwrap();
        engine
    };
    let mut local = LocalClient::connect(&Service::new(engine()));
    let want: Vec<String> = session_lines
        .iter()
        .map(|line| local.request_line(line))
        .collect();

    let server = Server::spawn("127.0.0.1:0", Service::new(engine()), None).unwrap();
    let mut client = Client::connect(server.addr());
    let lines: Vec<&str> = script.iter().map(String::as_str).collect();
    client.pipeline(&lines);
    let mut got = Vec::new();
    let mut stateless = Vec::new();
    for _ in 0..script.len() {
        let line = client.read_line();
        assert!(
            !line.is_empty(),
            "connection closed after {} lines",
            got.len()
        );
        let line = line.trim_end_matches('\n').to_owned();
        match response_id(&line).and_then(|id| id.as_str().map(str::to_owned)) {
            Some(id) if stateless_ids.contains(&id) => {
                assert!(line.contains("\"ok\": true"), "{line}");
                stateless.push(id);
            }
            _ => got.push(line),
        }
    }
    let bye = got.pop().expect("a bye");
    assert_eq!(
        bye, r#"{"ok": true, "bye": true, "id": "bye"}"#,
        "bye comes last"
    );
    assert_eq!(got.len(), want.len());
    for (n, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "session-lane response {n}");
    }
    stateless.sort();
    stateless_ids.sort();
    assert_eq!(stateless, stateless_ids, "every stateless id answered once");
    assert!(want[1000].contains("\"buffered\": 1000"), "{}", want[1000]);
    assert!(
        want[1001].contains("\"statements\": 1000"),
        "{}",
        want[1001]
    );
    assert!(
        want[1003].contains("\"ok\": false"),
        "bad SQL: {}",
        want[1003]
    );
    assert!(
        want[1007].contains("\"registered\": \"w\""),
        "{}",
        want[1007]
    );
    assert!(
        want[1008].contains("\"unregistered\": \"w\""),
        "{}",
        want[1008]
    );
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn a_deeply_nested_line_is_a_typed_error_and_the_connection_keeps_serving() {
    // The reactor thread parses every request line, so 20 000 nested
    // brackets (40 KB, well under the line cap) must not recurse that
    // thread off the end of its stack.
    let server = Server::spawn("127.0.0.1:0", Service::new(disjoint_engine(1)), None).unwrap();
    let mut client = Client::connect(server.addr());
    let deep = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let error = client.send(&deep);
    assert!(error.contains("\"ok\": false"), "{error}");
    assert!(error.contains("nesting deeper"), "{error}");
    assert!(client.send(r#"{"op":"ping"}"#).contains("pong"));
    server.shutdown();
    server.join().unwrap();
}

/// A `birds-serve` child process, killed (and reaped) on drop.
struct ServeChild {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl ServeChild {
    /// Start `birds-serve` on an ephemeral port and wait for its
    /// "listening on ADDR" line.
    fn spawn(args: &[&str]) -> ServeChild {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_birds-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn birds-serve");
        // Owned by the guard before anything can panic.
        let mut server = ServeChild {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
        };
        let stdout = BufReader::new(server.child.stdout.take().expect("piped stdout"));
        server.addr = stdout
            .lines()
            .map_while(Result::ok)
            .find_map(|line| line.strip_prefix("listening on ")?.parse().ok())
            .expect("birds-serve printed its listen address");
        server
    }

    /// `Threads:` of the child, read from outside via `/proc`.
    fn threads(&self) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap();
        status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("Threads: in /proc/<pid>/status")
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn idle_connections_do_not_become_threads() {
    const IDLE: usize = 512;
    // A ping on every 64th new connection keeps the client from running
    // more than 64 connects ahead of the reactor's accept loop, inside
    // the listener's default accept queue of 128.
    const PING_EVERY: usize = 64;
    let server = ServeChild::spawn(&["--workers", "2"]);
    // One answered request means the reactor has started its worker
    // pool, so the thread count is final.
    let mut first = Client::connect(server.addr);
    assert!(first.send(r#"{"op":"ping"}"#).contains("pong"));
    let threads = server.threads();

    let mut idle = Vec::with_capacity(IDLE);
    for n in 1..=IDLE {
        let mut conn = Client::connect(server.addr);
        if n % PING_EVERY == 0 {
            assert!(
                conn.send(r#"{"op":"ping"}"#).contains("pong"),
                "connect {n}"
            );
        }
        idle.push(conn);
    }
    assert_eq!(
        server.threads(),
        threads,
        "{IDLE} idle connections must not add threads"
    );

    let mut active = Client::connect(server.addr);
    let answer = active.send(r#"{"op":"query","relation":"v","id":"after"}"#);
    assert_eq!(response_id(&answer), Some(Json::str("after")), "{answer}");
    assert!(answer.contains("\"tuples\""), "{answer}");
}
