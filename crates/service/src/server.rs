//! The TCP transport: an epoll reactor thread owning every socket plus
//! a fixed worker pool — connection count decoupled from thread count
//! (10k mostly-idle connections run on `workers + 2` threads,
//! process-wide).
//!
//! The wire protocol is unchanged from the thread-per-connection
//! server: line-delimited JSON with per-request `id` echo (see
//! [`crate::protocol`]). What changed is scheduling — independent
//! requests on one connection may now answer **out of order** (the
//! ordering contract is documented in [`crate::protocol`]) — and the
//! serving limits: `--max-conns` is a *live* connection cap enforced at
//! accept time with a typed error response, and request lines are still
//! bounded by `--max-line` through the incremental framer (oversized
//! lines are discarded as they stream in, answered with a salvaged
//! `id`; see the internal `conn` module).
//!
//! [`Server::shutdown`] (or SIGTERM, once
//! [`Server::enable_signal_shutdown`] is called) drains gracefully:
//! accepted requests answer, outboxes flush, then connections close.

use crate::protocol::{dispatch, error_response, with_id, Envelope, Request};
use crate::reactor::{serve, Shared};
use crate::service::{Service, Session};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default cap on one request line: 1 MiB.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Serving configuration for [`Server::spawn_config`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Cap on one request line's payload bytes (default
    /// [`DEFAULT_MAX_LINE_BYTES`]); oversized lines are discarded as
    /// they stream in and answered with a typed error.
    pub max_line: usize,
    /// Worker threads executing decoded requests. `0` picks a default
    /// from the machine's parallelism (at least 2, so one slow request
    /// cannot serialize a connection's independent work).
    pub workers: usize,
    /// Live-connection cap: a connection accepted while this many are
    /// open is answered with [`crate::ServiceError::ConnectionLimit`]
    /// and closed. `None` = unlimited.
    pub max_conns: Option<usize>,
    /// Exit after this many connections have *closed* — the
    /// self-terminating mode CI smoke tests use (`--exit-after`).
    pub exit_after: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_line: DEFAULT_MAX_LINE_BYTES,
            workers: 0,
            max_conns: None,
            exit_after: None,
        }
    }
}

impl ServerConfig {
    /// Resolve `workers == 0` to the machine default.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(2, 8)
    }
}

/// A running server: the bound address plus the reactor thread and its
/// worker pool.
pub struct Server {
    addr: std::net::SocketAddr,
    reactor_thread: JoinHandle<std::io::Result<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (use port 0 for an OS-assigned port) and serve
    /// `service` with default limits. When `exit_after` is `Some(n)`,
    /// the server drains and exits after the n-th connection *closes* —
    /// the mode CI smoke tests use so the process terminates on its
    /// own.
    pub fn spawn(
        addr: &str,
        service: Service,
        exit_after: Option<usize>,
    ) -> std::io::Result<Server> {
        let config = ServerConfig {
            exit_after,
            ..ServerConfig::default()
        };
        Server::spawn_config(addr, service, config)
    }

    /// Bind and serve with full [`ServerConfig`] control.
    pub fn spawn_config(
        addr: &str,
        service: Service,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // The reactor owns the listener through epoll readiness — it
        // must never block in accept(2).
        listener.set_nonblocking(true)?;
        let workers = config.resolved_workers();
        let shared = Arc::new(Shared::new()?);
        let reactor_shared = Arc::clone(&shared);
        let reactor_thread = std::thread::Builder::new()
            .name("birds-reactor".into())
            .spawn(move || serve(listener, service, config, workers, reactor_shared))?;
        Ok(Server {
            addr: local,
            reactor_thread,
            shared,
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Request a graceful drain: stop accepting and reading, answer
    /// every accepted request, flush outboxes, close, exit. Idempotent
    /// and thread-safe; pair with [`Server::join`] to wait for
    /// completion.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Install a process-wide SIGTERM handler that triggers the same
    /// graceful drain as [`Server::shutdown`]. Intended for the
    /// `birds-serve` binary (one server per process).
    pub fn enable_signal_shutdown(&self) {
        self.shared.enable_signal_shutdown();
        crate::sys::install_sigterm_notify(self.shared.wakeup_fd());
    }

    /// Wait for the serve loop to finish (only returns after
    /// [`Server::shutdown`], SIGTERM with
    /// [`Server::enable_signal_shutdown`], the `exit_after` count, or a
    /// listener failure).
    pub fn join(self) -> std::io::Result<()> {
        match self.reactor_thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("reactor thread panicked")),
        }
    }
}

/// An in-process client speaking the same protocol without a socket —
/// what the unit tests, benches, and examples drive. One `LocalClient`
/// is one session; requests run synchronously in the caller's thread,
/// so responses are trivially in submission order.
pub struct LocalClient {
    session: Session,
}

impl LocalClient {
    /// Open an in-process session on `service`.
    pub fn connect(service: &Service) -> LocalClient {
        LocalClient {
            session: service.session(),
        }
    }

    /// Send one raw protocol line; returns the raw response line (with
    /// the request's `id` echoed, exactly like the TCP server).
    pub fn request_line(&mut self, line: &str) -> String {
        match Envelope::parse(line) {
            Ok(Envelope { id, request }) => with_id(dispatch(&mut self.session, &request), id),
            Err((id, e)) => with_id(error_response(&e), id),
        }
        .to_compact()
    }

    /// Send a decoded request; returns the response document.
    pub fn request(&mut self, request: &Request) -> crate::json::Json {
        dispatch(&mut self.session, request)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::Json;
    use birds_core::UpdateStrategy;
    use birds_engine::{Engine, StrategyMode};
    use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// `v = r1 ∪ r2` over `r1 = {1}`, `r2 = {2, 4}`, in memory.
    pub(crate) fn union_service() -> Service {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).unwrap())
            .unwrap();
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
        .unwrap();
        let mut engine = Engine::new(db);
        engine
            .register_view(strategy, StrategyMode::Incremental)
            .unwrap();
        Service::new(engine)
    }

    /// Extract the echoed `"id"` from a response line.
    fn response_id(line: &str) -> Json {
        Json::parse(line).unwrap().get("id").cloned().unwrap()
    }

    #[test]
    fn local_client_full_session() {
        let service = union_service();
        let mut client = LocalClient::connect(&service);
        let pong = client.request_line(r#"{"op":"ping"}"#);
        assert!(pong.contains("\"pong\": true"), "{pong}");

        client.request_line(r#"{"op":"begin"}"#);
        client.request_line(r#"{"op":"execute","sql":"INSERT INTO v VALUES (9);"}"#);
        let buffered =
            client.request_line(r#"{"op":"execute","sql":"DELETE FROM v WHERE a = 2;"}"#);
        assert!(buffered.contains("\"buffered\": 2"), "{buffered}");
        let commit = client.request_line(r#"{"op":"commit"}"#);
        assert!(commit.contains("\"ok\": true"), "{commit}");
        assert!(commit.contains("\"statements\": 2"), "{commit}");

        let query = client.request_line(r#"{"op":"query","relation":"v"}"#);
        let doc = Json::parse(&query).unwrap();
        let tuples = doc.get("tuples").unwrap().as_arr().unwrap();
        let flat: Vec<i64> = tuples
            .iter()
            .map(|t| t.as_arr().unwrap()[0].as_i64().unwrap())
            .collect();
        assert_eq!(flat, vec![1, 4, 9]);

        let err = client.request_line(r#"{"op":"execute","sql":"INSERT INTO nope VALUES (1);"}"#);
        assert!(err.contains("\"ok\": false"), "{err}");
    }

    #[test]
    fn tcp_round_trip() {
        let service = union_service();
        let server = Server::spawn("127.0.0.1:0", service.clone(), Some(1)).unwrap();
        let addr = server.addr();

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |line: &str| {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response
        };

        assert!(send(r#"{"op":"ping"}"#).contains("\"pong\": true"));
        let applied = send(r#"{"op":"execute","sql":"INSERT INTO v VALUES (33);"}"#);
        assert!(applied.contains("\"applied\": true"), "{applied}");
        let stats = send(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"commits\": 1"), "{stats}");
        assert!(
            stats.contains("\"index_hits\"") && stats.contains("\"index_misses\""),
            "per-relation probe counters missing: {stats}"
        );
        assert!(send("garbage").contains("\"ok\": false"));
        assert!(send(r#"{"op":"quit"}"#).contains("\"bye\": true"));

        server.join().unwrap();
        assert!(service.query("r1").unwrap().contains(&tuple![33]));
    }

    #[test]
    fn request_ids_are_echoed_for_pipelining() {
        let service = union_service();
        let mut client = LocalClient::connect(&service);
        let pong = client.request_line(r#"{"op":"ping","id":1}"#);
        assert!(pong.contains("\"id\": 1"), "{pong}");
        // Error responses still echo a salvageable id.
        let err = client.request_line(r#"{"op":"nope","id":"x9"}"#);
        assert!(
            err.contains("\"ok\": false") && err.contains("\"id\": \"x9\""),
            "{err}"
        );
    }

    #[test]
    fn pipelined_requests_are_answered_exactly_once_with_quit_last() {
        let service = union_service();
        let server = Server::spawn("127.0.0.1:0", service.clone(), Some(1)).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Fire five requests before reading any response. The batch ops
        // (a, b, c) are session-lane and stay FIFO; the query (d) is
        // stateless and may answer anywhere before the bye; the quit
        // (e) is a barrier, so its bye is always last.
        writer
            .write_all(
                b"{\"op\":\"begin\",\"id\":\"a\"}\n\
                  {\"op\":\"execute\",\"sql\":\"INSERT INTO v VALUES (70);\",\"id\":\"b\"}\n\
                  {\"op\":\"commit\",\"id\":\"c\"}\n\
                  {\"op\":\"query\",\"relation\":\"r2\",\"id\":\"d\"}\n\
                  {\"op\":\"quit\",\"id\":\"e\"}\n",
            )
            .unwrap();
        writer.flush().unwrap();
        let mut lines = Vec::new();
        for _ in 0..5 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "connection closed early");
            lines.push(line);
        }
        // Every id answered exactly once.
        let mut ids: Vec<String> = lines
            .iter()
            .map(|l| response_id(l).as_str().unwrap().to_owned())
            .collect();
        let order = ids.clone();
        ids.sort();
        assert_eq!(ids, ["a", "b", "c", "d", "e"], "{lines:?}");
        // Session-lane responses in submission order; bye last.
        let pos = |id: &str| order.iter().position(|x| x == id).unwrap();
        assert!(pos("a") < pos("b") && pos("b") < pos("c"), "{order:?}");
        assert_eq!(pos("e"), 4, "quit is a barrier: {order:?}");
        let by_id = |id: &str| &lines[pos(id)];
        assert!(by_id("a").contains("\"batch\": true"), "{lines:?}");
        assert!(by_id("b").contains("\"buffered\": 1"), "{lines:?}");
        assert!(by_id("c").contains("\"statements\": 1"), "{lines:?}");
        assert!(by_id("d").contains("[2]"), "{lines:?}");
        assert!(by_id("e").contains("\"bye\": true"), "{lines:?}");
        server.join().unwrap();
        assert!(service.query("v").unwrap().contains(&tuple![70]));
    }

    #[test]
    fn oversized_lines_are_rejected_and_drained() {
        let service = union_service();
        let config = ServerConfig {
            max_line: 256,
            exit_after: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::spawn_config("127.0.0.1:0", service.clone(), config).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // One giant line (well over the 256-byte cap, and over the
        // reactor's read-chunk size so draining crosses reads), then a
        // normal request on the same connection.
        let mut giant = String::from("{\"op\":\"execute\",\"sql\":\"");
        giant.push_str(&"x".repeat(256 * 1024));
        giant.push_str("\"}\n");
        writer.write_all(giant.as_bytes()).unwrap();
        writer
            .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"quit\"}\n")
            .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"ok\": false") && line.contains("256-byte line limit"),
            "{line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"pong\": true"),
            "connection survives: {line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"bye\": true"), "{line}");
        server.join().unwrap();
    }

    #[test]
    fn oversized_line_echoes_salvaged_id_and_pipelining_continues() {
        // The post-drain contract, end to end: an oversized request with
        // an id near the front gets a RequestTooLarge error carrying
        // that id, and pipelined follow-ups on the same connection are
        // all answered (correlated by id; the error precedes them since
        // it is written before the follow-ups are even decoded).
        let service = union_service();
        let config = ServerConfig {
            max_line: 512,
            exit_after: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::spawn_config("127.0.0.1:0", service.clone(), config).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // All four requests in ONE write: the oversized one (id first,
        // giant sql spanning many reads), then three normal ones the
        // drain must leave intact.
        let mut burst = String::from("{\"op\":\"execute\",\"id\":\"big-1\",\"sql\":\"");
        burst.push_str(&"y".repeat(128 * 1024));
        burst.push_str("\"}\n");
        burst.push_str("{\"op\":\"execute\",\"sql\":\"INSERT INTO v VALUES (81);\",\"id\":2}\n");
        burst.push_str("{\"op\":\"query\",\"relation\":\"r2\",\"id\":3}\n");
        burst.push_str("{\"op\":\"quit\",\"id\":4}\n");
        writer.write_all(burst.as_bytes()).unwrap();
        writer.flush().unwrap();

        let mut lines = Vec::new();
        for _ in 0..4 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "connection closed early");
            lines.push(line);
        }
        assert!(
            lines[0].contains("\"ok\": false")
                && lines[0].contains("512-byte line limit")
                && lines[0].contains("\"id\": \"big-1\""),
            "{}",
            lines[0]
        );
        // The two independent follow-ups may answer in either order.
        let find = |id: i64| {
            lines[1..3]
                .iter()
                .find(|l| response_id(l) == Json::Int(id))
                .unwrap_or_else(|| panic!("id {id} unanswered: {lines:?}"))
        };
        assert!(find(2).contains("\"applied\": true"), "{lines:?}");
        assert!(find(3).contains("[2]"), "{lines:?}");
        assert!(
            lines[3].contains("\"bye\": true") && lines[3].contains("\"id\": 4"),
            "{}",
            lines[3]
        );
        server.join().unwrap();
        assert!(service.query("v").unwrap().contains(&tuple![81]));
    }

    #[test]
    fn eof_without_quit_still_answers_dangling_tail() {
        // A client that writes a final unterminated line and half-closes
        // still gets its answer before the server closes (the framer's
        // EOF tail rule + the HalfClosed drain).
        let service = union_service();
        let server = Server::spawn("127.0.0.1:0", service, Some(1)).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"ping\",\"id\":9}").unwrap();
        writer.flush().unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"pong\": true") && line.contains("\"id\": 9"),
            "{line}"
        );
        server.join().unwrap();
    }
}
