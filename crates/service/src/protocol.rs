//! The line-delimited JSON protocol spoken by `birds-serve`.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests carry an `"op"` discriminator:
//!
//! | request                                   | reply (on success)                                            |
//! |-------------------------------------------|---------------------------------------------------------------|
//! | `{"op":"ping"}`                           | `{"ok":true,"pong":true}`                                     |
//! | `{"op":"execute","sql":"…"}`              | `{"ok":true,"applied":…}` or `{"ok":true,"buffered":n}`       |
//! | `{"op":"begin"}`                          | `{"ok":true,"batch":true}`                                    |
//! | `{"op":"commit"}`                         | `{"ok":true,"commit_seq":n,"statements":n,…}`                 |
//! | `{"op":"rollback"}`                       | `{"ok":true,"discarded":n}`                                   |
//! | `{"op":"query","relation":"v"}`           | `{"ok":true,"relation":"v","tuples":[[…],…]}`                 |
//! | `{"op":"stats"}`                          | `{"ok":true,"commits":n,"wal_syncs":n,"views":[…],…}`         |
//! | `{"op":"checkpoint"}`                     | `{"ok":true,"watermark":n}` (durable servers only)            |
//! | `{"op":"register",…}`                     | `{"ok":true,"registered":"v","commit_seq":n,"shards":n}`      |
//! | `{"op":"unregister","view":"v"}`          | `{"ok":true,"unregistered":"v","commit_seq":n,"shards":n}`    |
//! | `{"op":"validate",…}`                     | `{"ok":true,"valid":true}` or `{"ok":true,"valid":false,"reason":"…"}` |
//! | `{"op":"quit"}`                           | `{"ok":true,"bye":true}` and the connection closes            |
//!
//! **Dynamic registration (PR 10).** `register` carries a full update
//! strategy and registers it on the **live** service — only the shards
//! the new view's footprint touches quiesce; everything else keeps
//! committing (see `birds_service::Service::register_view`). The
//! payload:
//!
//! ```json
//! {"op":"register",
//!  "view":    {"name":"v","columns":[["a","int"]]},
//!  "sources": [{"name":"r1","columns":[["a","int"]]},
//!              {"name":"r2","columns":[["a","int"]]}],
//!  "putdelta": "-r1(X) :- r1(X), not v(X). …",
//!  "expected_get": null,
//!  "mode": "incremental"}
//! ```
//!
//! Column sorts are `"int"`, `"float"`, `"string"`, `"bool"`; `"mode"`
//! is `"incremental"` (default) or `"original"`; `"expected_get"` is an
//! optional Datalog program defining the view. `validate` takes the
//! same payload minus `"mode"` and runs the full well-behavedness
//! analysis (Algorithm 1) **statelessly** — nothing is registered, and
//! an ill-formed strategy reports `valid:false` rather than a protocol
//! error. Typed registration rejections (`view 'v' is already
//! registered`, `invalid strategy: …`, `relation conflict on '…'`)
//! come back as ordinary `{"ok":false,"error":"…"}` responses.
//!
//! Errors never close the connection (except transport failures):
//! `{"ok":false,"error":"…"}`.
//!
//! **Pipelining and the ordering contract:** a request may carry an
//! `"id"` field (any JSON value); the server echoes it verbatim as
//! `"id"` in the matching response — including error responses,
//! whenever the id is salvageable from the malformed line — so a client
//! may send many requests before reading any response and correlate the
//! replies. Since the epoll reactor (PR 7), responses are **not**
//! guaranteed to arrive in submission order; the contract is:
//!
//! * **Session-stateful requests stay FIFO.** `begin`, `commit`,
//!   `rollback`, `register`, `unregister`, and `execute` inside an open
//!   batch run one at a time, in submission order, against the
//!   connection's session (see [`Request::is_session_op`]). Whatever
//!   of them the server has already read is executed as one run by one
//!   worker, so a pipelined batch answers without a thread hand-off per
//!   line; the answers are the same, line for line, as lockstep ones.
//! * **Independent requests may complete in any order.** `ping`,
//!   `query`, `stats`, `checkpoint`, and autocommit `execute` (each its
//!   own transaction) execute concurrently on a worker pool — a slow
//!   query or autocommit on one shard does not delay a fast query or
//!   autocommit on another, even on the same connection. A
//!   connection's autocommits that wait for a worker together travel
//!   as one job and share one epoch per shard (one WAL record, one
//!   sync); the job's worker leads one shard and hands each other
//!   shard to the pool as a job of its own, so each shard's answers
//!   still go out as soon as its epoch ends, whichever shard frees
//!   first. A pipelining client that needs read-your-writes must await
//!   the write's response before issuing the read (or wrap both in a
//!   `begin`…`commit` batch, which is FIFO).
//! * **`quit` is a barrier.** Every previously accepted request on the
//!   connection answers first; the `bye` is always the connection's
//!   last response. Requests pipelined *after* a `quit` are dropped.
//!
//! Each response is still written atomically as one line, and every id
//! is answered exactly once. Clients that await each response before
//! sending the next (lockstep, like `birds-serve --connect`) observe no
//! behavioral change; the wire format itself is identical. See
//! [`Envelope`].
//!
//! Oversized request lines (beyond the server's `--max-line` cap,
//! default 1 MiB) are rejected with `{"ok":false,"error":"request
//! exceeds …"}` without ever being buffered in full; the connection
//! stays open.
//!
//! Tuple values map to JSON as: `Int` → number, `Float` → number,
//! `Str` → string, `Bool` → boolean.

use crate::error::ServiceError;
use crate::group_commit::PendingTx;
use crate::json::Json;
use crate::service::{parse_dml, CommitOutcome, ExecOutcome, Service, Session};
use birds_core::UpdateStrategy;
use birds_engine::{ExecutionStats, StrategyMode};
use birds_store::{DatabaseSchema, Schema, SortKind, Tuple, Value};
use std::sync::Arc;

/// A decoded protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Execute (or buffer, in batch mode) a DML script.
    Execute {
        /// The SQL script.
        sql: String,
    },
    /// Open a batch.
    Begin,
    /// Coalesce and apply the open batch.
    Commit,
    /// Discard the open batch.
    Rollback,
    /// Snapshot a relation.
    Query {
        /// Relation (base table or view) name.
        relation: String,
    },
    /// Service-wide statistics.
    Stats,
    /// Snapshot-then-truncate checkpoint (durable services only) — the
    /// operator's lever for bounding the WAL and for healing a sealed
    /// writer without a restart.
    Checkpoint,
    /// Register an update strategy as a live view (PR 10): validates,
    /// quiesces only the affected shards, re-shards, logs to the WAL.
    Register {
        /// The strategy payload (view + sources + putdelta program).
        spec: StrategySpec,
        /// Evaluation mode for the putback program.
        mode: StrategyMode,
    },
    /// Deregister a live view (inverse of `register`).
    Unregister {
        /// The view to deregister.
        view: String,
    },
    /// Statelessly run the well-behavedness analysis (Algorithm 1) on a
    /// strategy without registering anything.
    Validate {
        /// The strategy payload.
        spec: StrategySpec,
    },
    /// Close the session.
    Quit,
}

/// The wire form of an update strategy: the `register` / `validate`
/// payload, before it is parsed into a [`UpdateStrategy`].
#[derive(Debug, Clone, PartialEq)]
pub struct StrategySpec {
    /// Schema of the view relation.
    pub view: Schema,
    /// Schemas of the source relations, in declaration order.
    pub sources: Vec<Schema>,
    /// The putback (putdelta) program, as Datalog source text.
    pub putdelta: String,
    /// Optional expected view definition (rules with head `v`).
    pub expected_get: Option<String>,
}

impl StrategySpec {
    /// Parse the wire payload into a shape-checked [`UpdateStrategy`].
    pub fn to_strategy(&self) -> Result<UpdateStrategy, ServiceError> {
        UpdateStrategy::parse(
            DatabaseSchema {
                relations: self.sources.clone(),
            },
            self.view.clone(),
            &self.putdelta,
            self.expected_get.as_deref(),
        )
        .map_err(|e| ServiceError::InvalidStrategy {
            reason: e.to_string(),
        })
    }
}

fn sort_to_str(sort: SortKind) -> &'static str {
    match sort {
        SortKind::Int => "int",
        SortKind::Float => "float",
        SortKind::Str => "string",
        SortKind::Bool => "bool",
    }
}

fn sort_from_str(s: &str) -> Result<SortKind, ServiceError> {
    match s {
        "int" => Ok(SortKind::Int),
        "float" => Ok(SortKind::Float),
        "string" => Ok(SortKind::Str),
        "bool" => Ok(SortKind::Bool),
        other => Err(ServiceError::Protocol(format!(
            "unknown column sort '{other}' (expected int|float|string|bool)"
        ))),
    }
}

fn schema_to_json(schema: &Schema) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::str(schema.name.clone())),
        (
            "columns".to_owned(),
            Json::Arr(
                schema
                    .attributes
                    .iter()
                    .map(|attr| {
                        Json::Arr(vec![
                            Json::str(attr.name.clone()),
                            Json::str(sort_to_str(attr.sort)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode `{"name":…,"columns":[[name, sort],…]}` into a [`Schema`].
pub fn schema_from_json(doc: &Json) -> Result<Schema, ServiceError> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::Protocol("relation needs a string field 'name'".into()))?;
    let columns = doc
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServiceError::Protocol("relation needs an array field 'columns'".into()))?;
    let mut attrs: Vec<(&str, SortKind)> = Vec::with_capacity(columns.len());
    for column in columns {
        let pair = column
            .as_arr()
            .filter(|pair| pair.len() == 2)
            .ok_or_else(|| {
                ServiceError::Protocol("each column must be a [name, sort] pair".into())
            })?;
        let col_name = pair[0]
            .as_str()
            .ok_or_else(|| ServiceError::Protocol("column name must be a string".into()))?;
        let sort = pair[1]
            .as_str()
            .ok_or_else(|| ServiceError::Protocol("column sort must be a string".into()))
            .and_then(sort_from_str)?;
        attrs.push((col_name, sort));
    }
    Ok(Schema::new(name, attrs))
}

/// Decode a `register` / `validate` payload (everything but `op` and
/// `mode`) into a [`StrategySpec`].
pub fn spec_from_json(doc: &Json) -> Result<StrategySpec, ServiceError> {
    let view = doc
        .get("view")
        .ok_or_else(|| ServiceError::Protocol("missing object field 'view'".into()))
        .and_then(schema_from_json)?;
    let sources = doc
        .get("sources")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServiceError::Protocol("missing array field 'sources'".into()))?
        .iter()
        .map(schema_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let putdelta = doc
        .get("putdelta")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::Protocol("missing string field 'putdelta'".into()))?
        .to_owned();
    let expected_get = match doc.get("expected_get") {
        None | Some(Json::Null) => None,
        Some(value) => Some(
            value
                .as_str()
                .ok_or_else(|| {
                    ServiceError::Protocol("'expected_get' must be a string or null".into())
                })?
                .to_owned(),
        ),
    };
    Ok(StrategySpec {
        view,
        sources,
        putdelta,
        expected_get,
    })
}

fn spec_fields(spec: &StrategySpec) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("view".to_owned(), schema_to_json(&spec.view)),
        (
            "sources".to_owned(),
            Json::Arr(spec.sources.iter().map(schema_to_json).collect()),
        ),
        ("putdelta".to_owned(), Json::str(spec.putdelta.clone())),
    ];
    if let Some(get) = &spec.expected_get {
        fields.push(("expected_get".to_owned(), Json::str(get.clone())));
    }
    fields
}

impl Request {
    /// Decode one request line.
    pub fn parse(line: &str) -> Result<Request, ServiceError> {
        let doc =
            Json::parse(line).map_err(|e| ServiceError::Protocol(format!("bad JSON: {e}")))?;
        Request::from_json(&doc)
    }

    /// Decode a request from an already-parsed document (the transport
    /// parses each line exactly once — see [`Envelope::parse`]).
    pub fn from_json(doc: &Json) -> Result<Request, ServiceError> {
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::Protocol("missing string field 'op'".into()))?;
        match op {
            "ping" => Ok(Request::Ping),
            "execute" => {
                let sql = doc
                    .get("sql")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        ServiceError::Protocol("'execute' needs a string field 'sql'".into())
                    })?
                    .to_owned();
                Ok(Request::Execute { sql })
            }
            "begin" => Ok(Request::Begin),
            "commit" => Ok(Request::Commit),
            "rollback" => Ok(Request::Rollback),
            "query" => {
                let relation = doc
                    .get("relation")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        ServiceError::Protocol("'query' needs a string field 'relation'".into())
                    })?
                    .to_owned();
                Ok(Request::Query { relation })
            }
            "stats" => Ok(Request::Stats),
            "checkpoint" => Ok(Request::Checkpoint),
            "register" => {
                let spec = spec_from_json(doc)?;
                let mode = match doc.get("mode").and_then(Json::as_str) {
                    None | Some("incremental") => StrategyMode::Incremental,
                    Some("original") => StrategyMode::Original,
                    Some(other) => {
                        return Err(ServiceError::Protocol(format!(
                            "unknown mode '{other}' (expected incremental|original)"
                        )))
                    }
                };
                Ok(Request::Register { spec, mode })
            }
            "unregister" => {
                let view = doc
                    .get("view")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        ServiceError::Protocol("'unregister' needs a string field 'view'".into())
                    })?
                    .to_owned();
                Ok(Request::Unregister { view })
            }
            "validate" => Ok(Request::Validate {
                spec: spec_from_json(doc)?,
            }),
            "quit" => Ok(Request::Quit),
            other => Err(ServiceError::Protocol(format!("unknown op '{other}'"))),
        }
    }

    /// Whether this request must run on the connection's **session
    /// lane** (FIFO, one at a time, against the session's state) rather
    /// than fan out to the worker pool — the classification behind the
    /// module-level ordering contract.
    ///
    /// `begin`/`commit`/`rollback` always touch session state.
    /// `execute` does only while a batch is open (`in_batch` — the
    /// transport tracks this at parse time: `begin` opens,
    /// `commit`/`rollback` close, exactly mirroring [`Session`] since
    /// those ops consume the batch even on error); an autocommit
    /// `execute` is its own transaction and runs on the concurrent
    /// stateless lane. Everything else reads global service state.
    pub fn is_session_op(&self, in_batch: bool) -> bool {
        match self {
            Request::Begin | Request::Commit | Request::Rollback => true,
            Request::Execute { .. } => in_batch,
            // Topology changes run FIFO on the session lane so a client
            // that pipelines `register` followed by writes to the new
            // view observes its own registration. (The service layer
            // additionally serializes registrations globally.)
            Request::Register { .. } | Request::Unregister { .. } => true,
            _ => false,
        }
    }

    /// Encode this request as one protocol line carrying a correlation
    /// `id` (see [`Envelope`]).
    pub fn encode_with_id(&self, id: Json) -> String {
        let encoded = self.encode();
        let Ok(Json::Obj(mut fields)) = Json::parse(&encoded) else {
            unreachable!("encode always yields an object");
        };
        fields.push(("id".to_owned(), id));
        Json::Obj(fields).to_compact()
    }

    /// Encode this request as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields = vec![(
            "op".to_owned(),
            Json::str(match self {
                Request::Ping => "ping",
                Request::Execute { .. } => "execute",
                Request::Begin => "begin",
                Request::Commit => "commit",
                Request::Rollback => "rollback",
                Request::Query { .. } => "query",
                Request::Stats => "stats",
                Request::Checkpoint => "checkpoint",
                Request::Register { .. } => "register",
                Request::Unregister { .. } => "unregister",
                Request::Validate { .. } => "validate",
                Request::Quit => "quit",
            }),
        )];
        match self {
            Request::Execute { sql } => fields.push(("sql".to_owned(), Json::str(sql.clone()))),
            Request::Query { relation } => {
                fields.push(("relation".to_owned(), Json::str(relation.clone())))
            }
            Request::Register { spec, mode } => {
                fields.extend(spec_fields(spec));
                fields.push((
                    "mode".to_owned(),
                    Json::str(match mode {
                        StrategyMode::Incremental => "incremental",
                        StrategyMode::Original => "original",
                    }),
                ));
            }
            Request::Unregister { view } => {
                fields.push(("view".to_owned(), Json::str(view.clone())))
            }
            Request::Validate { spec } => fields.extend(spec_fields(spec)),
            _ => {}
        }
        Json::Obj(fields).to_compact()
    }
}

/// A decoded request plus its optional client-chosen correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The request's `"id"` field, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The request itself.
    pub request: Request,
}

impl Envelope {
    /// Decode one request line (parsing the JSON exactly once). On a
    /// malformed request the id is still salvaged when the line parses
    /// as a JSON object, so the error response can be correlated by a
    /// pipelining client.
    pub fn parse(line: &str) -> Result<Envelope, (Option<Json>, ServiceError)> {
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => return Err((None, ServiceError::Protocol(format!("bad JSON: {e}")))),
        };
        let id = doc.get("id").cloned();
        match Request::from_json(&doc) {
            Ok(request) => Ok(Envelope { id, request }),
            Err(e) => Err((id, e)),
        }
    }
}

/// Best-effort extraction of a top-level `"id"` field from a *prefix*
/// of a request line — what the transport salvages when an oversized
/// request is discarded as it streams in (see `--max-line`): the server
/// never buffers the full line, but the id conventionally sits near the
/// front, so the retained prefix usually contains it and the
/// `RequestTooLarge` error response can still be correlated by a
/// pipelining client.
///
/// Tracks JSON string/escape state and brace depth, finds an `"id"` key
/// at the object's top level, and decodes its scalar value (string,
/// number, or boolean — the shapes [`Envelope::parse`] would echo).
/// Returns `None` when the prefix was cut before the id's value
/// completed, or contains no top-level id at all.
pub fn salvage_id(prefix: &str) -> Option<Json> {
    let bytes = prefix.as_bytes();
    let mut i = 0usize;
    let mut depth = 0i64;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let end = scan_json_string(bytes, i)?;
                let is_id_key = depth == 1 && &bytes[i + 1..end] == b"id";
                i = end + 1;
                if !is_id_key {
                    continue;
                }
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if bytes.get(i) != Some(&b':') {
                    continue; // a *value* that happens to be "id"
                }
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                return salvage_scalar(prefix, i);
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth -= 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Index of the closing quote of the JSON string opening at `start`
/// (which must be a `"`), honoring escapes; `None` if the prefix ends
/// first.
fn scan_json_string(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Decode the scalar JSON value starting at byte `at` of `prefix`.
fn salvage_scalar(prefix: &str, at: usize) -> Option<Json> {
    let bytes = prefix.as_bytes();
    match bytes.get(at)? {
        b'"' => {
            let end = scan_json_string(bytes, at)?;
            Json::parse(&prefix[at..=end]).ok()
        }
        b't' | b'f' => {
            let rest = &prefix[at..];
            if rest.starts_with("true") {
                Some(Json::Bool(true))
            } else if rest.starts_with("false") {
                Some(Json::Bool(false))
            } else {
                None
            }
        }
        b'-' | b'0'..=b'9' => {
            let end = bytes[at..]
                .iter()
                .position(|b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                .map_or(bytes.len(), |n| at + n);
            // A number running into the cut end of the prefix may be
            // truncated mid-digits — refuse rather than echo a wrong id.
            if end == bytes.len() {
                return None;
            }
            Json::parse(&prefix[at..end]).ok()
        }
        _ => None,
    }
}

/// Echo a correlation id (if any) into a response object.
pub fn with_id(response: Json, id: Option<Json>) -> Json {
    match (response, id) {
        (Json::Obj(mut fields), Some(id)) => {
            fields.push(("id".to_owned(), id));
            Json::Obj(fields)
        }
        (response, _) => response,
    }
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(f.get()),
        Value::Str(s) => Json::str(s.as_str()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

fn tuple_json(t: &Tuple) -> Json {
    Json::Arr(t.values().iter().map(value_json).collect())
}

fn stats_fields(stats: &ExecutionStats) -> Vec<(String, Json)> {
    vec![
        (
            "view_delta".to_owned(),
            Json::Int(stats.view_delta_size as i64),
        ),
        (
            "source_delta".to_owned(),
            Json::Int(stats.source_delta_size as i64),
        ),
        ("cascades".to_owned(), Json::Int(stats.cascades as i64)),
    ]
}

fn ok(mut fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![("ok".to_owned(), Json::Bool(true))];
    all.append(&mut fields);
    Json::Obj(all)
}

/// Encode an error as a response object.
pub fn error_response(e: &ServiceError) -> Json {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        ("error".to_owned(), Json::str(e.to_string())),
    ])
}

/// Encode a successful commit.
pub fn commit_response(outcome: &CommitOutcome) -> Json {
    let mut fields = vec![
        (
            "commit_seq".to_owned(),
            Json::Int(outcome.commit_seq as i64),
        ),
        (
            "statements".to_owned(),
            Json::Int(outcome.statements as i64),
        ),
        ("views".to_owned(), Json::Int(outcome.views as i64)),
    ];
    fields.extend(stats_fields(&outcome.stats));
    ok(fields)
}

/// The reply to an autocommit `execute` that applied.
fn applied_response(stats: &ExecutionStats) -> Json {
    let mut fields = vec![("applied".to_owned(), Json::Bool(true))];
    fields.extend(stats_fields(stats));
    ok(fields)
}

/// Dispatch one decoded request against a session, producing the reply
/// object. `Quit` replies with `bye` — the transport decides to close.
/// Shared by the TCP server and the in-process [`crate::LocalClient`],
/// so both speak exactly the same protocol.
pub fn dispatch(session: &mut Session, request: &Request) -> Json {
    let result: Result<Json, ServiceError> = match request {
        Request::Ping => Ok(ok(vec![("pong".to_owned(), Json::Bool(true))])),
        Request::Execute { sql } => session.execute(sql).map(|outcome| match outcome {
            ExecOutcome::Applied(stats) => applied_response(&stats),
            ExecOutcome::Buffered(pending) => {
                ok(vec![("buffered".to_owned(), Json::Int(pending as i64))])
            }
        }),
        Request::Begin => session
            .begin()
            .map(|()| ok(vec![("batch".to_owned(), Json::Bool(true))])),
        Request::Commit => session.commit().map(|o| commit_response(&o)),
        Request::Rollback => session
            .rollback()
            .map(|n| ok(vec![("discarded".to_owned(), Json::Int(n as i64))])),
        // A name no shard owns surfaces as the typed
        // `ServiceError::UnknownRelation` straight from the service.
        Request::Query { relation } => session.service().query(relation).map(|tuples| {
            ok(vec![
                ("relation".to_owned(), Json::str(relation.clone())),
                ("count".to_owned(), Json::Int(tuples.len() as i64)),
                (
                    "tuples".to_owned(),
                    Json::Arr(tuples.iter().map(tuple_json).collect()),
                ),
            ])
        }),
        Request::Stats => Ok(stats_response(session.service(), session.pending())),
        Request::Checkpoint => session
            .service()
            .checkpoint()
            .map(|watermark| ok(vec![("watermark".to_owned(), Json::Int(watermark as i64))])),
        Request::Register { spec, mode } => spec.to_strategy().and_then(|strategy| {
            let service = session.service();
            let seq = service.register_view(strategy, *mode)?;
            Ok(ok(vec![
                ("registered".to_owned(), Json::str(spec.view.name.clone())),
                ("commit_seq".to_owned(), Json::Int(seq as i64)),
                ("shards".to_owned(), Json::Int(service.shard_count() as i64)),
            ]))
        }),
        Request::Unregister { view } => {
            let service = session.service();
            service.unregister_view(view).map(|seq| {
                ok(vec![
                    ("unregistered".to_owned(), Json::str(view.clone())),
                    ("commit_seq".to_owned(), Json::Int(seq as i64)),
                    ("shards".to_owned(), Json::Int(service.shard_count() as i64)),
                ])
            })
        }
        // Stateless by design: an ill-formed or ill-behaved strategy is
        // the *answer* (`valid:false`), not an error.
        Request::Validate { spec } => Ok(validate_response(spec)),
        Request::Quit => Ok(quit_response()),
    };
    result.unwrap_or_else(|e| error_response(&e))
}

/// The `quit` acknowledgement — the connection's last response (the
/// transport closes after writing it).
pub(crate) fn quit_response() -> Json {
    ok(vec![("bye".to_owned(), Json::Bool(true))])
}

/// The `validate` reply: parse the payload, run Algorithm 1, and report
/// the verdict. Every strategy-level failure — bad shape, unsafe rules,
/// a GetPut/PutGet counterexample — is a `valid:false` verdict with the
/// analysis's reason; only malformed *JSON* is a protocol error (caught
/// upstream at request parse time).
fn validate_response(spec: &StrategySpec) -> Json {
    let verdict = spec
        .to_strategy()
        .and_then(|strategy| {
            birds_core::validate(&strategy).map_err(|e| ServiceError::InvalidStrategy {
                reason: e.to_string(),
            })
        })
        .map(|report| (report.valid, report.reason));
    let (valid, reason) = match verdict {
        Ok((valid, reason)) => (valid, reason),
        Err(ServiceError::InvalidStrategy { reason }) => (false, Some(reason)),
        Err(e) => (false, Some(e.to_string())),
    };
    let mut fields = vec![("valid".to_owned(), Json::Bool(valid))];
    if let Some(reason) = reason {
        fields.push(("reason".to_owned(), Json::str(reason)));
    }
    ok(fields)
}

/// The `stats` reply. Lock-free on purpose: `view_names` /
/// `relation_stats` read the shards' published MVCC snapshots, so a
/// stats call never waits on any shard's group commit. `pending` is the
/// session's buffered-statement count, passed in by the caller — the
/// reactor's stateless lane supplies a mirror maintained by session-lane
/// workers rather than locking the session behind a slow commit.
fn stats_response(service: &Service, pending: usize) -> Json {
    let shards = service.shard_count();
    let views: Vec<Json> = service.view_names().into_iter().map(Json::str).collect();
    let relations: Vec<Json> = service
        .relation_stats()
        .into_iter()
        .map(|stats| {
            Json::Obj(vec![
                ("name".to_owned(), Json::str(stats.name)),
                ("tuples".to_owned(), Json::Int(stats.tuples as i64)),
                ("index_hits".to_owned(), Json::Int(stats.index_hits as i64)),
                (
                    "index_misses".to_owned(),
                    Json::Int(stats.index_misses as i64),
                ),
            ])
        })
        .collect();
    ok(vec![
        ("commits".to_owned(), Json::Int(service.commits() as i64)),
        (
            "wal_syncs".to_owned(),
            Json::Int(service.wal_syncs() as i64),
        ),
        ("pending".to_owned(), Json::Int(pending as i64)),
        ("shards".to_owned(), Json::Int(shards as i64)),
        ("views".to_owned(), Json::Arr(views)),
        ("relations".to_owned(), Json::Arr(relations)),
    ])
}

/// Serve a **stateless-lane** request (see [`Request::is_session_op`])
/// without touching any connection's session: autocommit `execute`,
/// `query`, `ping`, and `checkpoint` run through a scratch session —
/// each autocommit script is its own transaction, so a scratch session
/// is behaviorally identical to the connection's — while `stats` takes
/// the caller-supplied `pending` mirror. Must not be called with
/// session ops (`begin`/`commit`/`rollback`/in-batch `execute`); those
/// would misbehave against a scratch session, so they report a protocol
/// error instead.
pub(crate) fn stateless_response(service: &Service, request: &Request, pending: usize) -> Json {
    match request {
        Request::Stats => stats_response(service, pending),
        Request::Begin | Request::Commit | Request::Rollback => error_response(
            &ServiceError::Protocol("session op routed to the stateless lane".into()),
        ),
        _ => {
            let mut scratch = service.session();
            dispatch(&mut scratch, request)
        }
    }
}

/// An autocommit `execute` ready for its shard's group-commit queue,
/// or the reply it gets without one: an empty script applies at once,
/// a malformed or multi-view one fails. Parsed as [`dispatch`] parses.
pub(crate) fn autocommit_tx(service: &Service, sql: &str) -> Result<Arc<PendingTx>, Json> {
    let view = parse_dml(sql).and_then(|statements| {
        let view = service.autocommit_view(&statements)?;
        Ok(view.map(|view| PendingTx::new(vec![(view, statements)])))
    });
    match view {
        Ok(Some(tx)) => Ok(tx),
        Ok(None) => Err(applied_response(&ExecutionStats::default())),
        Err(e) => Err(error_response(&e)),
    }
}

/// The reply to an autocommit transaction whose epoch filled its
/// result — the one [`dispatch`] gives.
pub(crate) fn autocommit_reply(tx: &PendingTx) -> Json {
    match tx.result() {
        Ok((_, stats)) => applied_response(&stats),
        Err(e) => error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn union_spec() -> StrategySpec {
        StrategySpec {
            view: Schema::new("v", vec![("a", SortKind::Int)]),
            sources: vec![
                Schema::new("r1", vec![("a", SortKind::Int)]),
                Schema::new("r2", vec![("a", SortKind::Int)]),
            ],
            putdelta: "-r1(X) :- r1(X), not v(X).\n\
                       -r2(X) :- r2(X), not v(X).\n\
                       +r1(X) :- v(X), not r1(X), not r2(X)."
                .to_owned(),
            expected_get: None,
        }
    }

    #[test]
    fn requests_round_trip_through_encode_parse() {
        let requests = [
            Request::Ping,
            Request::Execute {
                sql: "INSERT INTO v VALUES (1, 'a\"b');".to_owned(),
            },
            Request::Begin,
            Request::Commit,
            Request::Rollback,
            Request::Query {
                relation: "v".to_owned(),
            },
            Request::Stats,
            Request::Checkpoint,
            Request::Register {
                spec: union_spec(),
                mode: StrategyMode::Incremental,
            },
            Request::Register {
                spec: StrategySpec {
                    expected_get: Some("v(X) :- r1(X). v(X) :- r2(X).".to_owned()),
                    ..union_spec()
                },
                mode: StrategyMode::Original,
            },
            Request::Unregister {
                view: "v".to_owned(),
            },
            Request::Validate { spec: union_spec() },
            Request::Quit,
        ];
        for r in requests {
            let line = r.encode();
            assert!(!line.contains('\n'), "one line per request: {line}");
            assert_eq!(Request::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for line in [
            "not json",
            "{}",
            r#"{"op": 7}"#,
            r#"{"op":"nope"}"#,
            r#"{"op":"execute"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"unregister"}"#,
            r#"{"op":"register"}"#,
            r#"{"op":"register","view":{"name":"v","columns":[["a","int"]]},"sources":[],"putdelta":"x","mode":"sometimes"}"#,
            r#"{"op":"validate","view":{"name":"v","columns":[["a","nope"]]},"sources":[],"putdelta":"x"}"#,
        ] {
            assert!(
                matches!(Request::parse(line), Err(ServiceError::Protocol(_))),
                "{line}"
            );
        }
    }

    #[test]
    fn envelope_extracts_and_salvages_ids() {
        let env = Envelope::parse(r#"{"op":"ping","id":7}"#).unwrap();
        assert_eq!(env.id, Some(Json::Int(7)));
        assert_eq!(env.request, Request::Ping);

        let env = Envelope::parse(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(env.id, None);

        // Malformed op, but the id survives for the error response.
        let (id, err) = Envelope::parse(r#"{"op":"nope","id":"abc"}"#).unwrap_err();
        assert_eq!(id, Some(Json::str("abc")));
        assert!(matches!(err, ServiceError::Protocol(_)));

        // Not JSON at all: no id to salvage.
        let (id, _) = Envelope::parse("garbage").unwrap_err();
        assert_eq!(id, None);
    }

    #[test]
    fn with_id_echoes_into_responses() {
        let tagged = with_id(
            ok(vec![("pong".to_owned(), Json::Bool(true))]),
            Some(Json::Int(42)),
        );
        assert_eq!(tagged.get("id").and_then(Json::as_i64), Some(42));
        let untagged = with_id(ok(vec![]), None);
        assert!(untagged.get("id").is_none());
    }

    #[test]
    fn encode_with_id_round_trips() {
        let line = Request::Ping.encode_with_id(Json::str("req-1"));
        let env = Envelope::parse(&line).unwrap();
        assert_eq!(env.request, Request::Ping);
        assert_eq!(env.id, Some(Json::str("req-1")));
    }

    #[test]
    fn salvage_id_finds_top_level_ids_in_prefixes() {
        // The common pipelining shapes: id early, value cut off later.
        assert_eq!(
            salvage_id(r#"{"op":"execute","id":42,"sql":"INSERT INTO v VAL"#),
            Some(Json::Int(42))
        );
        assert_eq!(
            salvage_id(r#"{"id":"req-7","op":"execute","sql":"xxxxxxx"#),
            Some(Json::str("req-7"))
        );
        assert_eq!(salvage_id(r#"{"id":true,"sql":"#), Some(Json::Bool(true)));
        assert_eq!(salvage_id(r#"{"id":-3.5,"op":"#), Some(Json::Float(-3.5)));
    }

    #[test]
    fn salvage_id_refuses_ambiguous_or_nested_shapes() {
        // No id at all.
        assert_eq!(salvage_id(r#"{"op":"execute","sql":"xxxx"#), None);
        // "id" as a *value*, not a key.
        assert_eq!(salvage_id(r#"{"op":"id","sql":"xxxx"#), None);
        // "id" inside a nested object or array is not the request id.
        assert_eq!(salvage_id(r#"{"meta":{"id":9},"sql":"xxxx"#), None);
        assert_eq!(salvage_id(r#"{"tags":["id",7],"sql":"xxxx"#), None);
        // An id whose value the cut truncated must not be echoed wrong:
        // the full number (1234...) may continue past the prefix.
        assert_eq!(salvage_id(r#"{"sql":"x","id":12"#), None);
        assert_eq!(salvage_id(r#"{"sql":"x","id":"unterminat"#), None);
        // Escaped quotes inside earlier strings don't derail the scan.
        assert_eq!(
            salvage_id(r#"{"sql":"say \"hi\" {not json}","id":5,"x":"#),
            Some(Json::Int(5))
        );
    }

    #[test]
    fn error_responses_carry_the_message() {
        let resp = error_response(&ServiceError::NoBatchOpen);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("no batch"));
    }
}
