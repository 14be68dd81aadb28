//! The client side of the line-delimited JSON protocol: one blocking
//! TCP connection, requests built as text, responses inspected without a
//! JSON tree (the load generator must stay far cheaper than the server;
//! `client.cpu_s` shows whether it did).

use crate::gen::{Cell, Row};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        // Small request/response lines: Nagle + delayed ACK would turn
        // every lockstep round trip into ~40 ms.
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Send request text that already ends in `\n` (one or many lines)
    /// with a single write.
    pub fn send(&mut self, lines: &str) -> std::io::Result<()> {
        debug_assert!(lines.ends_with('\n'));
        self.writer.write_all(lines.as_bytes())
    }

    /// Block for the next response line (without its newline).
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// One lockstep round trip.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.send(line)?;
        self.recv()
    }
}

/// Append `{"op":"execute","sql":"…","id":N}\n` to `out`.
pub fn push_execute(out: &mut String, sql: &str, id: u64) {
    use std::fmt::Write;
    // Generated SQL quotes strings with ' and never contains characters
    // JSON would need escaped.
    debug_assert!(!sql.contains(['"', '\\', '\n']));
    writeln!(out, r#"{{"op":"execute","sql":"{sql}","id":{id}}}"#).expect("write to String");
}

/// Append `{"op":"<op>","id":N}\n` (`begin`, `commit`, `stats`, …).
pub fn push_op(out: &mut String, op: &str, id: u64) {
    use std::fmt::Write;
    writeln!(out, r#"{{"op":"{op}","id":{id}}}"#).expect("write to String");
}

/// Append `{"op":"query","relation":"…","id":N}\n`.
pub fn push_query(out: &mut String, relation: &str, id: u64) {
    use std::fmt::Write;
    writeln!(out, r#"{{"op":"query","relation":"{relation}","id":{id}}}"#)
        .expect("write to String");
}

/// Did the server answer `{"ok": true, …}`? (`ok` is always the first
/// field of a response object.) Like the two readers below, tolerant of
/// whitespace so a change to the server's encoder does not read as a
/// failure.
pub fn is_ok(response: &str) -> bool {
    (|| {
        let rest = response.strip_prefix('{')?.trim_start();
        let rest = rest.strip_prefix("\"ok\"")?.trim_start();
        Some(rest.strip_prefix(':')?.trim_start().starts_with("true"))
    })()
    .unwrap_or(false)
}

/// The echoed integer `id`: always the *last* field of a response, so
/// it is read from the end (tuple values may contain the text `"id":`).
pub fn response_id(response: &str) -> Option<u64> {
    let body = response.trim_end().strip_suffix('}')?.trim_end();
    let digits = body.rfind(|c: char| !c.is_ascii_digit())? + 1;
    let key = body[..digits].trim_end().strip_suffix(':')?.trim_end();
    key.ends_with("\"id\"")
        .then(|| body[digits..].parse().ok())?
}

/// The first integer field `"name": N` of a response.
pub fn int_field(response: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\"");
    let rest = response[response.find(&key)? + key.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The rows of a `query` response's `"tuples"` array. A scanner of its
/// own because `birds_service::Json::parse` re-validates the rest of the
/// document for every string character — quadratic, minutes for the
/// 7 MB `tasks` relation.
pub fn parse_rows(response: &str) -> Result<Vec<Row>, String> {
    let at = response
        .find("\"tuples\"")
        .ok_or("query response without tuples")?;
    let mut rest = response[at + 8..].trim_start();
    rest = rest.strip_prefix(':').ok_or("expected ':'")?.trim_start();
    rest = rest.strip_prefix('[').ok_or("expected '['")?.trim_start();
    let mut rows = Vec::new();
    if let Some(after) = rest.strip_prefix(']') {
        return after
            .trim_start()
            .starts_with([',', '}'])
            .then_some(rows)
            .ok_or_else(|| "garbage after tuples".to_owned());
    }
    loop {
        rest = rest.strip_prefix('[').ok_or("expected a tuple")?;
        let mut row = Row::new();
        loop {
            rest = rest.trim_start();
            if let Some(text) = rest.strip_prefix('"') {
                let end = text.find(['"', '\\']).ok_or("unterminated string")?;
                if text.as_bytes()[end] == b'\\' {
                    return Err("escaped characters are not generated by this bench".into());
                }
                row.push(Cell::Str(text[..end].to_owned()));
                rest = &text[end + 1..];
            } else {
                let end = rest
                    .find(|c: char| c != '-' && !c.is_ascii_digit())
                    .ok_or("truncated tuple")?;
                let int = rest[..end]
                    .parse()
                    .map_err(|_| "expected an int or a string")?;
                row.push(Cell::Int(int));
                rest = &rest[end..];
            }
            rest = rest.trim_start();
            match rest.as_bytes().first() {
                Some(b',') => rest = &rest[1..],
                Some(b']') => break,
                _ => return Err("expected ',' or ']' in a tuple".into()),
            }
        }
        rows.push(row);
        rest = rest[1..].trim_start();
        match rest.as_bytes().first() {
            Some(b',') => rest = rest[1..].trim_start(),
            Some(b']') => return Ok(rows),
            _ => return Err("expected ',' or ']' after a tuple".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_service::Json;

    #[test]
    fn requests_are_what_the_server_parses() {
        let mut out = String::new();
        push_execute(&mut out, "INSERT INTO v VALUES (1, 'a');", 7);
        push_op(&mut out, "begin", 8);
        push_query(&mut out, "lux_small", 9);
        let lines: Vec<&str> = out.lines().collect();
        let parsed: Vec<birds_service::Envelope> = lines
            .iter()
            .map(|l| birds_service::Envelope::parse(l).expect("valid request"))
            .collect();
        assert_eq!(
            parsed[0].request,
            birds_service::Request::Execute {
                sql: "INSERT INTO v VALUES (1, 'a');".into()
            }
        );
        assert_eq!(parsed[1].request, birds_service::Request::Begin);
        assert_eq!(
            parsed[2].request,
            birds_service::Request::Query {
                relation: "lux_small".into()
            }
        );
        assert_eq!(parsed[2].id, Some(birds_service::Json::Int(9)));
    }

    #[test]
    fn response_fields_are_read_without_a_json_tree() {
        // The server's own rendering of a query response, id echoed.
        let tuples = Json::Arr(vec![
            Json::Arr(vec![Json::Int(1), Json::str("\"id\": 5}")]),
            Json::Arr(vec![Json::Int(2), Json::str("x")]),
        ]);
        let ok = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("relation".into(), Json::str("v")),
            ("count".into(), Json::Int(2)),
            ("tuples".into(), tuples),
            ("id".into(), Json::Int(41)),
        ])
        .to_compact();
        assert!(is_ok(&ok), "{ok}");
        assert_eq!(response_id(&ok), Some(41));
        assert_eq!(int_field(&ok, "count"), Some(2));
        // … and a denser encoder's.
        let dense = r#"{"ok":true,"count":7,"id":3}"#;
        assert!(is_ok(dense));
        assert_eq!(response_id(dense), Some(3));
        assert_eq!(int_field(dense, "count"), Some(7));

        let err = r#"{"ok": false, "error": "nope", "id": 3}"#;
        assert!(!is_ok(err));
        assert_eq!(response_id(err), Some(3));
        assert_eq!(int_field(err, "count"), None);
        assert_eq!(response_id(r#"{"ok": true, "pong": true}"#), None);
        assert_eq!(response_id(r#"{"ok": true, "wid": 4}"#), None);
        assert!(!is_ok("garbage"));
    }

    #[test]
    fn rows_are_scanned_from_a_query_response() {
        let tuples = Json::Arr(vec![
            Json::Arr(vec![Json::Int(-1), Json::str("task 1, [x]"), Json::str("")]),
            Json::Arr(vec![Json::Int(20), Json::str("y"), Json::str("z")]),
        ]);
        let response = |tuples: Json| {
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("tuples".into(), tuples),
                ("id".into(), Json::Int(1)),
            ])
            .to_compact()
        };
        let s = |s: &str| Cell::Str(s.to_owned());
        assert_eq!(
            parse_rows(&response(tuples)),
            Ok(vec![
                vec![Cell::Int(-1), s("task 1, [x]"), s("")],
                vec![Cell::Int(20), s("y"), s("z")],
            ])
        );
        assert_eq!(parse_rows(&response(Json::Arr(vec![]))), Ok(vec![]));
        assert_eq!(
            parse_rows(r#"{"ok":true,"tuples":[[1,2],[3,4]]}"#)
                .unwrap()
                .len(),
            2
        );
        assert!(parse_rows(r#"{"ok": true}"#).is_err());
        assert!(parse_rows(r#"{"tuples": [[1, 2"#).is_err());
        assert!(parse_rows(r#"{"tuples": [[1.5]]}"#).is_err());
        assert!(parse_rows(r#"{"tuples": [["a\"b"]]}"#).is_err());
    }
}
