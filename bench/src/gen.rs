//! Seeded inputs: base-table data, the per-connection statement streams
//! of the four workloads, and the model that tracks what every acked
//! statement must have done (the oracle compares the server against it).
//!
//! Everything here is a pure function of `--seed`: the child process
//! receives only the generated data directory and wire requests.

use std::collections::{BTreeMap, VecDeque};

/// Rows per large base table (`items*`, `tasks`): the ISSUE's fixed size.
pub const LARGE_ROWS: usize = 100_000;
/// Rows of `items_small` under `lux_small` in `mixed_read_write`.
pub const SMALL_ROWS: usize = 200;
/// Statements per `batch_bulk` transaction.
pub const BATCH_STATEMENTS: usize = 1_000;

/// SplitMix64 (Steele, Lea, Flood 2014) — the whole generator; no
/// dependency on `vendor/rand` so the stream is pinned by this file.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// An independent stream for sub-generator `lane` of this seed.
    pub fn fork(&self, lane: u64) -> SplitMix64 {
        let mut parent = SplitMix64(self.0 ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64(parent.next_u64())
    }
}

/// One value of a row, as the wire protocol carries it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    Int(i64),
    Str(String),
}

pub type Row = Vec<Cell>;

/// Order-independent digest of a set of rows: count plus the wrapping
/// sum of per-row FNV-1a hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Digest {
        let mut digest = Digest::default();
        for row in rows {
            digest.rows += 1;
            digest.sum = digest.sum.wrapping_add(row_hash(row));
        }
        digest
    }
}

fn row_hash(row: &Row) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
        }
    };
    for cell in row {
        match cell {
            Cell::Int(i) => {
                eat(b"i");
                eat(&i.to_le_bytes());
            }
            Cell::Str(s) => {
                eat(b"s");
                eat(&(s.len() as u64).to_le_bytes());
                eat(s.as_bytes());
            }
        }
    }
    h
}

/// `items(id, price)`: ids `0..n`, about half priced above the luxury
/// threshold (`price > 1000`), so a luxuryitems-shaped view holds ≈ n/2.
pub fn items_rows(n: usize, rng: &mut SplitMix64) -> Vec<Row> {
    (0..n as i64)
        .map(|id| {
            let price = if rng.coin() {
                1001 + rng.below(3999) as i64
            } else {
                1 + rng.below(1000) as i64
            };
            vec![Cell::Int(id), Cell::Int(price)]
        })
        .collect()
}

/// `tasks(tid, title, due, owner, status)` (≈ half `open`) and
/// `assignment(tid, worker)` for ≈ three quarters of the tids — the
/// shape of the corpus generator, re-derived from this bench's seed.
pub fn tasks_rows(n: usize, rng: &mut SplitMix64) -> (Vec<Row>, Vec<Row>) {
    let mut tasks = Vec::with_capacity(n);
    let mut assignment = Vec::with_capacity(n);
    for i in 0..n as i64 {
        let status = if rng.coin() { "open" } else { "done" };
        let day = 1 + rng.below(28);
        tasks.push(vec![
            Cell::Int(i + 1),
            Cell::Str(format!("task{i}")),
            Cell::Str(format!("2020-06-{day:02}")),
            Cell::Str(format!("owner{}", i % 97)),
            Cell::Str(status.to_owned()),
        ]);
        if rng.below(4) != 0 {
            assignment.push(vec![
                Cell::Int(i + 1),
                Cell::Str(format!("worker{}", i % 31)),
            ]);
        }
    }
    (tasks, assignment)
}

/// `get` of a luxuryitems-shaped view: `items(I, P), P > 1000`.
pub fn lux_get(items: &[Row]) -> Vec<Row> {
    items
        .iter()
        .filter(|row| matches!(row[1], Cell::Int(price) if price > 1000))
        .cloned()
        .collect()
}

/// `get` of `outstanding_task`: open tasks that have an assignment,
/// projected to `(tid, title, due, owner)`.
pub fn outstanding_get(tasks: &[Row], assignment: &[Row]) -> Vec<Row> {
    let assigned: std::collections::BTreeSet<&Cell> = assignment.iter().map(|r| &r[0]).collect();
    tasks
        .iter()
        .filter(|row| row[4] == Cell::Str("open".to_owned()) && assigned.contains(&row[0]))
        .map(|row| row[..4].to_vec())
        .collect()
}

/// What one statement does to its view, for the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// The view gains this row (and its source table the matching row).
    Insert(Row),
    /// The view loses every row whose first column is this key.
    DeleteKey(i64),
}

/// One generated DML statement plus its modelled effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    pub sql: String,
    pub effect: Effect,
}

/// First column of a generated row: the key, unique in every table.
fn key(row: &Row) -> i64 {
    match row[0] {
        Cell::Int(key) => key,
        Cell::Str(_) => unreachable!("every generated key is an int"),
    }
}

/// Statement maker for one luxuryitems-shaped view: fresh ids above
/// every seeded one, prices above the luxury threshold.
#[derive(Debug, Clone)]
struct LuxWriter {
    view: String,
    rng: SplitMix64,
    next_id: i64,
}

impl LuxWriter {
    fn new(view: &str, rng: SplitMix64) -> Self {
        LuxWriter {
            view: view.to_owned(),
            rng,
            next_id: LARGE_ROWS as i64 * 10,
        }
    }

    /// An INSERT of a fresh id, and that id.
    fn insert(&mut self) -> (i64, Statement) {
        let id = self.next_id;
        self.next_id += 1;
        let price = 1001 + self.rng.below(3999) as i64;
        let statement = Statement {
            sql: format!("INSERT INTO {} VALUES ({id}, {price});", self.view),
            effect: Effect::Insert(vec![Cell::Int(id), Cell::Int(price)]),
        };
        (id, statement)
    }

    fn delete(&self, id: i64) -> Statement {
        Statement {
            sql: format!("DELETE FROM {} WHERE id = {id};", self.view),
            effect: Effect::DeleteKey(id),
        }
    }
}

/// Endless alternation on a luxuryitems-shaped view: a fresh-id INSERT,
/// then a DELETE of the id inserted `lag` statements earlier (of a
/// seeded view row while the stream is younger than `lag`), so the view
/// keeps its size.
#[derive(Debug, Clone)]
pub struct LuxStream {
    writer: LuxWriter,
    /// Seeded luxury ids consumed by the first `lag / 2` deletes.
    seeded: std::vec::IntoIter<i64>,
    inserted: VecDeque<i64>,
    lag_inserts: usize,
    emitted: u64,
}

impl LuxStream {
    /// `seeded_view` is the view's content at start; `lag` the distance,
    /// in statements, between an insert and its delete.
    pub fn new(view: &str, seeded_view: &[Row], rng: SplitMix64, lag: usize) -> Self {
        let seeded: Vec<i64> = seeded_view.iter().map(key).collect();
        LuxStream {
            writer: LuxWriter::new(view, rng),
            seeded: seeded.into_iter(),
            inserted: VecDeque::new(),
            lag_inserts: lag / 2,
            emitted: 0,
        }
    }
}

impl Iterator for LuxStream {
    type Item = Statement;

    fn next(&mut self) -> Option<Statement> {
        let statement = if self.emitted % 2 == 0 {
            let (id, statement) = self.writer.insert();
            self.inserted.push_back(id);
            statement
        } else {
            let id = if self.inserted.len() > self.lag_inserts {
                self.inserted.pop_front().expect("non-empty")
            } else {
                self.seeded
                    .next()
                    .expect("seeded view outlasts the delete lag")
            };
            self.writer.delete(id)
        };
        self.emitted += 1;
        Some(statement)
    }
}

/// One `batch_bulk` transaction: 450 fresh inserts, 450 deletes of rows
/// inserted at least two batches ago (seeded rows for the first two
/// batches), and 50 insert-then-delete pairs that cancel inside the
/// batch — interleaved in a fixed pattern.
#[derive(Debug, Clone)]
pub struct BatchStream {
    writer: LuxWriter,
    seeded: std::vec::IntoIter<i64>,
    /// Ids inserted (and kept) by earlier batches, oldest batch first.
    history: VecDeque<Vec<i64>>,
}

impl BatchStream {
    pub fn new(view: &str, seeded_view: &[Row], rng: SplitMix64) -> Self {
        let seeded: Vec<i64> = seeded_view.iter().map(key).collect();
        BatchStream {
            writer: LuxWriter::new(view, rng),
            seeded: seeded.into_iter(),
            history: VecDeque::new(),
        }
    }
}

impl Iterator for BatchStream {
    type Item = Vec<Statement>;

    fn next(&mut self) -> Option<Vec<Statement>> {
        // Deletes come from the batch before the previous one.
        let mut victims: Vec<i64> = if self.history.len() >= 2 {
            self.history.pop_front().expect("two batches of history")
        } else {
            self.seeded.by_ref().take(450).collect()
        };
        assert_eq!(victims.len(), 450, "seeded view outlasts two batches");
        let mut kept = Vec::with_capacity(450);
        let mut batch = Vec::with_capacity(BATCH_STATEMENTS);
        // Twenty statements per round, fifty rounds: 9 inserts, 9
        // deletes, and one cancelling insert/delete pair.
        for _ in 0..50 {
            for _ in 0..9 {
                let (id, insert) = self.writer.insert();
                kept.push(id);
                batch.push(insert);
                batch.push(self.writer.delete(victims.pop().expect("450 victims")));
            }
            let (id, insert) = self.writer.insert();
            batch.push(insert);
            batch.push(self.writer.delete(id));
        }
        self.history.push_back(kept);
        Some(batch)
    }
}

/// `semijoin_large`: over the seeded `outstanding_task` rows,
/// alternately delete the next one from the view and re-insert the one
/// deleted `lag` statements earlier. A re-inserted row had an assignment
/// when it was seeded, so the inclusion constraint always holds. Past
/// its last row the stream starts over: those rows were re-inserted
/// long ago.
#[derive(Debug, Clone)]
pub struct TaskStream {
    fresh: std::iter::Cycle<std::vec::IntoIter<Row>>,
    deleted: VecDeque<Row>,
    lag_deletes: usize,
    emitted: u64,
}

impl TaskStream {
    /// `lag` is the distance, in statements, between a delete and its
    /// re-insert.
    pub fn new(seeded_view: &[Row], lag: usize) -> Self {
        assert!(
            seeded_view.len() > lag,
            "a row is back in the view before its turn comes again"
        );
        let rows: Vec<Row> = seeded_view.to_vec();
        TaskStream {
            fresh: rows.into_iter().cycle(),
            deleted: VecDeque::new(),
            lag_deletes: lag / 2,
            emitted: 0,
        }
    }
}

fn sql_literal(cell: &Cell) -> String {
    match cell {
        Cell::Int(i) => i.to_string(),
        Cell::Str(s) => format!("'{s}'"),
    }
}

impl Iterator for TaskStream {
    type Item = Statement;

    fn next(&mut self) -> Option<Statement> {
        let reinsert = self.emitted % 2 == 1 && self.deleted.len() > self.lag_deletes;
        self.emitted += 1;
        if reinsert {
            let row = self.deleted.pop_front().expect("non-empty");
            let values: Vec<String> = row.iter().map(sql_literal).collect();
            return Some(Statement {
                sql: format!(
                    "INSERT INTO outstanding_task VALUES ({});",
                    values.join(", ")
                ),
                effect: Effect::Insert(row),
            });
        }
        let row = self.fresh.next().expect("a cycle over a non-empty view");
        let tid = key(&row);
        self.deleted.push_back(row);
        Some(Statement {
            sql: format!("DELETE FROM outstanding_task WHERE tid = {tid};"),
            effect: Effect::DeleteKey(tid),
        })
    }
}

/// Expected content of one view, keyed by its first column (unique in
/// every generated table). Acked statements are folded in as they are
/// acknowledged; the source tables follow from the view by the
/// strategy's putback (see `Expected::sources`).
#[derive(Debug, Clone, Default)]
pub struct ViewModel {
    rows: BTreeMap<i64, Row>,
}

impl ViewModel {
    pub fn new(seeded_view: &[Row]) -> Self {
        let rows = seeded_view
            .iter()
            .map(|row| (key(row), row.clone()))
            .collect();
        ViewModel { rows }
    }

    pub fn apply(&mut self, effect: &Effect) {
        match effect {
            Effect::Insert(row) => {
                self.rows.insert(key(row), row.clone());
            }
            Effect::DeleteKey(key) => {
                self.rows.remove(key);
            }
        }
    }

    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.values()
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let gen = |seed| {
            let root = SplitMix64::new(seed);
            let items = items_rows(500, &mut root.fork(1));
            let stream: Vec<Statement> = LuxStream::new("lux0", &lux_get(&items), root.fork(2), 20)
                .take(100)
                .collect();
            (items, stream)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7).0, gen(8).0);
        assert_ne!(gen(7).1, gen(8).1);
    }

    #[test]
    fn lux_stream_keeps_the_view_size_steady() {
        let items = items_rows(2_000, &mut SplitMix64::new(1));
        let view = lux_get(&items);
        let mut model = ViewModel::new(&view);
        for statement in LuxStream::new("v", &view, SplitMix64::new(2), 100).take(1_000) {
            model.apply(&statement.effect);
        }
        assert_eq!(model.len(), view.len());
    }

    #[test]
    fn batch_has_the_issue_mix_and_cancels_fifty_pairs() {
        let items = items_rows(4_000, &mut SplitMix64::new(1));
        let view = lux_get(&items);
        let mut model = ViewModel::new(&view);
        let mut stream = BatchStream::new("luxuryitems", &view, SplitMix64::new(2));
        for _ in 0..4 {
            let batch = stream.next().unwrap();
            assert_eq!(batch.len(), BATCH_STATEMENTS);
            let inserts = batch
                .iter()
                .filter(|s| matches!(s.effect, Effect::Insert(_)))
                .count();
            assert_eq!(inserts, 500);
            let before = model.len();
            for statement in &batch {
                model.apply(&statement.effect);
            }
            // 450 kept inserts and 450 deletes of existing rows.
            assert_eq!(model.len(), before);
        }
    }

    #[test]
    fn task_stream_reinserts_what_it_deleted() {
        let (tasks, assignment) = tasks_rows(2_000, &mut SplitMix64::new(3));
        let view = outstanding_get(&tasks, &assignment);
        let mut model = ViewModel::new(&view);
        let stream: Vec<Statement> = TaskStream::new(&view, 16).take(200).collect();
        for statement in &stream {
            model.apply(&statement.effect);
        }
        // Deletes run 8 ahead of the re-inserts, plus the 8-delete head
        // start; checked exactly: deletes − inserts.
        let net: i64 = stream
            .iter()
            .map(|s| match s.effect {
                Effect::Insert(_) => 1,
                Effect::DeleteKey(_) => -1,
            })
            .sum();
        assert!(net < 0);
        assert_eq!(model.len() as i64, view.len() as i64 + net);
    }

    #[test]
    fn task_stream_outlasts_its_rows() {
        let (tasks, assignment) = tasks_rows(200, &mut SplitMix64::new(3));
        let view = outstanding_get(&tasks, &assignment);
        let mut model = ViewModel::new(&view);
        // Every delete must hit a row that is in the view, every insert
        // one that is not, also on the second and third time round.
        for statement in TaskStream::new(&view, 16).take(view.len() * 6) {
            let before = model.len();
            model.apply(&statement.effect);
            assert_ne!(model.len(), before, "{}", statement.sql);
        }
    }

    #[test]
    fn digest_ignores_order_and_sees_content() {
        let a = vec![
            vec![Cell::Int(1), Cell::Str("x".into())],
            vec![Cell::Int(2), Cell::Str("y".into())],
        ];
        let b: Vec<Row> = a.iter().rev().cloned().collect();
        assert_eq!(Digest::of(&a), Digest::of(&b));
        let c = vec![a[0].clone(), vec![Cell::Int(2), Cell::Str("z".into())]];
        assert_ne!(Digest::of(&a), Digest::of(&c));
    }
}
