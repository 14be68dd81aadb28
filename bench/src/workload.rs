//! The four workloads: what data each generates from the seed, which
//! client roles drive it, and what the database must hold afterwards.

use crate::gen::{
    items_rows, lux_get, outstanding_get, BatchStream, Cell, Digest, LuxStream, Row, SplitMix64,
    Statement, TaskStream, ViewModel, LARGE_ROWS, SMALL_ROWS,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    AutocommitSmall,
    SemijoinLarge,
    BatchBulk,
    MixedReadWrite,
}

/// How a view's sources follow from its content (the strategy's putback,
/// restated over the bench's own rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewKind {
    /// `view(I, P) :- table(I, P), P > 1000.`
    Lux { table: String },
    /// `outstanding_task` over `tasks` and `assignment`.
    Outstanding,
}

#[derive(Debug, Clone)]
pub struct ViewInput {
    pub name: String,
    pub kind: ViewKind,
    /// `get` of the seeded sources: the view's content at start.
    pub seeded: Vec<Row>,
}

/// Everything generated from `--seed` for one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Base tables, by name.
    pub tables: BTreeMap<String, Vec<Row>>,
    pub views: Vec<ViewInput>,
}

/// One connection's role. Each client runs on its own thread, closed
/// loop: it waits for a reply before sending beyond its window.
pub enum Client {
    /// Id-tagged autocommit `execute`s, at most `window` unanswered
    /// (`window == 1` is lockstep).
    Writer {
        view: usize,
        stream: Box<dyn Iterator<Item = Statement> + Send>,
        window: usize,
    },
    /// `begin`, 1 000 pipelined `execute`s, `commit`; repeated.
    Batcher { view: usize, stream: BatchStream },
    /// Lockstep `query`: nine of `small`, then one full scan of `large`.
    Reader {
        small: String,
        small_rows: u64,
        large: String,
    },
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AutocommitSmall,
        Workload::SemijoinLarge,
        Workload::BatchBulk,
        Workload::MixedReadWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AutocommitSmall => "autocommit_small",
            Workload::SemijoinLarge => "semijoin_large",
            Workload::BatchBulk => "batch_bulk",
            Workload::MixedReadWrite => "mixed_read_write",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--strategy` catalogue the child is started with.
    pub fn catalogue_path(self) -> PathBuf {
        crate::server::repo_root()
            .join("bench")
            .join("catalogues")
            .join(format!("{}.json", self.name()))
    }

    /// The percentile (permille) `write_tail_us` reports on this
    /// workload: the highest of p99.9/p99/p95/p90 that has at least ten
    /// samples beyond it in a run *and* repeated within its bound over
    /// the A/A runs in `out/aa-baseline.json`. Pinned; never changed.
    pub fn tail_permille(self) -> u32 {
        match self {
            Workload::AutocommitSmall => 950,
            Workload::SemijoinLarge => 950,
            Workload::BatchBulk => 900,
            Workload::MixedReadWrite => 990,
        }
    }

    /// Units `client` sends, untimed, before the window opens. Plans are
    /// already steady after recovery; this fills socket buffers,
    /// allocator pools and the reactor's per-connection state.
    pub fn warmup_units(self, client: &Client) -> usize {
        match (self, client) {
            (_, Client::Reader { .. }) => 200,
            (Workload::SemijoinLarge, _) => 16,
            (_, Client::Batcher { .. }) => 3,
            (_, Client::Writer { .. }) => 2_000,
        }
    }

    /// Write units each rung of the layer ladder times.
    pub fn rung_units(self) -> usize {
        match self {
            Workload::AutocommitSmall | Workload::MixedReadWrite => 2_000,
            Workload::SemijoinLarge => 40,
            Workload::BatchBulk => 4,
        }
    }

    /// Write units committed lockstep after a `checkpoint` and before
    /// the SIGKILL, so every run replays the same amount of WAL.
    pub fn recovery_tail_units(self) -> usize {
        match self {
            Workload::AutocommitSmall | Workload::MixedReadWrite => 500,
            Workload::SemijoinLarge => 24,
            Workload::BatchBulk => 2,
        }
    }

    pub fn generate(self, seed: u64) -> Inputs {
        let root = SplitMix64::new(seed);
        let mut tables = BTreeMap::new();
        let mut views = Vec::new();
        let mut lux = |view: &str, table: &str, rows: usize, lane: u64| {
            let items = items_rows(rows, &mut root.fork(lane));
            views.push(ViewInput {
                name: view.to_owned(),
                kind: ViewKind::Lux {
                    table: table.to_owned(),
                },
                seeded: lux_get(&items),
            });
            tables.insert(table.to_owned(), items);
        };
        match self {
            Workload::AutocommitSmall => {
                lux("lux0", "items0", LARGE_ROWS, 1);
                lux("lux1", "items1", LARGE_ROWS, 2);
            }
            Workload::BatchBulk => lux("luxuryitems", "items", LARGE_ROWS, 1),
            Workload::MixedReadWrite => {
                lux("luxuryitems", "items", LARGE_ROWS, 1);
                lux("lux_small", "items_small", SMALL_ROWS, 2);
            }
            Workload::SemijoinLarge => {
                let (tasks, assignment) = crate::gen::tasks_rows(LARGE_ROWS, &mut root.fork(1));
                views.push(ViewInput {
                    name: "outstanding_task".to_owned(),
                    kind: ViewKind::Outstanding,
                    seeded: outstanding_get(&tasks, &assignment),
                });
                tables.insert("tasks".to_owned(), tasks);
                tables.insert("assignment".to_owned(), assignment);
            }
        }
        Inputs { tables, views }
    }

    /// The connections of this workload (at most `nproc` = 2).
    pub fn clients(self, inputs: &Inputs, seed: u64) -> Vec<Client> {
        let root = SplitMix64::new(seed);
        let lux_writer = |view: usize, lane: u64, window: usize| Client::Writer {
            view,
            // Insert-to-delete distance: 1 000 statements.
            stream: Box::new(LuxStream::new(
                &inputs.views[view].name,
                &inputs.views[view].seeded,
                root.fork(100 + lane),
                1_000,
            )),
            window,
        };
        match self {
            Workload::AutocommitSmall => vec![lux_writer(0, 0, 8), lux_writer(1, 1, 8)],
            // One lockstep connection, not the two of the ISSUE: a commit
            // here is ~10 ms of one worker's CPU, and a second writer
            // queued on the same shard is woken onto a busy core, so its
            // round trip snaps to the 4 ms scheduler tick (20 or 24 ms,
            // run by run) and measures the tick, not the server.
            Workload::SemijoinLarge => vec![Client::Writer {
                view: 0,
                stream: Box::new(TaskStream::new(&inputs.views[0].seeded, 16)),
                window: 1,
            }],
            Workload::BatchBulk => vec![Client::Batcher {
                view: 0,
                stream: BatchStream::new(
                    &inputs.views[0].name,
                    &inputs.views[0].seeded,
                    root.fork(100),
                ),
            }],
            Workload::MixedReadWrite => vec![
                lux_writer(0, 0, 1),
                Client::Reader {
                    small: inputs.views[1].name.clone(),
                    small_rows: inputs.views[1].seeded.len() as u64,
                    large: inputs.views[0].name.clone(),
                },
            ],
        }
    }
}

impl Client {
    /// The next write unit of this client's stream: one statement (an
    /// autocommit transaction) or a whole batch. `None` for a reader.
    pub fn next_unit(&mut self) -> Option<Vec<Statement>> {
        match self {
            Client::Writer { stream, .. } => stream.next().map(|s| vec![s]),
            Client::Batcher { stream, .. } => stream.next(),
            Client::Reader { .. } => None,
        }
    }
}

impl Inputs {
    /// Fresh models of every view, at the seeded state.
    pub fn models(&self) -> Vec<ViewModel> {
        self.views
            .iter()
            .map(|view| ViewModel::new(&view.seeded))
            .collect()
    }

    /// What every relation must digest to once the views hold `models`:
    /// each view is its model, each source is what the strategy's
    /// putback leaves — so `view = get(source)` is part of the check.
    pub fn expected(&self, models: &[ViewModel]) -> BTreeMap<String, Digest> {
        let mut expected = BTreeMap::new();
        for (view, model) in self.views.iter().zip(models) {
            expected.insert(view.name.clone(), Digest::of(model.rows()));
            match &view.kind {
                ViewKind::Lux { table } => {
                    // Cheap rows never enter the view and are never touched.
                    let cheap = self.tables[table]
                        .iter()
                        .filter(|row| matches!(row[1], Cell::Int(price) if price <= 1000));
                    expected.insert(table.clone(), Digest::of(cheap.chain(model.rows())));
                }
                ViewKind::Outstanding => {
                    let assignment = &self.tables["assignment"];
                    let assigned: std::collections::BTreeSet<&Cell> =
                        assignment.iter().map(|row| &row[0]).collect();
                    let open = Cell::Str("open".to_owned());
                    // Rows outside the view's reach stay; rows inside it
                    // are exactly the view's rows, marked open.
                    let untouched = self.tables["tasks"]
                        .iter()
                        .filter(|row| !(row[4] == open && assigned.contains(&row[0])));
                    let from_view: Vec<Row> = model
                        .rows()
                        .map(|row| {
                            let mut task = row.clone();
                            task.push(open.clone());
                            task
                        })
                        .collect();
                    expected.insert(
                        "tasks".to_owned(),
                        Digest::of(untouched.chain(from_view.iter())),
                    );
                    expected.insert("assignment".to_owned(), Digest::of(assignment));
                }
            }
        }
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            assert!(workload.catalogue_path().is_file(), "{workload:?}");
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn expected_sources_at_the_seeded_state_are_the_generated_tables() {
        for workload in Workload::ALL {
            let inputs = workload.generate(11);
            let expected = inputs.expected(&inputs.models());
            for (table, rows) in &inputs.tables {
                assert_eq!(expected[table], Digest::of(rows), "{workload:?} {table}");
            }
            for view in &inputs.views {
                assert_eq!(expected[&view.name], Digest::of(&view.seeded));
            }
            assert_eq!(expected.len(), inputs.tables.len() + inputs.views.len());
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for workload in Workload::ALL {
            let digest = |seed| -> Vec<Digest> {
                workload
                    .generate(seed)
                    .tables
                    .values()
                    .map(Digest::of)
                    .collect()
            };
            assert_eq!(digest(5), digest(5));
            assert_ne!(digest(5), digest(6));
        }
    }
}
