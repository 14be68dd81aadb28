//! From generated rows to a running database: the catalogue file, the
//! in-process engine built from it, and the seeded data directory the
//! child recovers from.
//!
//! **Load path.** Data reaches the child by *recovery*: the harness
//! opens a durable `Service` over the fully populated engine and
//! checkpoints it, so the child starts from a snapshot and plans every
//! rule against real relation sizes. Bulk-loading 100 000 rows through
//! the view instead leaves plans cached against empty relations (4.9 ms
//! per autocommit instead of 127 µs at the seed commit) — a real defect,
//! but not the steady state this benchmark measures.

use crate::gen::{Cell, Row};
use crate::workload::{Inputs, Workload};
use birds_core::UpdateStrategy;
use birds_datalog::{parse_program, Program};
use birds_engine::{Engine, StrategyMode};
use birds_service::protocol::{schema_from_json, spec_from_json};
use birds_service::{DurabilityConfig, Json, Service, ServiceConfig};
use birds_store::{Database, Relation, Tuple, Value};
use std::path::Path;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// One view of a catalogue, parsed.
pub struct CatalogueView {
    pub strategy: UpdateStrategy,
    /// The declared view definition (`expected_get`), used to register
    /// without re-running validation on every set-up.
    pub get: Program,
    /// The putback program's source text (for `datalog.parse_us`).
    pub putdelta: String,
}

pub struct Catalogue {
    /// `(name, arity)` of every base table, in file order.
    pub tables: Vec<(String, usize)>,
    pub views: Vec<CatalogueView>,
}

impl Catalogue {
    pub fn load(workload: Workload) -> BenchResult<Catalogue> {
        let path = workload.catalogue_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        let array = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{}: no array '{key}'", path.display()))
        };
        let tables = array("tables")?
            .iter()
            .map(|table| schema_from_json(table).map(|s| (s.name.clone(), s.arity())))
            .collect::<Result<_, _>>()?;
        let views = array("views")?
            .iter()
            .map(|view| -> BenchResult<CatalogueView> {
                let spec = spec_from_json(view)?;
                let get = spec
                    .expected_get
                    .as_deref()
                    .ok_or("bench catalogues declare expected_get")?;
                Ok(CatalogueView {
                    strategy: spec.to_strategy()?,
                    get: parse_program(get)?,
                    putdelta: spec.putdelta.clone(),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Catalogue { tables, views })
    }

    /// An engine over the generated base tables; with `with_views`, every
    /// catalogue view registered (incremental mode, declared get — the
    /// strategies are validated once, by `core.validate_ms`, not on each
    /// set-up) and materialized.
    pub fn engine(&self, inputs: &Inputs, with_views: bool) -> BenchResult<Engine> {
        let mut db = Database::new();
        for (name, arity) in &self.tables {
            let rows = inputs
                .tables
                .get(name)
                .ok_or_else(|| format!("no generated data for table '{name}'"))?;
            db.add_relation(Relation::with_tuples(
                name,
                *arity,
                rows.iter().map(to_tuple),
            )?)?;
        }
        let mut engine = Engine::new(db);
        if with_views {
            for view in &self.views {
                engine.register_view_unchecked(
                    view.strategy.clone(),
                    view.get.clone(),
                    StrategyMode::Incremental,
                )?;
            }
        }
        Ok(engine)
    }
}

pub fn to_tuple(row: &Row) -> Tuple {
    Tuple::new(
        row.iter()
            .map(|cell| match cell {
                Cell::Int(i) => Value::int(*i),
                Cell::Str(s) => Value::str(s),
            })
            .collect(),
    )
}

/// Write `engine` into `data_dir` the way a running service would:
/// open durably, checkpoint, close. The directory then holds one
/// snapshot (manifest + every relation) and empty WAL segments.
pub fn seed_data_dir(engine: Engine, data_dir: &Path) -> BenchResult<()> {
    let service = Service::open(
        engine,
        ServiceConfig::default(),
        DurabilityConfig::new(data_dir),
    )?;
    service.checkpoint()?;
    Ok(())
}
