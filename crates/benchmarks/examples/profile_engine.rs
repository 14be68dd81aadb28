//! Engine phase probe for one Figure 6 panel.
use birds_benchmarks::figure6::Figure6View;
use birds_engine::StrategyMode;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "officeinfo".into());
    let n: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    let view = Figure6View::from_name(&name).expect("known panel");
    let mut engine = view.engine(n, StrategyMode::Incremental);
    let script = view.update_script(n, 0);
    let t = std::time::Instant::now();
    engine.execute(&script).unwrap();
    eprintln!("total: {:?}", t.elapsed());
}
