//! Self-tests of the benchmark's own arithmetic and report format.
//!
//! Run with `cargo test --release --offline --manifest-path benchmark/Cargo.toml`.

use pristi_e2e_bench::inputs::{
    allocate, poisson_schedule, serve_requests, stream_feed, traffic_panel, HORIZON, SERVE_MIX,
};
use pristi_e2e_bench::report::{expected, Report, END_TO_END, PER_LAYER, WORKLOADS};
use pristi_e2e_bench::stats::{nearest_rank, percentile, tail_percentile, Latency, Scores};
use pristi_e2e_bench::trace::union_ns;
use st_obs::json::{self, Json};
use st_rand::{SeedableRng, StdRng};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 91.0), 10.0);
    assert_eq!(percentile(&v, 99.9), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    // 0.95 · 200 is 190.00000000000003 in floating point; the rank is 190.
    assert_eq!(nearest_rank(95.0, 200), 190);
    assert_eq!(nearest_rank(50.0, 1), 1);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(39), None);
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(200), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));

    let mut lat: Vec<f64> = (1..=100).map(f64::from).collect();
    lat.reverse();
    let s = Latency::of(&lat).expect("100 samples carry a tail");
    assert_eq!(
        (s.n, s.p50, s.tail_pct, s.tail, s.beyond),
        (100, 50.0, 90.0, 90.0, 10)
    );
    assert!(Latency::of(&lat[..20]).is_none());
}

#[test]
fn crps_and_mae_match_hand_computed_values() {
    // Cell A: ensemble {0, 1}, truth 0.5. The level-α quantile is α, so the
    // quantile losses sum to 4 · Σ_{α=.05..0.45} α(0.5 − α) = 4 · 0.4125.
    // Cell B: ensemble {2, 2}, truth 1: each level loses 2(1 − α), 19 in all.
    // Cell C is not scored.
    let samples = [0.0f32, 2.0, 7.0, 1.0, 2.0, 7.0];
    let point = [0.5f32, 2.0, 7.0];
    let target = [0.5f32, 1.0, 3.0];
    let mask = [1.0f32, 1.0, 0.0];
    let mut s = Scores::default();
    s.add_ensemble(&samples, 2, &point, &target, &mask);
    let crps_a = 4.0 * 0.4125 / 19.0;
    let crps_b = 1.0;
    let mean_abs_target = 0.75;
    assert!(
        (s.crps() - (crps_a + crps_b) / 2.0 / mean_abs_target).abs() < 1e-9,
        "crps {}",
        s.crps()
    );
    assert!((s.mae() - 0.5).abs() < 1e-12, "mae {}", s.mae());
    assert_eq!(s.cells(), 2);

    let mut p = Scores::default();
    p.add_point(&[3.0, 5.0], &[1.0, 1.0], &[1.0, 1.0]);
    assert_eq!(p.mae(), 3.0);
}

#[test]
fn quantile_crps_matches_hand_computed_values() {
    // Cell A: truth 1 against q05 0, q50 1, q95 3. The quantile losses
    // 2(α − 1[x < q])(x − q) are 0.1, 0 and 2(−0.05)(−2) = 0.2: mean 0.1.
    // Cell B: truth 2 with all three quantiles at 2 loses nothing.
    // Cell C is not scored.
    let mut s = Scores::default();
    s.add_quantiles(
        [&[0.0, 2.0, 9.0], &[1.0, 2.0, 9.0], &[3.0, 2.0, 9.0]],
        &[1.0, 2.0, 4.0],
        &[1.0, 1.0, 0.0],
    );
    let mean_abs_target = 1.5;
    assert!(
        (s.crps() - 0.1 / 2.0 / mean_abs_target).abs() < 1e-12,
        "crps {}",
        s.crps()
    );
    assert_eq!(s.mae(), 0.0);
    assert_eq!(s.cells(), 2);
}

#[test]
fn span_union_covers_overlaps_once() {
    assert_eq!(union_ns(&mut []), 0);
    assert_eq!(union_ns(&mut [(20, 25), (0, 10), (5, 15)]), 20);
    assert_eq!(union_ns(&mut [(0, 10), (2, 3)]), 10);
}

#[test]
fn schedules_are_a_function_of_the_seed() {
    let a = poisson_schedule(100, 5.0, &mut StdRng::seed_from_u64(7));
    let b = poisson_schedule(100, 5.0, &mut StdRng::seed_from_u64(7));
    let c = poisson_schedule(100, 5.0, &mut StdRng::seed_from_u64(8));
    let bytes = |v: &[f64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    assert_eq!(bytes(&a), bytes(&b));
    assert_ne!(bytes(&a), bytes(&c));
    assert!(a.windows(2).all(|w| w[0] <= w[1]) && a[0] >= 0.0 && a[99] < 5.0);

    let data = traffic_panel();
    let f = stream_feed(&data, 12, 40.0, &mut StdRng::seed_from_u64(1));
    let g = stream_feed(&data, 12, 40.0, &mut StdRng::seed_from_u64(1));
    assert_eq!(f.schedule, g.schedule);
    assert_eq!(f.cells, g.cells);
}

#[test]
fn serve_mix_is_fixed_and_only_its_order_is_seeded() {
    let counts = allocate(103, &SERVE_MIX.iter().map(|m| m.2).collect::<Vec<_>>());
    assert_eq!(counts.iter().sum::<usize>(), 103);
    let data = traffic_panel();
    let count = |seed| {
        let reqs = serve_requests(
            &data,
            24,
            103,
            0,
            &SERVE_MIX,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut c: Vec<(&str, usize)> = reqs.iter().map(|r| (r.sampler, r.n_samples)).collect();
        c.sort();
        c
    };
    assert_eq!(count(1), count(2));
}

#[test]
fn about_a_third_of_stream_ticks_leave_an_open_gap() {
    let data = traffic_panel();
    let feed = stream_feed(&data, 150, 40.0, &mut StdRng::seed_from_u64(4));
    let (mut open, mut total) = (0, 0);
    for cells in &feed.cells {
        for k in 0..cells.len() {
            total += 1;
            let lo = k.saturating_sub(HORIZON - 1);
            open += usize::from(cells[lo..=k].iter().any(|c| c.iter().any(Option::is_none)));
        }
    }
    let share = open as f64 / total as f64;
    assert!((0.28..0.39).contains(&share), "open-gap share {share}");
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

#[test]
fn every_workload_prints_every_metric_in_benchmark_json() {
    let bench = benchmark_json();
    for (key, table, trace) in [
        ("end_to_end", END_TO_END, false),
        ("per_layer", PER_LAYER, true),
    ] {
        let mut listed: Vec<(String, String)> = bench
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        listed.sort();
        assert_eq!(table.len(), listed.len());
        for w in WORKLOADS {
            let mut rep = Report::new(w, trace);
            rep.attempted = 3;
            for spec in expected(trace) {
                rep.set(spec.name, 1.25);
            }
            let line = rep.render();
            assert!(rep.problems().is_empty(), "{:?}", rep.problems());
            let obj = json::parse(&line).expect("report line parses");
            assert!(matches!(obj.get("correct"), Some(Json::Bool(true))));
            assert_eq!(obj.get("attempted").and_then(Json::as_u64), Some(3));
            assert_eq!(obj.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = obj.get("metrics") else {
                panic!("metrics object")
            };
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
                    let unit = m.get("unit").and_then(Json::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            printed.sort();
            assert_eq!(
                printed, listed,
                "{w} {key}: printed metrics differ from BENCHMARK.json"
            );
        }
    }
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn a_missing_metric_makes_the_run_incorrect() {
    let mut rep = Report::new("serve", false);
    rep.set("setup_s", 1.0);
    let obj = json::parse(&rep.render()).unwrap();
    assert!(matches!(obj.get("correct"), Some(Json::Bool(false))));
    assert!(!rep.problems().is_empty());
}
