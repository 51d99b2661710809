//! Unit tests of the benchmark's pure helpers. Run with
//! `cargo test --manifest-path e2ebench/Cargo.toml`.

use e2ebench::{geomean, median, min_samples, parse_vm_hwm, percentile, valid_name, Metrics};

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(
        percentile(&samples, 0.9),
        None,
        "99 samples leave 9 beyond p90"
    );
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.9), Some(90.0));
    assert_eq!(min_samples(0.9), 100);
    assert_eq!(min_samples(0.5), 20);
    assert_eq!(min_samples(0.99), 1000);
}

#[test]
fn percentile_is_nearest_rank_and_order_free() {
    let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
    samples.reverse();
    assert_eq!(percentile(&samples, 0.5), Some(100.0));
    assert_eq!(percentile(&samples, 0.9), Some(180.0));
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(
        percentile(&samples, 1.0),
        None,
        "nothing lies beyond the max"
    );
    assert_eq!(percentile(&samples, 1.5), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn geomean_of_speedups() {
    let g = geomean(&[1.0, 4.0, 16.0]).expect("positive values");
    assert!((g - 4.0).abs() < 1e-12, "{g}");
    assert_eq!(geomean(&[2.5]), Some(2.5));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, -2.0]), None);
    assert_eq!(geomean(&[1.0, f64::NAN]), None);
}

#[test]
fn vm_hwm_parses_kib_into_mib() {
    let status = "Name:\te2ebench\nVmPeak:\t  40000 kB\nVmHWM:\t   17408 kB\nVmRSS:\t 9000 kB\n";
    assert_eq!(parse_vm_hwm(status), Some(17.0));
    assert_eq!(parse_vm_hwm("VmRSS:\t 9000 kB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\t 9000 MB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\t 9000\n"), None);
}

#[test]
fn metric_names_follow_the_contract() {
    for ok in [
        "setup_s",
        "session_s.p90",
        "best_speedup.geomean",
        "1-x",
        "a",
    ] {
        assert!(valid_name(ok), "{ok}");
    }
    let long = "a".repeat(65);
    for bad in [
        "",
        ".p50",
        "_x",
        "latency ms",
        "tokens/s",
        "é",
        long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
}

#[test]
fn result_line_is_one_json_object() {
    let mut m = Metrics::default();
    m.push("setup_s", 0.0012345678, "s");
    m.push("tokens_per_session", 130583.0, "tokens");
    assert_eq!(
        m.result_line(true, 120, 0),
        r#"{"correct": true, "attempted": 120, "failed": 0, "metrics": {"setup_s": {"value": 0.0012345678, "unit": "s"}, "tokens_per_session": {"value": 130583, "unit": "tokens"}}}"#
    );
}

#[test]
#[should_panic(expected = "recorded twice")]
fn repeated_metric_names_are_a_bug() {
    let mut m = Metrics::default();
    m.push("setup_s", 1.0, "s");
    m.push("setup_s", 2.0, "s");
}

#[test]
#[should_panic(expected = "invalid metric name")]
fn invalid_metric_names_are_a_bug() {
    Metrics::default().push("latency ms", 1.0, "ms");
}
