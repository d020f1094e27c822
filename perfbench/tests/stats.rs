//! Exact percentiles: nearest rank on sorted samples, with sample counts
//! and the fewer-than-ten-beyond flag.

use memex_perfbench::stats::{median, Sorted, MIN_BEYOND};

#[test]
fn nearest_rank_on_one_to_a_hundred() {
    // Shuffled input: the helper sorts.
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = Sorted::new(samples);
    let p50 = s.percentile(0.5).unwrap();
    assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
    let p90 = s.percentile(0.9).unwrap();
    assert_eq!((p90.value, p90.beyond), (90.0, 10));
    assert!(!p90.flagged(), "ten samples beyond is enough");
    let p99 = s.percentile(0.99).unwrap();
    assert_eq!((p99.value, p99.beyond), (99.0, 1));
    assert!(p99.flagged(), "one sample beyond is flagged");
    assert_eq!(s.percentile(1.0).unwrap().value, 100.0);
}

#[test]
fn values_are_samples_not_bucket_edges() {
    let s = Sorted::new(vec![1_900.0, 2_100.0, 3_000.0, 1_950.0]);
    assert_eq!(s.percentile(0.5).unwrap().value, 1_950.0);
    assert_eq!(s.percentile(0.75).unwrap().value, 2_100.0);
}

#[test]
fn flag_threshold_is_ten_beyond() {
    assert_eq!(MIN_BEYOND, 10);
    let s = Sorted::new((0..1_000).map(f64::from).collect());
    let p99 = s.percentile(0.99).unwrap();
    assert_eq!(p99.beyond, 10);
    assert!(!p99.flagged());
    let s = Sorted::new((0..999).map(f64::from).collect());
    assert!(s.percentile(0.99).unwrap().flagged());
}

#[test]
fn empty_and_single_samples() {
    let empty = Sorted::new(Vec::new());
    assert!(empty.percentile(0.5).is_none());
    assert!(empty.mean().is_none());
    let one = Sorted::new(vec![7.0]);
    let p = one.percentile(0.99).unwrap();
    assert_eq!((p.value, p.count, p.beyond), (7.0, 1, 0));
    assert_eq!(one.mean(), Some(7.0));
}

#[test]
fn median_takes_the_lower_middle() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}
