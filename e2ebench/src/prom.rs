//! Parse the Prometheus exposition text that `dpr-telemetry` renders, and
//! take differences between two scrapes.
//!
//! Only the shapes `MetricsRegistry::render_prometheus` emits are handled:
//! unlabelled `name value` samples for counters and gauges, and for
//! histograms cumulative `name_bucket{le="…"}` series plus `name_sum` and
//! `name_count`.

use std::collections::BTreeMap;

/// One histogram: cumulative counts at each finite upper bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `(le, cumulative count)` in ascending `le`; `+Inf` is not listed.
    pub buckets: Vec<(f64, f64)>,
    /// Sum of all samples.
    pub sum: f64,
    /// Number of samples.
    pub count: f64,
}

impl Hist {
    /// Cumulative count at upper bound `le`. Bounds above the last listed
    /// bucket hold every sample (the renderer stops at the highest
    /// non-empty bucket).
    fn cumulative_at(&self, le: f64) -> f64 {
        match self.buckets.iter().find(|(b, _)| *b == le) {
            Some(&(_, c)) => c,
            None if self.buckets.last().is_none_or(|&(b, _)| le > b) => self.count,
            None => 0.0,
        }
    }

    /// Samples recorded between `before` and `self`.
    #[must_use]
    pub fn since(&self, before: &Hist) -> Hist {
        Hist {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, c)| (le, c - before.cumulative_at(le)))
                .collect(),
            sum: self.sum - before.sum,
            count: self.count - before.count,
        }
    }

    /// Quantile `q`, interpolated linearly inside the bucket that holds
    /// it. Resolution is the bucket width (powers of two for
    /// `dpr-telemetry`), so these serve attribution, not gating. `0.0`
    /// when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count;
        let mut prev_le = 0.0;
        let mut prev_cum = 0.0;
        for &(le, cum) in &self.buckets {
            if cum >= target && cum > prev_cum {
                let frac = (target - prev_cum) / (cum - prev_cum);
                return prev_le + (le - prev_le) * frac;
            }
            prev_le = le;
            prev_cum = cum;
        }
        prev_le
    }
}

/// One parsed scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    scalars: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

impl Scrape {
    /// Parse exposition text. Comment lines and malformed lines are skipped.
    #[must_use]
    pub fn parse(text: &str) -> Scrape {
        let mut out = Scrape::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((name, labels)) = series.split_once('{') {
                let Some(base) = name.strip_suffix("_bucket") else {
                    continue;
                };
                let le = labels
                    .trim_end_matches('}')
                    .strip_prefix("le=\"")
                    .and_then(|s| s.strip_suffix('"'));
                match le {
                    Some("+Inf") | None => {}
                    Some(le) => {
                        if let Ok(le) = le.parse::<f64>() {
                            out.hists
                                .entry(base.to_string())
                                .or_default()
                                .buckets
                                .push((le, value));
                        }
                    }
                }
            } else if let Some(base) = series.strip_suffix("_sum") {
                if let Some(h) = out.hists.get_mut(base) {
                    h.sum = value;
                    continue;
                }
                out.scalars.insert(series.to_string(), value);
            } else if let Some(base) = series.strip_suffix("_count") {
                if let Some(h) = out.hists.get_mut(base) {
                    h.count = value;
                    continue;
                }
                out.scalars.insert(series.to_string(), value);
            } else {
                out.scalars.insert(series.to_string(), value);
            }
        }
        for h in out.hists.values_mut() {
            h.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        out
    }

    /// Growth of counter `name` since `before` (`0.0` if absent).
    #[must_use]
    pub fn counter_since(&self, before: &Scrape, name: &str) -> f64 {
        let now = self.scalars.get(name).copied().unwrap_or(0.0);
        now - before.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Samples histogram `name` gained since `before` (empty if absent).
    #[must_use]
    pub fn hist_since(&self, before: &Scrape, name: &str) -> Hist {
        let empty = Hist::default();
        self.hists
            .get(name)
            .unwrap_or(&empty)
            .since(before.hists.get(name).unwrap_or(&empty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP dpr_server_validate_execute_total Batches executed (count)
# TYPE dpr_server_validate_execute_total counter
dpr_server_validate_execute_total 100
# HELP dpr_net_conns_active Open connections (count)
# TYPE dpr_net_conns_active gauge
dpr_net_conns_active 2
# TYPE dpr_finder_refresh_us histogram
dpr_finder_refresh_us_bucket{le=\"0\"} 0
dpr_finder_refresh_us_bucket{le=\"1\"} 0
dpr_finder_refresh_us_bucket{le=\"3\"} 4
dpr_finder_refresh_us_bucket{le=\"+Inf\"} 4
dpr_finder_refresh_us_sum 10
dpr_finder_refresh_us_count 4
";

    const AFTER: &str = "\
dpr_server_validate_execute_total 250
dpr_net_conns_active 2
dpr_finder_refresh_us_bucket{le=\"0\"} 0
dpr_finder_refresh_us_bucket{le=\"1\"} 0
dpr_finder_refresh_us_bucket{le=\"3\"} 4
dpr_finder_refresh_us_bucket{le=\"7\"} 8
dpr_finder_refresh_us_bucket{le=\"15\"} 14
dpr_finder_refresh_us_bucket{le=\"+Inf\"} 14
dpr_finder_refresh_us_sum 110
dpr_finder_refresh_us_count 14
";

    #[test]
    fn counters_and_gauges_parse_and_diff() {
        let (a, b) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(
            b.counter_since(&a, "dpr_server_validate_execute_total"),
            150.0
        );
        assert_eq!(b.counter_since(&a, "dpr_net_conns_active"), 0.0);
        assert_eq!(b.counter_since(&a, "absent_total"), 0.0);
    }

    #[test]
    fn histogram_delta_handles_buckets_missing_from_the_older_scrape() {
        let (a, b) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        let h = b.hist_since(&a, "dpr_finder_refresh_us");
        assert_eq!(h.count, 10.0);
        assert_eq!(h.sum, 100.0);
        // le=3 gained nothing; le=7 and le=15 count only new samples.
        assert_eq!(
            h.buckets,
            vec![(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (7.0, 4.0), (15.0, 10.0)]
        );
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let (a, b) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        let h = b.hist_since(&a, "dpr_finder_refresh_us");
        // Median = 5th of 10 samples: bucket (7, 15] holds samples 5..10.
        let p50 = h.quantile(0.5);
        assert!((p50 - (7.0 + 8.0 * (1.0 / 6.0))).abs() < 1e-9, "{p50}");
        // The first four samples lie in (3, 7].
        assert!((h.quantile(0.2) - 5.0).abs() < 1e-9);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn absent_histogram_is_empty() {
        let a = Scrape::parse(BEFORE);
        let h = a.hist_since(&a, "nope_us");
        assert_eq!(h.count, 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn parses_the_registry_renderer_output() {
        let reg = dpr_telemetry::MetricsRegistry::new();
        reg.counter("t_total", dpr_telemetry::Unit::Count, "t")
            .add(5);
        let h = reg.histogram("t_us", dpr_telemetry::Unit::Micros, "t");
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        let s = Scrape::parse(&reg.render_prometheus());
        let empty = Scrape::default();
        assert_eq!(s.counter_since(&empty, "t_total"), 5.0);
        let hist = s.hist_since(&empty, "t_us");
        assert_eq!(hist.count, 4.0);
        assert_eq!(hist.sum, 106.0);
        assert!(hist.quantile(0.99) > 63.0 && hist.quantile(0.99) <= 127.0);
    }
}
