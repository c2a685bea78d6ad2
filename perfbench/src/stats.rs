//! Order statistics and the metric report.

use std::collections::BTreeMap;

/// The `q`-quantile of `values` (nearest rank on the sorted copy); `0`
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Renders the named metrics as the JSON object of the result line.
    /// Every name must have been recorded.
    pub fn render(&self, names: &[&str]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let (value, unit) = self
                .values
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_number(*value)
            ));
        }
        out.push('}');
        Ok(out)
    }
}

/// Shortest round-trip rendering of a finite number, integral values
/// without a fraction.
fn fmt_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn render_requires_every_metric() {
        let mut r = Report::default();
        r.set("a", 1.5, "s");
        assert_eq!(
            r.render(&["a"]).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        assert!(r.render(&["a", "b"]).is_err());
    }
}
