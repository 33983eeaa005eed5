//! The untraced run: end-to-end metrics of the public planner calls.

use crate::plans::{
    drive, initial_plans, is_fallback, key_labels, Call, Quality, Registry, TAIL_BEYOND,
};
use crate::stats::{geomean, key_medians, mean, median, tail};
use crate::workloads::Workload;
use crate::{Metric, Outcome};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub fn run(w: &Workload, seconds: f64) -> Result<Outcome, String> {
    let initial = initial_plans(&w.inputs)?;
    let labels = key_labels(&w.inputs);
    let mut registry = Registry::default();
    let mut times_ms = Vec::new();
    // per op: its input key and whether the call itself succeeded with
    // the same plan as the key's earlier ops
    let mut ops: Vec<(usize, bool)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut fallbacks = 0;

    let (count, wall_s) = drive(&w.inputs, &initial, seconds, |key, call| {
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| call.run()));
        times_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(Ok(plan)) => {
                if let Call::Repartition { old, .. } = call {
                    fallbacks += is_fallback(old, &plan) as usize;
                }
                let same = registry.note(key, call, &plan);
                if !same {
                    errors.push(format!(
                        "{}: plan differs from its earlier plan",
                        labels[key]
                    ));
                }
                ops.push((key, same));
                Some(plan)
            }
            Ok(Err(e)) => {
                errors.push(format!("{}: {e}", labels[key]));
                ops.push((key, false));
                None
            }
            Err(_) => {
                errors.push(format!("{}: planner panicked", labels[key]));
                ops.push((key, false));
                None
            }
        }
    });
    let peak_rss_mib = crate::peak_rss_mib()?;

    // correctness and quality, outside the timed loop
    let verdicts = registry.deep_verify();
    let qualities = registry.qualities();
    for (key, v) in &verdicts {
        if let Err(e) = v {
            errors.push(format!("{}: deep verify: {e}", labels[*key]));
        }
    }
    for (key, q) in &qualities {
        if let Err(e) = q {
            errors.push(format!("{}: simulate: {e}", labels[*key]));
        }
    }
    let mut failed = 0;
    let mut trained = Vec::new();
    for &(key, ok) in &ops {
        let verified = matches!(verdicts.get(&key), Some(Ok(())));
        match qualities.get(&key) {
            Some(Ok(q)) if ok && verified => trained.push(q.trained_per_s),
            _ => failed += 1,
        }
    }
    let more_setups = w.time_setup_again()?;
    errors.sort();
    errors.dedup();
    for e in &errors {
        println!("FAILED {e}");
    }

    print_inputs(&labels, &ops, &times_ms, &qualities);
    if let crate::workloads::Inputs::Churn(_) = w.inputs {
        println!("replans that fell back to full planning: {fallbacks} of {count}");
    }
    let typical = key_medians(
        ops.iter()
            .map(|&(key, _)| key)
            .zip(times_ms.iter().copied()),
    );
    let (tail_ms, pct) = tail(&typical, TAIL_BEYOND);
    println!(
        "plan_p50_ms is the geomean of the median op time of {} inputs; \
         plan_tail_ms is p{pct:.2} of those medians ({} beyond); \
         {count} ops; deep-verified the plans of {} inputs; loop {wall_s:.2} s",
        typical.len(),
        if typical.len() > TAIL_BEYOND {
            TAIL_BEYOND
        } else {
            0
        },
        verdicts.len()
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: count,
        failed,
        metrics: vec![
            Metric::new("plan_p50_ms", geomean(&typical), "ms"),
            Metric::new("plan_tail_ms", tail_ms, "ms"),
            Metric::new("plans_per_s", count as f64 / wall_s, "1/s"),
            Metric::new(
                "trained_samples_per_s",
                if trained.is_empty() {
                    0.0
                } else {
                    geomean(&trained)
                },
                "samples/s",
            ),
            Metric::new("setup_s", w.times.setup_s(&more_setups), "s"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("ok_ratio", 1.0 - failed as f64 / count as f64, "ratio"),
        ],
    })
}

/// One line per input (or per churn chain): ops, median time, quality.
fn print_inputs(
    labels: &[String],
    ops: &[(usize, bool)],
    times_ms: &[f64],
    qualities: &HashMap<usize, Result<Quality, String>>,
) {
    // churn keys are grouped under their chain's label
    let group = |key: usize| {
        let l = &labels[key];
        l.split(" stream ").next().unwrap_or(l).to_string()
    };
    let mut groups: Vec<String> = labels.iter().enumerate().map(|(k, _)| group(k)).collect();
    groups.dedup();
    for g in groups {
        let times: Vec<f64> = ops
            .iter()
            .zip(times_ms)
            .filter(|((k, _), _)| group(*k) == g)
            .map(|(_, t)| *t)
            .collect();
        let qs: Vec<_> = (0..labels.len())
            .filter(|&k| group(k) == g)
            .filter_map(|k| qualities.get(&k).and_then(|q| q.as_ref().ok()))
            .collect();
        if times.is_empty() || qs.is_empty() {
            println!("input {g}: no successful op");
            continue;
        }
        let min_ratio = qs
            .iter()
            .map(|q| q.trained_over_asked)
            .fold(f64::INFINITY, f64::min);
        println!(
            "input {g}: {} ops, median {:.2} ms, trained {:.1} samples/s, \
             trained/asked min {:.3}, bubble {:.3}",
            times.len(),
            median(&times),
            geomean(&qs.iter().map(|q| q.trained_per_s).collect::<Vec<_>>()),
            min_ratio,
            mean(&qs.iter().map(|q| q.bubble).collect::<Vec<_>>()),
        );
    }
}
