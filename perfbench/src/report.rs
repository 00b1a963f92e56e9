//! Turns one run's [`Outcome`] into metric values and a JSON record.

use crate::probe::Layer;
use crate::workload::{Outcome, Workload};
use flexcast::harness::experiment::resolve_shards;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The simulated end-to-end metrics of a run. Every run gives the
/// latency percentiles; only a traced run gives the counts that need the
/// probes. `run.py` derives the host metrics from the record's times.
pub fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64)> {
    let completed = out.completed as f64;
    let lat = out.latency.percentiles();
    let mut m = vec![
        ("lat_p50_ms", lat.map_or(0.0, |p| p.p50)),
        ("lat_p99_ms", lat.map_or(0.0, |p| p.p99)),
    ];
    if let Some(tr) = &out.traced {
        m.extend([
            ("txn_per_sim_s", tr.txn_per_sim_s()),
            (
                "bytes_per_txn",
                ratio(tr.probes.wire_bytes as f64, completed),
            ),
        ]);
    }
    m
}

/// The per-layer metrics of a traced run; empty for an untraced one.
/// `sim.self_s` is the loop's wall time minus every timed callback and
/// wire sizing, so by definition the busy times, the wire time and
/// `sim.self_s` add up to the loop. `trace.residual_s` is what the run
/// spends outside the loop and the check: only the clock reads between
/// them, so it stays near zero and checks nothing.
pub fn per_layer(out: &Outcome) -> Vec<(String, f64)> {
    let Some(tr) = &out.traced else {
        return Vec::new();
    };
    let p = &tr.probes;
    let callbacks_s = p.callback_ns() as f64 / 1e9;
    let wire_s = p.wire_ns as f64 / 1e9;
    let sim_self_s = tr.loop_s - callbacks_s - wire_s;
    let mut m: Vec<(String, f64)> = vec![
        ("sim.self_s".into(), sim_self_s),
        (
            "sim.ns_per_event".into(),
            ratio(sim_self_s * 1e9, out.events as f64),
        ),
        ("sim.events".into(), out.events as f64),
        ("sim.peak_queue_depth".into(), out.peak_queue as f64),
        ("sim.dropped".into(), out.dropped as f64),
    ];
    for (layer, calls, busy) in p.layers() {
        m.push((format!("{}.calls", layer.name()), calls as f64));
        m.push((format!("{}.busy_s", layer.name()), busy));
        m.push((
            format!("{}.us_per_call", layer.name()),
            ratio(busy * 1e6, calls as f64),
        ));
    }
    let packet_ns: u64 = [Layer::CoreMsg, Layer::CoreAck, Layer::CoreNotif]
        .iter()
        .map(|&l| p.busy_ns[l as usize])
        .sum();
    m.extend([
        ("core.delta_entries".into(), tr.delta_entries as f64),
        (
            "core.dup_ratio".into(),
            ratio(tr.delta_dups as f64, tr.delta_entries as f64),
        ),
        ("core.suppressed_entries".into(), tr.suppressed as f64),
        (
            "core.ns_per_delta_entry".into(),
            ratio(packet_ns as f64, tr.delta_entries as f64),
        ),
        ("chaos.actions".into(), tr.chaos_actions as f64),
        ("harness.check_s".into(), tr.check_s),
        ("harness.max_stall_ms".into(), tr.max_stall_ms()),
        ("wire.size_calls".into(), p.wire_calls as f64),
        (
            "wire.msgs_per_txn".into(),
            ratio(p.wire_calls as f64, out.completed as f64),
        ),
        ("wire.size_s".into(), wire_s),
        (
            "wire.ns_per_size".into(),
            ratio(p.wire_ns as f64, p.wire_calls as f64),
        ),
        ("overlay.order_s".into(), out.setups[0].order_s),
        ("harness.build_s".into(), out.setups[0].build_s),
        (
            "trace.residual_s".into(),
            out.run_s - tr.loop_s - tr.check_s,
        ),
    ]);
    m
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn object<K: AsRef<str>>(pairs: &[(K, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", k.as_ref(), num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The JSON record `run.py` reads: raw counts for its correctness gates,
/// the set-up samples, and this run's metric values.
pub fn record(w: Workload, seed: u64, out: &Outcome, rss_mb: f64, calibration: &[f64]) -> String {
    let lat = out.latency.percentiles();
    let list = |v: Vec<f64>| {
        let v: Vec<String> = v.into_iter().map(num).collect();
        format!("[{}]", v.join(", "))
    };
    let fields = [
        format!("\"workload\": \"{}\"", w.name()),
        format!("\"seed\": {seed}"),
        format!("\"traced\": {}", out.traced.is_some()),
        format!("\"shards\": {}", out.shards),
        format!("\"resolved_shards\": {}", resolve_shards(0)),
        format!(
            "\"order_s\": {}",
            list(out.setups.iter().map(|s| s.order_s).collect())
        ),
        format!(
            "\"build_s\": {}",
            list(out.setups.iter().map(|s| s.build_s).collect())
        ),
        format!(
            "\"setup_calibration_s\": {}",
            list(out.setups.iter().map(|s| s.calibration_s).collect())
        ),
        format!("\"run_s\": {}", num(out.run_s)),
        format!("\"cpu_s\": {}", num(out.cpu_s)),
        format!("\"sent\": {}", out.sent),
        format!("\"sim_s\": {}", num(out.sim_s)),
        format!("\"issued\": {}", out.issued),
        format!("\"completed\": {}", out.completed),
        format!("\"events\": {}", out.events),
        format!("\"lat_samples\": {}", out.latency.len()),
        format!("\"lat_p999_ms\": {}", num(lat.map_or(0.0, |p| p.p999))),
        format!("\"check_ok\": {}", out.check_ok),
        format!("\"lockstep_ok\": {}", out.lockstep_ok),
        format!("\"peak_rss_mb\": {}", num(rss_mb)),
        format!("\"calibration_s\": {}", list(calibration.to_vec())),
        format!("\"end_to_end\": {}", object(&end_to_end(out))),
        format!("\"per_layer\": {}", object(&per_layer(out))),
    ];
    format!("{{{}}}", fields.join(", "))
}
