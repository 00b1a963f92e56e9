//! The benchmark's own checks, on tiny versions of every workload.

use crate::report::{end_to_end, per_layer};
use crate::workload::{run_traced, run_untraced, Outcome, Size, Workload};

/// Everything a run simulates, as opposed to what it times.
fn simulated(o: &Outcome) -> (u64, u64, u64, u64, u64, u64, Vec<f64>) {
    (
        o.issued,
        o.completed,
        o.events,
        o.sent,
        o.peak_queue,
        o.dropped,
        o.latency.samples().to_vec(),
    )
}

fn metric(m: &[(String, f64)], name: &str) -> f64 {
    m.iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn two_runs_give_identical_simulated_metrics() {
    for w in Workload::ALL {
        let (a, b) = (
            run_untraced(w, 3, Size::Tiny, 2),
            run_untraced(w, 3, Size::Tiny, 2),
        );
        assert_eq!(a.setups.len(), 2, "{w:?} set-up reps");
        assert!(a.completed > 0, "{w:?} made progress");
        assert_eq!(simulated(&a), simulated(&b), "{w:?} untraced");

        let (a, b) = (run_traced(w, 3, Size::Tiny), run_traced(w, 3, Size::Tiny));
        assert_eq!(simulated(&a), simulated(&b), "{w:?} traced");
        let (ta, tb) = (a.traced.as_ref().unwrap(), b.traced.as_ref().unwrap());
        assert_eq!(
            ta.probes.calls, tb.probes.calls,
            "{w:?} callbacks per layer"
        );
        assert_eq!(
            ta.probes.wire_bytes, tb.probes.wire_bytes,
            "{w:?} wire bytes"
        );
        assert_eq!(
            ta.probes.completions, tb.probes.completions,
            "{w:?} completion times"
        );
        assert_eq!(ta.delta_entries, tb.delta_entries, "{w:?} delta entries");
        assert_eq!(end_to_end(&a), end_to_end(&b), "{w:?} end-to-end metrics");
    }
}

#[test]
fn timing_wrapper_is_transparent() {
    for w in Workload::ALL {
        let plain = run_untraced(w, 5, Size::Tiny, 1);
        let traced = run_traced(w, 5, Size::Tiny);
        assert!(
            plain.check_ok && plain.lockstep_ok,
            "{w:?} untraced run is safe"
        );
        assert!(
            traced.check_ok && traced.lockstep_ok,
            "{w:?} traced run is safe"
        );
        assert_eq!(simulated(&plain), simulated(&traced), "{w:?}");
        let t = traced.traced.as_ref().unwrap();
        assert_eq!(t.probes.completions.len() as u64, traced.completed, "{w:?}");
    }
}

#[test]
fn sim_self_time_is_left_after_the_layers() {
    for w in Workload::ALL {
        let o = run_traced(w, 7, Size::Tiny);
        let m = per_layer(&o);
        // The remainder must be real time: callbacks and wire sizing
        // are timed inside the loop, so they can never cover it all.
        assert!(metric(&m, "sim.self_s") > 0.0, "{w:?}");
        assert!(metric(&m, "sim.self_s") < o.run_s, "{w:?}");
        assert_eq!(metric(&m, "sim.events"), o.events as f64, "{w:?}");
    }
}
