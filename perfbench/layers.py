"""Per-layer metrics of a traced run, named ``<module>.<function>.<quantity>``.

Times are self times (span duration minus child spans) in ms per item;
counts are per item, except the ``pipeline.items.*`` verdict counts, which
are per pass (one pass visits every grid cell once).  A layer that does not
run on a workload reports 0.
"""

from __future__ import annotations

from collections import Counter

from spans import self_times

SELF_MS = (
    "expansion.fixed_point",
    "expansion.h_from_expansion",
    "expansion.default_z",
    "profile.integrate",
    "profile.normalize",
    "profile.write_profile_csv",
    "profile.read_profile_csv",
    "tail.build_tail_report",
    "tail.check_bounds",
    "tail.residual_sss4b",
    "mu.solve_mu",
    "dynamics.step",
    "dynamics.self_similar_distance",
)
SPAN_CALLS = ("expansion.fixed_point", "profile.integrate", "mu.solve_mu", "dynamics.step")
SPAN_FAILED = ("expansion.fixed_point", "expansion.h_from_expansion", "profile.integrate")
COUNTED_CALLS = ("expansion.apply_T", "tail.estimate_d", "dynamics.coag_rhs")
RK_STAGES = 4  # coag_rhs calls per Runge-Kutta attempt in dynamics.step


def self_ms_by_name(tracer) -> Counter:
    total: Counter = Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[span.name] += 1e3 * self_s
    return total


def per_layer_metrics(tracer, outcomes, n_passes: int, overhead_s: float) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    n = len(outcomes)
    ms = self_ms_by_name(tracer)
    calls: Counter = Counter(span.name for span in tracer.spans)
    failed: Counter = Counter(span.name for span in tracer.spans if span.error)
    attrs: Counter = Counter()
    nodes = []
    for span in tracer.spans:
        attrs.update({f"{span.name}.{k}": v for k, v in span.attrs.items() if k != "nodes"})
        if "nodes" in span.attrs:
            nodes.append(span.attrs["nodes"])

    m: dict = {}
    for name in SELF_MS:
        m[f"{name}.ms"] = (ms[name] / n, "ms/item")
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (calls[name] / n, "calls/item")
    for name in SPAN_FAILED:
        m[f"{name}.failed"] = (failed[name] / n, "calls/item")
    for name in COUNTED_CALLS:
        m[f"{name}.calls"] = (tracer.counts[name] / n, "calls/item")

    steps = attrs["profile.integrate.steps"]
    m["profile.integrate.steps"] = (steps / n, "steps/item")
    m["profile.integrate.ms_per_1e4_steps"] = (
        1e4 * ms["profile.integrate"] / steps if steps else 0.0, "ms",
    )
    m["profile.nodes_final"] = (sum(nodes) / len(nodes) if nodes else 0.0, "nodes")
    m["profile.csv_bytes"] = (attrs["profile.write_profile_csv.bytes"] / n, "bytes/item")

    m["tail.max_residual_sss4b"] = (max(o.residual for o in outcomes), "ratio")
    m["tail.d_err_over_bound"] = (max(o.d_err_over_bound for o in outcomes), "ratio")

    attempts = tracer.counts["dynamics.coag_rhs"] / RK_STAGES
    accepted = calls["dynamics.step"] - failed["dynamics.step"]
    m["dynamics.step.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    m["dynamics.mass_balance_err"] = (max(o.mass_balance_err for o in outcomes), "ratio")
    d_end = [o.d_end for o in outcomes if o.d_end is not None]
    m["dynamics.D_end"] = (max(d_end) if d_end else 0.0, "ratio")

    m["pipeline.build_profile.self_ms"] = (ms["pipeline.build_profile"] / n, "ms/item")
    m["pipeline.items.bound_failure"] = (
        sum(o.bound_failure for o in outcomes) / n_passes, "items/pass",
    )
    m["pipeline.items.error_typed"] = (
        sum(o.error_typed is True for o in outcomes) / n_passes, "items/pass",
    )
    m["pipeline.items.error_untyped"] = (
        sum(o.error_typed is False for o in outcomes) / n_passes, "items/pass",
    )
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
