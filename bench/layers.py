"""Per-layer metrics derived from the spans of one traced repetition."""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS


def _under(spans, ancestor_name):
    """Flags: span i lies inside some span named ancestor_name."""
    flags = []
    for span in spans:  # parents precede children
        parent = flags[span.parent] if span.parent >= 0 else False
        parent_is = span.parent >= 0 and spans[span.parent].name == ancestor_name
        flags.append(parent or parent_is)
    return flags


def _per_step_ns(seconds, site_steps):
    return seconds / site_steps * 1e9 if site_steps else 0.0


def layer_metrics(spans, predicted_simulations: int) -> dict:
    """Counts and self times per layer for one traced repetition.

    A layer's self time is the time inside its spans not covered by a
    child span, so the layer self times add up to the traced wall time
    of the `cli.entrypoint` spans.
    """
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        self_s[span.layer] += span.self_s
        by_name[span.name].append(span)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def self_of(name):
        return sum((s.self_s for s in by_name[name]), 0.0)

    def inclusive(name):
        return sum((s.duration for s in by_name[name]), 0.0)

    kernel = by_name["scattering.reflection_amplitudes"]
    evolve = by_name["walk.evolve"]
    kernel_steps = total("scattering.reflection_amplitudes", "site_steps")
    walk_steps = total("walk.evolve", "site_steps")
    in_bisection = _under(spans, "disorder.transition_locator")
    in_mc = _under(spans, "apparatus.monte_carlo_errorbars")
    mc_models = sum(s.counts.get("tasks", 0) for s in by_name["parallel.map"]
                    if in_mc[s.id])
    mc_valid = sum(s.counts.get("valid", 0)
                   for s in by_name["apparatus.measured_invariants"] if in_mc[s.id])
    maps = by_name["parallel.map"]

    # svgplot.s and parallel.map_s are the self times of those two layers
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS
         if layer not in ("svgplot", "parallel")}
    m.update({
        "scattering.calls": len(kernel),
        "scattering.site_steps": kernel_steps,
        "scattering.ns_per_site_step": _per_step_ns(
            self_of("scattering.reflection_amplitudes"), kernel_steps),
        "scattering.invariants_calls": len(by_name["scattering.invariants"]),
        "scattering.invariants_s": inclusive("scattering.invariants"),
        "disorder.pattern_draws": len(by_name["disorder.sample_pattern"]),
        "disorder.pattern_s": inclusive("disorder.sample_pattern"),
        "disorder.ensembles": len(by_name["disorder.ensemble_r0"]),
        "disorder.bisection_probes": sum(in_bisection[s.id]
                                         for s in by_name["disorder.ensemble_r0"]),
        "walk.evolve_calls": len(evolve),
        "walk.site_steps": walk_steps,
        "walk.ns_per_site_step": _per_step_ns(self_of("walk.evolve"), walk_steps),
        "edges.runs": len(by_name["edges.run_interface"]),
        "apparatus.emulate_calls": len(by_name["apparatus.emulate_measurement"]),
        "apparatus.emulate_self_s": self_of("apparatus.emulate_measurement"),
        "apparatus.reconstruct_s": inclusive("apparatus.reconstruct_series"),
        "apparatus.mc_valid_ratio": mc_valid / mc_models if mc_models else 0.0,
        "dataio.rows_written": total("dataio.write_table", "rows"),
        "dataio.bytes_written": total("dataio.write_table", "bytes"),
        "dataio.write_s": inclusive("dataio.write_table"),
        "dataio.hash_s": inclusive("dataio.sha256_file"),
        "svgplot.calls": sum(span.layer == "svgplot" for span in spans),
        "svgplot.bytes": sum(span.counts.get("bytes", 0) for span in spans
                             if span.layer == "svgplot"),
        "svgplot.s": self_s["svgplot"],
        "config.estimate_ratio": (len(kernel) + len(evolve)) / predicted_simulations,
        "parallel.workers": max((s.counts.get("workers", 1) for s in maps), default=1),
        "parallel.tasks": sum(s.counts.get("tasks", 0) for s in maps),
        "parallel.map_s": self_s["parallel"],
    })
    return m
