"""Per-layer metrics from a spans file written by ``traced_cli``.

``busy_s`` is inclusive span time, counted once where spans of the same
group nest; ``self_s`` subtracts the time covered by child spans.
"""
from __future__ import annotations

import json

import numpy as np

# (metric, unit), in the order they are reported; trace.overhead_s is
# computed by the runner from traced and untraced wall times.
METRICS = [
    ("harness.sets", "count"),
    ("harness.set_ms_p50", "ms"),
    ("harness.set_ms_p90", "ms"),
    ("harness.evolve_per_set", "count"),
    ("harness.cache_hit_ratio", "ratio"),
    ("harness.sampling.calls", "count"),
    ("harness.sampling.busy_s", "s"),
    ("harness.self_s", "s"),
    ("circuits.evolve.calls", "count"),
    ("circuits.evolve.busy_s", "s"),
    ("circuits.evolve.self_s", "s"),
    ("circuits.layer_unitary.calls", "count"),
    ("circuits.layer_unitary.busy_s", "s"),
    ("circuits.apply_cnot.busy_s", "s"),
    ("circuits.expectation.busy_s", "s"),
    ("noise.channel.calls", "count"),
    ("noise.channel.busy_s", "s"),
    ("estimators.busy_s", "s"),
    ("analytics.epsilon_opt.calls", "count"),
    ("analytics.epsilon_opt.busy_s", "s"),
    ("analytics.epsilon_opt.cache_hit_ratio", "ratio"),
    ("analytics.mse.calls", "count"),
    ("analytics.n_star.busy_s", "s"),
    ("analytics.busy_s", "s"),
    ("cli.load_config.busy_s", "s"),
    ("cli.write.busy_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]
UNITS = dict(METRICS)


class Spans:
    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name_id = data["name_id"]
            self.start = data["start"]
            self.end = data["end"]
            self.parent = data["parent"]
            self.counters = json.loads(str(data["counters"]))
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.zeros(len(self.dur))
        np.add.at(covered, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered

    def select(self, prefix: str) -> np.ndarray:
        """Spans named ``prefix`` exactly, or inside group ``prefix.``."""
        ids = [i for i, n in enumerate(self.names)
               if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self.name_id, ids)

    def calls(self, prefix: str) -> int:
        return int(self.select(prefix).sum())

    def busy(self, prefix: str) -> float:
        sel = self.select(prefix)
        has_parent = self.parent >= 0
        up = np.where(has_parent, self.parent, 0)
        inside = np.zeros(len(sel), dtype=bool)  # some ancestor is selected
        while True:  # one step per nesting level; parents precede children
            nxt = has_parent & (sel[up] | inside[up])
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        return float(self.dur[sel & ~inside].sum())

    def self_s(self, prefix: str) -> float:
        return float(self.self_time[self.select(prefix)].sum())

    def set_ms(self) -> np.ndarray:
        """Per-set wall time: from one set's parameter draw to the next's,
        the last set ending with its enclosing harness run."""
        starts = np.sort(self.start[self.select("harness.draw_set")])
        runs = self.select("harness.run")
        if not len(starts) or not runs.any():
            return np.zeros(0)
        bounds = np.append(starts, self.end[runs].max())
        return np.diff(bounds) * 1e3


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: Spans, output_bytes: int) -> dict[str, float]:
    """Every metric of METRICS except trace.overhead_s."""
    sets = spans.calls("harness.draw_set")
    set_ms = spans.set_ms()
    lookups = spans.select("harness.cache_lookup")
    evolves = spans.select("circuits.evolve")
    missed = np.unique(spans.parent[evolves & (spans.parent >= 0)])
    misses = int(lookups[missed].sum()) if len(missed) else 0
    hits = spans.counters["epsilon_opt.cache_hits"]
    solves = spans.counters["epsilon_opt.cache_misses"]
    return {
        "harness.sets": sets,
        "harness.set_ms_p50": float(np.percentile(set_ms, 50))
        if len(set_ms) else 0.0,
        "harness.set_ms_p90": float(np.percentile(set_ms, 90))
        if len(set_ms) else 0.0,
        "harness.evolve_per_set": _ratio(int(evolves.sum()), sets),
        "harness.cache_hit_ratio": 1.0 - _ratio(misses, int(lookups.sum()))
        if lookups.any() else 0.0,
        "harness.sampling.calls": spans.calls("harness.sampling"),
        "harness.sampling.busy_s": spans.busy("harness.sampling"),
        "harness.self_s": spans.self_s("harness"),
        "circuits.evolve.calls": int(evolves.sum()),
        "circuits.evolve.busy_s": spans.busy("circuits.evolve"),
        "circuits.evolve.self_s": spans.self_s("circuits.evolve"),
        "circuits.layer_unitary.calls": spans.calls("circuits.layer_unitary"),
        "circuits.layer_unitary.busy_s": spans.busy("circuits.layer_unitary"),
        "circuits.apply_cnot.busy_s": spans.busy("circuits.apply_cnot"),
        "circuits.expectation.busy_s": spans.busy("circuits.expectation"),
        "noise.channel.calls": spans.calls("noise.channel"),
        "noise.channel.busy_s": spans.busy("noise.channel"),
        "estimators.busy_s": spans.busy("estimators"),
        "analytics.epsilon_opt.calls": spans.calls("analytics.epsilon_opt"),
        "analytics.epsilon_opt.busy_s": spans.busy("analytics.epsilon_opt"),
        "analytics.epsilon_opt.cache_hit_ratio": _ratio(hits, hits + solves),
        "analytics.mse.calls": spans.calls("analytics.mse"),
        "analytics.n_star.busy_s": spans.busy("analytics.n_star"),
        "analytics.busy_s": spans.busy("analytics"),
        "cli.load_config.busy_s": spans.busy("cli.load_config"),
        "cli.write.busy_s": spans.busy("cli.write"),
        "cli.output_bytes": output_bytes,
    }
