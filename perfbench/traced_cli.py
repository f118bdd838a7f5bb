"""Run the paulishift CLI in this process with a span around each layer call.

    python3 perfbench/traced_cli.py SPANS.npz -- <paulishift arguments>

Each wrapped function is rebound at every paulishift module attribute that
holds it, so a call is caught at the name its caller looks up:
``harness.evolve``, ``estimators.evolve``, ``noise.evolve`` and
``circuits.evolve`` are one function under four names. Methods are wrapped
on their class. Spans (name, start, end, parent) stay in memory and are
written to SPANS.npz when the command returns, together with the hit and
miss counts of the epsilon_opt cache. The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# span name -> wrapped callables as "module:attribute path"
SPANS = {
    "cli.main": ["cli:main"],
    "cli.load_config": ["cli:load_config"],
    "cli.write": ["cli:_write_csv", "cli:RunManifest.write"],
    "harness.run": ["harness:monte_carlo_mse", "harness:distribution_study"],
    "harness.set": ["harness:_run_set"],
    "harness.draw_set": ["harness:sample_parameter_set"],
    "harness.noise_for_set": ["harness:ExperimentConfig.noise_for_set"],
    "harness.scheme_spec": ["harness:_scheme_spec"],
    "harness.cache_lookup": ["harness:_FunctionCache.value"],
    "harness.sampling": ["harness:_binomial_estimates"],
    "circuits.evolve": ["circuits:evolve"],
    "circuits.zero_state": ["circuits:zero_state"],
    "circuits.layer_unitary": ["circuits:_layer_unitary"],
    "circuits.apply_cnot": ["circuits:apply_cnot"],
    "circuits.expectation": ["circuits:expectation"],
    "noise.channel": ["noise:_NoFinal.apply_final",
                      "noise:NoNoise.apply_after_cnot",
                      "noise:CnotDepolarizing.apply_after_cnot",
                      "noise:CnotPauliChannel.apply_after_cnot",
                      "noise:GlobalDepolarizing.apply_after_cnot",
                      "noise:GlobalDepolarizing.apply_final"],
    "estimators.evaluation_points": ["estimators:evaluation_points"],
    "estimators.point_count": ["estimators:point_count"],
    "estimators.target_kind": ["estimators:target_kind"],
    "analytics.mse": ["analytics:mse_sps", "analytics:mse_fd"],
    "analytics.lambda_opt": ["analytics:lambda_opt",
                             "analytics:lambda_opt_eta"],
    "analytics.epsilon_opt": ["analytics:epsilon_opt"],
    "analytics.n_star": ["analytics:n_star_sps_exact",
                         "analytics:n_star_sps_small_eta",
                         "analytics:n_star_fd"],
}


class Recorder:
    """In-memory span table; parents are the spans open at call time."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    def save(self, path: str, counters: dict) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     name_id=np.frombuffer(self.name_id, dtype=np.int32),
                     start=np.frombuffer(self.start),
                     end=np.frombuffer(self.end),
                     parent=np.frombuffer(self.parent, dtype=np.int32),
                     counters=np.array(json.dumps(counters)))


def instrument(recorder: Recorder) -> None:
    modules = {name: importlib.import_module(f"paulishift.{name}")
               for name in ("analytics", "circuits", "cli", "estimators",
                            "harness", "noise")}
    everywhere = list(modules.values()) + [importlib.import_module(
        "paulishift")]
    for span, targets in SPANS.items():
        for target in targets:
            module_name, path = target.split(":")
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            traced = recorder.wrap(span, original)
            if outer:
                setattr(owner, attr, traced)
                continue
            for module in everywhere:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    instrument(recorder)
    from paulishift import analytics, cli
    try:
        return cli.main(cli_args)
    finally:
        info = analytics._epsilon_opt_cached.cache_info()
        recorder.save(spans_path, {"epsilon_opt.cache_hits": info.hits,
                                   "epsilon_opt.cache_misses": info.misses})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
