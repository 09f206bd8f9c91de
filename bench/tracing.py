"""In-memory spans around calls into the congames layers.

A traced run wraps the public functions of each layer module, records one
span per call (name, start, end, parent) and summarises them when the run
ends: inclusive time per span name, and self time per layer, where a
span's self time is its duration minus the durations of its child spans.
Root spans are opened by the benchmark itself and name the CLI command (or
library entry point) that the nested library calls stand for.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("instances", "game", "potential", "dynamics", "verify", "analysis")

# (span name, module, attribute).  Every module-level reference to the
# function, in any congames module, is swapped for the wrapper while a
# traced run is active, so calls made inside the library are traced too.
# Names the loaded version does not have are skipped.  CostPolynomial.__call__
# and the other per-term kernels are left alone: at millions of calls a
# wrapper would dominate, so the traced run times them with probes instead.
TRACED_FUNCTIONS = (
    ("instances.gen_random", "instances", "gen_random"),
    ("instances.gen_lower_bound", "instances", "gen_lower_bound"),
    ("game.parse_instance", "game", "parse_instance"),
    ("game.serialize_instance", "game", "serialize_instance"),
    ("game.loads", "game", "loads"),
    ("game.group_loads", "game", "group_loads"),
    ("game.player_costs", "game", "player_costs"),
    ("game.group_cost", "game", "group_cost"),
    ("game.social_cost", "game", "social_cost"),
    ("potential.potential", "potential", "potential"),
    ("potential.subgame_potential", "potential", "subgame_potential"),
    ("potential.partial_potential", "potential", "partial_potential"),
    ("dynamics.compute_schedule", "dynamics", "compute_schedule"),
    ("dynamics.run_algorithm", "dynamics", "run_algorithm"),
    ("dynamics.best_response", "dynamics", "best_response"),
    ("dynamics.write_trace", "dynamics", "write_trace"),
    ("dynamics.read_trace", "dynamics", "read_trace"),
    ("verify.min_equilibrium_factor", "verify", "min_equilibrium_factor"),
    ("verify.enumerate_states", "verify", "enumerate_states"),
    ("verify.brute_force_poa", "verify", "brute_force_poa"),
    ("verify.audit_trace", "verify", "audit_trace"),
    ("verify.group_poa", "verify", "smoothness_peakroup_poa_ratio"),
    ("verify.group_poa", "verify", "max_group_poa_ratio"),  # its planned new name
    ("verify.stretch_ratio", "verify", "max_rho_stretch_ratio"),
    ("analysis.poa_bounds", "analysis", "poa_bounds"),
    ("analysis.check_smoothness_constraint", "analysis", "check_smoothness_constraint"),
    ("analysis.check_combination_inequality", "analysis", "check_combination_inequality"),
)


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost nothing."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records spans in parallel lists; nothing is written until the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, modules: dict):
        """Swap every reference to a TRACED_FUNCTIONS entry for its wrapper."""
        swapped = []
        for name, module, attr in TRACED_FUNCTIONS:
            fn = getattr(modules[module], attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        swapped.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, fn in reversed(swapped):
                setattr(mod, key, fn)

    def summary(self) -> tuple[dict, dict]:
        """(inclusive seconds per span name, self seconds per layer).

        Layers are the congames modules plus "cli" and "lib", the root
        spans the benchmark opens around each command.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        inclusive: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            inclusive[name] += dur[i] / 1e9
            self_by_layer[name.split(".", 1)[0]] += (dur[i] - child[i]) / 1e9
        return inclusive, self_by_layer

    def write(self, path) -> None:
        """Write the spans as JSON Lines: name, start_ns, end_ns, parent."""
        with open(path, "w") as fp:
            for i, name in enumerate(self.names):
                fp.write(
                    json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n"
                )
