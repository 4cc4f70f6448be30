"""A profiler hook that attributes calls, counts and self time to focklab's modules.

The hook is installed with ``sys.setprofile`` on the calling thread and
``threading.setprofile`` for threads started while it is active, which
covers the workers ``config.parallel_map`` starts for each batch.  Nothing
in the program is edited.

Only frames whose code lives in the focklab package are tracked.  A frame's
self time is its wall time minus the wall time of the focklab frames it
calls; a module's self time is the sum over its frames.  Time in numpy or
the standard library counts to the focklab frame that called it, and so
does time in comprehensions and generator expressions, which run inside the
function that holds them (in `decide` they are half of all focklab frames,
and not tracking them shortens a traced run by about a quarter).  Worker
threads add their own time, so module times are summed over threads.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, qualified name) -> count name; ``_``-prefixed names are private
# functions of the program and may move in a later change (README lists them)
COUNTED_CALLS = {
    ("symbols", "log_abs"): "symbols.scalar_evals",
    ("quadrature", "_integrate"): "quadrature.integrals",
    ("quadrature", "_RadialIntegrator.panel"): "quadrature.panels",
    ("quadrature", "_adaptive_radial"): "quadrature.radial_passes",
    ("maximize", "ascend"): "maximize.ascents",
    ("fock", "fock_norm"): "fock.norms",
    ("operators", "f2_matrix"): "operators.f2_matrix_calls",
    ("criteria", "gauge_profile"): "criteria.gauge_profiles",
    ("criteria", "_annulus_sup"): "criteria.annulus_scans",
    ("config", "parallel_map"): "config.pool_maps",
}
# (module, qualified name) -> inclusive-time name (milliseconds)
TIMED_CALLS = {
    ("operators", "f2_matrix"): "operators.f2_matrix_ms",
    ("operators", "matrix_sigma_max"): "operators.sigma_ms",
    ("operators", "empirical_norm"): "operators.empirical_norm_ms",
}
# config's own time is mostly the caller waiting on the pool, so it has none
MODULES = ("parsing", "symbols", "quadrature", "maximize", "fock", "operators",
           "criteria", "topology", "report")


# frames of these code names belong to the function that holds them
_INLINE = frozenset({"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"})


class _ThreadState:
    def __init__(self):
        # entries: [frame, module, qualified name, start, child time]
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.entries: Counter = Counter()
        self.grid_points = 0


class LayerTracer:
    """Install with ``with LayerTracer(package_dir) as t:``; read ``t.metrics()``."""

    def __init__(self, package_dir: Path):
        self._package = str(package_dir)
        self._modules: dict[str, str | None] = {}
        self._local = threading.local()
        # every thread's state, kept after its thread ends
        self._states: list[_ThreadState] = []

    def _module_of(self, filename: str) -> str | None:
        path = Path(filename)
        module = path.stem if str(path.parent) == self._package else None
        self._modules[filename] = module
        return module

    def _new_state(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        self._states.append(state)
        return state

    def _make_hook(self):
        # the hook runs for every call and return in the process, so it reads
        # closure variables instead of attributes, and the paths that track
        # nothing stop after a dictionary lookup
        modules, local, module_of = self._modules, self._local, self._module_of
        new_state, clock, inline = self._new_state, time.perf_counter, _INLINE

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                filename = code.co_filename
                module = modules.get(filename, "")
                if module == "":
                    module = module_of(filename)
                if module is None or code.co_name in inline:
                    return
                name = code.co_qualname
                state = getattr(local, "state", None) or new_state()
                state.calls[module, name] += 1
                stack = state.stack
                if not stack or stack[-1][1] != module:
                    state.entries[module] += 1
                if name == "log_abs_grid" and module == "symbols":
                    state.grid_points += int(np.size(frame.f_locals["zs"]))
                stack.append([frame, module, name, clock(), 0.0])
            elif event == "return":
                state = getattr(local, "state", None)
                if state is None:
                    return
                stack = state.stack
                if not stack or stack[-1][0] is not frame:
                    return
                _, module, name, start, child = stack.pop()
                elapsed = clock() - start
                state.self_s[module] += elapsed - child
                state.inclusive_s[module, name] += elapsed
                if stack:
                    stack[-1][4] += elapsed

        return hook

    def __enter__(self) -> "LayerTracer":
        hook = self._make_hook()
        threading.setprofile(hook)
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def _total(self) -> _ThreadState:
        total = _ThreadState()
        for state in self._states:
            total.self_s.update(state.self_s)
            total.inclusive_s.update(state.inclusive_s)
            total.calls.update(state.calls)
            total.entries.update(state.entries)
            total.grid_points += state.grid_points
        return total

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Counts and millisecond times summed over every traced thread."""
        total = self._total()
        out: dict[str, tuple[float, str]] = {
            "parsing.calls": (total.entries["parsing"], "count"),
            "symbols.grid_points": (total.grid_points, "count"),
        }
        for key, name in COUNTED_CALLS.items():
            out[name] = (total.calls[key], "count")
        for key, name in TIMED_CALLS.items():
            out[name] = (1000.0 * total.inclusive_s[key], "ms")
        for module in MODULES:
            out[f"{module}.ms"] = (1000.0 * total.self_s[module], "ms")
        return out

    def functions(self) -> list[dict]:
        """Calls and inclusive milliseconds of every traced function, slowest first."""
        total = self._total()
        rows = [{"function": f"{module}.{name}", "calls": calls,
                 "inclusive_ms": 1000.0 * total.inclusive_s[module, name]}
                for (module, name), calls in total.calls.items()]
        return sorted(rows, key=lambda row: -row["inclusive_ms"])
