"""Layer tracing from outside the library.

While installed, a :class:`Tracer` replaces the public functions listed in
``TRACED`` with timing wrappers in every loaded ``qarrow`` module namespace
(and in function defaults such as ``check_monad_laws(bind_fn=vector.bind)``),
so calls the library makes to itself are seen too.  Nothing on disk changes;
``uninstall`` puts the originals back.

Times are inclusive wall seconds per call: ``route`` includes the
``compose`` calls it makes, and ``permute_arr`` the ``arr`` call inside it.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> {function: metric stem}
TRACED = {
    "basis": {"product": "basis.product"},
    "vector": {"bind": "vector.bind"},
    "linear": {"controlled": "linear.controlled"},
    "density": {"to_json_dict": "density.to_json_dict"},
    "superop": {name: f"superop.{name}" for name in (
        "arr", "first", "compose", "lin2super", "trace_left", "measure",
        "permute_arr", "extensional_equal", "apply")},
    "textcircuit": {"parse_circuit": "textcircuit.parse", "route": "textcircuit.route",
                    "initial_density": "textcircuit.initial_density"},
    "laws": {"check_monad_laws": "laws.monad", "check_arrow_laws": "laws.arrow"},
}
# Primitives timed per input basis size N, with the sizes in 2..32 that some
# workload reaches (first, trace_left and permute_arr never build N = 2, and
# the library only measures or lifts gates on one or two wires).
SIZED = {
    "arr": (2, 4, 8, 16, 32),
    "first": (4, 8, 16, 32),
    "compose": (2, 4, 8, 16, 32),
    "lin2super": (2, 4, 8),
    "trace_left": (4, 8, 16, 32),
    "measure": (2, 4),
    "permute_arr": (4, 8, 16, 32),
    "extensional_equal": (8,),
}
COMPLEX_BYTES = 16


def _is_identity(matrix) -> bool:
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        return False
    diag = np.diagonal(matrix)
    return bool(np.all(diag == 1) and np.count_nonzero(matrix) == n)


class Tracer:
    """Call counts, busy seconds and stage counts at the layer boundaries."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.stages = 0
        self.identity_stages = 0
        self.matrix_bytes_max = 0
        self._patched: list = []

    def record(self, key: str, dt: float) -> None:
        self.calls[key] += 1
        self.seconds[key] += dt

    def _wrap(self, func_name: str, stem: str, fn):
        sized = func_name in SIZED

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.record(stem, dt)
            if sized:
                channel = args[0] if func_name == "extensional_equal" else result
                self.record(f"{stem}_n{channel.input_basis.size}", dt)
                if func_name != "extensional_equal":
                    n_in, n_out = result.input_basis.size, result.output_basis.size
                    self.matrix_bytes_max = max(self.matrix_bytes_max,
                                                n_in * n_in * n_out * n_out * COMPLEX_BYTES)
            elif func_name == "route":
                self.stages += len(result.stages)
                self.identity_stages += sum(_is_identity(s.op.matrix) for s in result.stages)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        # Import every module first: one imported while the wrappers are in
        # place would bind a wrapper by name and keep it after uninstall.
        for mod_name in (*TRACED, "circuits", "cli"):
            importlib.import_module(f"qarrow.{mod_name}")
        originals = {}
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"qarrow.{mod_name}")
            for func_name, stem in funcs.items():
                fn = getattr(mod, func_name)
                originals[id(fn)] = (fn, self._wrap(func_name, stem, fn))
        for name, mod in list(sys.modules.items()):
            if name != "qarrow" and not name.startswith("qarrow."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
                    self._patched.append((mod, attr, value))
                defaults = getattr(value, "__defaults__", None)
                if getattr(value, "__module__", None) == name and defaults:
                    swapped = tuple(originals[id(d)][1] if id(d) in originals
                                    and originals[id(d)][0] is d else d for d in defaults)
                    if swapped != defaults:
                        value.__defaults__ = swapped
                        self._patched.append((value, "__defaults__", defaults))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    def counts(self) -> dict[str, float]:
        """The counted (not timed) quantities, as running totals."""
        return {
            "superop.compose_calls": self.calls["superop.compose"],
            "textcircuit.stages": self.stages,
            "textcircuit.identity_stages": self.identity_stages,
        }

    def mean_seconds(self, key: str) -> float:
        """Mean inclusive seconds per call; 0.0 when the run made no such call."""
        n = self.calls.get(key, 0)
        return self.seconds[key] / n if n else 0.0
