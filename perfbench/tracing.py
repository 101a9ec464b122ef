"""Span tracer that times torsionlab's public functions from outside.

The tracer replaces each traced function by a wrapper in every
``torsionlab`` namespace that holds it (the defining module, modules that
imported it by name, and the package root), so calls through
``from .complexes import torsion`` and ``cli``'s lazy imports are seen
alike.  Each call records a span ``(id, parent, job, name, start, end)``
in memory; ``uninstall`` restores the originals.  A layer's self time is
the summed duration of its spans minus the duration of their child spans.

Some wrappers only count: ``vn.singular_values`` calls and the points
``LaurentMatrix.symbol`` evaluates.  Others add a computed figure, never a
measured one: the bytes of the ``cyclic_group`` table (8 m^2) and of each
dense ``specialize`` matrix (16 (nm)^2), and the operation count of the
eigensolver calls (n^3 per matrix).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute): each entry opens a span named after its layer.
SPANNED = (
    ("cli.run", "torsionlab.cli", "run"),
    ("formats.parse", "torsionlab.formats", "load_input"),
    ("formats.parse", "torsionlab.formats", "parse_complex"),
    ("formats.parse", "torsionlab.formats", "parse_cw"),
    ("formats.parse", "torsionlab.formats", "parse_gluing"),
    ("formats.parse", "torsionlab.formats", "parse_ses"),
    ("formats.parse", "torsionlab.formats", "parse_laurent_matrix"),
    ("formats.emit", "torsionlab.formats", "canonical_json"),
    ("formats.emit", "torsionlab.formats", "report_text"),
    ("cells.build_complex", "torsionlab.cells", "build_complex"),
    ("cells.dual_complex", "torsionlab.cells", "dual_complex"),
    ("cells.glue", "torsionlab.cells", "glue"),
    ("vn.cyclic_group", "torsionlab.vn", "cyclic_group"),
    ("vn.log_vol", "torsionlab.vn", "log_vol"),
    ("complexes.hodge", "torsionlab.complexes", "hodge"),
    ("complexes.torsion", "torsionlab.complexes", "torsion"),
    ("complexes.torsion_via_laplacians", "torsionlab.complexes",
     "torsion_via_laplacians"),
    ("complexes.laplacian", "torsionlab.complexes", "laplacian"),
    ("complexes.log_det_prime", "torsionlab.complexes", "log_det_prime"),
    ("exact.milnor_check", "torsionlab.exact", "milnor_check"),
    ("exact.long_sequence", "torsionlab.exact", "long_sequence"),
    ("exact.connecting_hom", "torsionlab.exact", "connecting_hom"),
    ("towers.specialize", "torsionlab.towers", "specialize"),
    ("towers.approx_tower", "torsionlab.towers", "approx_tower"),
    ("towers.fourier_log_det", "torsionlab.towers", "fourier_log_det"),
)

KERNEL_FUNCTIONS = ("eigh", "eigvalsh", "svd")

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANNED)) + ("kernel.eig",)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.start_s", "s", "lower"),
    *((f"{layer}.{field}", unit, "lower")
      for layer in LAYERS
      for field, unit in (("calls", "count"), ("self_s", "s"))),
    ("vn.cyclic_group.table_bytes", "bytes-computed", "lower"),
    ("vn.singular_values.calls", "count", "lower"),
    ("towers.specialize.dense_bytes", "bytes-computed", "lower"),
    ("towers.symbol.points", "count", "lower"),
    ("towers.fourier_log_det.converged_frac", "fraction", "higher"),
    ("kernel.eig.max_dim", "count", "lower"),
    ("kernel.eig.n3_sum", "ops-computed", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _matrix_dims(a) -> tuple[int, int, int]:
    """(batch, rows, cols) of a matrix or a stack of matrices."""
    shape = np.shape(a)
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch, int(shape[-2]), int(shape[-1])


def _dense_bytes(op, m, *_) -> float:
    """Bytes of the complex128 matrix ``specialize(op, m)`` allocates."""
    rows, cols = op.shape if hasattr(op, "shape") else (1, 1)
    return 16.0 * rows * cols * float(m) ** 2


# layer -> (counter, computed figure of one call from its arguments)
COMPUTED = {
    "vn.cyclic_group": ("vn.cyclic_group.table_bytes",
                        lambda m, *_: 8.0 * float(m) ** 2),
    "towers.specialize": ("towers.specialize.dense_bytes", _dense_bytes),
}


class Tracer:
    """In-memory spans and counters for one traced replay."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.job, name, start, end)

    def job_span(self, job: int, fn, *args):
        """Run one job under a root span that its layer spans hang from."""
        self.job = job
        return self._span("job", fn, args, {})

    def _spanned(self, layer: str, fn):
        counters = self.counters
        computed = COMPUTED.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if computed is not None:
                counters[computed[0]] += computed[1](*args)
            value = self._span(layer, fn, args, kwargs)
            if layer == "towers.fourier_log_det":
                counters["towers.fourier_log_det.converged"] += 1
            return value

        return wrapper

    def _kernel(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("torsionlab"):
                return fn(a, *args, **kwargs)
            batch, rows, cols = _matrix_dims(a)
            counters["kernel.eig.max_dim"] = max(
                counters["kernel.eig.max_dim"], rows, cols)
            counters["kernel.eig.n3_sum"] += float(batch) * rows * cols * min(rows, cols)
            return self._span("kernel.eig", fn, (a, *args), kwargs)

        return wrapper

    def _counted(self, name: str, fn, size=None):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1 if size is None else size(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "torsionlab"
                                      or name.startswith("torsionlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for layer, module_name, attr in SPANNED:
            original = getattr(importlib.import_module(module_name), attr)
            self._replace_everywhere(original, self._spanned(layer, original))
        vn = importlib.import_module("torsionlab.vn")
        original = vn.singular_values
        self._replace_everywhere(
            original, self._counted("vn.singular_values.calls", original))
        towers = importlib.import_module("torsionlab.towers")
        symbol = towers.LaurentMatrix.symbol
        self._patches.append((towers.LaurentMatrix, "symbol", symbol))
        towers.LaurentMatrix.symbol = self._counted(
            "towers.symbol.points", symbol, lambda args: int(np.size(args[1])))
        for name in KERNEL_FUNCTIONS:
            original = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, original))
            setattr(np.linalg, name, self._kernel(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def pass_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer calls, self times and counters of one replay pass.

        Covers the spans from ``first_span`` on and the counters since the
        previous call, which it resets.
        """
        spans = self.spans[first_span:]
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for span_id, _, _, name, start, end in spans:
            if name == "job":
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[span_id]
        for name in ("vn.cyclic_group.table_bytes", "vn.singular_values.calls",
                     "towers.specialize.dense_bytes", "towers.symbol.points",
                     "kernel.eig.max_dim", "kernel.eig.n3_sum"):
            out[name] = self.counters.get(name, 0.0)
        calls = out["towers.fourier_log_det.calls"]
        converged = self.counters.get("towers.fourier_log_det.converged", 0.0)
        out["towers.fourier_log_det.converged_frac"] = converged / calls if calls else 0.0
        self.counters.clear()
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, job, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "job": job, "name": name,
                                         "start": start, "end": end}) + "\n")
