"""Outside-in tracer for fanpoly: spans and counters without touching src/.

fanpoly modules import each other's functions by name (``from .intlinalg
import kernel_lattice``), so wrapping a function in its home module is not
enough.  ``Tracer.install`` rebinds every alias of each traced function in
every loaded ``fanpoly.*`` namespace, and patches the traced methods on their
classes; ``uninstall`` puts the originals back.

Each call while the tracer is active records a span (name, parent span,
start, end) in memory.  Self time is kept on a span stack: a span's
duration minus the durations of its direct children.  Size counters (matrix
cells, entry bit lengths, distinct inputs) are taken after a span ends, and
the time they take is excluded from every span, so it shows only in the
trace overhead, never in a layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute path, metric name)
TRACED = (
    ("fanpoly.cones", "Cone.__init__", "cones.Cone"),
    ("fanpoly.cones", "Cone.faces", "cones.Cone.faces"),
    ("fanpoly.cones", "intersect", "cones.intersect"),
    ("fanpoly.cones", "restriction_matrix", "cones.restriction_matrix"),
    ("fanpoly.fans", "Fan.__init__", "fans.Fan"),
    ("fanpoly.multifans", "multifan_validate", "multifans.multifan_validate"),
    ("fanpoly.multifans", "mpp_basis", "multifans.mpp_basis"),
    ("fanpoly.polynomials", "degree_matrix", "polynomials.degree_matrix"),
    ("fanpoly.polynomials", "LocalPolynomial.substitute", "polynomials.LocalPolynomial.substitute"),
    ("fanpoly.intlinalg", "hnf", "intlinalg.hnf"),
    ("fanpoly.intlinalg", "snf", "intlinalg.snf"),
    ("fanpoly.intlinalg", "kernel_lattice", "intlinalg.kernel_lattice"),
    ("fanpoly.intlinalg", "solve_left", "intlinalg.solve_left"),
    ("fanpoly.ppring", "pp_basis", "ppring.pp_basis"),
    ("fanpoly.ppring", "pp_validate", "ppring.pp_validate"),
    ("fanpoly.ppring", "pp_pullback", "ppring.pp_pullback"),
    ("fanpoly.ppring", "pp_is_pullback", "ppring.pp_is_pullback"),
    ("fanpoly.gkm", "gkm_compare", "gkm.gkm_compare"),
    ("fanpoly.mayer_vietoris", "h3_torsion", "mayer_vietoris.h3_torsion"),
    ("fanpoly.chern", "chern_class", "chern.chern_class"),
    ("fanpoly.jsonio", "read_json_file", "jsonio.read_json_file"),
    ("fanpoly.jsonio", "fan_from_json", "jsonio.fan_from_json"),
    ("fanpoly.jsonio", "multifan_from_json", "jsonio.multifan_from_json"),
    ("fanpoly.cli", "main", "cli.main"),
)


def _max_bits(matrix):
    best = 0
    for row in matrix.entries:
        if row:
            b = max(max(row), -min(row)).bit_length()
            if b > best:
                best = b
    return best


class RoundStats:
    """Counters and self times of one traced stretch of work."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.hnf_max_cells = 0
        self.max_entry_bits = 0
        self.degree_matrix_inputs = set()
        self.sizing_s = 0.0

    def counts(self):
        """Everything that must repeat exactly for the same inputs."""
        return (
            sorted(self.calls.items()),
            self.hnf_max_cells,
            self.max_entry_bits,
            len(self.degree_matrix_inputs),
        )


def _size_hnf(stats, args, result):
    a = args[0]
    stats.hnf_max_cells = max(stats.hnf_max_cells, a.rows * a.cols)
    stats.max_entry_bits = max(stats.max_entry_bits, _max_bits(a), *map(_max_bits, result))


def _size_snf(stats, args, result):
    stats.max_entry_bits = max(
        stats.max_entry_bits, _max_bits(args[0]), _max_bits(result.S), _max_bits(result.U),
        _max_bits(result.V),
    )


def _size_degree_matrix(stats, args, result):
    stats.degree_matrix_inputs.add((args[0], args[1]))


SIZERS = {
    "intlinalg.hnf": _size_hnf,
    "intlinalg.snf": _size_snf,
    "polynomials.degree_matrix": _size_degree_matrix,
}


def _fanpoly_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "fanpoly" or name.startswith("fanpoly.")]


def resolve(module_name, path):
    """(owner, attribute, current value) for a TRACED entry."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Wraps fanpoly's layer functions from outside while installed.

    Spans and counters are recorded only while ``active`` is true, so the
    caller can time a job with the tracer on and check its answer with it
    off.
    """

    def __init__(self):
        self.active = False
        self.spans = []  # [metric, parent span index or -1, start, end]
        self.stats = RoundStats()
        self._stack = []  # [span index, time covered by direct children]
        self._patches = []  # (owner, attribute, original)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id of a module-level original -> its wrapper
        for module_name, path, metric in TRACED:
            owner, attr, fn = resolve(module_name, path)
            wrapper = self._wrap(metric, fn, SIZERS.get(metric))
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = wrapper
        for module in _fanpoly_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def new_round(self):
        """Start counting and recording spans afresh."""
        self.stats = RoundStats()
        self.spans = []

    def _wrap(self, metric, fn, sizer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            frame = [len(spans), 0.0]
            span = [metric, stack[-1][0] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[2] = t0
                span[3] = t1
                stats = tracer.stats
                stats.calls[metric] = stats.calls.get(metric, 0) + 1
                stats.self_s[metric] = stats.self_s.get(metric, 0.0) + (t1 - t0 - frame[1])
                if stack:
                    stack[-1][1] += t1 - t0
            if sizer is not None:
                t2 = perf_counter()
                sizer(stats, args, result)
                extra = perf_counter() - t2
                stats.sizing_s += extra
                if stack:
                    stack[-1][1] += extra
            return result

        return wrapper

    def write_spans(self, path):
        """Write the recorded spans as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": self.spans}, fh)
