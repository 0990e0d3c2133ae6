"""Per-layer spans and counters, recorded by wrapping `wph` entry points.

The wrappers live here, not in the package: `Tracer.install` replaces each
traced function with a timing wrapper in every `wph` module that holds a
reference to it (for example `wph.chain.solve_in_lattice` and
`wph.homotopy.kernel_basis` are the same function imported twice), and
`Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the time covered by traced calls it
made.  The wrapper's own bookkeeping is charged to neither the span nor its
parent, so self times stay comparable with untraced runs; the cost shows up
only in `trace.overhead_share`.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from time import perf_counter

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from wph import algebra, chain, cli, dhyper, digraph, homotopy, pathcx
from wph import io as wio

# (owner, attribute, span name).  The owner is a module or a class; a span's
# layer is the part of its name before the first dot.
SPANS = (
    (digraph, "paths_functor", "paths.paths_functor"),
    (digraph, "box_product", "paths.box_product"),
    (dhyper, "natural_digraph", "paths.natural_digraph"),
    (dhyper, "connective_functor", "paths.connective_functor"),
    (dhyper, "bold_functor", "paths.bold_functor"),
    (dhyper, "density_two_of", "paths.density_two_of"),
    (dhyper, "hyper_box_product", "paths.hyper_box_product"),
    (pathcx, "complex_from_paths", "paths.complex_from_paths"),
    (pathcx.PathComplex, "cylinder", "paths.cylinder"),
    (chain, "build_omega", "omega.build_omega"),
    (chain, "homology", "homology.homology"),
    (chain, "homology_of_omega", "homology.homology_of_omega"),
    (chain, "induced_chain_map", "chain.induced_map"),
    (algebra, "smith_normal_form", "algebra.snf"),
    (algebra, "solve_in_lattice", "algebra.solve"),
    (algebra, "kernel_basis", "algebra.kernel"),
    (algebra.Matrix, "matmul", "algebra.matmul"),
    (homotopy, "chain_homotopy_certificate", "homotopy.certificate"),
    (homotopy, "prism", "homotopy.prism"),
    (wio, "parse", "io.parse"),
    (cli, "main", "cli.main"),
)

# Per-layer metrics in output order: name -> unit.
METRICS = {
    "paths.time_s": "s",
    "paths.count": "count",
    "omega.time_s": "s",
    "omega.reg_paths": "count",
    "omega.rank": "count",
    "omega.identity_share": "ratio",
    "homology.time_s": "s",
    "chain.induced_map.time_s": "s",
    "algebra.snf.calls": "count",
    "algebra.snf.time_s": "s",
    "algebra.snf.cells": "count",
    "algebra.snf.repeat_share": "ratio",
    "algebra.snf.max_bits": "bits",
    "algebra.solve.calls": "count",
    "algebra.solve.time_s": "s",
    "algebra.solve.total_s": "s",
    "algebra.kernel.calls": "count",
    "algebra.kernel.time_s": "s",
    "algebra.kernel.total_s": "s",
    "algebra.matmul.calls": "count",
    "algebra.matmul.time_s": "s",
    "homotopy.certificate.time_s": "s",
    "homotopy.prism.time_s": "s",
    "io.parse.time_s": "s",
    "cli.time_s": "s",
    "trace.overhead_share": "ratio",
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


class Tracer:
    """Collects spans and counters while installed; one instance per traced batch."""

    def __init__(self):
        self.stats = {name: SpanStats() for _, _, name in SPANS}
        self.paths_count = 0
        self.omega_reg_paths = 0
        self.omega_rank = 0
        self.omega_degrees = 0
        self.omega_identity_degrees = 0
        self.snf_cells = 0
        self.snf_repeats = 0
        self.snf_max_bits = 0
        self._op_inputs: set = set()
        self._stack: list = []  # [child time, span name] per open span
        self._saved: list = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("wph") and m]
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def begin_op(self) -> None:
        """Start a new top-level op; SNF repeats are counted within one op."""
        self._op_inputs = set()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        before = {"algebra.snf": self._snf_input}.get(name)
        after = {
            "algebra.snf": self._snf_output,
            "omega.build_omega": self._omega_output,
        }.get(name)
        is_paths = name.startswith("paths.")
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if before is not None:
                before(args[0])
            outer_paths = is_paths and not (stack and stack[-1][1].startswith("paths."))
            frame = [0.0, name]
            stack.append(frame)
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                stats.calls += 1
                stats.total_s += t2 - t1
                stats.self_s += (t2 - t1) - frame[0]
            if after is not None:
                after(result)
            if outer_paths and isinstance(result, pathcx.PathComplex):
                self.paths_count += len(result.paths)
            if stack:
                stack[-1][0] += perf_counter() - t0
            return result

        return wrapper

    def _snf_input(self, m) -> None:
        self.snf_cells += m.rows * m.cols
        key = (m.ring, m.rows, m.cols, m.data)
        if key in self._op_inputs:
            self.snf_repeats += 1
        else:
            self._op_inputs.add(key)
        for row in m.data:
            for x in row:
                if x:
                    self.snf_max_bits = max(self.snf_max_bits, _bits(x))

    def _snf_output(self, snf) -> None:
        for x in snf.d:
            self.snf_max_bits = max(self.snf_max_bits, _bits(x))

    def _omega_output(self, omega) -> None:
        for basis in omega.bases:
            self.omega_reg_paths += basis.rows
            self.omega_rank += basis.cols
            self.omega_degrees += 1
            if basis.rows == basis.cols and basis.data == algebra.Matrix.identity(omega.ring, basis.rows).data:
                self.omega_identity_degrees += 1

    # -- results -----------------------------------------------------------

    def _self(self, *names) -> float:
        return sum(self.stats[n].self_s for n in names)

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        s = self.stats
        snf_calls = s["algebra.snf"].calls
        values = {
            "paths.time_s": self._self(*(n for n in s if n.startswith("paths."))),
            "paths.count": self.paths_count,
            "omega.time_s": self._self("omega.build_omega"),
            "omega.reg_paths": self.omega_reg_paths,
            "omega.rank": self.omega_rank,
            "omega.identity_share": (
                self.omega_identity_degrees / self.omega_degrees if self.omega_degrees else 0.0
            ),
            "homology.time_s": self._self("homology.homology", "homology.homology_of_omega"),
            "chain.induced_map.time_s": self._self("chain.induced_map"),
            "algebra.snf.calls": snf_calls,
            "algebra.snf.time_s": s["algebra.snf"].total_s,
            "algebra.snf.cells": self.snf_cells,
            "algebra.snf.repeat_share": self.snf_repeats / snf_calls if snf_calls else 0.0,
            "algebra.snf.max_bits": self.snf_max_bits,
            "algebra.solve.calls": s["algebra.solve"].calls,
            "algebra.solve.time_s": self._self("algebra.solve"),
            "algebra.solve.total_s": s["algebra.solve"].total_s,
            "algebra.kernel.calls": s["algebra.kernel"].calls,
            "algebra.kernel.time_s": self._self("algebra.kernel"),
            "algebra.kernel.total_s": s["algebra.kernel"].total_s,
            "algebra.matmul.calls": s["algebra.matmul"].calls,
            "algebra.matmul.time_s": s["algebra.matmul"].total_s,
            "homotopy.certificate.time_s": self._self("homotopy.certificate"),
            "homotopy.prism.time_s": s["homotopy.prism"].total_s,
            "io.parse.time_s": s["io.parse"].total_s,
            "cli.time_s": self._self("cli.main"),
            "trace.overhead_share": traced_wall_s / untraced_wall_s - 1.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
