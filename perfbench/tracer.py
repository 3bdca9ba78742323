"""Span tracer installed around beclab from outside the package.

Each wrapper replaces a public function at the module attribute where its
caller looks it up (``beclab.verify.nondegeneracy_report``, not the
defining ``beclab.spectrum.nondegeneracy_report``), records one span per
call in memory, and is removed again by ``uninstall``. Parents are tracked
per thread: verify's worker pool runs spans that overlap in time, and a
span's parent is the span open on the same thread when it started.

Counters come from what the wrapped calls take and return, never from
inside the program: Newton iterations from ``NewtonResult.iterations``,
residual and Jacobian evaluations from wrapping the callables handed to
``newton_solve``, continuation steps and halvings from
``ContinuationTrace.steps``, factor bytes from the matrix shape.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager

from workloads import CLI_ARGV

# span name -> beclab modules whose attribute of that name is replaced
SITES = {
    "spectrum.lowest_eigenpairs": ("spectrum", "cli"),
    "spectrum.nondegeneracy_report": ("verify", "cli"),
    "heteroclinic.solve_heteroclinic": ("heteroclinic", "verify", "cli"),
    "heteroclinic.continue_in_lambda": ("heteroclinic", "verify", "cli"),
    "profiles.solve_blowup": ("verify", "cli", "asymptotics"),
    "shooting.kappa_shooting": ("verify",),
    "asymptotics.measure_errors": ("verify", "cli"),
    "asymptotics.build_composite": ("verify", "cli"),
    "asymptotics.shift_estimate": ("verify",),
    "energy.expansion_residual": ("verify", "cli"),
    "energy.partition_constant": ("verify",),
    "calculus.resample": ("heteroclinic", "asymptotics", "profiles", "cli"),
    "verify.run_verification": ("verify", "cli"),
    "verify.jacobian_fd_error": ("verify",),
    "runio.write_csv": ("cli",),
    "runio.write_json": ("cli",),
    "newton.newton_solve": ("heteroclinic", "profiles"),
}

# spans whose call count is a per-layer metric (every span also gets .s and .self_s)
COUNTED = (
    "spectrum.lowest_eigenpairs",
    "spectrum.nondegeneracy_report",
    "banded.lu_factor",
    "banded.lu_solve",
    "newton.newton_solve",
    "newton.residual",
    "newton.jacobian",
    "heteroclinic.solve_heteroclinic",
    "profiles.solve_blowup",
    "calculus.resample",
    "runio.write_csv",
    "runio.write_json",
)

SPANS = tuple(SITES) + (
    "spectrum.eigvals_banded",
    "banded.lu_factor",
    "banded.lu_solve",
    "newton.residual",
    "newton.jacobian",
) + tuple(f"cli.{c}" for c in CLI_ARGV)


class _Proxy:
    """Stand-in for a module object: one attribute replaced, the rest delegated."""

    def __init__(self, module, name, replacement):
        self._module = module
        setattr(self, name, replacement)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, thread, parent, start, end)
        self.counts = {}
        self.missing = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original, is_class_attribute)

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, threading.get_ident(), parent, start, end))

    def add(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr, replacement, is_class_attribute=False):
        original = owner.__dict__[attr] if is_class_attribute else getattr(owner, attr)
        self._patches.append((owner, attr, original, is_class_attribute))
        setattr(owner, attr, replacement)

    def install(self):
        mods = {
            name: importlib.import_module(f"beclab.{name}")
            for name in {m for sites in SITES.values() for m in sites} | {"banded", "spectrum"}
        }
        for span_name, sites in SITES.items():
            attr = span_name.split(".", 1)[1]
            for site in sites:
                module = mods[site]
                if not callable(getattr(module, attr, None)):
                    self.missing.append(f"{site}.{attr}")
                    continue
                original = getattr(module, attr)
                self._patch(module, attr, self._wrapper(span_name, original))

        lu = getattr(mods["banded"], "BandedLU", None)
        if lu is None:
            self.missing.append("banded.BandedLU")
        else:
            self._patch(lu, "__init__", self._lu_init(lu.__dict__["__init__"]), True)
            self._patch(lu, "solve", self._timed("banded.lu_solve", lu.__dict__["solve"]), True)

        sla = getattr(mods["spectrum"], "sla", None)
        if sla is None or not callable(getattr(sla, "eigvals_banded", None)):
            self.missing.append("spectrum.sla.eigvals_banded")
        else:
            wrapped = self._timed("spectrum.eigvals_banded", sla.eigvals_banded)
            self._patch(mods["spectrum"], "sla", _Proxy(sla, "eigvals_banded", wrapped))
        return self

    def uninstall(self):
        """Put every original back; returns the attributes that are not
        the original object afterwards (empty when all were restored)."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, is_cls in self._patches
            if (owner.__dict__[attr] if is_cls else getattr(owner, attr)) is not original
        ]
        self._patches = []
        return stale

    # -- per-function wrappers -------------------------------------------------
    def _wrapper(self, span_name, fn):
        if span_name == "newton.newton_solve":
            return self._newton(fn)
        if span_name == "heteroclinic.continue_in_lambda":
            return self._continuation(fn)
        if span_name in ("runio.write_csv", "runio.write_json"):
            return self._writer(span_name, fn)
        if span_name == "verify.run_verification":
            return self._verification(fn)
        return self._timed(span_name, fn)

    def _newton(self, fn):
        @functools.wraps(fn)
        def traced(residual, jacobian, init, *args, **kwargs):
            residual = self._timed("newton.residual", residual)
            jacobian = self._timed("newton.jacobian", jacobian)
            with self.span("newton.newton_solve"):
                try:
                    result = fn(residual, jacobian, init, *args, **kwargs)
                except RuntimeError as exc:
                    self.add("newton.iterations", getattr(exc, "iterations", 0) or 0)
                    raise
            self.add("newton.iterations", result.iterations)
            return result

        return traced

    def _continuation(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("heteroclinic.continue_in_lambda"):
                trace = fn(*args, **kwargs)
            self.add("heteroclinic.continuation.steps", len(trace.steps))
            self.add("heteroclinic.continuation.halvings", sum(s.halvings for s in trace.steps))
            return trace

        return traced

    def _writer(self, span_name, fn):
        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            with self.span(span_name):
                out = fn(path, *args, **kwargs)
            self.add("runio.bytes_written", os.stat(path).st_size)
            return out

        return traced

    def _verification(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            with self.span("verify.run_verification"):
                out = fn(*args, **kwargs)
            self.add("verify.cpu_s", time.process_time() - cpu0)
            self.add("verify.wall_s", time.perf_counter() - wall0)
            return out

        return traced

    def _lu_init(self, fn):
        @functools.wraps(fn)
        def traced(lu, matrix, *args, **kwargs):
            with self.span("banded.lu_factor"):
                fn(lu, matrix, *args, **kwargs)
            self.add("banded.lu_factor.bytes_computed", matrix.dim * (3 * matrix.bandwidth + 1) * 8)

        return traced

    # -- derived numbers --------------------------------------------------------
    def span_table(self):
        """name -> (calls, inclusive seconds, self seconds). Self time is the
        span's duration minus the union of its children's intervals."""
        children = {}
        for sid, _, _, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        table = {}
        for sid, name, _, _, start, end in self.spans:
            covered = 0.0
            reach = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, reach)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, total + (end - start), own + (end - start - covered))
        return table

    def layer_metrics(self):
        """Every per-layer metric of BENCHMARK.json except the tracing
        overhead, which needs an untraced run to compare with."""
        table = self.span_table()
        counts = dict(self.counts)
        out = {}
        for name in SPANS:
            _, total, own = table.get(name, (0, 0.0, 0.0))
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        for name in COUNTED:
            out[f"{name}.calls"] = table.get(name, (0, 0.0, 0.0))[0]
        out["spectrum.inverse_iteration.s"] = (
            out["spectrum.lowest_eigenpairs.s"] - out["spectrum.eigvals_banded.s"]
        )
        out["banded.lu_factor.bytes_computed"] = counts.get("banded.lu_factor.bytes_computed", 0)
        out["newton.iterations"] = counts.get("newton.iterations", 0)
        out["newton.backtracks"] = (
            out["newton.residual.calls"]
            - out["newton.iterations"]
            - out["newton.newton_solve.calls"]
        )
        steps = counts.get("heteroclinic.continuation.steps", 0)
        halvings = counts.get("heteroclinic.continuation.halvings", 0)
        out["heteroclinic.continuation.steps"] = steps
        out["heteroclinic.continuation.halvings"] = halvings
        # every halving is one rejected solve attempt
        out["heteroclinic.continuation.accept_ratio"] = (
            steps / (steps + halvings) if steps + halvings else 0.0
        )
        verify_wall = counts.get("verify.wall_s", 0.0)
        out["verify.cpu_per_wall"] = counts.get("verify.cpu_s", 0.0) / verify_wall if verify_wall else 0.0
        out["runio.bytes_written"] = counts.get("runio.bytes_written", 0)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self):
        return {
            "spans": [
                {"id": s, "name": n, "thread": t, "parent": p, "start": a, "end": b}
                for s, n, t, p, a, b in self.spans
            ],
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }
