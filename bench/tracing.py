"""Outside-in layer tracing for the qbat benchmark.

The tracer wraps, from outside the package, the public functions of every
``qbat`` module at each module namespace that binds them, the
``__post_init__`` of ``Operator``, ``PureState`` and ``DensityMatrix``, and
the numpy kernels ``numpy.linalg.eigh`` and ``numpy.einsum``.  "Public" means
the package's own API (the functions ``qbat/__init__.py`` exports) plus the
command-line layer (``cli.main``, ``cli.build_parser``, ``_io.write_rows``).
Per-element helpers such as ``_io.format_number`` stay unwrapped, so a pass
records spans per layer call, not per printed number.  No private name is
patched, so the spans survive refactors of private helpers.

A span is ``(id, name, start, end, parent, tid, extra)``.  The parent is the
innermost open span of the same thread; a thread with no open span (a sweep
worker) takes the innermost open span of the thread that installed the
tracer, the only thread that starts qbat's worker pools.  Self time is
computed per thread: a span's duration minus the union of the intervals of
its children that ran on its own thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
import types
from collections import defaultdict

QBAT_MODULES = ("qbat", "qbat.qalg", "qbat.model", "qbat.dynamics", "qbat.protocols",
                "qbat.adiabatic", "qbat.acceptance", "qbat._io", "qbat.cli")
CLI_LAYER = (("qbat.cli", "main"), ("qbat.cli", "build_parser"), ("qbat._io", "write_rows"))
VALUE_CLASSES = (("qbat.qalg", "Operator", "qalg.operator_new"),
                 ("qbat.qalg", "PureState", "qalg.state_new"),
                 ("qbat.qalg", "DensityMatrix", "qalg.state_new"))


def _span_name(fn) -> str:
    module = fn.__module__.removeprefix("qbat.").lstrip("_")
    return f"{module}.{fn.__qualname__}"


def _eigh_extra(args, kwargs, result):
    a = args[0]
    matrices = 1
    for n in a.shape[:-2]:
        matrices *= n
    # Computed traffic: the input stack read once, eigenvalues and vectors
    # written once; cache misses are not counted.
    return {"matrices": matrices, "bytes": a.nbytes + result[0].nbytes + result[1].nbytes}


def _write_rows_extra(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs.get("path", "-")
    return {"bytes": os.path.getsize(path) if path != "-" else 0}


class Tracer:
    """Records spans around qbat's layer boundaries while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._home_stack[-1]
                except IndexError:
                    parent = None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, time.perf_counter(), parent,
                              threading.get_ident(), None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans.append((sid, name, start, end, parent, threading.get_ident(),
                          extra(args, kwargs, result) if extra else None))
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch qbat and numpy in place; ``uninstall`` restores them."""
        import importlib

        import numpy

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home_stack = self._stack()
        modules = [importlib.import_module(name) for name in QBAT_MODULES]
        package = modules[0]
        targets = {fn for fn in vars(package).values() if isinstance(fn, types.FunctionType)}
        targets |= {getattr(importlib.import_module(mod), attr) for mod, attr in CLI_LAYER}
        wrapped = {}
        for fn in targets:
            extra = _write_rows_extra if fn.__name__ == "write_rows" else None
            wrapped[fn] = self.wrap(_span_name(fn), fn, extra)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not attr.startswith("_") and isinstance(value, types.FunctionType) \
                        and value in wrapped:
                    self._patch(module, attr, wrapped[value])
        for mod, cls_name, span in VALUE_CLASSES:
            cls = getattr(importlib.import_module(mod), cls_name)
            self._patch(cls, "__post_init__", self.wrap(span, cls.__post_init__))
        self._patch(numpy.linalg, "eigh", self.wrap("kernel.eigh", numpy.linalg.eigh, _eigh_extra))
        self._patch(numpy, "einsum", self.wrap("kernel.einsum", numpy.einsum))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def take(self) -> list:
        """The spans recorded so far, clearing the buffer."""
        taken = self.spans[:]
        del self.spans[:]
        return taken


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sid, name, start, end, parent, tid, extra in spans:
            record = {"id": sid, "name": name, "start": start, "end": end,
                      "parent": parent, "tid": tid}
            if extra:
                record.update(extra)
            handle.write(json.dumps(record) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by same-thread children."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent, tid, _ in spans:
        if parent in by_id and by_id[parent][5] == tid:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                   if e > start and s < end]
        out[sid] = (end - start) - _covered(clipped)
    return out


def _outermost(spans, by_id) -> list:
    """Those of ``spans`` (all of one name) with no ancestor of the same name."""
    out = []
    for span in spans:
        parent = by_id.get(span[4])
        while parent is not None and parent[1] != span[1]:
            parent = by_id.get(parent[4])
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans, workers: int) -> dict:
    """Per-layer metrics of one pass from its spans; ``spec.TARGETS`` maps each."""
    by_id = {s[0]: s for s in spans}
    named = defaultdict(list)
    for span in spans:
        named[span[1]].append(span)

    def count(name):
        return len(named[name])

    def inclusive(name):
        return sum(s[3] - s[2] for s in _outermost(named[name], by_id))

    def extra_sum(name, key):
        return sum(s[6][key] for s in named[name])

    selfs = self_times(spans)
    busy = 0.0
    wait = 0.0
    sweep_wall = 0.0
    runs = named["adiabatic.run_discharge"]
    for sweep in named["adiabatic.sweep_tau"]:
        sweep_wall += sweep[3] - sweep[2]
        for run in runs:
            if run[4] == sweep[0]:
                busy += run[3] - run[2]
                wait += run[2] - sweep[2]
    return {
        "qalg.operator_new.count": count("qalg.operator_new"),
        "qalg.operator_new.s": inclusive("qalg.operator_new"),
        "qalg.state_new.count": count("qalg.state_new"),
        "qalg.state_new.s": inclusive("qalg.state_new"),
        "model.hamiltonian_set.count": count("model.hamiltonian_set"),
        "model.hamiltonian_set.s": inclusive("model.hamiltonian_set"),
        "dynamics.evolve_static.count": count("dynamics.evolve_static"),
        "dynamics.evolve_static.s": inclusive("dynamics.evolve_static"),
        "dynamics.sample_trajectory.s": inclusive("dynamics.sample_trajectory"),
        "cli.build_parser.s": inclusive("cli.build_parser"),
        "io.write_rows.s": inclusive("io.write_rows"),
        "io.bytes": extra_sum("io.write_rows", "bytes"),
        "adiabatic.run_discharge.count": len(runs),
        "adiabatic.run_discharge.self_s": sum(selfs[s[0]] for s in runs),
        "adiabatic.min_sector_gap.s": inclusive("adiabatic.min_sector_gap"),
        "adiabatic.sweep_tau.busy_frac": busy / (workers * sweep_wall) if sweep_wall else 0.0,
        "adiabatic.sweep_tau.job_wait_s": wait,
        "kernel.eigh.calls": count("kernel.eigh"),
        "kernel.eigh.matrices": extra_sum("kernel.eigh", "matrices"),
        "kernel.eigh.s": inclusive("kernel.eigh"),
        "kernel.eigh.bytes": extra_sum("kernel.eigh", "bytes"),
        "kernel.einsum.calls": count("kernel.einsum"),
        "kernel.einsum.s": inclusive("kernel.einsum"),
        "protocols.trapping_uniqueness_scan.s": inclusive("protocols.trapping_uniqueness_scan"),
        "protocols.separable_sweep.s": inclusive("protocols.separable_sweep"),
        "protocols.ncell_plan_energy.s": inclusive("protocols.ncell_plan_energy"),
        "protocols.trapping_check.s": inclusive("protocols.trapping_check"),
    }


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
