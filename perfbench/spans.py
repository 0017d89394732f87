"""Span tracer installed from outside the package.

Wrappers replace the module attributes the code calls through: a
function imported by name into another module (``friction`` imports
``integrate_finite`` from ``quadrature``) is replaced in every loaded
``casfric`` module that holds it.  Each call records a span: name,
start, end, parent span, op id and a work count (integrand evaluations,
points evaluated, checks passed).  Spans stay in memory until the run
ends; the per-layer metrics are computed from them afterwards.  One
thread, no queue: a layer never waits on another, so the spans carry no
wait time.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import casfric  # noqa: F401  (loads every submodule the wrappers patch)
from casfric import dielectric, quadrature
from casfric.dielectric import Tabulated

# Modules whose every public function is one layer, reported as
# {module}.calls and {module}.busy_s (calls into the module from outside).
WHOLE_MODULES = ("geometry", "oscillator_stats", "electrostatics", "comparisons")

FORCE_CALLS = ("friction_dense", "friction_dilute", "friction_hybrid",
               "friction_drude_closed_form")


def _evaluations(args, kwargs, result) -> int:
    return result.evaluations


def _points(args, kwargs, result) -> int:
    return int(np.size(result))


def _passed(args, kwargs, result) -> int:
    return sum(1 for r in result if r.passed)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.nid: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.work: list[int] = []
        self.unconverged = 0
        self.force_keys: list[tuple] = []  # kernel key of each force call
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, work=None, name_of=None, on_result=None):
        nid_fixed = self._name_id(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nid = self._name_id(name_of(args, kwargs)) if name_of else nid_fixed
            idx = len(self.nid)
            self.nid.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.work.append(0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every module that holds it."""
        targets = {}

        def add(module, attr, name, **kw):
            fn = getattr(module, attr)
            targets[fn] = self._wrap(fn, name, **kw)

        for attr in ("integrate_finite", "integrate_semi_infinite"):
            add(quadrature, attr, f"quadrature.{attr}", work=_evaluations,
                on_result=self._count_unconverged)

        friction = sys.modules["casfric.friction"]
        for attr in ("h0_overlap", "h0_dense_at_u"):
            add(friction, attr, f"friction.{attr}", work=_evaluations)
        for attr in FORCE_CALLS:
            sig = inspect.signature(getattr(friction, attr))
            add(friction, attr, f"friction.{attr}",
                on_result=lambda a, k, r, sig=sig, attr=attr: self._record_key(attr, sig, a, k))

        add(dielectric, "dense_alpha_retarded", "dielectric.dense_alpha_retarded",
            work=_points, name_of=_retarded_name)
        add(dielectric, "load_tabulated", "dielectric.load_tabulated")
        targets[dielectric.spectral_density] = self._spectral_density_wrapper(
            dielectric.spectral_density)

        cli = sys.modules["casfric.cli"]
        add(cli, "main", "cli.main")
        add(cli, "run_config", "cli.run_config")
        add(cli, "parse_run_config", "cli.parse")
        add(cli, "parse_sweep_config", "cli.parse")

        validation = sys.modules["casfric.validation"]
        add(validation, "run_all", "validation.run_all", work=_passed)

        for mod_name in WHOLE_MODULES:
            module = sys.modules[f"casfric.{mod_name}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    add(module, attr, f"{mod_name}.{attr}")

        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "casfric" or mod_name.startswith("casfric.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, targets[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _spectral_density_wrapper(self, fn):
        """Spectral densities are closures made by ``spectral_density``;
        wrap the ``value`` callable of every density it returns."""

        def wrapper(*args, **kwargs):
            sd = fn(*args, **kwargs)
            if getattr(sd.value, "_traced", False):
                return sd
            value = self._wrap(sd.value, "dielectric.spectral_value", work=_points)
            value._traced = True
            return replace(sd, value=value)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_unconverged(self, args, kwargs, result) -> None:
        if not result.converged:
            self.unconverged += 1

    def _record_key(self, attr, sig, args, kwargs) -> None:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        spec = a.get("spec") or quadrature.default_spec()
        spec_key = (spec.abs_tol, spec.rel_tol, spec.max_subdivisions)
        if attr == "friction_hybrid":
            key = (attr, _medium_key(a["probe"]), _model_key(a["plate"]),
                   a["temperature_k"], spec_key)
        else:
            system = a["system"]
            key = (attr, _medium_key(system.medium1), _medium_key(system.medium2),
                   system.T_K, a.get("denominators"),
                   spec_key if attr != "friction_drude_closed_form" else None)
        self.force_keys.append(key)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        n = len(self.nid)
        nid = np.asarray(self.nid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        work = np.asarray(self.work, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        names = np.asarray(self.names + [""], dtype=object)
        span_name = names[nid]
        parent_name = np.where(has_parent, names[np.where(has_parent, nid[parent], -1)], "")

        def sel(name):
            return span_name == name

        def total(values, name):
            return float(np.sum(values[sel(name)]))

        m = {}
        for layer in ("quadrature.integrate_finite", "quadrature.integrate_semi_infinite"):
            m[f"{layer}.calls"] = int(np.sum(sel(layer)))
            m[f"{layer}.self_s"] = total(self_time, layer)
            m[f"{layer}.evals"] = int(total(work, layer))
        m["quadrature.unconverged"] = self.unconverged

        m["friction.h0_dense_at_u.calls"] = int(np.sum(sel("friction.h0_dense_at_u")))
        m["friction.friction_dense.self_s"] = total(self_time, "friction.friction_dense")
        # The outer u-integral of the screened route runs inside quadrature
        # spans: the semi-infinite integral called by friction_dense and
        # the finite panels it calls, minus the inner kernels below them.
        outer = sel("quadrature.integrate_semi_infinite") & (parent_name == "friction.friction_dense")
        outer_ids = np.flatnonzero(outer)
        panels = sel("quadrature.integrate_finite") & np.isin(parent, outer_ids)
        m["friction.outer_u.self_s"] = float(np.sum(self_time[outer | panels]))

        h0 = sel("friction.h0_overlap")
        h0_children = sel("quadrature.integrate_finite") & np.isin(parent, np.flatnonzero(h0))
        m["friction.h0_overlap.calls"] = int(np.sum(h0))
        m["friction.h0_overlap.self_s"] = float(np.sum(self_time[h0]))
        m["friction.h0_overlap.probe_evals"] = int(np.sum(work[h0]) - np.sum(work[h0_children]))

        seen, repeats = set(), 0
        for key in self.force_keys:
            repeats += key in seen
            seen.add(key)
        m["friction.kernel_repeat_share"] = repeats / len(self.force_keys) if self.force_keys else 0.0

        for branch in ("closed", "tabulated"):
            layer = f"dielectric.dense_alpha_retarded.{branch}"
            m[f"{layer}.calls"] = int(np.sum(sel(layer)))
            m[f"{layer}.points"] = int(total(work, layer))
            m[f"{layer}.self_s"] = total(self_time, layer)
        layer = "dielectric.spectral_value"
        m[f"{layer}.calls"] = int(np.sum(sel(layer)))
        m[f"{layer}.points"] = int(total(work, layer))
        m[f"{layer}.self_s"] = total(self_time, layer)
        m["dielectric.load_tabulated.calls"] = int(np.sum(sel("dielectric.load_tabulated")))
        m["dielectric.load_tabulated.self_s"] = total(self_time, "dielectric.load_tabulated")

        m["cli.parse.self_s"] = total(self_time, "cli.parse")
        m["cli.run_config.calls"] = int(np.sum(sel("cli.run_config")))
        m["cli.main.self_s"] = total(self_time, "cli.main")
        m["validation.run_all.self_s"] = total(self_time, "validation.run_all")
        m["validation.checks_passed"] = int(total(work, "validation.run_all"))

        # Module of each span and of its parent ("" for a top-level span).
        modules = np.asarray([name.split(".")[0] for name in self.names] + [""], dtype=object)
        span_mod = modules[nid]
        parent_mod = np.where(has_parent, modules[np.where(has_parent, nid[parent], -1)], "")
        for mod in WHOLE_MODULES:
            from_outside = (span_mod == mod) & (parent_mod != mod)
            m[f"{mod}.calls"] = int(np.sum(from_outside))
            m[f"{mod}.busy_s"] = float(np.sum(dur[from_outside]))
        return m

    def per_op(self) -> dict:
        """Work counts of each traced op, for checking exact repeats."""
        out = {}
        nid = np.asarray(self.nid, dtype=np.int64)
        op = np.asarray(self.op, dtype=np.int64)
        work = np.asarray(self.work, dtype=np.int64)
        for name in ("friction.h0_dense_at_u", "friction.h0_overlap",
                     "quadrature.integrate_finite"):
            i = self.name_ids.get(name)
            if i is None:
                continue
            for o in np.unique(op[nid == i]):
                rows = (nid == i) & (op == o)
                entry = out.setdefault(int(o), {})
                entry[f"{name}.calls"] = int(np.sum(rows))
                entry[f"{name}.evals"] = int(np.sum(work[rows]))
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Spans as arrays (``.npz``) plus a JSON summary beside them."""
        np.savez(path.with_suffix(".npz"), names=np.asarray(self.names),
                 name_id=np.asarray(self.nid, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 op=np.asarray(self.op, dtype=np.int32),
                 work=np.asarray(self.work, dtype=np.int64))
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1), encoding="utf-8")


def _retarded_name(args, kwargs) -> str:
    model = args[0] if args else kwargs["model"]
    branch = "tabulated" if isinstance(model, Tabulated) else "closed"
    return f"dielectric.dense_alpha_retarded.{branch}"


def _model_key(model) -> tuple:
    if isinstance(model, Tabulated):
        digest = hashlib.sha1(model.m_ev.tobytes() + model.values.tobytes()).hexdigest()
        return ("Tabulated", digest)
    return (type(model).__name__, tuple(sorted(vars(model).items())))


def _medium_key(medium) -> tuple:
    return (_model_key(medium.model), medium.density_per_nm3)
