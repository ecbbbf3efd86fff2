"""Span tracing of gmtkit's public functions, installed from outside the library.

``Tracer.install`` replaces every public function of the traced modules at
every module binding it is looked up through (``gmtkit.cubical.cubical_complex``
and ``gmtkit.deform.cubical_complex`` alike) with a wrapper that records a
span, and ``Tracer.uninstall`` puts the originals back.  Spans stay in memory
as ``[name, start, end, parent, op, extra]`` lists and are written once, when
the run ends.  ``extra`` holds the counts an observer reads from the call's
arguments and result (candidates tried, cells built, samples moved, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cubical", "deform", "cubemaps", "varifold", "solver", "grassmann", "cli")

CLI_OPS = ("rotate", "retract", "project", "whitney", "deform", "deform_replay",
           "slice", "minimize", "audit", "probe_ellipticity")


def _select_center(args, result):
    info = result[1]
    return {"candidates": int(info.get("candidates_tried", 0)),
            "averaged": int(info.get("branch") == "averaged")}


def _deform_onto_skeleton(args, result):
    plan = result[0]
    return {"stages": len(plan.stages), "cleanup": len(plan.stages) - plan.descent_count}


def _cubical_complex(args, result):
    return {"family_cubes": len(args[0]), "cells": len(result)}


def _unrect_perturbation(args, result):
    balls = (result.meta or {}).get("balls", 0)
    return {"balls": balls if isinstance(balls, int) else len(balls)}


def _pushforward(args, result):
    return {"samples": len(args[1])}


def _spans(args, result):
    return {"true": int(bool(result))}


def _minimize(args, result):
    return {"accepts": len(result.trace)}


OBSERVERS = {
    "deform.select_center": _select_center,
    "deform.deform_onto_skeleton": _deform_onto_skeleton,
    "cubical.cubical_complex": _cubical_complex,
    "cubemaps.unrect_perturbation": _unrect_perturbation,
    "varifold.pushforward": _pushforward,
    "solver.spans": _spans,
    "solver.minimize": _minimize,
}

# per-layer metrics: (name, unit); every workload reports all of them
PER_LAYER = [
    ("deform.select_center.busy_s", "s"),
    ("deform.select_center.calls", "count"),
    ("deform.select_center.candidates", "count"),
    ("deform.select_center.averaged_share", "share"),
    ("deform.deform_onto_skeleton.busy_s", "s"),
    ("deform.purge_unrectifiable.busy_s", "s"),
    ("deform.stages", "count"),
    ("deform.cleanup_stages", "count"),
    ("cubical.whitney_family.busy_s", "s"),
    ("cubical.whitney_family.calls", "count"),
    ("cubical.cubical_complex.busy_s", "s"),
    ("cubical.cubical_complex.calls", "count"),
    ("cubical.cubical_complex.family_cubes", "count"),
    ("cubical.cubical_complex.cells", "count"),
    ("cubemaps.unrect_perturbation.busy_s", "s"),
    ("cubemaps.unrect_perturbation.balls", "count"),
    ("cubemaps.recentering_map.calls", "count"),
    ("varifold.pushforward.busy_s", "s"),
    ("varifold.pushforward.calls", "count"),
    ("varifold.pushforward.samples", "count"),
    ("varifold.slice_varifold.busy_s", "s"),
    ("varifold.density_ratio.busy_s", "s"),
    ("varifold.density_ratio.calls", "count"),
    ("varifold.covering_measure.busy_s", "s"),
    ("solver.spans.busy_s", "s"),
    ("solver.spans.calls", "count"),
    ("solver.spans.true_share", "share"),
    ("solver.gf2_solve.busy_s", "s"),
    ("solver.gf2_solve.calls", "count"),
    ("solver.initial_chain.busy_s", "s"),
    ("solver.minimize.busy_s", "s"),
    ("solver.minimize.accepts", "count"),
    ("solver.exhaustive_oracle.busy_s", "s"),
    ("solver.audit_minimizer.busy_s", "s"),
    ("solver.boundary_bytes", "bytes"),
    ("grassmann.build_rotation.busy_s", "s"),
    ("grassmann.build_rotation.calls", "count"),
    *[(f"cli.{op}.wall_s", "s") for op in CLI_OPS],
    ("cli.deform_replay.select_center.calls", "count"),
    ("cli.artifact_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans around the traced functions while ``op`` is set."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []
        self._dense_built = []  # (complex, k) pairs whose dense boundary was built
        self.boundary_bytes = 0

    def _wrap(self, fn, name):
        observer = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self._stack.pop()
            if observer is not None:
                rec[5] = observer(args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the traced modules at all its bindings."""
        names = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"gmtkit.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in names.items()}
        for mod in [m for name, m in list(sys.modules.items()) if name.startswith("gmtkit")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and names[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patched.append((mod, attr, obj))
        # dense boundary matrices: computed bytes of each one built while tracing
        grid = sys.modules["gmtkit.solver"].GridComplex
        original = grid.boundary_matrix
        tracer = self

        @functools.wraps(original)
        def boundary_matrix(cx, k):
            first = not any(c is cx and j == k for c, j in tracer._dense_built)
            if first:
                tracer._dense_built.append((cx, k))
                if tracer.op is not None:
                    tracer.boundary_bytes += cx.count(k - 1) * cx.count(k)
            return original(cx, k)

        grid.boundary_matrix = boundary_matrix
        self._patched.append((grid, "boundary_matrix", original))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, boundary_bytes, op_walls, artifact_bytes):
    """The per-layer metric values of one traced pass, keyed by metric name.

    ``trace.overhead_s`` needs the untraced pass too; the caller sets it.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(int)
    for rec, own in zip(spans, self_times(spans)):
        name = rec[0]
        busy[name] += own
        calls[name] += 1
        for key, val in (rec[5] or {}).items():
            if name == "varifold.pushforward" and rec[3] >= 0 and spans[rec[3]][0] == name:
                continue  # isotropic samples re-enter pushforward; count them once
            extra[f"{name}.{key}"] += val
    values = {}
    for metric, _unit in PER_LAYER:
        base, _, leaf = metric.rpartition(".")
        if leaf == "busy_s":
            values[metric] = busy[base]
        elif leaf == "calls":
            values[metric] = calls[base]
        else:
            values[metric] = extra[metric]
    sc_calls = calls["deform.select_center"]
    values["deform.select_center.averaged_share"] = (
        extra["deform.select_center.averaged"] / sc_calls if sc_calls else 0.0)
    values["deform.stages"] = extra["deform.deform_onto_skeleton.stages"]
    values["deform.cleanup_stages"] = extra["deform.deform_onto_skeleton.cleanup"]
    spans_calls = calls["solver.spans"]
    values["solver.spans.true_share"] = extra["solver.spans.true"] / spans_calls if spans_calls else 0.0
    values["solver.boundary_bytes"] = boundary_bytes
    for op in CLI_OPS:
        values[f"cli.{op}.wall_s"] = op_walls.get(op, 0.0)
    values["cli.deform_replay.select_center.calls"] = sum(
        1 for rec in spans if rec[0] == "deform.select_center" and rec[4] == "deform_replay")
    values["cli.artifact_bytes"] = artifact_bytes
    return values
