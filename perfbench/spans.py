"""Spans recorded from outside the program, and the per-layer metrics built on them.

``Tracer.install`` replaces the layer functions that vpme resolves through
module attributes (``fieldsolve.solve_uhat``, ``kernels.push_kdk``, ...)
with thin wrappers. Each call becomes one span: name, start, end, the index
of the enclosing span and a few counters read off its arguments or result.
Spans stay in memory while the scenario runs and are written out once at the
end, so the run itself does no tracing I/O.

The wrapped names, by layer (the span name is ``<layer>.<function>``):

  runner       run (the root span)
  particles    sample_initial
  mesh         deposit_density, current_from_arrays, evaluate_g, write_field
  kernels      deposit, deposit_vec, gather_vec, push_kdk
  pusher       step, stability_check
  fieldsolve   solve_field, solve_ubar, solve_uhat, dstn, gradient
  diagnostics  record, field_table_row, continuity_residual, write_table

``fieldsolve.dstn`` and ``fieldsolve.gradient`` are the names as fieldsolve
imports them, so only the field solve's transforms and gradients count. On
the numpy backend the push calls ``np_gather_vec`` by its module-global
name; wrapping that name too makes the two gathers inside each push count as
``kernels.gather_vec``. The numba push inlines its gathers, which then do not
count.
"""

import functools
import importlib
import json
import os
import time

_TARGETS = {
    "particles": ("sample_initial",),
    "mesh": ("deposit_density", "current_from_arrays", "evaluate_g", "write_field"),
    "kernels": ("deposit", "deposit_vec", "gather_vec", "push_kdk"),
    "pusher": ("step", "stability_check"),
    "fieldsolve": ("solve_field", "solve_ubar", "solve_uhat", "dstn", "gradient"),
    "diagnostics": ("field_table_row", "continuity_residual", "write_table"),
}


def _solve_counts(args, out):
    return {
        "newton_iters": out.newton_iterations,
        "cg_iters": out.cg_iterations,
        "residual_evals": len(out.newton_history),
    }


def _written_bytes(args, out):
    return {"bytes": os.path.getsize(args[0])}


_ATTRS = {"fieldsolve.solve_field": _solve_counts, "mesh.write_field": _written_bytes}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self._open = []

    def wrap(self, owner, attr, name):
        fn = getattr(owner, attr)
        attrs_of = _ATTRS.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, out)
            return out

        setattr(owner, attr, traced)

    def install(self):
        """Wrap every traced function of the imported vpme package."""
        for layer, names in _TARGETS.items():
            module = importlib.import_module(f"vpme.{layer}")
            for attr in names:
                self.wrap(module, attr, f"{layer}.{attr}")
        kernels = importlib.import_module("vpme.kernels")
        if kernels.BACKEND == "numpy":
            self.wrap(kernels, "np_gather_vec", "kernels.gather_vec")
        diagnostics = importlib.import_module("vpme.diagnostics")
        self.wrap(diagnostics.DiagnosticsAccumulator, "record", "diagnostics.record")
        self.wrap(importlib.import_module("vpme.runner"), "run", "runner.run")

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                    for n, s, e, p, a in self.spans
                ],
                fh,
            )


# ---------------------------------------------------------------------------
# per-layer metrics from a span list
# ---------------------------------------------------------------------------

LAYERS = ("fieldsolve", "kernels", "mesh", "pusher", "particles", "diagnostics", "runner")

# metric name -> (span name, what to take, unit)
_FROM_SPANS = {
    "fieldsolve.solve_field_s": ("fieldsolve.solve_field", "time", "s"),
    "fieldsolve.solve_ubar_s": ("fieldsolve.solve_ubar", "time", "s"),
    "fieldsolve.solve_uhat_s": ("fieldsolve.solve_uhat", "time", "s"),
    "fieldsolve.solves": ("fieldsolve.solve_field", "calls", "count"),
    "fieldsolve.newton_iters": ("fieldsolve.solve_field", "newton_iters", "count"),
    "fieldsolve.cg_iters": ("fieldsolve.solve_field", "cg_iters", "count"),
    "fieldsolve.residual_evals": ("fieldsolve.solve_field", "residual_evals", "count"),
    "fieldsolve.dst_calls": ("fieldsolve.dstn", "calls", "count"),
    "fieldsolve.dst_s": ("fieldsolve.dstn", "time", "s"),
    "fieldsolve.gradient_calls": ("fieldsolve.gradient", "calls", "count"),
    "fieldsolve.gradient_s": ("fieldsolve.gradient", "time", "s"),
    "kernels.deposit_s": ("kernels.deposit", "time", "s"),
    "kernels.deposit_vec_s": ("kernels.deposit_vec", "time", "s"),
    "kernels.gather_vec_s": ("kernels.gather_vec", "time", "s"),
    "kernels.gather_vec_calls": ("kernels.gather_vec", "calls", "count"),
    "kernels.push_kdk_s": ("kernels.push_kdk", "time", "s"),
    "mesh.deposit_density_s": ("mesh.deposit_density", "time", "s"),
    "mesh.current_from_arrays_s": ("mesh.current_from_arrays", "time", "s"),
    "mesh.current_from_arrays_calls": ("mesh.current_from_arrays", "calls", "count"),
    "mesh.evaluate_g_s": ("mesh.evaluate_g", "time", "s"),
    "mesh.write_field_s": ("mesh.write_field", "time", "s"),
    "mesh.write_field_bytes": ("mesh.write_field", "bytes", "B"),
    "pusher.step_s": ("pusher.step", "time", "s"),
    "pusher.stability_check_s": ("pusher.stability_check", "time", "s"),
    "particles.sample_initial_s": ("particles.sample_initial", "time", "s"),
    "diagnostics.record_s": ("diagnostics.record", "time", "s"),
    "diagnostics.field_table_row_s": ("diagnostics.field_table_row", "time", "s"),
    "diagnostics.continuity_residual_s": ("diagnostics.continuity_residual", "time", "s"),
    "diagnostics.write_table_s": ("diagnostics.write_table", "time", "s"),
    "diagnostics.checkpoints": ("diagnostics.record", "calls", "count"),
}

UNITS = dict(
    {name: unit for name, (_, _, unit) in _FROM_SPANS.items()},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{"fieldsolve.cg_per_newton": "ratio", "trace.overhead_s": "s"},
)


def layer_metrics(spans):
    """Totals per metric name (see UNITS) from one run's span dicts."""
    time_of, calls, sums = {}, {}, {}
    child_time = [0.0] * len(spans)
    for sp in spans:
        dur = sp["end"] - sp["start"]
        name = sp["name"]
        time_of[name] = time_of.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        for key, val in (sp["attrs"] or {}).items():
            sums[(name, key)] = sums.get((name, key), 0) + val
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += dur
    self_s = {layer: 0.0 for layer in LAYERS}
    for sp, covered in zip(spans, child_time):
        self_s[sp["name"].split(".")[0]] += sp["end"] - sp["start"] - covered

    out = {}
    for metric, (name, what, _) in _FROM_SPANS.items():
        if what == "time":
            out[metric] = time_of.get(name, 0.0)
        elif what == "calls":
            out[metric] = calls.get(name, 0)
        else:
            out[metric] = sums.get((name, what), 0)
    out["fieldsolve.cg_per_newton"] = out["fieldsolve.cg_iters"] / max(out["fieldsolve.newton_iters"], 1)
    for layer, val in self_s.items():
        out[f"{layer}.self_s"] = val
    return out
