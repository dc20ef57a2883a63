"""Span tracing of tdesigncap's public module functions, from outside the package.

The tracer replaces a public function by a timing wrapper in every loaded
``tdesigncap`` module namespace that refers to it, so calls are caught
whichever attribute the caller resolves: ``cli`` calls ``bounds.bound_Ct``
through the module, ``informational_power`` calls its module-global
``blahut_arimoto``, and ``from .x import y`` imports bind names elsewhere.
Spans (name, start, end, parent, case id, attributes) stay in memory and are
written out when the run ends; self times and counts are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "tdesigncap"


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs):
    ba = _signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _ba_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"rows": int(a["channel"].shape[0]), "tol": float(a["tol"]),
            "max_iter": int(a["max_iter"]), "iterations": int(result.iterations),
            "bracket": float(result.bracket_width)}


def _ip_attrs(fn, args, kwargs, result):
    return {"grid_rows": int(_bound(fn, args, kwargs)["grid"].states.shape[0])}


def _certify_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"dense_dim": int(a["eset"].dim) ** int(a["t"])}


def _bound_ct_attrs(fn, args, kwargs, result):
    return {"t": int(_bound(fn, args, kwargs)["t"])}


# (module, function, attribute recorder); a recorder of "count" records no span.
WRAPPED = [
    ("catalog", "build", None),
    ("catalog", "depolarize", None),
    ("catalog", "moments_of_depolarized", "count"),
    ("verify", "certify", _certify_attrs),
    ("verify", "gamma_empirical", None),
    ("verify", "gamma_predicted", None),
    ("verify", "moments", None),
    ("bounds", "bound_Ct", _bound_ct_attrs),
    ("bounds", "hermite_interpolate", None),
    ("bounds", "verify_below", None),
    ("closedform", "capacity", None),
    ("closedform", "uniform_capacity", None),
    ("closedform", "hyp2f1_11", "count"),
    ("oracle", "blahut_arimoto", _ba_attrs),
    ("oracle", "povm_channel", None),
    ("oracle", "informational_power", _ip_attrs),
    ("oracle", "kl_maximize", None),
    ("oracle", "kl_objective", "count"),
    ("oracle", "default_grid", None),
    ("oracle", "discretized_uniform_povm", None),
    ("cli", "main", None),
]


class Tracer:
    """Records spans and call counts while installed; restores the package on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case id, attrs]
        self.counts: Counter = Counter()  # (name, case id) -> calls
        self.case = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, recorder in WRAPPED:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if orig is None:  # a layer the program no longer has reads 0
                continue
            name = f"{mod_name}.{fn_name}"
            wrapper = (self._counter(name, orig) if recorder == "count"
                       else self._spanner(name, orig, recorder))
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    self._patches.append((mod, fn_name, orig))

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._patches):
            setattr(mod, fn_name, orig)
        self._patches.clear()

    def _counter(self, name, orig):
        def wrapper(*args, **kwargs):
            self.counts[(name, self.case)] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _spanner(self, name, orig, recorder):
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if recorder is not None:
                try:
                    rec[5] = recorder(orig, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    rec[5] = {}  # a changed signature loses attributes, never the call
            return result
        return wrapper

    def write_spans(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "case": case, "attrs": attrs}) + "\n")


def _metric_name(span) -> str:
    name, attrs = span[0], span[5]
    if name == "bounds.bound_Ct":
        return f"{name}.t{attrs.get('t', '?')}"
    return name


def layer_metrics(spans: list[list], counts: Counter, rounds: int) -> dict[str, float]:
    """Per-layer metrics of one pass: set-up spans once plus the mean traced round.

    Sums (calls, seconds, iterations) count set-up spans once and a round's
    spans 1/rounds times; ratios and extremes are taken over every span.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    sums = {"setup": defaultdict(float), "rounds": defaultdict(float)}
    refine_done = refine_calls = 0
    bracket_max = dense_max = first_call = 0.0
    for i, span in enumerate(spans):
        name, start, end, parent, case, attrs = span
        attrs = attrs or {}
        acc = sums["setup" if case == "setup" else "rounds"]
        dur = end - start
        if name == "oracle.blahut_arimoto":
            p = spans[parent] if parent >= 0 else None
            coarse = (p is not None and p[0] == "oracle.informational_power"
                      and attrs.get("rows", -1) == (p[5] or {}).get("grid_rows"))
            key = "oracle.blahut_arimoto." + ("coarse" if coarse else "refine")
            acc[key + ".iters"] += attrs.get("iterations", 0)
            if not coarse:
                refine_calls += 1
                refine_done += attrs.get("bracket", math.inf) < attrs.get("tol", 0.0)
                acc[key + ".capped"] += (attrs.get("iterations", 0)
                                         >= attrs.get("max_iter", math.inf))
                bracket_max = max(bracket_max, attrs.get("bracket", 0.0))
        else:
            key = _metric_name(span)
        if name == "verify.certify":
            dense_max = max(dense_max, attrs.get("dense_dim", 0))
            if case == "setup":
                first_call += dur
        acc[key + ".calls"] += 1
        acc[key + ".s"] += dur
        acc[key + ".self_s"] += dur - child_time[i]
    for (name, case), n in counts.items():
        sums["setup" if case == "setup" else "rounds"][name + ".calls"] += n
    out = defaultdict(float, sums["setup"])
    for key, value in sums["rounds"].items():
        out[key] += value / rounds
    out["oracle.blahut_arimoto.refine.converged_ratio"] = (
        refine_done / refine_calls if refine_calls else 1.0)
    out["oracle.blahut_arimoto.refine.bracket_max"] = bracket_max
    out["verify.certify.dense_dim_max"] = dense_max
    out["verify.certify.first_call_s"] = first_call
    return dict(out)
