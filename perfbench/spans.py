"""In-memory span tracer around the public functions of the sweatauth modules.

Each public function is wrapped once, and the wrapper replaces the function
under every name that refers to it in any loaded sweatauth module. A call
made through a ``from .auth import score_step`` binding is therefore
recorded as well as one made through ``auth.score_step``.

A span is ``(name, start, end, parent, work)``: ``name`` is
``module.function``, ``start`` and ``end`` are ``time.monotonic()`` readings,
``parent`` is the index of the enclosing span or -1, and ``work`` is a dict
of counters for the few functions that have them, else None. Calls are
assumed to come from one thread, which holds for ``--jobs 1``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# module -> layer; _kernels is the inner half of the kinetics layer
MODULE_LAYERS = {
    "sweatauth.config": "config",
    "sweatauth.cohort": "cohort",
    "sweatauth.kinetics": "kinetics",
    "sweatauth._kernels": "kinetics",
    "sweatauth.transduce": "transduce",
    "sweatauth.digitize": "digitize",
    "sweatauth.auth": "auth",
    "sweatauth.metrics": "metrics",
    "sweatauth.pipeline": "pipeline",
}


def layer_of(name: str) -> str:
    """Layer of a traced function, from its ``module.function`` name.

    Artifact writers (``write_*``) make up the cli layer, and the readout
    step ``pipeline.channel_features`` is the transduce layer; the cli
    module itself is the entry point and is not wrapped.
    """
    module, _, func = name.rpartition(".")
    if func.startswith("write_"):
        return "cli"
    if name == "sweatauth.pipeline.channel_features":
        return "transduce"
    return MODULE_LAYERS[module]


def _n_steps(horizon, dt):
    return int(round(float(horizon) / float(dt)))


def _batch_work(bound, result):
    rows = int(bound["init_matrix"].shape[0])
    return {"rows": rows, "steps": _n_steps(bound["horizon"], bound["dt"]),
            "cascade": bound["network"].kind.value}


def _trace_work(bound, result):
    return {"rows": 1, "steps": _n_steps(bound["horizon"], bound["dt"]),
            "cascade": bound["network"].kind.value}


def _file_bytes(bound, result):
    path = bound.get("path")
    return {"bytes": os.path.getsize(path)} if path else None


# work counters taken from the arguments and result of a call
WORK = {
    "sweatauth.kinetics.simulate_batch": _batch_work,
    "sweatauth.kinetics.simulate": _trace_work,
    "sweatauth.cohort.mimic_cohort": lambda b, r: {"individuals": len(r)},
    "sweatauth.metrics.delong_variance":
        lambda b, r: {"pairs": int(b["pop"].genuine.size * b["pop"].impostor.size)},
    "sweatauth.metrics.roc_curve": lambda b, r: {"points": int(len(r.points))},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.bindings = {}   # traced name -> module attributes replaced
        self._stack = []

    def record(self, name, start, end, work=None):
        """Add a span measured by the caller, as a top-level span."""
        self.spans.append((name, start, end, -1, work))

    def install(self, package: str = "sweatauth") -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
        for modname in MODULE_LAYERS:
            module = sys.modules[modname]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                name = f"{modname}.{attr}"
                wrapped = self._wrap(name, fn)
                self.bindings[name] = 0
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            self.bindings[name] += 1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.monotonic
        work_of = WORK.get(name)
        if name.rpartition(".")[2].startswith("write_"):
            work_of = _file_bytes
        signature = inspect.signature(fn) if work_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if work_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx] = (name, start, end, parent, work_of(bound.arguments, result))
            return result

        return traced
