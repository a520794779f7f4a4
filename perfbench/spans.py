"""Spans around every call into hvsim's public functions, installed from outside.

`Tracer.install` wraps each public function of the six layer modules and
rebinds the wrapper under every hvsim module attribute that held the
original, so a call from one layer into another (`hvsim.bell` calling its
imported `eigh`) is caught as well as a call from the benchmark. It also
wraps `BorelSet.contains`. Spans (name, start, end, parent, operation) are
kept in memory, written out once at the end, and reduced to per-layer
metrics. Only calls made inside a benchmark operation are recorded.

A wrapper's own work (probing the input, keeping the span) happens between
its entry and the span's start, or between the span's end and its exit.
That time goes to a `trace` bucket, not to the caller's layer.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

import hvsim

LAYERS = ("linalg", "borel", "quantum", "hidden", "bell", "cli")
OP_SPAN = "bench.op"
CALL_COUNTED = ("linalg.eigh", "linalg.ensure_projector", "linalg.projector_meet",
                "linalg.commutes", "borel.contains", "borel.preimage",
                "quantum.spectral_projector", "hidden.quantile_function",
                "bell.correlation_operator")
CALL_TIMED = ("linalg.eigh", "hidden.sample", "bell.check_boolean_homomorphism",
              "cli.load_problem")
REPEAT_COUNTED = ("linalg.eigh", "linalg.ensure_projector")

# every metric `Tracer.metrics` returns, with its unit
UNITS = {
    **{f"{layer}.self_ms_per_op": "ms/op" for layer in LAYERS},
    "bench.self_ms_per_op": "ms/op",
    "trace.self_ms_per_op": "ms/op",
    **{f"{name}.calls_per_op": "1/op" for name in CALL_COUNTED},
    **{f"{name}.ms_per_call": "ms" for name in CALL_TIMED},
    "linalg.eigh.mean_n": "dim",
    **{f"{name}.repeat_ratio": "ratio" for name in REPEAT_COUNTED},
    "hidden.sample.draws_per_s": "1/s",
    "cli.load_problem.bytes_per_call": "B",
    "trace.accounted_pct": "%",
}


def _digest(matrix, *extra) -> bytes:
    a = np.ascontiguousarray(matrix, dtype=np.complex128)
    h = hashlib.blake2b(a.tobytes(), digest_size=16)
    h.update(repr((a.shape,) + extra).encode())
    return h.digest()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# per-function probes: what a span records about its input
PROBES = {
    "linalg.eigh": lambda a, k: (_digest(_arg(a, k, 0, "matrix"), a[1:], sorted(k.items())),
                                 len(_arg(a, k, 0, "matrix"))),
    "linalg.ensure_projector": lambda a, k: (_digest(_arg(a, k, 0, "matrix"),
                                                     a[1:], sorted(k.items())), None),
    "hidden.sample": lambda a, k: (None, int(_arg(a, k, 2, "n"))),
    "cli.load_problem": lambda a, k: (None, _file_size(_arg(a, k, 0, "source"))),
}


def _file_size(source) -> int:
    try:
        return os.path.getsize(source)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        # span: (name, entered, start, end, left, parent index, op index, digest, size)
        # `entered`/`left` bracket the whole wrapper, `start`/`end` the wrapped call
        self.spans: list[tuple] = []
        # the current operation's spans, as lists while they are open; parent
        # indices point into this list until end_op packs it into `spans`
        self._open: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self._open, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            entered = clock()
            digest, size = probe(args, kwargs) if probe else (None, None)
            rec = [name, entered, 0.0, 0.0, 0.0, stack[-1], self._op, digest, size]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                rec[4] = clock()

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"hvsim.{layer}")
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "hvsim" or key.startswith("hvsim.")) and m is not None]
        for layer in LAYERS:
            mod = importlib.import_module(f"hvsim.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, key, fn))
                            setattr(m, key, wrapper)
        original = hvsim.BorelSet.contains
        self._restore.append((hvsim.BorelSet, "contains", original))
        hvsim.BorelSet.contains = self._wrap("borel.contains", original)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        self._stack.append(0)
        now = time.perf_counter()
        self._open.append([OP_SPAN, now, now, 0.0, 0.0, -1, index, None, None])

    def end_op(self) -> None:
        """Close the operation's span and pack its spans into tuples, which the
        garbage collector stops tracking, so a long traced run does not make
        every collection slower."""
        self._stack.pop()
        rec = self._open[0]
        rec[3] = rec[4] = time.perf_counter()
        base = len(self.spans)
        for rec in self._open:
            rec[5] = rec[5] + base if rec[5] >= 0 else -1
            self.spans.append(tuple(rec))
        self._open.clear()

    def write(self, path: str, meta: dict) -> None:
        """Write the spans as gzipped JSON lines: one header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            fields = ["name", "entered", "start", "end", "left", "parent", "op"]
            out.write(json.dumps({**meta, "fields": fields}) + "\n")
            for span in self.spans:
                out.write(json.dumps(list(span[:7])) + "\n")

    # -- metrics ----------------------------------------------------------

    def metrics(self, scales: list, op_wall_s: float) -> dict:
        """Per-layer metrics from the recorded spans.

        A span's self time is its call's duration minus the whole wrappers of
        its children; the rest of each wrapper is tracer time. `scales` holds,
        per traced operation, the factor that turns its times into reference
        time (see speed.py); `op_wall_s` is the operations' scaled time as the
        benchmark loop measured it, outside the spans.
        """
        ops = len(scales)
        child = [0.0] * len(self.spans)
        for _, entered, _, _, left, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += left - entered
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        sizes: dict[str, float] = defaultdict(float)
        repeats: dict[str, int] = defaultdict(int)
        seen: dict[str, set] = defaultdict(set)
        for i, (name, entered, start, end, left, parent, op, digest, size) in enumerate(self.spans):
            scale = scales[op]
            self_s[name.split(".")[0]] += ((end - start) - child[i]) * scale
            self_s["trace"] += ((start - entered) + (left - end)) * scale
            total_s[name] += (end - start) * scale
            calls[name] += 1
            if size is not None:
                sizes[name] += size
            if digest is not None:
                if digest in seen[name]:
                    repeats[name] += 1
                seen[name].add(digest)

        def per_op(x: float) -> float:
            return x / ops if ops else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {f"{layer}.self_ms_per_op": per_op(1e3 * self_s[layer]) for layer in LAYERS}
        m["bench.self_ms_per_op"] = per_op(1e3 * self_s["bench"])
        m["trace.self_ms_per_op"] = per_op(1e3 * self_s["trace"])
        for name in CALL_COUNTED:
            m[f"{name}.calls_per_op"] = per_op(calls[name])
        for name in CALL_TIMED:
            m[f"{name}.ms_per_call"] = ratio(1e3 * total_s[name], calls[name])
        m["linalg.eigh.mean_n"] = ratio(sizes["linalg.eigh"], calls["linalg.eigh"])
        for name in REPEAT_COUNTED:
            m[f"{name}.repeat_ratio"] = ratio(repeats[name], calls[name])
        m["hidden.sample.draws_per_s"] = ratio(sizes["hidden.sample"], total_s["hidden.sample"])
        m["cli.load_problem.bytes_per_call"] = ratio(sizes["cli.load_problem"], calls["cli.load_problem"])
        # share of the operations' time, less the tracer's, spent inside a layer
        layer_s = sum(self_s[layer] for layer in LAYERS)
        m["trace.accounted_pct"] = ratio(100.0 * layer_s, op_wall_s - self_s["trace"])
        return m
