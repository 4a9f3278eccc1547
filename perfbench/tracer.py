"""Span tracing of sdepthlab's layers from outside the package.

The tracer replaces module attributes the package's own callers use (for
example `sdepthlab.depth.rank_gf2_packed` or `EngineCache.depth`) with
wrappers that record one span per call.  A function imported into several
modules is replaced wherever the same object is bound, so every caller is
seen.  Spans are kept in memory as tuples

    (name, start, end, parent, item, tag)

where `parent` is the index of the enclosing span (-1 at top level), `item`
is the benchmark item being run, and `tag` is a small per-call value (the
characteristic of a depth call, the matrix shape of a rank call, ...).
`per_layer` turns the spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

CHARS = (0, 2, 3, 32003)


class ItemCapped(BaseException):
    """Raised by the benchmark's per-item wall-clock cap.

    A BaseException, so that no `except Exception` in the package can
    swallow it."""


def _outcome(result) -> str:
    if isinstance(result, ItemCapped):
        return "capped"
    if isinstance(result, BaseException):
        return "raised"
    return "ok"


def _depth_char(args, kwargs, result):
    field = kwargs.get("field", args[1] if len(args) > 1 else None)
    return args[0].field if field is None else field


def _decide_tag(args, kwargs, result):
    if isinstance(result, BaseException):
        return _outcome(result)
    return "unsat" if result is None else "sat"


def _packed_shape(args, kwargs, result):
    rows = args[0]
    return len(rows), max((r.bit_length() for r in rows), default=0)


def _dense_shape(args, kwargs, result):
    rows = args[0]
    return len(rows), len(rows[0]) if rows else 0


def _driver_tag(args, kwargs, result):
    if isinstance(result, BaseException):
        return _outcome(result)
    return "fallback" if result.fallback else "direct"


# (module, attribute, span name, tag function); "Class.method" patches a class
TARGETS = (
    ("sdepthlab.engines", "EngineCache.poset_bits", "engines.poset", None),
    ("sdepthlab.engines", "EngineCache.strata", "engines.strata", None),
    ("sdepthlab.engines", "EngineCache.sdepth", "engines.sdepth", None),
    ("sdepthlab.engines", "EngineCache.depth", "engines.depth", None),
    ("sdepthlab.engines", "EngineCache.hdepth", "engines.hdepth", None),
    ("sdepthlab.poset", "poset_bitset", "poset.poset_bitset", None),
    ("sdepthlab.poset", "strata", "poset.strata", None),
    ("sdepthlab.sdepth", "sdepth", "sdepth.sdepth", None),
    ("sdepthlab.sdepth", "sdepth_decide", "sdepth.decide", _decide_tag),
    ("sdepthlab.sdepth", "verify_partition", "sdepth.verify", None),
    ("sdepthlab.hilbert", "hilbert_series", "hilbert.series", None),
    ("sdepthlab.hilbert", "hdepth1", "hilbert.hdepth1", None),
    ("sdepthlab.depth", "depth", "depth.depth", _depth_char),
    ("sdepthlab.linalg", "rank_gf2_packed", "linalg.rank.gf2", _packed_shape),
    ("sdepthlab.linalg", "rank_char0", "linalg.rank.char0", _dense_shape),
    ("sdepthlab.linalg", "rank_modp", "linalg.rank.modp", _dense_shape),
    ("sdepthlab.reisner", "reisner_depth_oracle", "reisner.oracle", None),
    ("sdepthlab.verdicts", "bounds_report", "verdicts.bounds_report", None),
    ("sdepthlab.verdicts", "consistency_audit", "verdicts.consistency_audit", None),
    ("sdepthlab.monomials", "colon_pair", "monomials.colon_pair", None),
    ("sdepthlab.surgery", "ml1_driver", "surgery.ml1_driver", _driver_tag),
    ("sdepthlab.surgery", "verify_outcome", "surgery.verify_outcome", None),
    ("sdepthlab.fuzz", "sample_ml1_instance", "fuzz.sample_ml1_instance", None),
    ("sdepthlab.fuzz", "random_pair", "fuzz.random_pair", None),
    ("sdepthlab.fuzz", "run_instance", "fuzz.run_instance", None),
)

ENGINES = ("poset", "strata", "sdepth", "depth", "hdepth")
RANKS = ("gf2", "char0", "modp")

# name -> unit and direction, in the order BENCHMARK.json lists them
PER_LAYER: dict[str, tuple[str, str]] = {}
for _e in ENGINES:
    PER_LAYER[f"engines.{_e}.calls"] = ("count", "lower")
    PER_LAYER[f"engines.{_e}.computed"] = ("count", "lower")
PER_LAYER["engines.depth.hit_ratio"] = ("ratio", "higher")
PER_LAYER["poset.poset_bitset.calls"] = ("count", "lower")
PER_LAYER["poset.poset_bitset.busy_s"] = ("s", "lower")
PER_LAYER["poset.strata.busy_s"] = ("s", "lower")
PER_LAYER["sdepth.sdepth.busy_s"] = ("s", "lower")
PER_LAYER["sdepth.decide.calls"] = ("count", "lower")
PER_LAYER["sdepth.decide.sat_s"] = ("s", "lower")
PER_LAYER["sdepth.decide.unsat_s"] = ("s", "lower")
PER_LAYER["sdepth.decide.capped_s"] = ("s", "lower")
PER_LAYER["sdepth.verify.busy_s"] = ("s", "lower")
PER_LAYER["hilbert.series.busy_s"] = ("s", "lower")
PER_LAYER["hilbert.hdepth1.busy_s"] = ("s", "lower")
for _c in CHARS:
    PER_LAYER[f"depth.calls.char{_c}"] = ("count", "lower")
for _c in CHARS:
    PER_LAYER[f"depth.busy_s.char{_c}"] = ("s", "lower")
for _r in RANKS:
    PER_LAYER[f"linalg.rank.{_r}.calls"] = ("count", "lower")
    PER_LAYER[f"linalg.rank.{_r}.busy_s"] = ("s", "lower")
    PER_LAYER[f"linalg.rank.{_r}.cells"] = ("count", "lower")
PER_LAYER["linalg.rank.max_rows"] = ("count", "lower")
PER_LAYER["reisner.oracle.calls"] = ("count", "lower")
PER_LAYER["reisner.oracle.busy_s"] = ("s", "lower")
PER_LAYER["verdicts.bounds_report.self_s"] = ("s", "lower")
PER_LAYER["verdicts.consistency_audit.self_s"] = ("s", "lower")
PER_LAYER["monomials.colon_pair.calls"] = ("count", "lower")
PER_LAYER["monomials.colon_pair.busy_s"] = ("s", "lower")
PER_LAYER["surgery.ml1_driver.busy_s"] = ("s", "lower")
PER_LAYER["surgery.verify_outcome.busy_s"] = ("s", "lower")
PER_LAYER["surgery.fallback_ratio"] = ("ratio", "lower")
PER_LAYER["fuzz.sample_ml1_instance.busy_s"] = ("s", "lower")
PER_LAYER["fuzz.random_pair.busy_s"] = ("s", "lower")
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []
        self._patches = self._plan()

    def begin_item(self, item) -> None:
        self.item = item
        self._stack.clear()

    def _wrap(self, name: str, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = tag or (lambda args, kwargs, result: _outcome(result))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                t1 = clock()
                # also drops spans a raised exception left open above this one
                while stack and stack[-1] >= idx:
                    stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item,
                              tag(args, kwargs, result))
            return result

        return traced

    def _plan(self) -> list[tuple]:
        """(holder, attribute, original, wrapper) for every binding of a target."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "sdepthlab" or k.startswith("sdepthlab."))]
        patches = []
        for mod_name, attr, span_name, tag in TARGETS:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                patches.append((cls, meth, fn, self._wrap(span_name, fn, tag)))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(span_name, fn, tag)
            patches += [(mod, key, fn, wrapped) for mod in modules
                        for key, value in vars(mod).items() if value is fn]
        return patches

    @contextmanager
    def installed(self):
        """Trace the calls made inside the block."""
        for holder, key, _, wrapped in self._patches:
            setattr(holder, key, wrapped)
        try:
            yield self
        finally:
            for holder, key, original, _ in self._patches:
                setattr(holder, key, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((s[1] for s in self.spans if s), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                if s is None:
                    continue
                name, t0, t1, parent, item, tag = s
                fh.write(json.dumps([name, round(t0 - base, 7), round(t1 - base, 7),
                                     parent, item, tag]) + "\n")


def per_layer(spans: list) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (overhead ratio excluded)."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    computed: dict[str, int] = defaultdict(int)
    by_tag: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0])
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for s in spans:
        if s is not None and s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
            has_child[s[3]] = True
    max_rows = 0
    for i, s in enumerate(spans):
        if s is None:
            continue
        name, t0, t1, _parent, _item, tag = s
        dur = t1 - t0
        calls[name] += 1
        busy[name] += dur
        self_s[name] += dur - child_time[i]
        if has_child[i]:
            computed[name] += 1
        if name.startswith("linalg.rank."):
            rows, cols = tag
            acc = by_tag[(name, None)]
            acc[0] += 1
            acc[1] += dur
            acc[2] += rows * cols
            max_rows = max(max_rows, rows)
        elif name in ("depth.depth", "sdepth.decide", "surgery.ml1_driver"):
            acc = by_tag[(name, tag)]
            acc[0] += 1
            acc[1] += dur

    out: dict[str, float] = {}
    for e in ENGINES:
        out[f"engines.{e}.calls"] = calls[f"engines.{e}"]
        out[f"engines.{e}.computed"] = computed[f"engines.{e}"]
    dcalls = calls["engines.depth"]
    out["engines.depth.hit_ratio"] = (
        1.0 - computed["engines.depth"] / dcalls if dcalls else 0.0)
    out["poset.poset_bitset.calls"] = calls["poset.poset_bitset"]
    out["poset.poset_bitset.busy_s"] = busy["poset.poset_bitset"]
    out["poset.strata.busy_s"] = busy["poset.strata"]
    out["sdepth.sdepth.busy_s"] = busy["sdepth.sdepth"]
    out["sdepth.decide.calls"] = calls["sdepth.decide"]
    out["sdepth.decide.sat_s"] = by_tag[("sdepth.decide", "sat")][1]
    out["sdepth.decide.unsat_s"] = by_tag[("sdepth.decide", "unsat")][1]
    out["sdepth.decide.capped_s"] = by_tag[("sdepth.decide", "capped")][1]
    out["sdepth.verify.busy_s"] = busy["sdepth.verify"]
    out["hilbert.series.busy_s"] = busy["hilbert.series"]
    out["hilbert.hdepth1.busy_s"] = busy["hilbert.hdepth1"]
    for c in CHARS:
        out[f"depth.calls.char{c}"] = by_tag[("depth.depth", c)][0]
    for c in CHARS:
        out[f"depth.busy_s.char{c}"] = by_tag[("depth.depth", c)][1]
    for r in RANKS:
        n_calls, secs, cells = by_tag[(f"linalg.rank.{r}", None)]
        out[f"linalg.rank.{r}.calls"] = n_calls
        out[f"linalg.rank.{r}.busy_s"] = secs
        out[f"linalg.rank.{r}.cells"] = cells
    out["linalg.rank.max_rows"] = max_rows
    out["reisner.oracle.calls"] = calls["reisner.oracle"]
    out["reisner.oracle.busy_s"] = busy["reisner.oracle"]
    out["verdicts.bounds_report.self_s"] = self_s["verdicts.bounds_report"]
    out["verdicts.consistency_audit.self_s"] = self_s["verdicts.consistency_audit"]
    out["monomials.colon_pair.calls"] = calls["monomials.colon_pair"]
    out["monomials.colon_pair.busy_s"] = busy["monomials.colon_pair"]
    out["surgery.ml1_driver.busy_s"] = busy["surgery.ml1_driver"]
    out["surgery.verify_outcome.busy_s"] = busy["surgery.verify_outcome"]
    fallbacks = by_tag[("surgery.ml1_driver", "fallback")][0]
    runs = fallbacks + by_tag[("surgery.ml1_driver", "direct")][0]
    out["surgery.fallback_ratio"] = fallbacks / runs if runs else 0.0
    out["fuzz.sample_ml1_instance.busy_s"] = busy["fuzz.sample_ml1_instance"]
    out["fuzz.random_pair.busy_s"] = busy["fuzz.random_pair"]
    return out
