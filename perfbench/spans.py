"""Span recording for the traced benchmark run.

The package is traced from outside: ``install`` rebinds the names that
``fakewake`` modules import (for example ``fakewake.evolve.english_dist`` and
``fakewake.cli.train_gbdt``) and patches a few class methods with shims that
record one span per call. Spans stay in memory until ``write_spans`` saves
them; ``layer_metrics`` turns them into the per-layer figures.

A span holds its name, the module whose binding was called (the call site),
start and end times, the span that was open when it began (its parent), the
stage invocation it belongs to and, for some layers, a small record of the
call's size. Self time is a span's duration minus the durations of its
children; the pipeline runs in one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

# (span name, defining module, attribute). A plain attribute is a function,
# rebound in every fakewake module that holds it; "Class.method" is patched
# on the class.
TARGETS = [
    ("oracle.query", "fakewake.oracle", "SimulatedDetector.query"),
    ("oracle.query", "fakewake.oracle", "ExternalOracle.query"),
    ("oracle.spawn", "fakewake.oracle", "ExternalOracle.__init__"),
    ("evolve.run", "fakewake.evolve", "run"),
    ("evolve.front", "fakewake.evolve", "non_dominated_front"),
    ("evolve.save", "fakewake.evolve", "FuzzyArchive.save"),
    ("distance.dist", "fakewake.distance", "english_dist"),
    ("distance.dist", "fakewake.distance", "chinese_dist"),
    ("genome.variation", "fakewake.genome", "mutate"),
    ("genome.variation", "fakewake.genome", "crossover"),
    ("genome.decode", "fakewake.genome", "decode_text"),
    ("phonemes.g2p", "fakewake.phonemes", "g2p"),
    ("pinyin.parse", "fakewake.pinyin", "parse_pinyin"),
    ("embedding.encode", "fakewake.embedding", "encode_features"),
    ("gbdt.train", "fakewake.gbdt", "train_gbdt"),
    ("gbdt.predict", "fakewake.gbdt", "TreeEnsemble.predict_proba"),
    ("treeshap.shap", "fakewake.treeshap", "shap_values"),
    ("explain.build_dataset", "fakewake.explain", "build_dataset"),
    ("explain.cross_validate", "fakewake.explain", "cross_validate"),
    ("explain.explain_archive", "fakewake.explain", "explain_archive"),
    ("explain.rank", "fakewake.explain", "rank_decisive_units"),
    ("explain.group_factors", "fakewake.explain", "group_factors"),
    ("mitigate.assemble_triple", "fakewake.mitigate", "assemble_triple"),
    ("mitigate.train_original", "fakewake.mitigate", "train_original"),
    ("mitigate.strengthen", "fakewake.mitigate", "strengthen"),
    ("mitigate.fuzzy_rate", "fakewake.mitigate", "fuzzy_rate"),
    ("mitigate.evaluate", "fakewake.mitigate", "evaluate"),
    ("mitigate.screening", "fakewake.mitigate", "screening_coverage"),
]


def _train_size(args, kwargs, result):
    rows, features = args[0].shape
    return [rows, features, len(result.trees)]


# What a span keeps of its call, for the layers whose metrics need a size.
INFO = {
    "gbdt.train": _train_size,
    "genome.decode": lambda args, kwargs, result: result,
    "evolve.run": lambda args, kwargs, result: len(result.candidates),
    "mitigate.assemble_triple":
        lambda args, kwargs, result: len(result.collective),
}

# cmd_mitigate's direct calls that rebuild the proxy explain already built
PROXY_REBUILD = {"explain.build_dataset", "gbdt.train",
                 "explain.explain_archive", "explain.rank"}


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "run", "info",
                 "error")

    def __init__(self, name, site, parent, run):
        self.name = name
        self.site = site
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.info = None
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store. ``runs`` labels each stage invocation; every
    span records the index of the invocation it ran in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.runs: list[dict] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, site, fn, args=(), kwargs=None, info=None):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        kwargs = kwargs or {}
        stack = self._stack()
        span = Span(name, site, stack[-1] if stack else None,
                    len(self.runs) - 1)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.end = time.perf_counter()
            stack.pop()
            span.error = True
            raise
        span.end = time.perf_counter()
        stack.pop()
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def stage(self, stage: str, label: str, fn, *args):
        """Record one CLI invocation as a new run with a ``cli.stage`` root
        span."""
        self.runs.append({"stage": stage, "label": label})
        return self.call("cli.stage", "fakewake.cli", fn, args,
                         info=lambda a, k, r: stage)

    def _shim(self, name, site, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return self.call(name, site, fn, args, kwargs, info)
        return shim

    def install(self):
        """Patch every target; ``uninstall`` puts the originals back."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "fakewake" or n.startswith("fakewake.")}
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._shim(name, module_name, original))
                continue
            original = getattr(module, attr)
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, self._shim(name, mod_name, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write_spans(self, path):
        """JSON lines: the run labels first, then one line per span."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"runs": self.runs}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "site": s.site,
                    "start": s.start, "end": s.end,
                    "parent": index[id(s.parent)] if s.parent else None,
                    "run": s.run, "info": s.info, "error": s.error,
                }, ensure_ascii=False) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span the tracer holds."""
    spans = tracer.spans
    child_s: dict[int, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + s.duration

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in of(name))

    def self_total(name):
        return sum(s.duration - child_s.get(id(s), 0.0) for s in of(name))

    queries = of("oracle.query")
    latency_us = sorted(s.duration * 1e6 for s in queries)
    if len(latency_us) >= 2:
        cuts = statistics.quantiles(latency_us, n=100)
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = latency_us[0] if latency_us else 0.0

    decodes = [s for s in of("genome.decode") if s.site == "fakewake.evolve"]
    distinct = len({(s.run, s.info) for s in decodes})
    fuzzy = sum(s.info for s in of("evolve.run") if s.info is not None)
    trains = [s.info for s in of("gbdt.train") if s.info is not None]
    rebuild = sum(
        s.duration for s in spans
        if s.name in PROXY_REBUILD and s.site == "fakewake.cli"
        and s.parent is not None and s.parent.name == "cli.stage"
        and s.parent.info == "mitigate")

    return {
        "oracle.queries": len(queries),
        "oracle.query_s": total("oracle.query"),
        "oracle.query_p50_us": p50,
        "oracle.query_p99_us": p99,
        "oracle.spawn_s": total("oracle.spawn"),
        "oracle.failures": sum(1 for s in queries if s.error),
        "evolve.self_s": self_total("evolve.run"),
        "evolve.evaluations": len(decodes),
        "evolve.distinct_words": distinct,
        "evolve.cache_hit_ratio": 1.0 - _ratio(distinct, len(decodes))
        if decodes else 0.0,
        "evolve.fuzzy_yield": _ratio(fuzzy, distinct),
        "evolve.front_calls": len(of("evolve.front")),
        "evolve.front_s": total("evolve.front"),
        "evolve.save_s": total("evolve.save"),
        "distance.calls": len(of("distance.dist")),
        "distance.s": total("distance.dist"),
        "genome.variation_s": total("genome.variation"),
        "genome.decode_calls": len(of("genome.decode")),
        "genome.decode_s": total("genome.decode"),
        "phonemes.g2p_calls": len(of("phonemes.g2p")),
        "phonemes.g2p_s": total("phonemes.g2p"),
        "pinyin.parse_calls": len(of("pinyin.parse")),
        "pinyin.parse_s": total("pinyin.parse"),
        "embedding.encode_calls": len(of("embedding.encode")),
        "embedding.encode_s": total("embedding.encode"),
        "gbdt.train_calls": len(trains),
        "gbdt.train_s": total("gbdt.train"),
        "gbdt.trees": sum(t for _, _, t in trains),
        "gbdt.train_cells": sum(r * f * t for r, f, t in trains),
        "gbdt.predict_rows": len(of("gbdt.predict")),
        "gbdt.predict_s": total("gbdt.predict"),
        "treeshap.rows": len(of("treeshap.shap")),
        "treeshap.s": total("treeshap.shap"),
        "explain.build_dataset_s": total("explain.build_dataset"),
        "explain.cross_validate_self_s": self_total("explain.cross_validate"),
        "explain.explain_archive_self_s":
            self_total("explain.explain_archive"),
        "explain.group_factors_s": total("explain.group_factors"),
        "mitigate.assemble_triple_s": total("mitigate.assemble_triple"),
        "mitigate.collective_rows":
            sum(s.info or 0 for s in of("mitigate.assemble_triple")),
        "mitigate.strengthen_s": total("mitigate.strengthen"),
        "mitigate.fuzzy_rate_s": total("mitigate.fuzzy_rate"),
        "mitigate.evaluate_s": total("mitigate.evaluate"),
        "mitigate.screening_s": total("mitigate.screening"),
        "mitigate.proxy_rebuild_s": rebuild,
        "cli.self_s": self_total("cli.stage"),
    }
