"""Spans and counters around the library's layer boundaries.

Tracing is done from the benchmark's side only: :func:`instrumented`
rebinds the public functions each calling module imported (for example
``aggmogp.inference.chol_with_jitter``) to thin wrappers that record a
span, then restores the originals on exit. The program's source is not
touched, and untraced runs never see a wrapper.

A span is ``(id, name, start, end, parent id, run id)`` with
``perf_counter`` times; spans stay in memory until the run writes them
out. Element counts that would be too fine-grained for spans (the
kernel primitives, the worker-pool fan-out) are plain counters.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

import numpy as np

import aggmogp.evaluation as evaluation
import aggmogp.geometry as geometry
import aggmogp.inference as inference
import aggmogp.model as model
import aggmogp.prediction as prediction
import aggmogp.utils as utils

# (module, attribute, span name). One span name may cover several
# bindings of the same function, one per importing module.
SPANNED = (
    (model, "assemble_from_latents", "model.assemble"),
    (inference, "assemble_from_latents", "model.assemble"),
    (inference, "elbo_with_grad", "inference.elbo_with_grad"),
    (inference, "refined_elbo", "inference.refined_elbo"),
    (prediction, "cross_cov_H", "prediction.cross_cov"),
    (evaluation, "fit", "evaluation.cv_fit"),
    (geometry, "validate", "geometry.validate"),
)
CHOL_BINDINGS = (model, inference, prediction)
# (module, attribute, position of n_samples, result -> clamped count).
PREDICTORS = (
    (prediction, "predict_supports", 3, lambda r: r.clamped),
    (evaluation, "predict_supports", 3, lambda r: r.clamped),
    (prediction, "predict_grid", 4, lambda r: r[3]),
)
# (module, attribute, counter): elements of the first argument.
ERF_BINDINGS = (
    (model, "se_antideriv2"),
    (model, "se_antideriv2_dlog"),
    (prediction, "se_point_interval"),
)
SE_BINDINGS = (
    (model, "se_value"),
    (model, "se_value_dlog"),
    (prediction, "se_value"),
)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _counting(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def counted(first, *args, **kwargs):
        tracer.counts[counter] += int(np.size(first))
        return fn(first, *args, **kwargs)

    return counted


def _chol(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(C):
        with tracer.span("model.chol"):
            L, jitter = fn(C)
        first = model.JITTER_BASE * float(np.mean(np.diag(C)))
        retries = int(round(np.log10(jitter / first))) if first > 0 else 0
        tracer.counts["model.chol_calls"] += 1
        tracer.counts["model.chol_retries"] += retries
        tracer.counts["model.chol_first_try"] += retries == 0
        return L, jitter

    return traced


def _predictor(tracer: Tracer, fn, draws_at, clamped_of):
    name = f"prediction.{fn.__name__}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        draws = args[draws_at] if len(args) > draws_at else kwargs["n_samples"]
        tracer.counts["prediction.draws"] += int(draws)
        tracer.counts["prediction.clamped"] += int(clamped_of(result))
        return result

    return traced


def _parallel_map(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(task, items):
        items = list(items)
        tracer.counts["utils.parallel_map_calls"] += 1
        tracer.counts["utils.parallel_map_items"] += len(items)
        return fn(task, items)

    return counted


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind every traced boundary for the duration of the block."""
    saved = []

    def rebind(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    try:
        for owner, attr, name in SPANNED:
            rebind(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        for owner, attr, draws_at, clamped_of in PREDICTORS:
            fn = getattr(owner, attr)
            rebind(owner, attr, _predictor(tracer, fn, draws_at, clamped_of))
        for owner in CHOL_BINDINGS:
            rebind(owner, "chol_with_jitter", _chol(tracer, owner.chol_with_jitter))
        for owner, attr in ERF_BINDINGS:
            rebind(owner, attr, _counting(tracer, "kernels.erf_elems", getattr(owner, attr)))
        for owner, attr in SE_BINDINGS:
            rebind(owner, attr, _counting(tracer, "kernels.se_elems", getattr(owner, attr)))
        rebind(utils, "parallel_map", _parallel_map(tracer, utils.parallel_map))
        table = model.SupportCovTable
        rebind(table, "latent_cov", tracer.wrap("model.latent_cov", table.latent_cov))
        # DomainData is built only inside AggregatedDataset.prepared, on a
        # cache miss, so its constructor is exactly one prepared() build.
        rebind(
            model.DomainData,
            "__init__",
            tracer.wrap("model.prepared", model.DomainData.__init__),
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def total_time(spans, name: str) -> float:
    """Summed duration of the spans with this name (they never nest)."""
    return sum(s[3] - s[2] for s in spans if s[1] == name)


def self_time(spans, names, excluded) -> float:
    """Time in spans named ``names`` not covered by ``excluded`` descendants.

    Descendants are searched through any intermediate span; an excluded
    span stops the search, so nested exclusions are not subtracted twice.
    """
    kids: dict[int, list] = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s)

    def covered(span_id):
        return sum(
            c[3] - c[2] if c[1] in excluded else covered(c[0])
            for c in kids.get(span_id, ())
        )

    return sum((s[3] - s[2]) - covered(s[0]) for s in spans if s[1] in names)


def span_count(spans, name: str) -> int:
    return sum(1 for s in spans if s[1] == name)
