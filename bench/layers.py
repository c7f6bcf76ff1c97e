"""Per-layer metrics of a traced run.

Every value is computed per traced repetition from that repetition's
spans and counters, and the median over traced repetitions is reported.
Times are seconds of span duration; ``*_self_s`` subtracts the named
child layers, as listed beside each metric.
"""

from __future__ import annotations

import statistics

from bench.tracing import self_time, span_count, total_time

# Children subtracted from elbo_with_grad to leave the gradient contractions.
ELBO_CHILDREN = {"model.latent_cov", "model.assemble", "model.chol"}
PREDICTORS = {"prediction.predict_supports", "prediction.predict_grid"}
PREDICTION_CHILDREN = ELBO_CHILDREN | {
    "prediction.cross_cov",
    "geometry.validate",
    "model.prepared",
}

# name -> (unit, function of (rep, spans, counts)).
LAYER_METRICS = {
    "model.prepared_s": ("s", lambda r, s, c: total_time(s, "model.prepared")),
    "model.prepared_calls": ("count", lambda r, s, c: span_count(s, "model.prepared")),
    "model.latent_cov_s": ("s", lambda r, s, c: total_time(s, "model.latent_cov")),
    "model.latent_cov_calls": (
        "count", lambda r, s, c: span_count(s, "model.latent_cov")
    ),
    "model.assemble_s": ("s", lambda r, s, c: total_time(s, "model.assemble")),
    "model.assemble_calls": ("count", lambda r, s, c: span_count(s, "model.assemble")),
    "model.chol_s": ("s", lambda r, s, c: total_time(s, "model.chol")),
    "model.chol_calls": ("count", lambda r, s, c: c["model.chol_calls"]),
    "model.chol_retries": ("count", lambda r, s, c: c["model.chol_retries"]),
    "model.chol_first_try_ratio": (
        "1",
        lambda r, s, c: c["model.chol_first_try"] / max(c["model.chol_calls"], 1),
    ),
    "kernels.erf_elems": ("count", lambda r, s, c: c["kernels.erf_elems"]),
    "kernels.se_elems": ("count", lambda r, s, c: c["kernels.se_elems"]),
    "inference.elbo_with_grad_s": (
        "s", lambda r, s, c: total_time(s, "inference.elbo_with_grad")
    ),
    "inference.elbo_with_grad_calls": (
        "count", lambda r, s, c: span_count(s, "inference.elbo_with_grad")
    ),
    "inference.elbo_self_s": (
        "s",
        lambda r, s, c: self_time(s, {"inference.elbo_with_grad"}, ELBO_CHILDREN),
    ),
    "inference.refined_elbo_s": (
        "s", lambda r, s, c: total_time(s, "inference.refined_elbo")
    ),
    "inference.refined_elbo_calls": (
        "count", lambda r, s, c: span_count(s, "inference.refined_elbo")
    ),
    "inference.iterations": ("count", lambda r, s, c: r.iterations),
    "inference.backoffs": ("count", lambda r, s, c: r.backoffs),
    "inference.final_elbo": ("1", lambda r, s, c: r.final_elbo),
    "prediction.cross_cov_s": (
        "s", lambda r, s, c: total_time(s, "prediction.cross_cov")
    ),
    "prediction.cross_cov_calls": (
        "count", lambda r, s, c: span_count(s, "prediction.cross_cov")
    ),
    "prediction.self_s": (
        "s", lambda r, s, c: self_time(s, PREDICTORS, PREDICTION_CHILDREN)
    ),
    "prediction.draws": ("count", lambda r, s, c: c["prediction.draws"]),
    "prediction.clamped": ("count", lambda r, s, c: c["prediction.clamped"]),
    "geometry.validate_s": ("s", lambda r, s, c: total_time(s, "geometry.validate")),
    "evaluation.cv_s": ("s", lambda r, s, c: total_time(s, "bench.cv")),
    "evaluation.cv_fits": ("count", lambda r, s, c: span_count(s, "evaluation.cv_fit")),
    "evaluation.cv_mape": ("1", lambda r, s, c: r.cv_mape or 0.0),
    "evaluation.refine_mape": ("1", lambda r, s, c: r.refine_mape),
    "evaluation.refine_vs_broadcast": (
        "1", lambda r, s, c: r.refine_mape / r.broadcast_mape
    ),
    "utils.parallel_map_calls": ("count", lambda r, s, c: c["utils.parallel_map_calls"]),
    "utils.parallel_map_items": ("count", lambda r, s, c: c["utils.parallel_map_items"]),
}


def metrics(plain, layered, calib_s) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    out = {
        name: (statistics.median(fn(*rep) for rep in layered), unit)
        for name, (unit, fn) in LAYER_METRICS.items()
    }
    traced = statistics.median(rep.total_s for rep, _, _ in layered)
    untraced = statistics.median(rep.total_s for rep in plain)
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "1")
    out["host.calib_s"] = (calib_s, "s")
    return out
