"""Command line front end.

Exit codes: 0 on success, 1 for validation and usage problems, 2 for
numerical failures. Failures print a one-line JSON record to stderr
(``{"error": <class>, "message": <text>}``) so callers never have to
parse prose. All outputs are written atomically and are byte-identical
across reruns with the same inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from functools import partial

from . import baselines, dataio, svgplot
from .errors import AggmogpError, CholeskyFailure, DataError, NonFiniteELBO
from .evaluation import (
    ExperimentSpec,
    choose_latents,
    count_request,
    cv_select_L,
    latent_request,
    run_experiment,
    synth_generate,
)
from .model import AggregatedDataset, uniform_rules
from .prediction import predict_grid, predict_supports


class _Parser(argparse.ArgumentParser):
    """Usage problems raise instead of exiting with argparse's code 2."""

    def error(self, message):
        raise DataError(f"usage: {message}")


def _latents_flag(text: str):
    return latent_request(text, "--latents")


def _count_flag(flag: str, least: int):
    """Argument type of an integer flag that must be at least ``least``."""
    return partial(count_request, what=flag, least=least)


def _emit_error(exc: AggmogpError) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


# ---------------------------------------------------------------------------
# fit


def _cmd_fit(args) -> None:
    ds = dataio.load_dataset_file(args.dataset)
    cfg = dataio.load_config_file(args.config)
    method = args.method
    requested = args.latents or cfg.num_latents
    # The view comes first so that a method the dataset does not suit
    # fails before any cross-validation runs.
    view = baselines.training_view(ds.dataset, method)
    config = cfg.training_with_seed(args.seed)
    chosen, cv = choose_latents(
        view, method, requested, config, cfg.cv_candidates, cfg.n_pred_samples
    )
    if args.latents and requested not in ("cv", chosen):
        raise DataError(
            f"method {method!r} trains {chosen} latent process, not {requested}"
        )
    if cv is not None:
        print(
            f"cross-validation chose {cv.chosen} latents"
            f" (candidates {list(cv.candidates)})"
        )
    state, trace = baselines.fit_view(
        view,
        chosen,
        config,
        init_seed=args.seed,
        init_length_scales=cfg.init_length_scales,
    )
    doc = dataio.model_to_doc(
        state, view.transforms, method, args.seed, ds.sha, cfg.sha, trace
    )
    dataio.write_json(args.out, doc)
    if args.trace_out:
        dataio.write_trace_csv(args.trace_out, trace)
    print(
        f"fitted {method} with {chosen} latents:"
        f" objective {trace.final_elbo:.6f} after"
        f" {len(trace.iterations)} iterations -> {args.out}"
    )


# ---------------------------------------------------------------------------
# refine


def _cmd_refine(args) -> None:
    ds = dataio.load_dataset_file(args.dataset)
    mb = dataio.load_model_file(args.model)
    dataio.check_model_compatible(mb, ds.sha)
    entry = ds.partitions.get(args.target_partition)
    if entry is None:
        raise DataError(
            f"no partition {args.target_partition!r} in the dataset document"
            f" (known: {sorted(ds.partitions)})"
        )
    part, rules = entry
    # Rebuild the view the saved model was trained on, in its units.
    v = mb.state.domain_ids[0]
    view = baselines.training_view(
        ds.dataset, mb.method, v, mb.state.domain_attributes[v][0]
    )
    view = AggregatedDataset(
        view.domains, view.attributes, view.records, transforms=mb.transforms
    )
    pred = predict_supports(part, mb.state, view, args.tp, args.seed, rules=rules)
    values, variances = view.denormalize(
        part.domain_id, part.attribute_id, pred.values, pred.variances
    )
    dataio.write_support_csv(
        args.out, [s.id for s in part.supports], values, variances
    )
    message = f"wrote {len(part.supports)} supports -> {args.out}"
    if pred.clamped:
        message += f" ({pred.clamped} per-draw variances clamped to 0)"
    print(message)
    if args.grid_out:
        query, mean, variance, clamped = predict_grid(
            mb.state, view, part.domain_id, part.attribute_id, args.tp, args.seed
        )
        mean, variance = view.denormalize(
            part.domain_id, part.attribute_id, mean, variance
        )
        dataio.write_grid_csv(args.grid_out, query, mean, variance)
        message = f"wrote {query.shape[0]} grid points -> {args.grid_out}"
        if clamped:
            message += f" ({clamped} per-draw variances clamped to 0)"
        print(message)


# ---------------------------------------------------------------------------
# cv


def _cmd_cv(args) -> None:
    ds = dataio.load_dataset_file(args.dataset)
    cfg = dataio.load_config_file(args.config)
    result = cv_select_L(
        ds.dataset,
        cfg.cv_candidates,
        cfg.training_with_seed(args.seed),
        n_pred_samples=cfg.n_pred_samples,
    )
    doc = {
        "format_version": dataio.FORMAT_VERSION,
        "kind": "aggmogp-cv",
        "chosen": result.chosen,
        "candidates": list(result.candidates),
        "errors": list(result.errors),
        "fold_count": result.fold_count,
    }
    dataio.write_json(args.out, doc)
    print("latents  mean APE")
    for L, err in zip(result.candidates, result.errors):
        marker = " <-" if L == result.chosen else ""
        print(f"{L:7d}  {err:.6f}{marker}")
    print(f"chosen: {result.chosen} ({result.fold_count} folds) -> {args.out}")


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args) -> None:
    cfg = dataio.load_config_file(args.config)
    if cfg.synth is None:
        raise DataError("config has no 'synth' section")
    synth_cfg = cfg.synth
    if args.seed is not None:
        synth_cfg = replace(synth_cfg, seed=args.seed)
    res = synth_generate(synth_cfg)
    for label, dataset in res.datasets.items():
        registry = {}
        for other, per_pair in res.partitions.items():
            for (v, s), part in per_pair.items():
                if v in dataset.domains:
                    registry[f"{other}/{v}/{s}"] = (
                        part,
                        uniform_rules(part),
                    )
        doc = dataio.dataset_to_doc(dataset, partitions=registry)
        path = f"{args.out}-{label}.json"
        dataio.write_json(path, doc)
        print(f"level {label}: {len(dataset.records)} series -> {path}")
    levels_doc: dict[str, dict] = {}
    for label, per in res.truth.items():
        level_doc: dict[str, dict] = {}
        for (v, s), vals in per.items():
            level_doc.setdefault(v, {})[s] = vals.tolist()
        levels_doc[label] = level_doc
    truth_doc = {
        "format_version": dataio.FORMAT_VERSION,
        "kind": "aggmogp-truth",
        "levels": levels_doc,
    }
    truth_path = f"{args.out}-truth.json"
    dataio.write_json(truth_path, truth_doc)
    print(f"noiseless truth -> {truth_path}")


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> None:
    cfg = dataio.load_config_file(args.config)
    if cfg.experiment is None:
        raise DataError("config has no 'experiment' section")
    fields = dict(cfg.experiment)
    if args.method:
        fields["method"] = args.method
    if args.latents:
        fields["num_latents"] = args.latents
    if args.tp is not None:
        fields["n_pred_samples"] = args.tp
    try:
        spec = ExperimentSpec(**fields)
    except DataError as e:
        # Every flag is checked by its argument type, so the config is at fault.
        raise DataError(f"{args.config}: experiment {e}") from e
    if cfg.synth is None:
        raise DataError("config has no 'synth' section")
    report = run_experiment(spec, cfg.synth)
    dataio.write_json(args.out, report.to_dict())
    if report.mape_mean is None:
        print(f"{spec.method}: no successful seeds -> {args.out}")
    else:
        print(
            f"{spec.method}: MAPE {report.mape_mean:.4f} +/- {report.mape_se:.4f}"
            f" over {len(report.seeds_run)} seeds"
            f" (latents {sorted(set(report.chosen_latents))}) -> {args.out}"
        )
    for seed, message in report.failures:
        print(f"seed {seed} failed: {message}")


# ---------------------------------------------------------------------------
# plot


def _cmd_plot(args) -> None:
    names, data = dataio.read_csv_columns(args.csv)
    if names[:2] == ["iteration", "elbo"]:
        svg = svgplot.trace_svg(data[:, 0], data[:, 1])
    elif names == ["x0", "mean", "variance"]:
        svg = svgplot.band_svg(data[:, 0], data[:, 1], data[:, 2])
    elif names == ["x0", "x1", "mean", "variance"]:
        svg = svgplot.heatmap_svg(data[:, 0], data[:, 1], data[:, 2])
    elif names == ["value", "variance"]:
        raise DataError(
            "support tables are not plottable; plot the grid export instead"
        )
    else:
        raise DataError(f"unrecognized CSV columns {names}")
    dataio.atomic_write_text(args.out, svg + "\n")
    print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aggmogp",
        description=(
            "Multi-output Gaussian process inference on aggregated"
            " observations, with cross-domain transfer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model and save it")
    p_fit.add_argument("--dataset", required=True)
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--trace-out")
    p_fit.add_argument("--seed", type=_count_flag("--seed", 0), default=0)
    p_fit.add_argument("--method", default="amogp-trans")
    p_fit.add_argument("--latents", type=_latents_flag, help="latent count or 'cv'")
    p_fit.set_defaults(handler=_cmd_fit)

    p_ref = sub.add_parser("refine", help="predict onto a target partition")
    p_ref.add_argument("--dataset", required=True)
    p_ref.add_argument("--model", required=True)
    p_ref.add_argument("--target-partition", required=True)
    p_ref.add_argument("--out", required=True)
    p_ref.add_argument("--grid-out")
    p_ref.add_argument("--tp", type=_count_flag("--tp", 1), default=100)
    p_ref.add_argument("--seed", type=_count_flag("--seed", 0), default=0)
    p_ref.set_defaults(handler=_cmd_refine)

    p_cv = sub.add_parser("cv", help="choose the latent count by LOO")
    p_cv.add_argument("--dataset", required=True)
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--out", required=True)
    p_cv.add_argument("--seed", type=_count_flag("--seed", 0), default=0)
    p_cv.set_defaults(handler=_cmd_cv)

    p_syn = sub.add_parser("synth", help="generate synthetic datasets")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--out", required=True, help="output path prefix")
    p_syn.add_argument("--seed", type=_count_flag("--seed", 0), default=None)
    p_syn.set_defaults(handler=_cmd_synth)

    p_eval = sub.add_parser("eval", help="run a refinement experiment")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--method", default=None, choices=baselines.METHODS)
    p_eval.add_argument("--latents", type=_latents_flag, help="latent count or 'cv'")
    p_eval.add_argument("--tp", type=_count_flag("--tp", 1), default=None)
    p_eval.set_defaults(handler=_cmd_eval)

    p_plot = sub.add_parser("plot", help="render a CSV export as SVG")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(handler=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # Training progress (``log_every``) is printed as bare lines.
    progress = logging.getLogger("aggmogp.inference")
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = progress.level
    progress.addHandler(handler)
    progress.setLevel(logging.INFO)
    try:
        args = parser.parse_args(argv)
        args.handler(args)
    except (CholeskyFailure, NonFiniteELBO) as exc:
        _emit_error(exc)
        return 2
    except AggmogpError as exc:
        _emit_error(exc)
        return 1
    finally:
        progress.removeHandler(handler)
        progress.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
