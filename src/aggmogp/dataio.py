"""JSON dataset / config / model documents and CSV exports.

All documents carry ``format_version``; loading a document written by a
newer version fails loudly. Hashes are SHA-256 over a canonical JSON
encoding (sorted keys, no whitespace) of the parsed document, so
formatting differences do not break model/dataset compatibility checks.
Every writer goes through an atomic temp-and-rename step and emits
byte-identical output for identical inputs.

Dataset documents hold the domain and attribute catalogues, the
observation series, and an optional registry of value-free partitions
that prediction commands can reference by id.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, IncompatibleModel
from .geometry import (
    AggregationRule,
    CellSet,
    Domain,
    GridSpec,
    Interval,
    Partition,
    Support,
)
from .inference import TrainConfig, TrainTrace
from .model import AggregatedDataset, DatasetRecord, ModelState

FORMAT_VERSION = 1

_TRAINING_KEYS = {
    "learning_rate",
    "max_iters",
    "num_elbo_samples",
    "convergence_tol",
    "convergence_window",
    "snapshot_every",
    "log_every",
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top level must be an object")
    return doc


def _check_version(doc: dict, path: str) -> None:
    version = doc.get("format_version")
    if version is None:
        raise DataError(f"{path}: missing format_version")
    if not isinstance(version, int) or version < 1:
        raise DataError(f"{path}: invalid format_version {version!r}")
    if version > FORMAT_VERSION:
        raise DataError(
            f"{path}: format_version {version} is newer than the supported"
            f" version {FORMAT_VERSION}; refusing to guess"
        )


def _require(doc: dict, key: str, ctx: str):
    if key not in doc:
        raise DataError(f"{ctx}: missing required field {key!r}")
    return doc[key]


# ---------------------------------------------------------------------------
# Dataset documents


def parse_domain(entry: dict, ctx: str) -> Domain:
    did = _require(entry, "id", ctx)
    grid = _require(entry, "grid", f"{ctx} domain {did!r}")
    spec = GridSpec(
        origin=tuple(_require(grid, "origin", f"domain {did!r} grid")),
        cell_size=tuple(_require(grid, "cell_size", f"domain {did!r} grid")),
        shape=tuple(_require(grid, "shape", f"domain {did!r} grid")),
    )
    extent = _require(entry, "extent", f"{ctx} domain {did!r}")
    dom = Domain(
        id=did, extent=tuple((lo, hi) for lo, hi in extent), grid=spec
    )
    dim = entry.get("dimension")
    if dim is not None and int(dim) != dom.ndim:
        raise DataError(
            f"domain {did!r}: declared dimension {dim} but geometry is"
            f" {dom.ndim}-D"
        )
    return dom


def _parse_support(entry: dict, domain_id: str, ctx: str) -> Support:
    sid = _require(entry, "id", ctx)
    has_interval = "interval" in entry
    has_cells = "cells" in entry
    if has_interval == has_cells:
        raise DataError(
            f"{ctx} support {sid!r}: exactly one of 'interval' or 'cells'"
            " required"
        )
    if has_interval:
        lo, hi = entry["interval"]
        body = Interval(lo, hi)
    else:
        body = CellSet(tuple(int(c) for c in entry["cells"]))
    return Support(id=str(sid), domain_id=domain_id, body=body)


def _parse_rules(entry: dict, supports, ctx: str):
    kind = str(entry.get("aggregation", AggregationRule.AVERAGE))
    if kind == AggregationRule.CUSTOM:
        rules = []
        for s_entry, support in zip(entry["supports"], supports):
            weights = s_entry.get("weights")
            if weights is None:
                raise DataError(
                    f"{ctx}: custom aggregation needs per-support 'weights'"
                    f" (support {support.id!r})"
                )
            rules.append(AggregationRule(kind, tuple(float(w) for w in weights)))
        return tuple(rules)
    return tuple(AggregationRule(kind) for _ in supports)


def _parse_partition_body(entry: dict, domain_id: str, attribute_id: str, ctx: str):
    supports = tuple(
        _parse_support(s, domain_id, ctx) for s in _require(entry, "supports", ctx)
    )
    part = Partition(
        attribute_id=attribute_id, domain_id=domain_id, supports=supports
    )
    return part, _parse_rules(entry, supports, ctx)


@dataclass
class DatasetBundle:
    """A parsed dataset document.

    ``partitions`` maps registry ids (and series ids, when given) to
    value-free (partition, rules) pairs usable as prediction targets.
    """

    dataset: AggregatedDataset
    partitions: dict[str, tuple[Partition, tuple[AggregationRule, ...]]]
    sha: str
    raw: dict


def load_dataset_file(path: str) -> DatasetBundle:
    doc = _load_json(path)
    _check_version(doc, path)
    domains = {}
    for entry in _require(doc, "domains", path):
        dom = parse_domain(entry, path)
        if dom.id in domains:
            raise DataError(f"{path}: duplicate domain id {dom.id!r}")
        domains[dom.id] = dom
    attributes = tuple(str(a) for a in _require(doc, "attributes", path))
    records = []
    partitions: dict[str, tuple[Partition, tuple[AggregationRule, ...]]] = {}
    for entry in _require(doc, "datasets", path):
        ctx = f"{path} series"
        domain_id = str(_require(entry, "domain_id", ctx))
        attribute_id = str(_require(entry, "attribute_id", ctx))
        if domain_id not in domains:
            raise DataError(f"{ctx}: unknown domain {domain_id!r}")
        part, rules = _parse_partition_body(
            entry, domain_id, attribute_id, f"{ctx} ({domain_id}, {attribute_id})"
        )
        values = np.asarray(_require(entry, "values", ctx), dtype=float)
        records.append(
            DatasetRecord(
                domain_id=domain_id,
                attribute_id=attribute_id,
                partition=part,
                rules=rules,
                values=values,
                label=entry.get("label"),
            )
        )
        if "id" in entry:
            partitions[str(entry["id"])] = (part, rules)
    for entry in doc.get("partitions", ()):
        ctx = f"{path} partition"
        pid = str(_require(entry, "id", ctx))
        if pid in partitions:
            raise DataError(f"{path}: duplicate partition id {pid!r}")
        domain_id = str(_require(entry, "domain_id", ctx))
        attribute_id = str(_require(entry, "attribute_id", ctx))
        if domain_id not in domains:
            raise DataError(f"{ctx} {pid!r}: unknown domain {domain_id!r}")
        partitions[pid] = _parse_partition_body(
            entry, domain_id, attribute_id, f"{ctx} {pid!r}"
        )
    dataset = AggregatedDataset(domains, attributes, records)
    return DatasetBundle(
        dataset=dataset, partitions=partitions, sha=sha256_of(doc), raw=doc
    )


def _support_to_json(support: Support) -> dict:
    if isinstance(support.body, Interval):
        return {"id": support.id, "interval": [support.body.lo, support.body.hi]}
    return {"id": support.id, "cells": [int(c) for c in support.body.cells]}


def _series_to_json(rec: DatasetRecord) -> dict:
    kinds = {r.kind for r in rec.rules}
    if len(kinds) != 1:
        raise DataError("series with mixed aggregation kinds cannot be saved")
    kind = kinds.pop()
    supports = [_support_to_json(s) for s in rec.partition.supports]
    if kind == AggregationRule.CUSTOM:
        for s_doc, rule in zip(supports, rec.rules):
            s_doc["weights"] = [float(w) for w in rule.weights]
    out = {
        "domain_id": rec.domain_id,
        "attribute_id": rec.attribute_id,
        "aggregation": kind,
        "supports": supports,
        "values": [float(v) for v in rec.values],
    }
    if rec.label is not None:
        out["label"] = rec.label
    return out


def _domain_to_json(dom: Domain) -> dict:
    return {
        "id": dom.id,
        "dimension": dom.ndim,
        "extent": [[lo, hi] for lo, hi in dom.extent],
        "grid": {
            "origin": list(dom.grid.origin),
            "cell_size": list(dom.grid.cell_size),
            "shape": list(dom.grid.shape),
        },
    }


def dataset_to_doc(dataset: AggregatedDataset, partitions=None) -> dict:
    """Dataset document for a collection of records.

    ``partitions`` optionally adds a registry of value-free targets as
    {id: (partition, rules)}.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "domains": [_domain_to_json(d) for d in dataset.domains.values()],
        "attributes": list(dataset.attributes),
        "datasets": [_series_to_json(r) for r in dataset.records],
    }
    if partitions:
        reg = []
        for pid, (part, rules) in partitions.items():
            entry = {
                "id": pid,
                "domain_id": part.domain_id,
                "attribute_id": part.attribute_id,
                "aggregation": rules[0].kind,
                "supports": [_support_to_json(s) for s in part.supports],
            }
            if rules[0].kind == AggregationRule.CUSTOM:
                for s_doc, rule in zip(entry["supports"], rules):
                    s_doc["weights"] = [float(w) for w in rule.weights]
            reg.append(entry)
        doc["partitions"] = reg
    return doc


# ---------------------------------------------------------------------------
# Config documents


@dataclass
class ConfigBundle:
    """Parsed configuration: model, training, prediction and raw extras."""

    num_latents: object
    init_length_scales: tuple[float, ...] | None
    training: TrainConfig
    n_pred_samples: int
    cv_candidates: tuple[int, ...] | None
    raw: dict
    sha: str

    def training_with_seed(self, seed: int) -> TrainConfig:
        from dataclasses import replace

        return replace(self.training, seed=seed)


def load_config_file(path: str) -> ConfigBundle:
    doc = _load_json(path)
    _check_version(doc, path)
    try:
        return _config_from_doc(doc, path)
    except (TypeError, ValueError) as e:
        # A value of the wrong type or range, e.g. "max_iters": "abc".
        raise DataError(f"{path}: invalid config value: {e}") from e


def _section(doc: dict, name: str, path: str) -> dict:
    """One top-level config section, which must be a JSON object."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise DataError(f"{path}: the {name!r} section must be a JSON object")
    return section


def _config_from_doc(doc: dict, path: str) -> ConfigBundle:
    model = _section(doc, "model", path)
    num_latents = model.get("num_latents", 1)
    if num_latents != "cv":
        num_latents = int(num_latents)
        if num_latents < 1:
            raise DataError(f"{path}: num_latents must be >= 1 or 'cv'")
    scales = model.get("length_scales")
    if scales is not None:
        scales = tuple(float(s) for s in scales)
        if any(s <= 0 for s in scales):
            raise DataError(f"{path}: length_scales must be positive")
    training = _section(doc, "training", path)
    unknown = set(training) - _TRAINING_KEYS
    if unknown:
        raise DataError(
            f"{path}: unknown training options {sorted(unknown)}"
        )
    config = TrainConfig(**training)
    prediction = _section(doc, "prediction", path)
    n_pred = int(prediction.get("n_samples", 100))
    if n_pred < 1:
        raise DataError(f"{path}: prediction n_samples must be >= 1")
    cv_candidates = model.get("cv_candidates")
    if cv_candidates is not None:
        cv_candidates = tuple(int(c) for c in cv_candidates)
    return ConfigBundle(
        num_latents=num_latents,
        init_length_scales=scales,
        training=config,
        n_pred_samples=n_pred,
        cv_candidates=cv_candidates,
        raw=doc,
        sha=sha256_of(doc),
    )


# ---------------------------------------------------------------------------
# Model documents


@dataclass
class ModelBundle:
    """A fitted model with its provenance and normalization transforms.

    Each transform is an explicit ``(mean, scale)`` pair applied as
    ``value * scale + mean``, so a model file stays self-consistent
    whichever rule chose the pair. Multi-domain fits store the
    per-attribute pooled scale of
    :class:`~aggmogp.model.AggregatedDataset`; files written before that
    rule (per-series scales) still load and predict as written.
    """

    state: ModelState
    transforms: dict[tuple[str, str], tuple[float, float]]
    method: str
    seed: int
    dataset_sha: str
    config_sha: str
    trace_summary: dict


def model_to_doc(
    state: ModelState,
    transforms: dict,
    method: str,
    seed: int,
    dataset_sha: str,
    config_sha: str,
    trace: TrainTrace | None,
) -> dict:
    # Timing stays out of the document: identical inputs must produce
    # byte-identical model files.
    trace_summary = {}
    if trace is not None:
        trace_summary = {
            "iterations": len(trace.iterations),
            "best_iteration": trace.best_iteration,
            "init_elbo": trace.init_elbo,
            "final_elbo": trace.final_elbo,
            "improvement": trace.improvement,
            "backoffs": trace.backoffs,
        }
    tf_doc: dict[str, dict[str, list[float]]] = {}
    for (v, s), (mean, scale) in transforms.items():
        tf_doc.setdefault(v, {})[s] = [float(mean), float(scale)]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "aggmogp-model",
        "method": method,
        "seed": int(seed),
        "dataset_sha": dataset_sha,
        "config_sha": config_sha,
        "attributes": list(state.attributes),
        "domain_ids": list(state.domain_ids),
        "domain_attributes": {
            v: list(t) for v, t in state.domain_attributes.items()
        },
        "num_latents": state.num_latents,
        "log_length_scales": state.log_length_scales.tolist(),
        "prior_mean": state.prior_mean.tolist(),
        "prior_log_var": state.prior_log_var.tolist(),
        "q_mean": {v: a.tolist() for v, a in state.q_mean.items()},
        "q_log_var": {v: a.tolist() for v, a in state.q_log_var.items()},
        "noise_log_var": {v: a.tolist() for v, a in state.noise_log_var.items()},
        "transforms": tf_doc,
        "trace": trace_summary,
    }


def load_model_file(path: str) -> ModelBundle:
    doc = _load_json(path)
    _check_version(doc, path)
    if doc.get("kind") != "aggmogp-model":
        raise DataError(f"{path}: not a model document")
    try:
        state = ModelState(
            attributes=tuple(doc["attributes"]),
            domain_ids=tuple(doc["domain_ids"]),
            domain_attributes={
                v: tuple(t) for v, t in doc["domain_attributes"].items()
            },
            num_latents=int(doc["num_latents"]),
            log_length_scales=np.asarray(doc["log_length_scales"], dtype=float),
            prior_mean=np.asarray(doc["prior_mean"], dtype=float),
            prior_log_var=np.asarray(doc["prior_log_var"], dtype=float),
            q_mean={
                v: np.asarray(a, dtype=float) for v, a in doc["q_mean"].items()
            },
            q_log_var={
                v: np.asarray(a, dtype=float)
                for v, a in doc["q_log_var"].items()
            },
            noise_log_var={
                v: np.asarray(a, dtype=float)
                for v, a in doc["noise_log_var"].items()
            },
        )
    except KeyError as e:
        raise DataError(f"{path}: missing model field {e}") from e
    transforms = {}
    for v, per_attr in doc.get("transforms", {}).items():
        for s, (mean, scale) in per_attr.items():
            transforms[(v, s)] = (float(mean), float(scale))
    return ModelBundle(
        state=state,
        transforms=transforms,
        method=str(doc.get("method", "amogp-trans")),
        seed=int(doc.get("seed", 0)),
        dataset_sha=str(doc.get("dataset_sha", "")),
        config_sha=str(doc.get("config_sha", "")),
        trace_summary=dict(doc.get("trace", {})),
    )


def check_model_compatible(bundle: ModelBundle, dataset_sha: str) -> None:
    if bundle.dataset_sha != dataset_sha:
        raise IncompatibleModel(
            "model was fitted on a different dataset document (hash"
            f" {bundle.dataset_sha[:12]}… vs {dataset_sha[:12]}…)"
        )


# ---------------------------------------------------------------------------
# CSV exports


def _fmt(value: float) -> str:
    return repr(float(value))


def write_support_csv(path: str, support_ids, values, variances) -> None:
    lines = ["support_id,value,variance"]
    for sid, val, var in zip(support_ids, values, variances):
        lines.append(f"{sid},{_fmt(val)},{_fmt(var)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_grid_csv(path: str, query: np.ndarray, means, variances) -> None:
    ndim = query.shape[1]
    header = ",".join(f"x{d}" for d in range(ndim)) + ",mean,variance"
    lines = [header]
    for row, mean, var in zip(query, means, variances):
        coords = ",".join(_fmt(c) for c in row)
        lines.append(f"{coords},{_fmt(mean)},{_fmt(var)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trace_csv(path: str, trace: TrainTrace) -> None:
    lines = ["iteration,elbo,learning_rate"]
    for it, value, lr in trace.rows():
        lines.append(f"{it},{_fmt(value)},{_fmt(lr)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv_columns(path: str) -> tuple[list[str], np.ndarray]:
    """Header names and a float matrix; support_id columns stay out."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not lines:
        raise DataError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise DataError(f"{path}: ragged CSV row {ln!r}")
        rows.append(parts)
    numeric_cols = [
        i for i, name in enumerate(header) if name != "support_id"
    ]
    data = np.array(
        [[float(r[i]) for i in numeric_cols] for r in rows], dtype=float
    )
    return [header[i] for i in numeric_cols], data
