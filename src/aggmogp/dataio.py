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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import utils
from .errors import DataError, IncompatibleModel
from .evaluation import SynthConfig, latent_request
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

# The seed comes from the command line, never from a config document.
_TRAINING_KEYS = {f.name for f in fields(TrainConfig)} - {"seed"}

# A model document's parameter arrays, in key order: the shared ones,
# then those held per domain.
_SHARED_PARAMS = ("log_length_scales", "prior_mean", "prior_log_var")
_DOMAIN_PARAMS = ("q_mean", "q_log_var", "noise_log_var")


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
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
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
        shape=_ints(_require(grid, "shape", f"domain {did!r} grid")),
    )
    extent = _require(entry, "extent", f"{ctx} domain {did!r}")
    dom = Domain(
        id=did, extent=tuple((lo, hi) for lo, hi in extent), grid=spec
    )
    dim = entry.get("dimension")
    if dim is not None and _int(dim) != dom.ndim:
        raise DataError(
            f"{ctx} domain {did!r}: declared dimension {dim} but geometry is"
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
        body = CellSet(_ints(entry["cells"]))
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


def load_dataset_file(path: str) -> DatasetBundle:
    doc = _load_json(path)
    _check_version(doc, path)
    try:
        return _dataset_from_doc(doc, path)
    except (TypeError, ValueError) as e:
        # A value of the wrong type or shape, e.g. "values": ["abc"].
        raise DataError(f"{path}: invalid dataset value: {e}") from e


def _dataset_from_doc(doc: dict, path: str) -> DatasetBundle:
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
    return DatasetBundle(dataset=dataset, partitions=partitions, sha=sha256_of(doc))


def _support_to_json(support: Support) -> dict:
    if isinstance(support.body, Interval):
        return {"id": support.id, "interval": [support.body.lo, support.body.hi]}
    return {"id": support.id, "cells": [int(c) for c in support.body.cells]}


def _partition_to_json(part: Partition, rules) -> dict:
    """Owner, aggregation kind and supports of a partition.

    A document spells one aggregation kind per partition, so rules of
    mixed kinds are refused rather than saved as the first one.
    """
    kinds = {r.kind for r in rules}
    if len(kinds) != 1:
        raise DataError(
            f"partition ({part.domain_id}, {part.attribute_id}) mixes"
            f" aggregation kinds {sorted(kinds)} and cannot be saved"
        )
    kind = kinds.pop()
    supports = [_support_to_json(s) for s in part.supports]
    if kind == AggregationRule.CUSTOM:
        for s_doc, rule in zip(supports, rules):
            s_doc["weights"] = [float(w) for w in rule.weights]
    return {
        "domain_id": part.domain_id,
        "attribute_id": part.attribute_id,
        "aggregation": kind,
        "supports": supports,
    }


def _series_to_json(rec: DatasetRecord) -> dict:
    out = _partition_to_json(rec.partition, rec.rules)
    out["values"] = [float(v) for v in rec.values]
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
        doc["partitions"] = [
            {"id": pid, **_partition_to_json(part, rules)}
            for pid, (part, rules) in partitions.items()
        ]
    return doc


# ---------------------------------------------------------------------------
# Config documents


@dataclass
class ConfigBundle:
    """Parsed configuration document.

    ``synth`` is the generator section and ``experiment`` the keyword
    arguments of an :class:`~aggmogp.evaluation.ExperimentSpec`, each
    None when absent; the spec, built after command-line overrides,
    checks the method.
    """

    num_latents: object
    init_length_scales: tuple[float, ...] | None
    training: TrainConfig
    n_pred_samples: int
    cv_candidates: tuple[int, ...] | None
    synth: SynthConfig | None
    experiment: dict | None
    sha: str

    def training_with_seed(self, seed: int) -> TrainConfig:
        return replace(self.training, seed=seed)


def load_config_file(path: str) -> ConfigBundle:
    doc = _load_json(path)
    _check_version(doc, path)
    try:
        return _config_from_doc(doc, path)
    except (TypeError, ValueError) as e:
        # A value of the wrong type or range, e.g. "max_iters": "abc".
        raise DataError(f"{path}: invalid config value: {e}") from e


def _object(value, what: str, path: str) -> dict:
    """A map in a document, which must be a JSON object."""
    if not isinstance(value, dict):
        raise DataError(f"{path}: {what} must be a JSON object")
    return value


def _section(doc: dict, name: str, path: str) -> dict:
    """One top-level config section; absent means empty."""
    return _object(doc.get(name, {}), f"the {name!r} section", path)


def _optional(sec: dict, key: str, convert):
    """``convert(sec[key])``, or None when the key is absent or null."""
    value = sec.get(key)
    return None if value is None else convert(value)


def _entries(value, what: str, path: str, convert) -> dict:
    """``{key: convert(item)}`` over a JSON object."""
    return {k: convert(v) for k, v in _object(value, what, path).items()}


def _int(value) -> int:
    """An integer by :func:`~aggmogp.utils.whole_number`, or ValueError."""
    count = utils.whole_number(value)
    if count is None:
        raise ValueError(f"expected integers, got {value!r}")
    return count


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _strs(values) -> tuple[str, ...]:
    return tuple(str(v) for v in values)


def _positive_scales(values, what: str, path: str) -> tuple[float, ...]:
    scales = tuple(float(s) for s in values)
    if any(not 0 < s < np.inf for s in scales):
        raise DataError(f"{path}: {what} must be positive and finite")
    return scales


def _config_from_doc(doc: dict, path: str) -> ConfigBundle:
    model = _section(doc, "model", path)
    num_latents = latent_request(model.get("num_latents", 1), f"{path}: num_latents")
    scales = _optional(
        model, "length_scales", lambda v: _positive_scales(v, "length_scales", path)
    )
    training = _section(doc, "training", path)
    unknown = set(training) - _TRAINING_KEYS
    if unknown:
        raise DataError(
            f"{path}: unknown training options {sorted(unknown)}"
        )
    config = TrainConfig(**training)
    prediction = _section(doc, "prediction", path)
    n_pred = _int(prediction.get("n_samples", 100))
    if n_pred < 1:
        raise DataError(f"{path}: prediction n_samples must be >= 1")
    return ConfigBundle(
        num_latents=num_latents,
        init_length_scales=scales,
        training=config,
        n_pred_samples=n_pred,
        cv_candidates=_optional(model, "cv_candidates", _ints),
        synth=_optional(doc, "synth", lambda sec: _synth_from_doc(sec, path)),
        experiment=_optional(
            doc, "experiment", lambda sec: _experiment_from_doc(sec, config, path)
        ),
        sha=sha256_of(doc),
    )


def _level_spec(spec):
    """Equal interval bins (a count) or a cell-block shape (a list)."""
    return _ints(spec) if isinstance(spec, (list, tuple)) else _int(spec)


def _synth_from_doc(sec, path: str) -> SynthConfig:
    sec = _object(sec, "the 'synth' section", path)
    ctx = f"{path}: synth config"
    domains = tuple(parse_domain(entry, ctx) for entry in sec.get("domains", ()))
    attributes = _strs(sec.get("attributes", ()))
    scales = _positive_scales(
        sec.get("length_scales", ()), "synth length_scales", path
    )
    levels = {
        label: _entries(per_domain, f"synth level {label!r}", path, _level_spec)
        for label, per_domain in _section(sec, "levels", path).items()
    }
    for what, given in (
        ("at least one domain", domains),
        ("at least one attribute", attributes),
        ("length_scales", scales),
        ("a 'levels' section", levels),
    ):
        if not given:
            raise DataError(f"{ctx} needs {what}")
    noise = sec.get("noise_var", 0.0)
    if isinstance(noise, dict):
        noise = {
            (v, s): val
            for v, per in noise.items()
            for s, val in _entries(per, f"synth noise_var {v!r}", path, float).items()
        }
    offset = sec.get("value_offset", 0.0)
    if isinstance(offset, dict):
        offset = _entries(offset, "synth value_offset", path, float)
    seed = _int(sec.get("seed", 0))
    if seed < 0:
        raise DataError(f"{ctx} seed must be >= 0, got {seed}")
    return SynthConfig(
        domains=domains,
        attributes=attributes,
        length_scales=scales,
        levels=levels,
        domain_attributes=_optional(
            sec,
            "domain_attributes",
            lambda m: _entries(m, "synth domain_attributes", path, _strs),
        ),
        weights=_optional(
            sec, "weights", lambda m: _entries(m, "synth weights", path, _floats)
        ),
        prior_mean=_optional(sec, "prior_mean", _floats),
        prior_var=_optional(sec, "prior_var", _floats),
        noise_var=noise if isinstance(noise, dict) else float(noise),
        value_offset=offset if isinstance(offset, dict) else float(offset),
        seed=seed,
    )


def _experiment_from_doc(sec, training: TrainConfig, path: str) -> dict:
    sec = _object(sec, "the 'experiment' section", path)
    try:
        return dict(
            target_domain=str(sec["target_domain"]),
            target_attribute=str(sec["target_attribute"]),
            method=str(sec.get("method", "amogp-trans")),
            train_level=str(sec["train_level"]),
            test_level=str(sec["test_level"]),
            aux_level=sec.get("aux_level"),
            num_latents=latent_request(
                sec.get("num_latents", 2), f"{path}: experiment num_latents"
            ),
            seeds=_ints(sec.get("seeds", [0])),
            n_pred_samples=_int(sec.get("n_pred_samples", 100)),
            cv_candidates=_optional(sec, "cv_candidates", _ints),
            train_config=training,
        )
    except KeyError as e:
        raise DataError(f"{path}: experiment section is missing {e}") from e


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
        **{name: getattr(state, name).tolist() for name in _SHARED_PARAMS},
        **{
            name: {v: a.tolist() for v, a in getattr(state, name).items()}
            for name in _DOMAIN_PARAMS
        },
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
            domain_attributes=_entries(
                doc["domain_attributes"], "domain_attributes", path, tuple
            ),
            num_latents=_int(doc["num_latents"]),
            **{name: _floats(doc[name]) for name in _SHARED_PARAMS},
            **{
                name: _entries(doc[name], name, path, _floats)
                for name in _DOMAIN_PARAMS
            },
        )
        transforms = {}
        for v, per in _object(doc.get("transforms", {}), "transforms", path).items():
            for s, (mean, scale) in _object(per, f"transforms {v!r}", path).items():
                mean, scale = float(mean), float(scale)
                if not (np.isfinite(mean) and 0 < scale < np.inf):
                    raise DataError(
                        f"{path}: transforms ({v}, {s}) need a finite mean and"
                        " a positive finite scale"
                    )
                transforms[(v, s)] = (mean, scale)
        # A non-finite parameter would surface later as a numerical failure.
        named = [(name, getattr(state, name)) for name in _SHARED_PARAMS]
        for name in _DOMAIN_PARAMS:
            named += [(f"{name} {v!r}", a) for v, a in getattr(state, name).items()]
        for what, values in named:
            if not np.all(np.isfinite(values)):
                raise DataError(f"{path}: {what} has a non-finite entry")
        return ModelBundle(
            state=state,
            transforms=transforms,
            method=str(doc.get("method", "amogp-trans")),
            seed=_int(doc.get("seed", 0)),
            dataset_sha=str(doc.get("dataset_sha", "")),
            config_sha=str(doc.get("config_sha", "")),
            trace_summary=dict(doc.get("trace", {})),
        )
    except KeyError as e:
        raise DataError(f"{path}: missing model field {e}") from e
    except (TypeError, ValueError) as e:
        # A value of the wrong type or shape, e.g. "num_latents": "x".
        raise DataError(f"{path}: invalid model value: {e}") from e


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


def write_support_csv(path: str, ids, values, variances) -> None:
    lines = ["support_id,value,variance"]
    for sid, val, var in zip(ids, values, variances):
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
