"""Error metric, model selection, synthetic data and the experiment harness.

The synthetic generator follows the model's own generative story: latent
fields are drawn exactly on the domain grid from the jittered Cholesky
factor of each kernel's gram matrix, mixed with per-attribute weights,
averaged over partition supports and observed with additive Gaussian
noise. Because the draw happens on the grid, the generator doubles as a
brute-force check of the covariance assembly (the empirical covariance
of many draws must match the assembled matrix).

Generated fields get a per-attribute value offset so ground truth stays
away from zero; percentage errors are undefined there. Normalization
removes the offset during training and restores it on denormalization,
so the model itself never sees it.

Generator substreams of the seed: 0 draws weights (when not fixed),
1 draws latent fields, 2 draws observation noise; domains in catalogue
order, latents in order, levels in configuration order inside each
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, geometry, utils
from .baselines import METHODS
from .errors import (
    AggmogpError,
    CrossValidationError,
    DataError,
    ZeroTruth,
)
from .geometry import Domain, Partition
from .inference import TrainConfig, fit
from .kernels import se_value
from .model import (
    AggregatedDataset,
    DatasetRecord,
    chol_with_jitter,
    init_state,
    uniform_rules,
)
from .prediction import predict_left_out, predict_supports


def mape(y_true, y_pred) -> float:
    """Mean absolute percentage error.

    Refuses zero ground-truth values instead of skipping them; the
    offending indices ride on the exception.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise DataError(
            f"mape needs equal-length vectors, got {y_true.shape} and"
            f" {y_pred.shape}"
        )
    zero = np.flatnonzero(y_true == 0.0)
    if zero.size:
        raise ZeroTruth(zero)
    return float(np.mean(np.abs((y_true - y_pred) / y_true)))


def argmin_first(values) -> int:
    """Index of the smallest value; earlier entries win exact ties."""
    values = list(values)
    if not values:
        raise ValueError("argmin of an empty sequence")
    best = 0
    for i in range(1, len(values)):
        if values[i] < values[best]:
            best = i
    return best


@dataclass
class CVResult:
    """Leave-one-out selection outcome.

    ``errors`` holds the mean absolute percentage error per candidate,
    aligned with ``candidates`` (sorted ascending, so
    :func:`argmin_first` realizes the ties-to-smallest rule).
    """

    chosen: int
    candidates: tuple[int, ...]
    errors: tuple[float, ...]
    fold_count: int


def _cv_records(dataset: AggregatedDataset, target):
    """Records that fold (two or more supports); zero values refused."""
    if target is None:
        records = dataset.records
    else:
        records = (dataset.record_for(*target),)
    records = [rec for rec in records if len(rec.partition.supports) >= 2]
    if not records:
        raise DataError("no cross-validation folds: every record has a single support")
    for rec in records:
        zero = np.flatnonzero(rec.values == 0.0)
        if zero.size:
            v, s = rec.key
            raise ZeroTruth(
                (int(zero[0]),),
                f"held-out value of ({v}, {s}) support {zero[0]} is zero;"
                " percentage error undefined",
            )
    return records


def cv_select_L(
    dataset: AggregatedDataset,
    candidates,
    config: TrainConfig,
    target: tuple[str, str] | None = None,
    n_pred_samples: int = 100,
) -> CVResult:
    """Choose the latent count by leave-one-out over coarse observations.

    Per candidate the full training data is fit once. Each fold holds
    out one support of a record and predicts it from all the other
    observations at the full fit's parameters and weight draws, the
    closed form of conditioning on all but one observation
    (:func:`~aggmogp.prediction.predict_left_out`); nothing is refit
    per fold. Each held-out value is scored by absolute percentage error
    in original units. ``candidates`` of None means every count from 1 to
    the dataset's attribute count. ``target`` limits folds to one
    (domain, attribute) pair; fine-grained data never enters.
    """
    if candidates is None:
        candidates = range(1, dataset.total_attribute_count + 1)
    cands = sorted(set(int(c) for c in candidates))
    if not cands:
        raise DataError("no candidate latent counts supplied")
    if any(c < 1 for c in cands):
        raise DataError("latent counts must be >= 1")
    records = _cv_records(dataset, target)
    mean_errors = []
    for L in cands:
        state, _ = fit(dataset, config, init_state(dataset, L, seed=config.seed))
        errs = []
        for rec in records:
            v, s = rec.key
            try:
                pred = predict_left_out(
                    state, dataset, v, s, n_pred_samples, config.seed
                ).values
            except AggmogpError as e:
                raise CrossValidationError(
                    f"record ({v}, {s}) with {L} latents failed: {e}"
                ) from e
            values = dataset.denormalize(v, s, pred)
            errs.extend(np.abs((rec.values - values) / rec.values))
        mean_errors.append(float(np.mean(errs)))
    best = argmin_first(mean_errors)
    return CVResult(
        chosen=cands[best],
        candidates=tuple(cands),
        errors=tuple(mean_errors),
        fold_count=sum(len(rec.partition.supports) for rec in records),
    )


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass
class SynthConfig:
    """Everything the generator needs, fully explicit.

    ``levels`` maps a granularity label to per-domain partition specs;
    a spec is an int (equal interval bins, 1-D) or a block shape tuple
    (cell blocks, any dimension). ``weights`` fixes the mixing weights
    per domain; when absent they are drawn from N(prior_mean, prior_var)
    rows indexed by the attribute catalogue. ``noise_var`` is a scalar
    or a {(domain, attribute): variance} mapping.
    """

    domains: tuple[Domain, ...]
    attributes: tuple[str, ...]
    length_scales: tuple[float, ...]
    levels: dict[str, dict[str, object]]
    domain_attributes: dict[str, tuple[str, ...]] | None = None
    weights: dict[str, np.ndarray] | None = None
    prior_mean: np.ndarray | None = None
    prior_var: np.ndarray | None = None
    noise_var: object = 0.0
    value_offset: object = 0.0
    seed: int = 0

    def attrs_of(self, domain_id: str) -> tuple[str, ...]:
        if self.domain_attributes is None:
            return self.attributes
        return self.domain_attributes[domain_id]

    def noise_of(self, domain_id: str, attribute_id: str) -> float:
        if isinstance(self.noise_var, dict):
            return float(self.noise_var[(domain_id, attribute_id)])
        return float(self.noise_var)

    def offset_of(self, attribute_id: str) -> float:
        if isinstance(self.value_offset, dict):
            return float(self.value_offset[attribute_id])
        return float(self.value_offset)


@dataclass
class SynthResult:
    """Fields, noisy datasets per level and noiseless ground truth.

    ``fields[v]`` is the (local attributes, grid points) mixed field;
    ``datasets[label]`` the observable data at that granularity;
    ``truth[label][(v, s)]`` the noiseless aggregated values; the
    matching partitions sit in ``partitions``.
    """

    config: SynthConfig
    weights: dict[str, np.ndarray]
    fields: dict[str, np.ndarray]
    datasets: dict[str, AggregatedDataset]
    truth: dict[str, dict[tuple[str, str], np.ndarray]]
    partitions: dict[str, dict[tuple[str, str], Partition]]


def _build_partition(domain: Domain, attribute_id: str, spec, label: str):
    prefix = f"{label}-{attribute_id}-"
    if isinstance(spec, int):
        return geometry.interval_bins(domain, attribute_id, spec, id_prefix=prefix)
    return geometry.grid_block_partition(domain, attribute_id, spec, id_prefix=prefix)


def synth_generate(cfg: SynthConfig) -> SynthResult:
    """Draw one synthetic world and observe it at every level."""
    L = len(cfg.length_scales)
    if L < 1:
        raise DataError("at least one latent kernel required")
    scales = np.asarray(cfg.length_scales, dtype=float)
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise DataError(f"length scales must be positive and finite, got {scales}")
    # The scales a ModelState holding these would evaluate.
    scales = np.exp(np.log(scales))
    attr_rank = {a: i for i, a in enumerate(cfg.attributes)}
    w_rng = utils.stream(cfg.seed, 0)
    f_rng = utils.stream(cfg.seed, 1)
    n_rng = utils.stream(cfg.seed, 2)

    weights: dict[str, np.ndarray] = {}
    fields: dict[str, np.ndarray] = {}
    for dom in cfg.domains:
        attrs = cfg.attrs_of(dom.id)
        rows = [attr_rank[a] for a in attrs]
        if cfg.weights is not None:
            W = np.asarray(cfg.weights[dom.id], dtype=float)
            if W.shape != (len(attrs), L):
                raise DataError(
                    f"weights for domain {dom.id!r} must be"
                    f" {(len(attrs), L)}, got {W.shape}"
                )
        else:
            pm = (
                np.zeros((len(cfg.attributes), L))
                if cfg.prior_mean is None
                else np.asarray(cfg.prior_mean, dtype=float)
            )
            pv = (
                np.ones((len(cfg.attributes), L))
                if cfg.prior_var is None
                else np.asarray(cfg.prior_var, dtype=float)
            )
            eps = w_rng.standard_normal((len(attrs), L))
            W = pm[rows] + eps * np.sqrt(pv[rows])
        weights[dom.id] = W
        pts = dom.grid.points
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        latents = np.empty((L, pts.shape[0]))
        for l, scale in enumerate(scales):
            gram = se_value(d2, scale)
            chol, _ = chol_with_jitter(gram)
            latents[l] = chol @ f_rng.standard_normal(pts.shape[0])
        offs = np.array([cfg.offset_of(a) for a in attrs])
        fields[dom.id] = offs[:, None] + W @ latents

    datasets: dict[str, AggregatedDataset] = {}
    truth: dict[str, dict] = {}
    partitions: dict[str, dict] = {}
    domain_map = {d.id: d for d in cfg.domains}
    for label, level in cfg.levels.items():
        unknown = set(level) - set(domain_map)
        if unknown:
            raise DataError(
                f"level {label!r} references unknown domains {sorted(unknown)}"
            )
        records = []
        truth[label] = {}
        partitions[label] = {}
        for dom in cfg.domains:
            if dom.id not in level:
                continue
            spec = level[dom.id]
            attrs = cfg.attrs_of(dom.id)
            for a_idx, a in enumerate(attrs):
                part = _build_partition(dom, a, spec, label)
                pooled = np.empty(len(part.supports))
                for n, support in enumerate(part.supports):
                    w = geometry.weight_vector(support, dom.grid, geometry.AVERAGE)
                    members = geometry.membership(support, dom.grid)
                    pooled[n] = w @ fields[dom.id][a_idx, members]
                sigma = cfg.noise_of(dom.id, a)
                noisy = pooled + math.sqrt(sigma) * n_rng.standard_normal(
                    pooled.size
                )
                truth[label][(dom.id, a)] = pooled
                partitions[label][(dom.id, a)] = part
                records.append(
                    DatasetRecord(
                        domain_id=dom.id,
                        attribute_id=a,
                        partition=part,
                        rules=uniform_rules(part),
                        values=noisy,
                    )
                )
        datasets[label] = AggregatedDataset(
            {d: domain_map[d] for d in level}, cfg.attributes, records
        )
    return SynthResult(
        config=cfg,
        weights=weights,
        fields=fields,
        datasets=datasets,
        truth=truth,
        partitions=partitions,
    )


# ---------------------------------------------------------------------------
# Experiment harness


@dataclass(frozen=True)
class ExperimentSpec:
    """One refinement experiment: train coarse, score on the fine level.

    ``method`` picks the model family; the transfer variant trains on
    every domain (target at ``train_level``, the rest at ``aux_level``),
    all others see the target domain only. ``num_latents`` is an int or
    the string ``"cv"``.
    """

    target_domain: str
    target_attribute: str
    method: str
    train_level: str
    test_level: str
    aux_level: str | None = None
    num_latents: object = 2
    seeds: tuple[int, ...] = (0,)
    n_pred_samples: int = 100
    cv_candidates: tuple[int, ...] | None = None
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise DataError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        object.__setattr__(self, "num_latents", latent_request(self.num_latents))
        if any(seed < 0 for seed in self.seeds):
            raise DataError(f"seeds must be >= 0, got {list(self.seeds)}")
        if self.n_pred_samples < 1:
            raise DataError(f"n_pred_samples must be >= 1, got {self.n_pred_samples}")


@dataclass
class ExperimentReport:
    """Aggregated outcome over seeds; failures recorded, never hidden.

    ``coregionalization`` holds, per domain, the seed-averaged absolute
    weight gram |M Mᵀ| of the fitted variational means, in normalized
    units; when the training data spans several domains these are the
    per-attribute pooled units of :class:`~aggmogp.model.AggregatedDataset`,
    not per-series standard deviations. ``mape_se`` is
    the standard error across seeds and is 0 for a single seed.
    ``train_seconds`` stays out of :meth:`to_dict` so serialized reports
    depend on seeds alone, never on the clock.
    """

    spec: ExperimentSpec
    seeds_run: tuple[int, ...]
    mape_per_seed: tuple[float, ...]
    mape_mean: float | None
    mape_se: float | None
    chosen_latents: tuple[int, ...]
    train_seconds: tuple[float, ...]
    coregionalization: dict[str, np.ndarray]
    failures: tuple[tuple[int, str], ...]

    def to_dict(self) -> dict:
        return {
            "method": self.spec.method,
            "target": [self.spec.target_domain, self.spec.target_attribute],
            "train_level": self.spec.train_level,
            "test_level": self.spec.test_level,
            "seeds_run": list(self.seeds_run),
            "mape_per_seed": list(self.mape_per_seed),
            "mape_mean": self.mape_mean,
            "mape_se": self.mape_se,
            "chosen_latents": list(self.chosen_latents),
            "coregionalization": {
                v: m.tolist() for v, m in self.coregionalization.items()
            },
            "failures": [[s, msg] for s, msg in self.failures],
        }


def _training_dataset(spec: ExperimentSpec, res: SynthResult) -> AggregatedDataset:
    cfg = res.config
    train_ds = res.datasets.get(spec.train_level)
    if train_ds is None:
        raise DataError(f"no level {spec.train_level!r} in the generated data")
    records = [r for r in train_ds.records if r.domain_id == spec.target_domain]
    if not any(r.attribute_id == spec.target_attribute for r in records):
        raise DataError(
            f"target pair ({spec.target_domain}, {spec.target_attribute}) absent"
            f" from level {spec.train_level!r}"
        )
    domains = {spec.target_domain: train_ds.domains[spec.target_domain]}
    if spec.method == "amogp-trans":
        aux_label = spec.aux_level or spec.train_level
        aux_ds = res.datasets.get(aux_label)
        if aux_ds is None:
            raise DataError(f"no level {aux_label!r} in the generated data")
        for r in aux_ds.records:
            if r.domain_id != spec.target_domain:
                records.append(r)
                domains[r.domain_id] = aux_ds.domains[r.domain_id]
    return AggregatedDataset(domains, cfg.attributes, records)


def latent_request(value, what: str = "num_latents"):
    """A requested latent count: an integer >= 1, or ``"cv"`` for leave-one-out."""
    if value == "cv":
        return "cv"
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = 0
    if count < 1:
        raise DataError(f"{what} takes an integer >= 1 or 'cv', got {value!r}")
    return count


def choose_latents(
    view, method, requested, config, candidates, n_pred_samples, target=None
) -> tuple[int, CVResult | None]:
    """Latent count ``method`` trains with on ``view``, and the CV behind it.

    The single-series baseline always has one latent process; otherwise
    an integer ``requested`` (see :func:`latent_request`) is used as
    given and ``"cv"`` runs :func:`cv_select_L` on the view with
    ``candidates``, ``config``, ``target`` and ``n_pred_samples``.
    """
    if method == "agp":
        return 1, None
    if requested != "cv":
        return requested, None
    result = cv_select_L(
        view, candidates, config, target=target, n_pred_samples=n_pred_samples
    )
    return result.chosen, result


def run_experiment(spec: ExperimentSpec, synth_cfg: SynthConfig) -> ExperimentReport:
    """Train per the spec on generated data and score the fine level.

    Every seed regenerates the world, so the seed-wise spread covers
    generator, initialization and training randomness together. A seed
    that fails lands in ``failures`` and the run continues.
    """
    seeds_run = []
    mapes = []
    chosen = []
    times = []
    failures = []
    coreg_sums: dict[str, np.ndarray] = {}
    coreg_counts: dict[str, int] = {}
    target = (spec.target_domain, spec.target_attribute)
    for seed in spec.seeds:
        try:
            res = synth_generate(replace(synth_cfg, seed=seed))
            train = _training_dataset(spec, res)
            config = replace(spec.train_config, seed=seed)
            view = baselines.training_view(train, spec.method, *target)
            L, _ = choose_latents(
                view, spec.method, spec.num_latents, config, spec.cv_candidates,
                spec.n_pred_samples, target,
            )
            state, trace = baselines.fit_view(view, L, config, seed)
            test_part = res.partitions[spec.test_level][target]
            pred = predict_supports(
                test_part, state, view, spec.n_pred_samples, seed
            )
            values = view.denormalize(*target, pred.values)
            score = mape(res.truth[spec.test_level][target], values)
        except AggmogpError as e:
            failures.append((seed, f"{type(e).__name__}: {e}"))
            continue
        seeds_run.append(seed)
        mapes.append(score)
        chosen.append(L)
        times.append(trace.wall_time)
        for v in state.domain_ids:
            M = state.q_mean[v]
            gram = np.abs(M @ M.T)
            if v in coreg_sums:
                coreg_sums[v] += gram
                coreg_counts[v] += 1
            else:
                coreg_sums[v] = gram.copy()
                coreg_counts[v] = 1
    if mapes:
        mean = float(np.mean(mapes))
        se = (
            float(np.std(mapes, ddof=1) / math.sqrt(len(mapes)))
            if len(mapes) > 1
            else 0.0
        )
    else:
        mean = None
        se = None
    coreg = {v: coreg_sums[v] / coreg_counts[v] for v in coreg_sums}
    return ExperimentReport(
        spec=spec,
        seeds_run=tuple(seeds_run),
        mape_per_seed=tuple(mapes),
        mape_mean=mean,
        mape_se=se,
        chosen_latents=tuple(chosen),
        train_seconds=tuple(times),
        coregionalization=coreg,
        failures=tuple(failures),
    )
