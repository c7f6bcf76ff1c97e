"""Reference models sharing the full training pipeline.

Both baselines are restrictions of the main model rather than separate
implementations, so their numbers are directly comparable:

* the single-series baseline fits one (domain, attribute) record alone
  with a single latent process, discarding multi-output coupling and
  transfer;
* the point-observation baseline keeps the multi-output coupling of one
  domain but collapses every support to a point observation at its
  centroid, discarding the aggregation structure.

:func:`training_view` is the one rule for which records each method
(baseline or main model) trains on; fitting, refinement from a saved
model and the experiment harness all rebuild their data through it.
:func:`fit_view` trains on a view and returns ``(state, trace)``, like
:func:`~aggmogp.inference.fit`; the latent count comes from the caller
(see :func:`~aggmogp.evaluation.choose_latents`, which gives the
single-series baseline one latent process).
"""

from __future__ import annotations

from .errors import DataError
from .inference import TrainConfig, TrainTrace, fit
from .model import (
    AggregatedDataset,
    ModelState,
    init_state,
    override_length_scales,
)

METHODS = ("agp", "slfm", "amogp", "amogp-trans")


def restrict_to_series(
    dataset: AggregatedDataset, domain_id: str, attribute_id: str
) -> AggregatedDataset:
    """Single-record view of one (domain, attribute) pair."""
    rec = dataset.record_for(domain_id, attribute_id)
    return AggregatedDataset(
        {domain_id: dataset.domains[domain_id]},
        (attribute_id,),
        (rec,),
        transforms={rec.key: dataset.transforms[rec.key]},
    )


def restrict_to_domain(
    dataset: AggregatedDataset, domain_id: str
) -> AggregatedDataset:
    """Single-domain view keeping all of that domain's records.

    The attribute catalogue shrinks to the attributes the domain
    observes, so weight priors cover exactly the local series.
    """
    recs = [r for r in dataset.records if r.domain_id == domain_id]
    if not recs:
        raise DataError(f"no records on domain {domain_id!r}")
    attrs = tuple(a for a in dataset.attributes if any(r.attribute_id == a for r in recs))
    return AggregatedDataset(
        {domain_id: dataset.domains[domain_id]},
        attrs,
        recs,
        transforms={r.key: dataset.transforms[r.key] for r in recs},
    )


def training_view(
    dataset: AggregatedDataset,
    method: str,
    domain_id: str | None = None,
    attribute_id: str | None = None,
) -> AggregatedDataset:
    """The records a method trains on; the one place that rule lives.

    * ``agp``: one (domain, attribute) series;
    * ``slfm``: one domain, recast as centroid point observations;
    * ``amogp``: one domain;
    * ``amogp-trans``: every domain.

    Without selectors the dataset must already hold exactly one series
    (``agp``) or records on one domain (``slfm``, ``amogp``).
    """
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "amogp-trans":
        return dataset
    if method == "agp":
        if domain_id is None or attribute_id is None:
            if len(dataset.records) != 1:
                raise DataError(
                    "single-series baseline needs exactly one record; got"
                    f" {len(dataset.records)} (pass a domain and attribute to"
                    " select one)"
                )
            domain_id, attribute_id = dataset.records[0].key
        return restrict_to_series(dataset, domain_id, attribute_id)
    if domain_id is None:
        order = dataset.domain_order()
        if len(order) != 1:
            raise DataError(
                f"method {method} is single-domain; got records on"
                f" {len(order)} domains (pass a domain id to select one, or"
                " use amogp-trans for cross-domain training)"
            )
        domain_id = order[0]
    view = restrict_to_domain(dataset, domain_id)
    return view.as_point_observations() if method == "slfm" else view


def fit_view(
    view: AggregatedDataset,
    num_latents: int,
    config: TrainConfig | None = None,
    init_seed: int = 0,
    init_length_scales=None,
) -> tuple[ModelState, TrainTrace]:
    """Initialize and train on a :func:`training_view`: ``(state, trace)``.

    The view keeps the parent's normalization transforms, so predictions
    from the state denormalize through it into the parent's units.
    """
    init = init_state(view, num_latents, seed=init_seed)
    if init_length_scales is not None:
        override_length_scales(init, init_length_scales)
    return fit(view, config or TrainConfig(), init)
