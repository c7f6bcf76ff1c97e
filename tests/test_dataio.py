"""Document round trips, hashing, version gates and CSV exports."""

import glob
import json
import os

import numpy as np
import pytest
from conftest import (
    cells_support,
    interval_support,
    single_series_dataset,
    square_grid_domain,
    two_series_instance,
    unit_grid_domain,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aggmogp.dataio import (
    FORMAT_VERSION,
    ConfigBundle,
    canonical_json,
    check_model_compatible,
    dataset_to_doc,
    load_config_file,
    load_dataset_file,
    load_model_file,
    model_to_doc,
    read_csv_columns,
    sha256_of,
    write_grid_csv,
    write_json,
    write_support_csv,
    write_trace_csv,
)
from aggmogp.errors import DataError, IncompatibleModel
from aggmogp.evaluation import ExperimentSpec, SynthConfig
from aggmogp.geometry import (
    AggregationRule,
    Partition,
    grid_block_partition,
    interval_bins,
    membership,
)
from aggmogp.inference import TrainConfig, fit
from aggmogp.model import AggregatedDataset, DatasetRecord, init_state, uniform_rules


class TestCanonicalHash:
    def test_key_order_does_not_matter(self):
        a = {"b": 1, "a": [1.5, 2.5]}
        b = {"a": [1.5, 2.5], "b": 1}
        assert sha256_of(a) == sha256_of(b)

    def test_value_changes_the_hash(self):
        assert sha256_of({"a": 1}) != sha256_of({"a": 2})

    def test_canonical_form_has_no_whitespace(self):
        text = canonical_json({"a": [1, 2], "b": "x"})
        assert " " not in text and "\n" not in text

    def test_formatting_of_the_file_does_not_matter(self, tmp_path):
        # Hashes are computed over the parsed document, so indentation
        # and key order in the file cannot break compatibility checks.
        _, dataset, _ = two_series_instance()
        doc = dataset_to_doc(dataset)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        p1.write_text(json.dumps(doc, indent=4, sort_keys=True))
        p2.write_text(json.dumps(doc, separators=(",", ":")))
        assert load_dataset_file(str(p1)).sha == load_dataset_file(str(p2)).sha


class TestDatasetRoundTrip:
    def test_cellset_dataset(self, tmp_path):
        _, dataset, recs = two_series_instance()
        path = str(tmp_path / "data.json")
        write_json(path, dataset_to_doc(dataset))
        bundle = load_dataset_file(path)
        loaded = bundle.dataset
        assert loaded.attributes == dataset.attributes
        assert set(loaded.domains) == {"d0"}
        assert len(loaded.records) == 2
        for orig, back in zip(recs, loaded.records):
            assert back.key == orig.key
            np.testing.assert_array_equal(back.values, orig.values)
            assert len(back.partition.supports) == len(orig.partition.supports)
            for so, sb in zip(orig.partition.supports, back.partition.supports):
                assert so.id == sb.id
                assert so.body == sb.body

    def test_interval_dataset(self, tmp_path):
        domain = unit_grid_domain(16, 0.0, 4.0)
        sup = [
            interval_support(0.0, 1.5, "i0"),
            interval_support(1.5, 4.0, "i1"),
        ]
        dataset = single_series_dataset(domain, sup, [0.25, -1.5])
        path = str(tmp_path / "data.json")
        write_json(path, dataset_to_doc(dataset))
        back = load_dataset_file(path).dataset
        s0 = back.records[0].partition.supports[0]
        assert (s0.body.lo, s0.body.hi) == (0.0, 1.5)

    def test_resave_is_byte_identical(self, tmp_path):
        _, dataset, _ = two_series_instance()
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        write_json(p1, dataset_to_doc(dataset))
        write_json(p2, dataset_to_doc(load_dataset_file(p1).dataset))
        with open(p1, "rb") as fa, open(p2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_custom_rules_round_trip(self, tmp_path):
        domain = unit_grid_domain(8, 0.0, 2.0)
        sup = [cells_support([0, 1, 2], "c0"), cells_support([5, 6], "c1")]
        rules = (
            AggregationRule(AggregationRule.CUSTOM, (0.5, 0.25, 0.25)),
            AggregationRule(AggregationRule.CUSTOM, (0.9, 0.1)),
        )
        dataset = single_series_dataset(domain, sup, [1.0, 2.0], rules=rules)
        path = str(tmp_path / "data.json")
        write_json(path, dataset_to_doc(dataset))
        back = load_dataset_file(path).dataset.records[0]
        assert back.rules[0].kind == AggregationRule.CUSTOM
        assert back.rules[0].weights == (0.5, 0.25, 0.25)
        assert back.rules[1].weights == (0.9, 0.1)

    def test_partition_registry_round_trip(self, tmp_path):
        domain, dataset, _ = two_series_instance()
        from aggmogp.geometry import AVERAGE, grid_block_partition

        part = grid_block_partition(domain, "a0", (16,), id_prefix="t")
        rules = tuple(AVERAGE for _ in part.supports)
        path = str(tmp_path / "data.json")
        write_json(path, dataset_to_doc(dataset, partitions={"targets": (part, rules)}))
        bundle = load_dataset_file(path)
        assert "targets" in bundle.partitions
        got, got_rules = bundle.partitions["targets"]
        assert len(got.supports) == 4
        assert got.attribute_id == "a0"
        assert all(r.kind == AggregationRule.AVERAGE for r in got_rules)

    @pytest.mark.parametrize("in_registry", [False, True])
    @pytest.mark.parametrize(
        "rules",
        [
            (
                AggregationRule(AggregationRule.AVERAGE),
                AggregationRule(AggregationRule.SUM),
            ),
            (
                AggregationRule(AggregationRule.CUSTOM, (0.5, 0.25, 0.25)),
                AggregationRule(AggregationRule.AVERAGE),
            ),
        ],
        ids=["average-sum", "custom-average"],
    )
    def test_mixed_kind_partition_refused(self, in_registry, rules):
        # A document spells one aggregation kind per partition, so a
        # mixed partition must not be saved as its first rule's kind.
        domain = unit_grid_domain(8, 0.0, 2.0)
        sup = [cells_support([0, 1, 2], "c0"), cells_support([5, 6], "c1")]
        if in_registry:
            dataset = single_series_dataset(domain, sup, [1.0, 2.0])
            part = dataset.records[0].partition
            with pytest.raises(DataError, match="mixes aggregation kinds"):
                dataset_to_doc(dataset, partitions={"targets": (part, rules)})
        else:
            dataset = single_series_dataset(domain, sup, [1.0, 2.0], rules=rules)
            with pytest.raises(DataError, match="mixes aggregation kinds"):
                dataset_to_doc(dataset)

    def test_series_id_registers_its_partition(self, tmp_path):
        _, dataset, _ = two_series_instance()
        doc = dataset_to_doc(dataset)
        doc["datasets"][0]["id"] = "train-a0"
        path = str(tmp_path / "data.json")
        write_json(path, doc)
        bundle = load_dataset_file(path)
        part, _ = bundle.partitions["train-a0"]
        assert part.attribute_id == "a0"
        assert len(part.supports) == 8

    def test_unknown_series_domain(self, tmp_path):
        _, dataset, _ = two_series_instance()
        doc = dataset_to_doc(dataset)
        doc["datasets"][0]["domain_id"] = "ghost"
        path = str(tmp_path / "data.json")
        write_json(path, doc)
        with pytest.raises(DataError):
            load_dataset_file(path)

    @pytest.mark.parametrize("dim, ok", [(1.0, True), (1.5, False), (2, False)])
    def test_declared_dimension_must_match_exactly(self, tmp_path, dim, ok):
        _, dataset, _ = two_series_instance()
        doc = dataset_to_doc(dataset)
        doc["domains"][0]["dimension"] = dim
        path = str(tmp_path / "data.json")
        write_json(path, doc)
        if ok:
            assert load_dataset_file(path).dataset.domains["d0"].ndim == 1
        else:
            with pytest.raises(DataError, match="data.json"):
                load_dataset_file(path)

    def test_support_needs_exactly_one_body(self, tmp_path):
        _, dataset, _ = two_series_instance()
        doc = dataset_to_doc(dataset)
        doc["datasets"][0]["supports"][0]["interval"] = [0.0, 1.0]
        path = str(tmp_path / "data.json")
        write_json(path, doc)
        with pytest.raises(DataError):
            load_dataset_file(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
KINDS = (AggregationRule.AVERAGE, AggregationRule.SUM, AggregationRule.CUSTOM)


@st.composite
def tiling(draw, domain, attribute_id, prefix):
    """Interval bins (1-D) or cell blocks (2-D) over the whole domain,
    all with one drawn aggregation kind; custom weights per member."""
    if domain.ndim == 1:
        n = domain.grid.shape[0]
        bins = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        part = interval_bins(domain, attribute_id, bins, id_prefix=prefix)
    else:
        block = tuple(draw(st.integers(1, n)) for n in domain.grid.shape)
        part = grid_block_partition(domain, attribute_id, block, id_prefix=prefix)
    kind = draw(st.sampled_from(KINDS))
    if kind != AggregationRule.CUSTOM:
        return part, tuple(AggregationRule(kind) for _ in part.supports)
    rules = []
    for support in part.supports:
        m = membership(support, domain.grid).size
        weights = draw(st.lists(FINITE, min_size=m, max_size=m))
        rules.append(AggregationRule(kind, tuple(weights)))
    return part, tuple(rules)


@st.composite
def documents(draw):
    """A dataset of 1-D and 2-D domains plus a partition registry."""
    domains = {}
    dims = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=2))
    for k, ndim in enumerate(dims):
        lo = draw(st.floats(-1e3, 1e3))
        hi = lo + draw(st.floats(0.1, 1e3))
        make = unit_grid_domain if ndim == 1 else square_grid_domain
        domains[f"d{k}"] = make(draw(st.integers(1, 6)), lo, hi, domain_id=f"d{k}")
    attributes = ("a0", "a1")
    records = []
    for v, dom in domains.items():
        for a in draw(st.sampled_from([("a0",), ("a1",), attributes])):
            part, rules = draw(tiling(dom, a, f"{v}-{a}-"))
            n = len(part.supports)
            records.append(
                DatasetRecord(
                    domain_id=v,
                    attribute_id=a,
                    partition=part,
                    rules=rules,
                    values=draw(st.lists(FINITE, min_size=n, max_size=n)),
                    label=draw(st.none() | st.text(max_size=4)),
                )
            )
    registry = {}
    for i in range(draw(st.integers(0, 2))):
        v = draw(st.sampled_from(sorted(domains)))
        registry[f"r{i}"] = draw(tiling(domains[v], "a0", f"r{i}-"))
    return AggregatedDataset(domains, attributes, records), registry


def extreme_world(*series):
    """Attribute a0 observed once per domain, one cell per value: the
    explicit examples that put every run at the float limit, whichever
    examples the derandomized search draws in that collection."""
    domains, records = {}, []
    for k, values in enumerate(series):
        dom = unit_grid_domain(len(values), domain_id=f"d{k}")
        part = grid_block_partition(dom, "a0", (1,), id_prefix=f"d{k}-")
        domains[dom.id] = dom
        records.append(
            DatasetRecord(dom.id, "a0", part, uniform_rules(part), np.array(values))
        )
    return AggregatedDataset(domains, ("a0", "a1"), records), {}


class TestDatasetRoundTripProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(world=documents())
    @example(world=extreme_world([-1.79e308, 1.79e308, 1.79e308]))
    @example(world=extreme_world([1.7976931348623157e308] * 2))
    @example(world=extreme_world([1.79e308, -1.79e308], [-1.7976931348623157e308, 1.0]))
    def test_resave_is_byte_stable(self, tmp_path_factory, world):
        dataset, registry = world
        tmp = tmp_path_factory.mktemp("doc")
        first, second = str(tmp / "a.json"), str(tmp / "b.json")
        write_json(first, dataset_to_doc(dataset, partitions=registry))
        bundle = load_dataset_file(first)
        write_json(second, dataset_to_doc(bundle.dataset, partitions=bundle.partitions))
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
        assert load_dataset_file(second).sha == bundle.sha


class TestVersionGate:
    def test_missing_version(self, tmp_path):
        path = str(tmp_path / "bad.json")
        write_json(path, {"domains": []})
        with pytest.raises(DataError, match="format_version"):
            load_dataset_file(path)

    def test_newer_version_refused(self, tmp_path):
        _, dataset, _ = two_series_instance()
        doc = dataset_to_doc(dataset)
        doc["format_version"] = FORMAT_VERSION + 1
        path = str(tmp_path / "new.json")
        write_json(path, doc)
        with pytest.raises(DataError, match="newer"):
            load_dataset_file(path)

    def test_invalid_version_values(self, tmp_path):
        for bad in (0, "one", None):
            path = str(tmp_path / "v.json")
            write_json(path, {"format_version": bad})
            with pytest.raises(DataError):
                load_config_file(path)

    def test_non_object_document(self, tmp_path):
        path = str(tmp_path / "arr.json")
        with open(path, "w") as fh:
            json.dump([1, 2, 3], fh)
        with pytest.raises(DataError):
            load_dataset_file(path)

    def test_garbage_json(self, tmp_path):
        path = str(tmp_path / "garbage.json")
        with open(path, "w") as fh:
            fh.write("{nope")
        with pytest.raises(DataError):
            load_model_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset_file(str(tmp_path / "absent.json"))


class TestConfigFile:
    def test_full_document(self, tmp_path):
        doc = {
            "format_version": 1,
            "model": {
                "num_latents": 3,
                "length_scales": [0.5, 1.0, 2.0],
                "cv_candidates": [1, 2, 3],
            },
            "training": {"learning_rate": 0.005, "max_iters": 123},
            "prediction": {"n_samples": 64},
        }
        path = str(tmp_path / "config.json")
        write_json(path, doc)
        cfg = load_config_file(path)
        assert cfg.num_latents == 3
        assert cfg.init_length_scales == (0.5, 1.0, 2.0)
        assert cfg.training.learning_rate == 0.005
        assert cfg.training.max_iters == 123
        assert cfg.n_pred_samples == 64
        assert cfg.cv_candidates == (1, 2, 3)
        assert cfg.training_with_seed(9).seed == 9

    def test_defaults(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(path, {"format_version": 1})
        cfg = load_config_file(path)
        assert cfg.num_latents == 1
        assert cfg.init_length_scales is None
        assert cfg.training == TrainConfig()
        assert cfg.n_pred_samples == 100
        assert cfg.cv_candidates is None

    def test_cv_keyword(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(
            path, {"format_version": 1, "model": {"num_latents": "cv"}}
        )
        assert load_config_file(path).num_latents == "cv"

    def test_unknown_training_key_is_named(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(
            path,
            {"format_version": 1, "training": {"learning_rat": 0.1}},
        )
        with pytest.raises(DataError, match="learning_rat"):
            load_config_file(path)

    def test_synth_and_experiment_sections(self, tmp_path):
        synth = {
            "domains": [
                {
                    "id": "d0",
                    "extent": [[0.0, 1.0]],
                    "grid": {"origin": [0.125], "cell_size": [0.25], "shape": [4]},
                }
            ],
            "attributes": ["a0", "a1"],
            "length_scales": [0.5],
            "levels": {"coarse": {"d0": 2}, "blocks": {"d0": [2]}},
            "noise_var": {"d0": {"a0": 0.1, "a1": 0.2}},
            "value_offset": {"a0": 5.0, "a1": 8.0},
            "weights": {"d0": [[1.0], [0.5]]},
            "domain_attributes": {"d0": ["a0", "a1"]},
            "seed": 3,
        }
        experiment = {
            "target_domain": "d0",
            "target_attribute": "a0",
            "method": "not-checked-here",
            "train_level": "coarse",
            "test_level": "blocks",
            "num_latents": "cv",
            "seeds": [1, 2],
            "cv_candidates": [1, 2],
        }
        path = str(tmp_path / "config.json")
        write_json(
            path,
            {
                "format_version": 1,
                "training": {"max_iters": 7},
                "synth": synth,
                "experiment": experiment,
            },
        )
        cfg = load_config_file(path)
        assert cfg.synth == SynthConfig(
            domains=cfg.synth.domains,
            attributes=("a0", "a1"),
            length_scales=(0.5,),
            levels={"coarse": {"d0": 2}, "blocks": {"d0": (2,)}},
            domain_attributes={"d0": ("a0", "a1")},
            weights=cfg.synth.weights,
            noise_var={("d0", "a0"): 0.1, ("d0", "a1"): 0.2},
            value_offset={"a0": 5.0, "a1": 8.0},
            seed=3,
        )
        assert [d.id for d in cfg.synth.domains] == ["d0"]
        np.testing.assert_array_equal(cfg.synth.weights["d0"], [[1.0], [0.5]])
        assert cfg.experiment == dict(
            target_domain="d0",
            target_attribute="a0",
            method="not-checked-here",
            train_level="coarse",
            test_level="blocks",
            aux_level=None,
            num_latents="cv",
            seeds=(1, 2),
            n_pred_samples=100,
            cv_candidates=(1, 2),
            train_config=TrainConfig(max_iters=7),
        )
        spec = ExperimentSpec(**{**cfg.experiment, "method": "amogp"})
        assert spec.num_latents == "cv"

    def test_sections_absent(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(path, {"format_version": 1})
        cfg = load_config_file(path)
        assert cfg.synth is None
        assert cfg.experiment is None

    def test_training_keys_follow_train_config(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(
            path,
            {
                "format_version": 1,
                "training": {
                    "learning_rate": 0.01,
                    "max_iters": 9,
                    "num_elbo_samples": 2,
                    "convergence_tol": 0.0,
                    "convergence_window": 3,
                    "log_every": 4,
                },
            },
        )
        assert load_config_file(path).training == TrainConfig(
            0.01, 9, 2, 0, 0.0, 3, 4
        )
        write_json(path, {"format_version": 1, "training": {"seed": 1}})
        with pytest.raises(DataError, match="seed"):
            load_config_file(path)

    def test_invalid_values(self, tmp_path):
        synth = {
            "domains": [
                {
                    "id": "d0",
                    "extent": [[0.0, 1.0]],
                    "grid": {"origin": [0.125], "cell_size": [0.25], "shape": [4]},
                }
            ],
            "attributes": ["a0"],
            "length_scales": [0.5],
            "levels": {"coarse": {"d0": 2}},
        }
        experiment = {
            "target_domain": "d0",
            "target_attribute": "a0",
            "train_level": "coarse",
            "test_level": "coarse",
        }
        path = str(tmp_path / "config.json")
        # Each section is valid as it stands, and with integral floats.
        write_json(
            path,
            {
                "format_version": 1,
                "model": {"num_latents": 2.0},
                "prediction": {"n_samples": 3.0},
                "synth": {**synth, "seed": 1.0, "levels": {"coarse": {"d0": 2.0}}},
                "experiment": {**experiment, "n_pred_samples": 4.0},
            },
        )
        cfg = load_config_file(path)
        assert (cfg.num_latents, cfg.n_pred_samples, cfg.synth.seed) == (2, 3, 1)
        assert cfg.synth.levels == {"coarse": {"d0": 2}}
        assert type(cfg.synth.levels["coarse"]["d0"]) is int
        assert cfg.experiment["n_pred_samples"] == 4
        for doc in (
            {"model": {"num_latents": 0}},
            {"model": {"length_scales": [-1.0]}},
            {"model": {"length_scales": [float("inf")]}},
            {"prediction": {"n_samples": 0}},
            # Counts that int() would truncate.
            {"model": {"num_latents": 2.5}},
            {"prediction": {"n_samples": 2.5}},
            {"synth": {**synth, "seed": 1.5}},
            {"synth": {**synth, "levels": {"coarse": {"d0": 2.5}}}},
            # Booleans are not counts.
            {"synth": {**synth, "seed": True}},
            {"synth": {**synth, "levels": {"coarse": {"d0": True}}}},
            {"model": {"num_latents": True}},
            {"prediction": {"n_samples": False}},
            {"experiment": {**experiment, "n_pred_samples": True}},
            {"experiment": {**experiment, "n_pred_samples": 2.5}},
            {"experiment": {**experiment, "num_latents": 1.5}},
        ):
            write_json(path, {"format_version": 1, **doc})
            with pytest.raises(DataError, match="config.json"):
                load_config_file(path)


class TestModelRoundTrip:
    def make_bundle_doc(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=4)
        return state, dataset, model_to_doc(
            state,
            dataset.transforms,
            method="amogp",
            seed=4,
            dataset_sha="ds-hash",
            config_sha="cfg-hash",
            trace=None,
        )

    def test_state_round_trips_bit_exact(self, tmp_path):
        state, dataset, doc = self.make_bundle_doc()
        path = str(tmp_path / "model.json")
        write_json(path, doc)
        bundle = load_model_file(path)
        assert np.array_equal(bundle.state.pack(), state.pack())
        assert bundle.state.attributes == state.attributes
        assert bundle.state.domain_attributes == state.domain_attributes
        assert bundle.transforms == dataset.transforms
        assert bundle.method == "amogp"
        assert bundle.seed == 4
        assert bundle.dataset_sha == "ds-hash"

    def test_rewrite_is_byte_identical(self, tmp_path):
        state, dataset, doc = self.make_bundle_doc()
        p1 = str(tmp_path / "m1.json")
        p2 = str(tmp_path / "m2.json")
        write_json(p1, doc)
        bundle = load_model_file(p1)
        write_json(
            p2,
            model_to_doc(
                bundle.state,
                bundle.transforms,
                bundle.method,
                bundle.seed,
                bundle.dataset_sha,
                bundle.config_sha,
                None,
            ),
        )
        with open(p1, "rb") as fa, open(p2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_trace_summary_carries_no_timing(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 1, seed=0)
        fitted, trace = fit(dataset, TrainConfig(max_iters=3, seed=0), state)
        doc = model_to_doc(
            fitted, dataset.transforms, "amogp", 0, "x", "y", trace
        )
        assert doc["trace"]["iterations"] == 3
        assert "wall_time" not in doc["trace"]
        assert not any("time" in k for k in doc["trace"])

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        write_json(path, {"format_version": 1, "kind": "something-else"})
        with pytest.raises(DataError, match="not a model"):
            load_model_file(path)

    def test_missing_field_is_loud(self, tmp_path):
        _, _, doc = self.make_bundle_doc()
        del doc["q_mean"]
        path = str(tmp_path / "model.json")
        write_json(path, doc)
        with pytest.raises(DataError, match="missing model field"):
            load_model_file(path)

    @pytest.mark.parametrize("field", ["num_latents", "seed"])
    def test_non_integral_count_names_the_file(self, tmp_path, field):
        _, _, doc = self.make_bundle_doc()
        path = str(tmp_path / "model.json")
        write_json(path, {**doc, field: float(doc[field])})
        bundle = load_model_file(path)
        assert (bundle.state.num_latents, bundle.seed) == (2, 4)
        write_json(path, {**doc, field: doc[field] + 0.7})
        with pytest.raises(DataError, match="model.json"):
            load_model_file(path)

    def test_compatibility_check(self, tmp_path):
        _, _, doc = self.make_bundle_doc()
        path = str(tmp_path / "model.json")
        write_json(path, doc)
        bundle = load_model_file(path)
        check_model_compatible(bundle, "ds-hash")
        with pytest.raises(IncompatibleModel):
            check_model_compatible(bundle, "other-hash")


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"format_version": 1})
        leftovers = [
            p for p in glob.glob(str(tmp_path / "*")) if p != path
        ]
        assert leftovers == []
        assert os.path.exists(path)

    def test_overwrite_replaces_content(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"format_version": 1, "x": 1})
        write_json(path, {"format_version": 1, "x": 2})
        with open(path) as fh:
            assert json.load(fh)["x"] == 2


class TestCsv:
    def test_support_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "pred.csv")
        values = np.array([1.0 / 3.0, -2.5e-7, 1e20])
        variances = np.array([0.1, 0.2, 0.3])
        write_support_csv(path, ["s0", "s1", "s2"], values, variances)
        header, data = read_csv_columns(path)
        assert header == ["value", "variance"]
        np.testing.assert_array_equal(data[:, 0], values)
        np.testing.assert_array_equal(data[:, 1], variances)

    def test_grid_csv_two_dimensional(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        query = np.array([[0.5, 1.5], [2.5, 3.5]])
        write_grid_csv(path, query, [1.0, 2.0], [0.1, 0.2])
        header, data = read_csv_columns(path)
        assert header == ["x0", "x1", "mean", "variance"]
        np.testing.assert_array_equal(data[:, :2], query)

    def test_trace_csv_round_trip(self, tmp_path):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 1, seed=0)
        _, trace = fit(dataset, TrainConfig(max_iters=4, seed=0), state)
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, trace)
        header, data = read_csv_columns(path)
        assert header == ["iteration", "elbo", "learning_rate"]
        assert data.shape == (4, 3)
        np.testing.assert_array_equal(data[:, 1], trace.elbo)

    def test_ragged_rows_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="ragged"):
            read_csv_columns(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        with open(path, "w") as fh:
            fh.write("")
        with pytest.raises(DataError, match="empty"):
            read_csv_columns(path)
