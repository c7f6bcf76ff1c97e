"""Tests of the benchmark itself, on shrunken budgets of its workloads."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import aggmogp.inference as inference
import aggmogp.model as model
import aggmogp.prediction as prediction
from bench import layers, run, tracing, worlds, workloads
from bench.host import HostClock

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def tiny(name, **budgets):
    small = dict(fit_iters=2, draws=2, setup_repeats=1)
    if workloads.WORKLOADS[name].cv_candidates:
        small.update(cv_candidates=(1,), cv_iters=2, cv_draws=2)
    small.update(budgets)
    return replace(workloads.WORKLOADS[name], **small)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name].make_world
    first, again, other = make(0), make(0), make(1)
    assert worlds.fingerprint(first) == worlds.fingerprint(again)
    assert worlds.fingerprint(first) != worlds.fingerprint(other)
    for a, b in zip(first.records, again.records):
        assert np.array_equal(a.values, b.values)


def test_fingerprint_sees_every_value():
    world = worlds.transfer_world(0)
    values = world.records[-1].values.copy()
    values[-1] = np.nextafter(values[-1], np.inf)
    nudged = replace(
        world,
        records=world.records[:-1] + (replace(world.records[-1], values=values),),
    )
    assert worlds.fingerprint(nudged) != worlds.fingerprint(world)


def test_world_sizes_match_the_workload_definitions():
    transfer = worlds.transfer_world(0)
    assert sum(len(r.values) for r in transfer.records) == 145
    assert len(transfer.test_partition.supports) == 60
    blocks = worlds.blocks_world(0)
    assert sum(len(r.values) for r in blocks.records) == 128
    assert len(blocks.test_partition.supports) == 256
    loo = worlds.target_domain_view(transfer)
    assert {r.domain_id for r in loo.records} == {"d0"}
    for world in (transfer, blocks):
        assert np.all(world.truth > 0) and np.all(np.isfinite(world.baseline))


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    reported = layers.metrics(*_traced(tiny("transfer-1d")), calib_s=0.1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()
    }


def _traced(work, seed=0):
    ledger, _, plain, layered = run._run(
        work, work.make_world(seed), seed, 0.0, True, HostClock()
    )
    assert ledger.failed == 0, ledger.problems
    return plain, layered


def test_traced_run_covers_every_layer():
    names, counts = set(), {}
    for name in ("transfer-1d", "loo-cv"):
        _, layered = _traced(tiny(name))
        for _, spans, c in layered:
            names |= {s[1] for s in spans}
            for key, value in c.items():
                counts[key] = counts.get(key, 0) + value
    assert names >= {
        "geometry.validate",
        "model.prepared",
        "model.latent_cov",
        "model.assemble",
        "model.chol",
        "inference.elbo_with_grad",
        "inference.refined_elbo",
        "prediction.cross_cov",
        "prediction.predict_supports",
        "prediction.predict_grid",
        "evaluation.cv_fit",
    }
    for key in (
        "kernels.erf_elems",
        "kernels.se_elems",
        "utils.parallel_map_calls",
        "utils.parallel_map_items",
        "prediction.draws",
    ):
        assert counts[key] > 0, key


def test_tracing_restores_the_program():
    bindings = [(owner, attr) for owner, attr, _ in tracing.SPANNED] + [
        (inference, "chol_with_jitter"),
        (model.SupportCovTable, "latent_cov"),
        (model.DomainData, "__init__"),
    ]
    before = [owner.__dict__[attr] for owner, attr in bindings]
    with tracing.instrumented(tracing.Tracer()):
        inside = [owner.__dict__[attr] for owner, attr in bindings]
    after = [owner.__dict__[attr] for owner, attr in bindings]
    assert all(x is not y for x, y in zip(before, inside))
    assert all(x is y for x, y in zip(before, after))


def test_self_time_subtracts_only_named_children():
    spans = [
        (0, "outer", 0.0, 10.0, -1, "r"),
        (1, "middle", 1.0, 6.0, 0, "r"),
        (2, "leaf", 2.0, 4.0, 1, "r"),
        (3, "leaf", 7.0, 8.0, 0, "r"),
    ]
    assert tracing.self_time(spans, {"outer"}, {"leaf"}) == pytest.approx(7.0)
    assert tracing.total_time(spans, "leaf") == pytest.approx(3.0)


def _broken_predict(*args, **kwargs):
    pred = _REAL_PREDICT(*args, **kwargs)
    return replace(pred, values=np.full_like(pred.values, np.nan))


_REAL_PREDICT = prediction.predict_supports


def test_broken_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "transfer-1d", tiny("transfer-1d"))
    monkeypatch.setattr(prediction, "predict_supports", _broken_predict)
    monkeypatch.setattr(run, "_import_program", lambda: None)
    code = run.main(["--workload", "transfer-1d", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]


def test_clean_run_reports_every_metric(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "loo-cv", tiny("loo-cv"))
    monkeypatch.setattr(run, "_import_program", lambda: None)
    code = run.main(["--workload", "loo-cv", "--seconds", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(
        math.isfinite(m["value"]) and m["value"] > 0
        for m in result["metrics"].values()
    )
