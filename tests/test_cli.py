"""End-to-end command line behavior: files, exit codes, determinism."""

import json
import re

import numpy as np
import pytest
from conftest import two_series_instance

from aggmogp import dataio, evaluation
from aggmogp.cli import main
from aggmogp.geometry import grid_block_partition
from aggmogp.model import uniform_rules


def last_error_record(capsys):
    err = capsys.readouterr().err
    lines = [ln for ln in err.strip().splitlines() if ln.strip()]
    assert lines, "expected a JSON error record on stderr"
    return json.loads(lines[-1])


@pytest.fixture
def workspace(tmp_path):
    domain, dataset, _ = two_series_instance()
    part = grid_block_partition(domain, "a0", (4,), id_prefix="t")
    doc = dataio.dataset_to_doc(
        dataset, partitions={"targets": (part, uniform_rules(part))}
    )
    ds_path = tmp_path / "dataset.json"
    dataio.write_json(str(ds_path), doc)
    cfg_path = tmp_path / "config.json"
    dataio.write_json(
        str(cfg_path),
        {
            "format_version": 1,
            "model": {"num_latents": 2},
            "training": {"learning_rate": 0.02, "max_iters": 30},
            "prediction": {"n_samples": 20},
        },
    )
    return tmp_path, str(ds_path), str(cfg_path)


class TestFit:
    def test_writes_model_and_trace(self, workspace, capsys):
        tmp, ds, cfg = workspace
        model = str(tmp / "model.json")
        trace = str(tmp / "trace.csv")
        code = main(
            ["fit", "--dataset", ds, "--config", cfg, "--out", model,
             "--trace-out", trace, "--method", "amogp"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted amogp with 2 latents" in out
        bundle = dataio.load_model_file(model)
        assert bundle.method == "amogp"
        assert bundle.dataset_sha == dataio.load_dataset_file(ds).sha
        header, rows = dataio.read_csv_columns(trace)
        assert header == ["iteration", "elbo", "learning_rate"]
        assert rows.shape[0] == 30

    def test_reruns_are_byte_identical(self, workspace):
        tmp, ds, cfg = workspace
        m1 = str(tmp / "m1.json")
        m2 = str(tmp / "m2.json")
        assert main(["fit", "--dataset", ds, "--config", cfg, "--out", m1]) == 0
        assert main(["fit", "--dataset", ds, "--config", cfg, "--out", m2]) == 0
        with open(m1, "rb") as fa, open(m2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_seed_changes_the_model(self, workspace):
        tmp, ds, cfg = workspace
        m1 = str(tmp / "m1.json")
        m2 = str(tmp / "m2.json")
        main(["fit", "--dataset", ds, "--config", cfg, "--out", m1])
        main(
            ["fit", "--dataset", ds, "--config", cfg, "--out", m2,
             "--seed", "1"]
        )
        with open(m1, "rb") as fa, open(m2, "rb") as fb:
            assert fa.read() != fb.read()

    def test_agp_rejects_extra_latents(self, workspace, capsys):
        tmp, ds, cfg = workspace
        code = main(
            ["fit", "--dataset", ds, "--config", cfg,
             "--out", str(tmp / "m.json"), "--method", "agp", "--latents", "3"]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"

    def test_agp_needs_single_record(self, workspace, capsys):
        tmp, ds, cfg = workspace
        code = main(
            ["fit", "--dataset", ds, "--config", cfg,
             "--out", str(tmp / "m.json"), "--method", "agp"]
        )
        assert code == 1

    def test_unknown_method(self, workspace, capsys):
        tmp, ds, cfg = workspace
        code = main(
            ["fit", "--dataset", ds, "--config", cfg,
             "--out", str(tmp / "m.json"), "--method", "mystery"]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert "mystery" in record["message"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exits_two(self, workspace, capsys):
        tmp, ds, cfg = workspace
        bad_cfg = str(tmp / "bad_config.json")
        dataio.write_json(
            bad_cfg,
            {
                "format_version": 1,
                "model": {"num_latents": 2},
                "training": {"learning_rate": 1e15, "max_iters": 20},
            },
        )
        code = main(
            ["fit", "--dataset", ds, "--config", bad_cfg,
             "--out", str(tmp / "m.json")]
        )
        assert code == 2
        record = last_error_record(capsys)
        assert record["error"] == "NonFiniteELBO"

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("fit", ["--seed", "-1"]),
            ("cv", ["--seed", "-2"]),
            ("fit", ["--seed", "abc"]),
        ],
    )
    def test_bad_seed_exits_one(self, workspace, capsys, command, flags):
        tmp, ds, cfg = workspace
        code = main(
            [command, "--dataset", ds, "--config", cfg, "--out", str(tmp / "m.json"),
             *flags]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert "--seed" in record["message"]

    def test_usage_error_exits_one(self, capsys):
        code = main(["fit", "--dataset", "only.json"])
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert "usage" in record["message"]

    @pytest.mark.parametrize(
        "section",
        [
            {"training": {"learning_rate": -1}},
            {"training": {"max_iters": "abc"}},
            {"model": {"num_latents": "abc"}},
            {"prediction": {"n_samples": [20]}},
            {"model": 5},
            {"training": []},
            {"prediction": "x"},
            # Python's json reads NaN and Infinity.
            {"training": {"learning_rate": float("nan")}},
            {"training": {"learning_rate": float("inf")}},
            {"training": {"convergence_tol": float("nan")}},
        ],
    )
    def test_bad_config_value_exits_one(self, workspace, capsys, section):
        tmp, ds, _ = workspace
        cfg = str(tmp / "bad.json")
        dataio.write_json(cfg, {"format_version": 1, **section})
        code = main(
            ["fit", "--dataset", ds, "--config", cfg, "--out",
             str(tmp / "m.json")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert cfg in record["message"]

    def test_progress_lines_on_stdout(self, workspace, capsys):
        tmp, ds, _ = workspace
        cfg = str(tmp / "logged.json")
        dataio.write_json(
            cfg, {"format_version": 1, "model": {"num_latents": 2},
                  "training": {"learning_rate": 0.02, "max_iters": 30,
                               "log_every": 10}}
        )
        code = main(
            ["fit", "--dataset", ds, "--config", cfg, "--out",
             str(tmp / "m.json")]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        progress = [ln for ln in lines if ln.startswith("iter")]
        assert [ln[:11] for ln in progress] == [
            "iter      0", "iter     10", "iter     20"
        ]
        assert all(re.fullmatch(r"iter +\d+  elbo [ -]\d+\.\d{6}  lr 0\.02", ln)
                   for ln in progress)

    @pytest.mark.parametrize(
        "method, as_points", [("slfm", True), ("amogp-trans", False)]
    )
    def test_cv_scores_the_training_view(
        self, workspace, monkeypatch, method, as_points
    ):
        tmp, ds, cfg = workspace
        seen = []

        real = evaluation.cv_select_L

        def capture(dataset, cands, config, **kwargs):
            result = real(dataset, cands, config, **kwargs)
            seen.append((dataset, result.candidates))
            return result

        monkeypatch.setattr(evaluation, "cv_select_L", capture)
        code = main(
            ["fit", "--dataset", ds, "--config", cfg, "--out", str(tmp / "m.json"),
             "--method", method, "--latents", "cv"]
        )
        assert code == 0
        [(dataset, cands)] = seen
        assert cands == (1, 2)
        assert [r.key for r in dataset.records] == [("d0", "a0"), ("d0", "a1")]
        assert all(r.as_points == as_points for r in dataset.records)


class TestRefine:
    def fit_model(self, workspace):
        tmp, ds, cfg = workspace
        model = str(tmp / "model.json")
        assert main(
            ["fit", "--dataset", ds, "--config", cfg, "--out", model]
        ) == 0
        return tmp, ds, cfg, model

    def test_writes_predictions(self, workspace, capsys):
        tmp, ds, cfg, model = self.fit_model(workspace)
        out = str(tmp / "pred.csv")
        code = main(
            ["refine", "--dataset", ds, "--model", model,
             "--target-partition", "targets", "--out", out, "--tp", "20"]
        )
        assert code == 0
        header, rows = dataio.read_csv_columns(out)
        assert header == ["value", "variance"]
        assert rows.shape == (16, 2)
        assert np.all(rows[:, 1] >= 0.0)

    def test_predictions_near_training_values(self, workspace):
        # The coarse training values were drawn with modest noise; a
        # fitted model predicting its own training partition should sit
        # close to them in original units.
        tmp, ds, cfg, model = self.fit_model(workspace)
        doc = json.load(open(ds))
        doc["datasets"][0]["id"] = "train-a0"
        dataio.write_json(ds, doc)
        model2 = str(tmp / "model2.json")
        assert main(
            ["fit", "--dataset", ds, "--config", cfg, "--out", model2]
        ) == 0
        out = str(tmp / "train_pred.csv")
        assert main(
            ["refine", "--dataset", ds, "--model", model2,
             "--target-partition", "train-a0", "--out", out, "--tp", "50"]
        ) == 0
        _, rows = dataio.read_csv_columns(out)
        truth = np.asarray(doc["datasets"][0]["values"])
        assert np.mean(np.abs(rows[:, 0] - truth)) < 0.8

    def test_grid_out_and_reproducibility(self, workspace):
        tmp, ds, cfg, model = self.fit_model(workspace)
        g1 = str(tmp / "g1.csv")
        g2 = str(tmp / "g2.csv")
        for gout, pout in ((g1, "p1.csv"), (g2, "p2.csv")):
            assert main(
                ["refine", "--dataset", ds, "--model", model,
                 "--target-partition", "targets", "--out", str(tmp / pout),
                 "--grid-out", gout, "--tp", "10"]
            ) == 0
        with open(g1, "rb") as fa, open(g2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_zero_draws_exit_one(self, workspace, capsys):
        tmp, ds, cfg, model = self.fit_model(workspace)
        code = main(
            ["refine", "--dataset", ds, "--model", model,
             "--target-partition", "targets", "--out", str(tmp / "p.csv"),
             "--tp", "0"]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert "--tp" in record["message"]

    def test_unknown_partition(self, workspace, capsys):
        tmp, ds, cfg, model = self.fit_model(workspace)
        code = main(
            ["refine", "--dataset", ds, "--model", model,
             "--target-partition", "ghost", "--out", str(tmp / "x.csv")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert "targets" in record["message"]

    def test_foreign_dataset_rejected(self, workspace, capsys):
        tmp, ds, cfg, model = self.fit_model(workspace)
        doc = json.load(open(ds))
        doc["datasets"][0]["values"][0] += 1.0
        other = str(tmp / "other.json")
        dataio.write_json(other, doc)
        code = main(
            ["refine", "--dataset", other, "--model", model,
             "--target-partition", "targets", "--out", str(tmp / "x.csv")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "IncompatibleModel"


class TestCv:
    def test_writes_selection_report(self, workspace, capsys):
        tmp, ds, _ = workspace
        cfg = str(tmp / "cv_config.json")
        dataio.write_json(
            cfg,
            {
                "format_version": 1,
                "model": {"cv_candidates": [1, 2]},
                "training": {"learning_rate": 0.02, "max_iters": 6},
                "prediction": {"n_samples": 5},
            },
        )
        out = str(tmp / "cv.json")
        code = main(["cv", "--dataset", ds, "--config", cfg, "--out", out])
        assert code == 0
        doc = json.load(open(out))
        assert doc["kind"] == "aggmogp-cv"
        assert doc["chosen"] in (1, 2)
        assert doc["candidates"] == [1, 2]
        assert len(doc["errors"]) == 2
        assert doc["fold_count"] == 12
        text = capsys.readouterr().out
        assert "chosen" in text


def synth_section():
    return {
        "domains": [
            {
                "id": "d0",
                "extent": [[0.0, 1.0]],
                "grid": {
                    "origin": [1.0 / 48],
                    "cell_size": [1.0 / 24],
                    "shape": [24],
                },
            }
        ],
        "attributes": ["a0", "a1"],
        "length_scales": [0.15, 0.4],
        "levels": {"coarse": {"d0": 4}, "fine": {"d0": 12}},
        "noise_var": 0.001,
        "value_offset": {"a0": 5.0, "a1": 8.0},
        "seed": 0,
    }


class TestSynth:
    def test_writes_level_files_and_truth(self, tmp_path, capsys):
        cfg = str(tmp_path / "synth.json")
        dataio.write_json(cfg, {"format_version": 1, "synth": synth_section()})
        out = str(tmp_path / "world")
        code = main(["synth", "--config", cfg, "--out", out])
        assert code == 0
        coarse = dataio.load_dataset_file(f"{out}-coarse.json")
        fine = dataio.load_dataset_file(f"{out}-fine.json")
        assert len(coarse.dataset.records) == 2
        assert len(fine.dataset.records) == 2
        # Every level's partitions are registered in every level file, so
        # a model fitted on coarse data can be refined onto fine targets.
        assert "fine/d0/a0" in coarse.partitions
        assert "coarse/d0/a0" in fine.partitions
        truth = json.load(open(f"{out}-truth.json"))
        assert truth["kind"] == "aggmogp-truth"
        assert len(truth["levels"]["fine"]["d0"]["a0"]) == 12

    def test_deterministic_output(self, tmp_path):
        cfg = str(tmp_path / "synth.json")
        dataio.write_json(cfg, {"format_version": 1, "synth": synth_section()})
        main(["synth", "--config", cfg, "--out", str(tmp_path / "w1")])
        main(["synth", "--config", cfg, "--out", str(tmp_path / "w2")])
        for label in ("coarse", "fine", "truth"):
            with open(tmp_path / f"w1-{label}.json", "rb") as fa:
                with open(tmp_path / f"w2-{label}.json", "rb") as fb:
                    assert fa.read() == fb.read()

    def test_seed_override(self, tmp_path):
        cfg = str(tmp_path / "synth.json")
        dataio.write_json(cfg, {"format_version": 1, "synth": synth_section()})
        main(["synth", "--config", cfg, "--out", str(tmp_path / "w1")])
        main(
            ["synth", "--config", cfg, "--out", str(tmp_path / "w2"),
             "--seed", "7"]
        )
        with open(tmp_path / "w1-coarse.json", "rb") as fa:
            with open(tmp_path / "w2-coarse.json", "rb") as fb:
                assert fa.read() != fb.read()

    def test_missing_section(self, tmp_path, capsys):
        cfg = str(tmp_path / "synth.json")
        dataio.write_json(cfg, {"format_version": 1})
        code = main(["synth", "--config", cfg, "--out", str(tmp_path / "w")])
        assert code == 1
        record = last_error_record(capsys)
        assert "synth" in record["message"]


class TestEval:
    def test_experiment_report(self, tmp_path, capsys):
        cfg = str(tmp_path / "eval.json")
        dataio.write_json(
            cfg,
            {
                "format_version": 1,
                "synth": synth_section(),
                "training": {"learning_rate": 0.02, "max_iters": 30},
                "experiment": {
                    "target_domain": "d0",
                    "target_attribute": "a0",
                    "method": "amogp",
                    "train_level": "coarse",
                    "test_level": "fine",
                    "num_latents": 2,
                    "seeds": [0, 1],
                    "n_pred_samples": 20,
                },
            },
        )
        out = str(tmp_path / "report.json")
        code = main(["eval", "--config", cfg, "--out", out])
        assert code == 0
        doc = json.load(open(out))
        assert doc["method"] == "amogp"
        assert doc["seeds_run"] == [0, 1]
        assert doc["mape_mean"] is not None and doc["mape_mean"] >= 0.0
        assert len(doc["mape_per_seed"]) == 2
        text = capsys.readouterr().out
        assert "MAPE" in text

    def test_method_override_and_unknown_method(self, tmp_path, capsys):
        cfg = str(tmp_path / "eval.json")
        dataio.write_json(
            cfg,
            {
                "format_version": 1,
                "synth": synth_section(),
                "training": {"max_iters": 5},
                "experiment": {
                    "target_domain": "d0",
                    "target_attribute": "a0",
                    "method": "amogp",
                    "train_level": "coarse",
                    "test_level": "fine",
                    "seeds": [0],
                },
            },
        )
        out = str(tmp_path / "report.json")
        code = main(["eval", "--config", cfg, "--out", out, "--method", "bogus"])
        assert code == 1
        record = last_error_record(capsys)
        assert "bogus" in record["message"]

    def test_flags_apply_before_the_spec_is_checked(self, tmp_path, capsys):
        cfg = str(tmp_path / "eval.json")
        experiment = {**experiment_section(), "method": "bogus", "num_latents": 9}
        dataio.write_json(
            cfg,
            {
                "format_version": 1,
                "synth": synth_section(),
                "training": {"max_iters": 5},
                "experiment": experiment,
            },
        )
        out = str(tmp_path / "report.json")
        code = main(
            ["eval", "--config", cfg, "--out", out, "--method", "amogp",
             "--latents", "1", "--tp", "5"]
        )
        assert code == 0
        doc = json.load(open(out))
        assert doc["method"] == "amogp"
        assert doc["chosen_latents"] == [1]
        code = main(["eval", "--config", cfg, "--out", out, "--latents", "abc"])
        assert code == 1
        assert "--latents" in last_error_record(capsys)["message"]

    def test_missing_experiment_section(self, tmp_path, capsys):
        cfg = str(tmp_path / "eval.json")
        dataio.write_json(
            cfg, {"format_version": 1, "synth": synth_section()}
        )
        code = main(
            ["eval", "--config", cfg, "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert "experiment" in record["message"]


def experiment_section():
    return {
        "target_domain": "d0",
        "target_attribute": "a0",
        "method": "amogp",
        "train_level": "coarse",
        "test_level": "fine",
        "seeds": [0],
    }


class TestMalformedSections:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("synth", {"synth": 5}),
            ("synth", {"synth": {**synth_section(), "domains": 5}}),
            ("synth", {"synth": {**synth_section(), "levels": [1, 2]}}),
            ("synth", {"synth": {**synth_section(), "length_scales": [-1.0]}}),
            ("synth", {"synth": {**synth_section(), "length_scales": ["abc"]}}),
            ("synth", {"synth": {**synth_section(), "noise_var": "x"}}),
            ("synth", {"synth": {**synth_section(), "seed": "x"}}),
            ("eval", {"experiment": {**experiment_section(), "seeds": "x"}}),
            ("eval", {"experiment": {**experiment_section(), "n_pred_samples": "x"}}),
            ("eval", {"experiment": {**experiment_section(), "cv_candidates": ["x"]}}),
            ("eval", {"experiment": {**experiment_section(), "num_latents": "abc"}}),
            # Nested maps must be JSON objects too.
            ("synth", {"synth": {**synth_section(), "levels": {"coarse": [4]}}}),
            ("synth", {"synth": {**synth_section(), "noise_var": {"d0": 0.001}}}),
            ("synth", {"synth": {**synth_section(), "weights": [[1.0, 0.0]]}}),
            ("synth", {"synth": {**synth_section(), "domain_attributes": ["a0"]}}),
            # Values out of range.
            ("synth", {"synth": {**synth_section(), "seed": -4}}),
            ("eval", {"experiment": {**experiment_section(), "seeds": [0, -1]}}),
            ("eval", {"experiment": {**experiment_section(), "n_pred_samples": 0}}),
        ],
    )
    def test_exits_one_naming_the_file(self, tmp_path, capsys, command, doc):
        cfg = str(tmp_path / "bad.json")
        dataio.write_json(
            cfg, {"format_version": 1, "synth": synth_section(), **doc}
        )
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "DataError"
        assert cfg in record["message"]

    def test_fit_reads_the_whole_document(self, workspace, capsys):
        # A malformed section fails every command that loads the file.
        tmp, ds, _ = workspace
        cfg = str(tmp / "bad.json")
        dataio.write_json(cfg, {"format_version": 1, "experiment": []})
        code = main(["fit", "--dataset", ds, "--config", cfg, "--out", str(tmp / "m")])
        assert code == 1
        assert cfg in last_error_record(capsys)["message"]


def band_polygon_points(svg: str) -> np.ndarray:
    match = re.search(r'<polygon class="band" points="([^"]*)"', svg)
    assert match, "band polygon missing"
    pairs = [p.split(",") for p in match.group(1).split()]
    return np.array([[float(a), float(b)] for a, b in pairs])


class TestPlot:
    def test_band_svg_encodes_two_sigma(self, workspace, tmp_path):
        tmp, ds, cfg = workspace
        model = str(tmp / "model.json")
        main(["fit", "--dataset", ds, "--config", cfg, "--out", model])
        grid = str(tmp / "grid.csv")
        main(
            ["refine", "--dataset", ds, "--model", model,
             "--target-partition", "targets", "--out", str(tmp / "p.csv"),
             "--grid-out", grid, "--tp", "10"]
        )
        svg_path = str(tmp / "band.svg")
        assert main(["plot", "--csv", grid, "--out", svg_path]) == 0
        svg = open(svg_path).read()
        assert 'data-kind="band"' in svg
        header, rows = dataio.read_csv_columns(grid)
        pts = band_polygon_points(svg)
        n = rows.shape[0]
        assert pts.shape == (2 * n, 2)
        # Ring is upper curve forward then lower curve reversed; the
        # emitted coordinates are data values, so the half band equals
        # twice the predictive standard deviation exactly.
        upper = pts[:n]
        lower = pts[2 * n - 1 : n - 1 : -1]
        np.testing.assert_array_equal(upper[:, 0], rows[:, 0])
        np.testing.assert_array_equal(lower[:, 0], rows[:, 0])
        half = (upper[:, 1] - lower[:, 1]) / 2.0
        np.testing.assert_allclose(half, 2.0 * np.sqrt(rows[:, 2]), atol=1e-12)
        mid = (upper[:, 1] + lower[:, 1]) / 2.0
        np.testing.assert_allclose(mid, rows[:, 1], atol=1e-12)

    def test_trace_svg(self, workspace, tmp_path):
        tmp, ds, cfg = workspace
        model = str(tmp / "model.json")
        trace = str(tmp / "trace.csv")
        main(
            ["fit", "--dataset", ds, "--config", cfg, "--out", model,
             "--trace-out", trace]
        )
        out = str(tmp / "trace.svg")
        assert main(["plot", "--csv", trace, "--out", out]) == 0
        svg = open(out).read()
        assert 'data-kind="trace"' in svg
        assert "<polyline" in svg

    def test_heatmap_svg(self, tmp_path):
        grid = str(tmp_path / "grid2d.csv")
        xs, ys = np.meshgrid(np.arange(3.0), np.arange(4.0), indexing="ij")
        query = np.column_stack([xs.ravel(), ys.ravel()])
        values = np.arange(12.0)
        dataio.write_grid_csv(grid, query, values, np.ones(12))
        out = str(tmp_path / "heat.svg")
        assert main(["plot", "--csv", grid, "--out", out]) == 0
        svg = open(out).read()
        assert 'data-kind="heatmap"' in svg
        parsed = [
            float(m) for m in re.findall(r'data-value="([^"]*)"', svg)
        ]
        np.testing.assert_array_equal(parsed, values)

    def test_support_table_not_plottable(self, tmp_path, capsys):
        path = str(tmp_path / "pred.csv")
        dataio.write_support_csv(path, ["s0"], [1.0], [0.1])
        code = main(["plot", "--csv", path, "--out", str(tmp_path / "x.svg")])
        assert code == 1
        record = last_error_record(capsys)
        assert "grid export" in record["message"]

    def test_unrecognized_columns(self, tmp_path, capsys):
        path = str(tmp_path / "odd.csv")
        with open(path, "w") as fh:
            fh.write("foo,bar\n1.0,2.0\n")
        code = main(["plot", "--csv", path, "--out", str(tmp_path / "x.svg")])
        assert code == 1


class TestValidationExitCodes:
    def test_overlapping_supports_exit_one(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "domains": [
                {
                    "id": "d0",
                    "extent": [[0.0, 4.0]],
                    "grid": {
                        "origin": [0.5],
                        "cell_size": [1.0],
                        "shape": [4],
                    },
                }
            ],
            "attributes": ["a0"],
            "datasets": [
                {
                    "domain_id": "d0",
                    "attribute_id": "a0",
                    "supports": [
                        {"id": "s0", "interval": [0.0, 2.5]},
                        {"id": "s1", "interval": [2.0, 4.0]},
                    ],
                    "values": [1.0, 2.0],
                }
            ],
        }
        ds = str(tmp_path / "bad.json")
        dataio.write_json(ds, doc)
        cfg = str(tmp_path / "config.json")
        dataio.write_json(cfg, {"format_version": 1})
        code = main(
            ["fit", "--dataset", ds, "--config", cfg,
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "OverlapError"

    @pytest.mark.parametrize(
        "field, value",
        [("supports", [{"id": "s0", "interval": [0, 0.5, 0.7]}]), ("values", ["abc"])],
    )
    def test_malformed_dataset_value_exits_one(
        self, workspace, capsys, field, value
    ):
        tmp, ds, cfg = workspace
        doc = json.load(open(ds))
        doc["datasets"][0][field] = value
        bad = str(tmp / "bad.json")
        dataio.write_json(bad, doc)
        code = main(
            ["fit", "--dataset", bad, "--config", cfg, "--out", str(tmp / "m.json")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert bad in record["message"]

    def test_malformed_model_value_exits_one(self, workspace, capsys):
        tmp, ds, cfg = workspace
        model = str(tmp / "model.json")
        assert main(["fit", "--dataset", ds, "--config", cfg, "--out", model]) == 0
        doc = json.load(open(model))
        doc["num_latents"] = "x"
        dataio.write_json(model, doc)
        code = main(
            ["refine", "--dataset", ds, "--model", model,
             "--target-partition", "targets", "--out", str(tmp / "x.csv")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert model in record["message"]

    @pytest.mark.parametrize(
        "field, path, value",
        [
            ("log_length_scales", (0,), float("nan")),
            ("q_mean", ("d0", 0, 1), float("inf")),
            ("transforms", ("d0", "a0", 1), float("inf")),
            ("transforms", ("d0", "a0", 1), 0.0),
        ],
    )
    def test_model_parameter_out_of_range_exits_one(
        self, workspace, capsys, field, path, value
    ):
        tmp, ds, cfg = workspace
        model = str(tmp / "model.json")
        assert main(["fit", "--dataset", ds, "--config", cfg, "--out", model]) == 0
        doc = json.load(open(model))
        entry = doc[field]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        dataio.write_json(model, doc)
        code = main(
            ["refine", "--dataset", ds, "--model", model,
             "--target-partition", "targets", "--out", str(tmp / "x.csv")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert model in record["message"]
        assert field in record["message"]

    @pytest.mark.parametrize(
        "field", ["q_mean", "noise_log_var", "domain_attributes", "transforms"]
    )
    def test_model_maps_must_be_objects(self, workspace, capsys, field):
        tmp, ds, cfg = workspace
        model = str(tmp / "model.json")
        assert main(["fit", "--dataset", ds, "--config", cfg, "--out", model]) == 0
        doc = json.load(open(model))
        doc[field] = [1.0]
        dataio.write_json(model, doc)
        code = main(
            ["refine", "--dataset", ds, "--model", model,
             "--target-partition", "targets", "--out", str(tmp / "x.csv")]
        )
        assert code == 1
        record = last_error_record(capsys)
        assert record["error"] == "DataError"
        assert model in record["message"]
