"""``output_digests.py --compare`` is a gate: byte-equal dumps pass, and
any array missing on either side or differing in its bytes fails."""

import numpy as np
import pytest
from output_digests import main


def dump(directory, arrays):
    directory.mkdir()
    for file, a in arrays.items():
        np.save(directory / f"{file}.npy", np.asarray(a, dtype=np.float64))
    return str(directory)


BEFORE = {
    "transfer-1d.0.fit.state": [1.0, 0.0, -2.5],
    "transfer-1d.0.trace.elbo": [-3.0, -2.0],
    "blocks-2d.1.fit.state": [4.0, 5.0],
}


def compare(tmp_path, capsys, after):
    before = dump(tmp_path / "before", BEFORE)
    code = main(["--compare", before, dump(tmp_path / "after", after)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_dumps_pass(tmp_path, capsys):
    code, lines = compare(tmp_path, capsys, dict(BEFORE))
    assert code == 0
    assert "fit.state identical" in lines and "trace.elbo identical" in lines
    assert lines[-1] == "3 of 3 arrays identical"


def test_signed_zero_is_a_difference(tmp_path, capsys):
    code, lines = compare(
        tmp_path, capsys, {**BEFORE, "transfer-1d.0.fit.state": [1.0, -0.0, -2.5]}
    )
    assert code == 1
    assert "fit.state 0 transfer-1d/0" in lines
    assert "trace.elbo identical" in lines


def test_changed_value_reports_its_size(tmp_path, capsys):
    code, lines = compare(
        tmp_path, capsys, {**BEFORE, "blocks-2d.1.fit.state": [4.0, 5.5]}
    )
    assert code == 1
    assert "fit.state 0.1 blocks-2d/1" in lines


@pytest.mark.parametrize("side", ["before", "after"])
def test_array_on_one_side_only_fails(tmp_path, capsys, side):
    after = dict(BEFORE)
    if side == "before":
        del after["transfer-1d.0.trace.elbo"]
        missing = "transfer-1d.0.trace.elbo.npy is missing from"
    else:
        after["loo-cv.2.cv.errors"] = [0.1]
        missing = "loo-cv.2.cv.errors.npy is missing from"
    code, lines = compare(tmp_path, capsys, after)
    assert code == 1
    assert any(line.startswith(missing) for line in lines)
