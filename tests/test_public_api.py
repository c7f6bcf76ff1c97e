"""The package's public names: ``aggmogp.__all__`` lists each once, in
order, and every name in it exists, so a name removed from a module but
left in ``__all__`` fails here rather than at a user's star import."""

import os
import subprocess
import sys
import textwrap

import aggmogp


def by_type(name):
    """isort's order by type: constants, then classes, then the rest,
    each group in code-point order."""
    group = 0 if name.isupper() else 1 if name[0].isupper() else 2
    return group, name


def test_all_is_unique_and_sorted():
    assert len(set(aggmogp.__all__)) == len(aggmogp.__all__)
    assert aggmogp.__all__ == sorted(aggmogp.__all__, key=by_type)


def test_every_name_resolves():
    missing = [name for name in aggmogp.__all__ if not hasattr(aggmogp, name)]
    assert missing == []


def test_star_import_runs():
    namespace = {}
    exec("from aggmogp import *", namespace)
    assert set(aggmogp.__all__) <= set(namespace)


def test_fit_loads_no_scipy_stats():
    # scipy.stats alone adds tens of MiB to a process's peak memory; the
    # package's Sobol draws carry their own direction numbers instead.
    script = textwrap.dedent(
        """
        import sys

        import aggmogp as ag

        dom = ag.Domain(
            id="d0",
            extent=((0.0, 4.0),),
            grid=ag.GridSpec(origin=(0.125,), cell_size=(0.25,), shape=(16,)),
        )
        part = ag.interval_bins(dom, "a0", 4)
        values = [1.0, 2.0, 0.5, 1.5]
        rec = ag.DatasetRecord("d0", "a0", part, ag.uniform_rules(part), values)
        data = ag.AggregatedDataset({"d0": dom}, ("a0",), (rec,))
        state, _ = ag.fit(data, ag.TrainConfig(max_iters=5), ag.init_state(data, 1))
        ag.refined_elbo(data, state, seed=0)
        print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
        """
    )
    src = os.path.dirname(os.path.dirname(aggmogp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"
