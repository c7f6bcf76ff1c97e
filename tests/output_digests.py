"""Output digests of the bench worlds, alone or against a ``BENCH_*.json``.

Not collected by pytest (the name has no ``test_`` prefix). Run from the
repository root::

    PYTHONPATH=src python tests/output_digests.py
    PYTHONPATH=src python tests/output_digests.py BENCH_pr16.json
    PYTHONPATH=src python tests/output_digests.py --dump DIR
    PYTHONPATH=src python tests/output_digests.py --compare BEFORE AFTER

Without a file it takes every workload of ``bench.workloads`` at seeds
0-2; with one, every workload and seed the file records. For each it
runs the workload's pipeline once and takes one SHA-256 per output, over
the float64 C-order bytes of, in order:

* ``fit``: ``ModelState.pack()`` after ``inference.fit`` at the
  workload's budget (learning rate 0.02, convergence tolerance 0);
* ``trace``: the fit's ``iterations``, ``elbo`` and ``learning_rate``,
  then ``[best_iteration, init_elbo, final_elbo, backoffs]``;
* ``refine``: ``predict_supports`` on the test partition, ``values``,
  ``variances`` and ``[clamped]``;
* ``grid``: ``predict_grid`` for the target record, mean, variance and
  ``[clamped]``;
* ``left_out``: ``predict_left_out`` for the target record, ``values``,
  ``variances`` and ``[clamped]``;
* ``cv``: ``cv_select_L`` over candidates (1, 2) at 100 iterations on the
  target record, ``[chosen]``, ``errors`` and ``[fold_count]``.

Draws and seeds are the workload's. It prints one line per digest.
Without a file it exits 0; with one, it exits 1 when any digest differs
from the file's ``outputs.sha256``. Digests
compare only at equal BLAS thread counts: blocks-2d's differ between one
and two threads. Blocks-2d's can also differ between CPUs at one thread,
so a change shows byte-identity by diffing this script's output at the
parent commit and at the change, both run on one host.

With ``--dump DIR`` it also writes every array behind a digest to
``DIR/<workload>.<seed>.<output>.<array>.npy``. ``--compare BEFORE
AFTER`` runs nothing: it reads two such directories, made at two
commits on one host, and prints per output array ``identical`` when
every file of it holds the same bytes on both sides, else the largest
change of any entry relative to that array's largest magnitude in
BEFORE, with the workload and seed where it occurs (0 when only the
bytes differ, as -0.0 against 0.0 do). It names every file found on one
side only, and exits 1 when any file is missing or differs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import workloads  # noqa: E402

CV_CANDIDATES = (1, 2)
CV_ITERS = 100
# Seeds digested when no BENCH_*.json names them.
SEEDS = (0, 1, 2)


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def outputs(work: workloads.Workload, seed: int) -> dict[str, dict]:
    """The arrays behind the six output digests of one workload at one
    seed: per output, its named arrays in digest order."""
    evaluation, inference = workloads.evaluation, workloads.inference
    model, prediction = workloads.model, workloads.prediction
    world = work.make_world(seed)
    ds = workloads.setup(world)
    d, a = world.target
    config = inference.TrainConfig(
        learning_rate=workloads.LEARNING_RATE,
        max_iters=work.fit_iters,
        seed=seed,
        convergence_tol=0.0,
    )
    state, trace = inference.fit(
        ds, config, model.init_state(ds, work.latents, seed=seed)
    )
    refined = prediction.predict_supports(
        world.test_partition, state, ds, work.draws, seed
    )
    _, mean, variance, clamped = prediction.predict_grid(
        state, ds, d, a, work.draws, seed
    )
    left_out = prediction.predict_left_out(state, ds, d, a, work.draws, seed)
    cv = evaluation.cv_select_L(
        ds,
        CV_CANDIDATES,
        replace(config, max_iters=CV_ITERS),
        target=world.target,
        n_pred_samples=work.cv_draws,
    )
    arrays = {
        "fit": {"state": state.pack()},
        "trace": {
            "iterations": trace.iterations,
            "elbo": trace.elbo,
            "learning_rate": trace.learning_rate,
            "summary": [
                trace.best_iteration,
                trace.init_elbo,
                trace.final_elbo,
                trace.backoffs,
            ],
        },
        "refine": {
            "values": refined.values,
            "variances": refined.variances,
            "clamped": [refined.clamped],
        },
        "grid": {"mean": mean, "variance": variance, "clamped": [clamped]},
        "left_out": {
            "values": left_out.values,
            "variances": left_out.variances,
            "clamped": [left_out.clamped],
        },
        "cv": {
            "chosen": [cv.chosen],
            "errors": cv.errors,
            "fold_count": [cv.fold_count],
        },
    }
    return {
        kind: {name: np.asarray(a, dtype=np.float64) for name, a in named.items()}
        for kind, named in arrays.items()
    }


def digests(work: workloads.Workload, seed: int, dump: str | None = None):
    """The six output digests of one workload at one seed, with their
    arrays written to ``dump`` when it names a directory."""
    got = outputs(work, seed)
    if dump is not None:
        os.makedirs(dump, exist_ok=True)
        for kind, named in got.items():
            for name, a in named.items():
                file = f"{work.name}.{seed}.{kind}.{name}.npy"
                np.save(os.path.join(dump, file), a)
    return {kind: sha256(*named.values()) for kind, named in got.items()}


def compare(before: str, after: str) -> int:
    """Print, per output array, ``identical`` when its dumps agree byte
    for byte at every workload and seed, else the largest change between
    them; return how many dumps are missing from either directory or
    differ in bytes."""
    files = sorted(
        {os.path.basename(p) for d in (before, after) for p in glob.glob(os.path.join(d, "*.npy"))}
    )
    worst = {}
    failures = 0
    for file in files:
        name, seed, kind, array = file[: -len(".npy")].rsplit(".", 3)
        key = f"{kind}.{array}"
        paths = [os.path.join(d, file) for d in (before, after)]
        missing = [d for d, path in zip((before, after), paths) if not os.path.exists(path)]
        if missing:
            print(f"{file} is missing from {missing[0]}")
            failures += 1
            continue
        a, b = (np.load(path) for path in paths)
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            worst.setdefault(key, None)
            continue
        failures += 1
        if a.shape != b.shape:
            change = np.inf
        else:
            scale = np.max(np.abs(a), initial=0.0)
            diff = np.max(np.abs(b - a), initial=0.0)
            change = diff / scale if scale else diff
        # A change of 0 is a difference in bytes alone, such as -0.0 for 0.0.
        if worst.get(key) is None or change > worst[key][0]:
            worst[key] = (change, f"{name}/{seed}")
    for key in sorted(worst):
        if worst[key] is None:
            print(f"{key} identical")
        else:
            print(f"{key} {worst[key][0]:.2g} {worst[key][1]}")
    print(f"{len(files) - failures} of {len(files)} arrays identical")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "bench_json", nargs="?", help="a BENCH_*.json with outputs.sha256"
    )
    parser.add_argument("--dump", metavar="DIR", help="write every array as .npy")
    parser.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two dumps"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.bench_json is None:
        keys = [f"{name}/{seed}" for name in workloads.WORKLOADS for seed in SEEDS]
        for key in sorted(keys):
            name, seed = key.rsplit("/", 1)
            got = digests(workloads.WORKLOADS[name], int(seed), args.dump)
            for kind in sorted(got):
                print(f"{key} {kind} {got[kind]}")
        return 0
    with open(args.bench_json) as f:
        want = json.load(f)["outputs"]["sha256"]
    mismatches = 0
    for key in sorted(want):
        name, seed = key.rsplit("/", 1)
        got = digests(workloads.WORKLOADS[name], int(seed), args.dump)
        for kind in sorted(want[key]):
            same = got[kind] == want[key][kind]
            mismatches += not same
            print(f"{key} {kind} {got[kind]} {'equal' if same else 'DIFFERS'}")
    total = sum(len(v) for v in want.values())
    print(f"{total - mismatches} of {total} digests equal {args.bench_json}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
