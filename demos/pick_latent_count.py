"""Choose the number of latent functions by leave-one-out error.

Four attributes on one domain are generated from exactly two latent
functions. Leave-one-support-out prediction, at each candidate's fit to
all the data, scores candidate latent counts on held-out coarse
observations; the two-latent model should win (ties go to the smaller
count).
"""

import argparse

import numpy as np

from aggmogp.evaluation import SynthConfig, cv_select_L, synth_generate
from aggmogp.geometry import Domain, GridSpec
from aggmogp.inference import TrainConfig


def make_data(seed):
    cells = 48
    h = 1.0 / cells
    domain = Domain(
        id="d0",
        extent=((0.0, 1.0),),
        grid=GridSpec(origin=(h / 2.0,), cell_size=(h,), shape=(cells,)),
    )
    cfg = SynthConfig(
        domains=(domain,),
        attributes=("a0", "a1", "a2", "a3"),
        length_scales=(0.08, 0.25),
        levels={"obs": {"d0": 8}},
        weights={
            "d0": np.array(
                [[1.0, 0.0], [0.0, 1.0], [0.9, -0.8], [-0.6, 0.7]]
            )
        },
        noise_var=5e-3,
        value_offset={"a0": 4.0, "a1": 5.0, "a2": 6.0, "a3": 7.0},
        seed=seed,
    )
    return synth_generate(cfg).datasets["obs"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    data = make_data(args.seed)
    result = cv_select_L(
        data,
        (1, 2, 3),
        TrainConfig(learning_rate=0.02, max_iters=400, seed=args.seed),
        target=("d0", "a0"),
    )
    print("latents   held-out MAPE")
    for cand, err in zip(result.candidates, result.errors):
        mark = "  <- chosen" if cand == result.chosen else ""
        print(f"{cand:7d}   {err:13.4f}{mark}")
    print(f"folds per candidate: {result.fold_count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
