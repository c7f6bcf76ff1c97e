"""Refine a coarsely observed series using a finely observed companion.

One 1-D domain carries two attributes of a shared two-latent field. The
target attribute is only observed as 8 bin averages; the companion is
observed on 32 fine bins. Fitting both series jointly lets the fine
series pin down the latent functions inside each coarse bin, so the
refined target tracks the truth far better than a fit that only ever
saw the 8 coarse averages.

Writes the ELBO trace and the refined prediction band as SVG files and
prints the error of the joint fit next to the single-series fit.
"""

import argparse
import pathlib

import numpy as np

from aggmogp.baselines import fit_view, training_view
from aggmogp.evaluation import SynthConfig, mape, synth_generate
from aggmogp.geometry import Domain, GridSpec
from aggmogp.inference import TrainConfig, fit
from aggmogp.model import AggregatedDataset, init_state
from aggmogp.prediction import predict_supports
from aggmogp.svgplot import band_svg, trace_svg

GRID_CELLS = 48
COARSE_BINS = 8
FINE_BINS = 32


def make_world(seed):
    h = 1.0 / GRID_CELLS
    domain = Domain(
        id="d0",
        extent=((0.0, 1.0),),
        grid=GridSpec(origin=(h / 2.0,), cell_size=(h,), shape=(GRID_CELLS,)),
    )
    cfg = SynthConfig(
        domains=(domain,),
        attributes=("target", "companion"),
        length_scales=(0.07, 0.22),
        levels={"coarse": {"d0": COARSE_BINS}, "fine": {"d0": FINE_BINS}},
        weights={"d0": np.array([[1.0, 0.5], [-0.7, 0.6]])},
        noise_var=1e-3,
        value_offset={"target": 5.0, "companion": 8.0},
        seed=seed,
    )
    return synth_generate(cfg)


def refined_mape(state, dataset, world, seed):
    part = world.partitions["fine"][("d0", "target")]
    pred = predict_supports(part, state, dataset, n_samples=100, seed=seed)
    vals, var = dataset.denormalize("d0", "target", pred.values, pred.variances)
    return mape(world.truth["fine"][("d0", "target")], vals), vals, var


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="demo-output")
    args = parser.parse_args(argv)

    world = make_world(args.seed)
    joint_data = AggregatedDataset(
        {"d0": world.config.domains[0]},
        ("target", "companion"),
        (
            world.datasets["coarse"].record_for("d0", "target"),
            world.datasets["fine"].record_for("d0", "companion"),
        ),
    )
    cfg = TrainConfig(learning_rate=0.02, max_iters=900, seed=args.seed)
    state, trace = fit(joint_data, cfg, init_state(joint_data, 2, seed=args.seed))
    err_joint, vals, var = refined_mape(state, joint_data, world, args.seed)

    single_data = training_view(joint_data, "agp", "d0", "target")
    single, _ = fit_view(single_data, 1, cfg, init_seed=args.seed)
    err_single, _, _ = refined_mape(single, single_data, world, args.seed)

    print(f"coarse bins observed:   {COARSE_BINS}")
    print(f"fine bins predicted:    {FINE_BINS}")
    print(f"joint fit MAPE:         {err_joint:.4f}")
    print(f"target-only fit MAPE:   {err_single:.4f}")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    part = world.partitions["fine"][("d0", "target")]
    centers = np.array([(s.body.lo + s.body.hi) / 2.0 for s in part.supports])
    (out / "refined_band.svg").write_text(band_svg(centers, vals, var))
    (out / "elbo_trace.svg").write_text(trace_svg(trace.iterations, trace.elbo))
    print(f"wrote {out / 'refined_band.svg'} and {out / 'elbo_trace.svg'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
