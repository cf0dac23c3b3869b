#!/usr/bin/env python3
"""Information-plane sweep on the synthetic regression task.

Generates the 30-d nonlinear dataset, trains one CS-IB model per beta
from a shared initialization, and writes the info-plane points as JSONL
plus a CSV mirror for plotting.
"""

import argparse
import math

import numpy as np

from csib.cli import init_model_for, write_sweep
from csib.conditional import mse
from csib.data import gen_synthetic, minmax_normalize, split
from csib.training import TrainConfig, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--dim", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--beta-grid", default="0,0.001,0.01,0.1,1,10")
    parser.add_argument("--out", default="info_plane.jsonl")
    parser.add_argument("--csv", default="info_plane.csv")
    args = parser.parse_args()

    ds = gen_synthetic(args.n, d=args.dim, seed=args.seed)
    train_ds, test_ds = split(ds, (0.8, 0.2), seed=args.seed)
    train_ds = minmax_normalize(train_ds)
    test_ds = minmax_normalize(test_ds, train_ds.normalization)
    baseline = math.sqrt(
        mse(test_ds.targets, np.full_like(test_ds.targets, train_ds.targets.mean()))
    )
    print(f"mean-predictor baseline RMSE: {baseline:.5f}")

    cfg = TrainConfig(
        epochs=args.epochs, batch_size=128, lr=3e-3,
        sigma_x=0.25, sigma_y=0.15, seed=args.seed,
    )
    model = init_model_for(cfg, args.dim)
    grid = [float(v) for v in args.beta_grid.split(",")]
    points = sweep(train_ds, model, grid, cfg, test_ds=test_ds)
    for line in write_sweep(points, args.out, args.csv):
        print(line)


if __name__ == "__main__":
    main()
