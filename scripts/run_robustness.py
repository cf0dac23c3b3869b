#!/usr/bin/env python3
"""Train a CS-IB model and evaluate FGSM/PGD robustness on the test split."""

import argparse

from csib.attacks import AttackConfig, evaluate_robustness
from csib.cli import json_line
from csib.data import gen_synthetic, minmax_normalize, split
from csib.nn import init_model
from csib.training import TrainConfig, train


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--dim", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--beta", type=float, default=0.01)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--rho", type=float, default=0.3)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--steps", type=int, default=5)
    args = parser.parse_args()

    ds = gen_synthetic(args.n, d=args.dim, seed=args.seed)
    train_ds, test_ds = split(ds, (0.8, 0.2), seed=args.seed)
    train_ds = minmax_normalize(train_ds)
    test_ds = minmax_normalize(test_ds, train_ds.normalization)

    cfg = TrainConfig(
        beta=args.beta, epochs=args.epochs, batch_size=128, lr=3e-3,
        sigma_x=0.25, sigma_y=0.15, seed=args.seed,
    )
    model = init_model(args.dim, seed=args.seed, noise_init=0.1)
    result = train(train_ds, model, cfg, test_ds)
    print(json_line({"final_epoch": result.epoch_log[-1]}))

    for attack_cfg in (
        AttackConfig(kind="fgsm", epsilon=args.epsilon),
        AttackConfig(kind="pgd", rho=args.rho, alpha=args.alpha, steps=args.steps),
    ):
        report = evaluate_robustness(result.model, test_ds.features, test_ds.targets, attack_cfg)
        print(json_line(report))


if __name__ == "__main__":
    main()
