#!/usr/bin/env python3
"""End-to-end misspecification sweep on the Fourier-mask toy via the CLI.

Trains a checkpoint with ``configs/misspec_mri.ini`` (the configuration of
acceptance criterion 10), then evaluates it on measurements from systems
with decreasing lambda1 and with doubled noise, writing metrics CSVs into
the chosen output directory.
"""

import argparse
import pathlib
import sys

from sysbridge import cli

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "misspec_mri.ini"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="misspec_demo_out")
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    out.parent.mkdir(exist_ok=True, parents=True)
    cfg = str(CONFIG)

    rc = cli.main(["train", "--config", cfg, "--output", str(out)])
    if rc:
        return rc
    ckpt = str(out / "checkpoint.ckpt")
    rc = cli.main(["misspec", "--config", cfg, "--checkpoint", ckpt,
                   "--output", str(out / "lambda_sweep")])
    if rc:
        return rc
    rc = cli.main(["misspec", "--config", cfg, "--checkpoint", ckpt,
                   "--param", "noise_var", "--values", "0.001,0.0015,0.002",
                   "--output", str(out / "noise_sweep")])
    if rc:
        return rc
    for sub in ("lambda_sweep", "noise_sweep"):
        print(f"--- {sub} ---")
        print((out / sub / "misspec_summary.csv").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
