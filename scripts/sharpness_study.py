#!/usr/bin/env python3
"""Sharpness study for the one-sided convolution inequality.

The peaked profile c*exp(-|x - y|/alpha) - k turns the inequality

    (p - alpha d_x p) * (alpha^2/2 u_x^2 + u^2 + 2ku) >= (u+k)^2/2 - k^2

into an equality on x <= y.  This script prints, per resolution, the
discrete gap at the peak node, over the equality region away from the
peak, and its minimum, with the empirical convergence orders
(dghlab.analysis.peakon_witness_study at alpha = 1).  The slope jump at
the peak carries O(1/N) of the H1 mass, so the gap at the peak node
itself shrinks only at first order, while away from the jump it vanishes
at second order.

Usage: python scripts/sharpness_study.py [--c 1.0] [--y 0.0] [--k 0.0]
"""
import argparse

import numpy as np

import dghlab as dg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--y", type=float, default=0.0)
    ap.add_argument("--k", type=float, default=0.0)
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[512, 1024, 2048, 4096, 8192])
    args = ap.parse_args()

    params = dg.make_parameters(1.0, 0.0, 2.0 * args.k)
    study = dg.peakon_witness_study(params, args.resolutions, c=args.c, y=args.y)
    print(f"witness u = {args.c}*exp(-|x - {args.y}|) - {args.k}")
    print(f"{'N':>6} {'gap@peak':>12} {'gap(region)':>12} {'min gap':>12}")
    prev = None
    for lev in study["levels"]:
        peak, away = lev["gap_at_peak"], lev["gap_equality_region"]
        line = f"{lev['n_points']:6d} {peak:12.3e} {away:12.3e} {lev['min_gap']:12.3e}"
        if prev is not None:
            line += f"   orders: peak {np.log2(prev[0]/peak):+5.2f} region {np.log2(prev[1]/away):+5.2f}"
        print(line)
        prev = (peak, away)


if __name__ == "__main__":
    main()
