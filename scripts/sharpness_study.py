#!/usr/bin/env python3
"""Sharpness study for the one-sided convolution inequality.

The peaked profile c*exp(-|x - y|/alpha) - k turns the inequality

    (p - alpha d_x p) * (alpha^2/2 u_x^2 + u^2 + 2ku) >= (u+k)^2/2 - k^2

into an equality on x <= y.  This script evaluates the discrete gap
field across resolutions and reports its size at the peak node, over the
equality region away from the peak, and the empirical convergence order.
The slope jump at the peak carries O(1/N) of the H1 mass, so the gap at
the peak node itself shrinks only at first order, while away from the
jump it vanishes at second order.

Usage: python scripts/sharpness_study.py [--c 1.0] [--y 0.0] [--k 0.0]
"""
import argparse

import numpy as np

import dghlab as dg
from dghlab.analysis import one_sided_gaps


def gap_levels(c, y, k, resolutions):
    """(N, gap at the peak node, largest |gap| on the equality region,
    min gap) of the peaked witness at each resolution."""
    params = dg.make_parameters(1.0, 0.0, 2.0 * k)
    rows = []
    for n in resolutions:
        grid = dg.make_grid(20.0, n)
        op = dg.make_operator(grid, params)
        u = dg.ic_preset("peakon_shifted", grid, params, c=c, y=y, k=k)
        gm, _ = one_sided_gaps(u, op, params)
        ipk = int(np.argmin(np.abs(grid.nodes - y)))
        region = grid.nodes <= y - 0.25
        rows.append((n, gm.field.values[ipk], np.max(np.abs(gm.field.values[region])), gm.min_gap))
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--y", type=float, default=0.0)
    ap.add_argument("--k", type=float, default=0.0)
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[512, 1024, 2048, 4096, 8192])
    args = ap.parse_args()

    print(f"witness u = {args.c}*exp(-|x - {args.y}|) - {args.k}")
    print(f"{'N':>6} {'gap@peak':>12} {'gap(region)':>12} {'min gap':>12}")
    prev = None
    for n, peak, away, min_gap in gap_levels(args.c, args.y, args.k, args.resolutions):
        line = f"{n:6d} {peak:12.3e} {away:12.3e} {min_gap:12.3e}"
        if prev is not None:
            line += f"   orders: peak {np.log2(prev[0]/peak):+5.2f} region {np.log2(prev[1]/away):+5.2f}"
        print(line)
        prev = (peak, away)


if __name__ == "__main__":
    main()
