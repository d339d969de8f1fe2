#!/usr/bin/env python3
"""Volatility sweep contrasting the covariance-ratio index with SIX.

For each correlation level the covariance-ratio column decays toward zero as
the common volatility grows, while the SIX column stays flat: the copula never
changes, only the marginals do.  Output columns:

    sigma, rhix_<rho>..., six_<rho>...

    python scripts/rhix_vs_six_sweep.py --rhos 0.25 0.5 0.75 --out sweep.csv
"""

import argparse
import sys

from wcm.indices import rhix_lognormal_bivariate, six_lognormal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rhos", nargs="+", type=float, default=[0.25, 0.5, 0.75])
    parser.add_argument("--sigma-start", type=float, default=0.1)
    parser.add_argument("--sigma-stop", type=float, default=5.0)
    parser.add_argument("--sigma-step", type=float, default=0.1)
    parser.add_argument("--out", default="-")
    args = parser.parse_args()

    count = int(round((args.sigma_stop - args.sigma_start) / args.sigma_step))
    sigmas = [args.sigma_start + k * args.sigma_step for k in range(count + 1)]

    header = ["sigma"]
    header += [f"rhix_{rho:g}" for rho in args.rhos]
    header += [f"six_{rho:g}" for rho in args.rhos]
    lines = [",".join(header)]
    for sigma in sigmas:
        row = [repr(sigma)]
        row += [repr(rhix_lognormal_bivariate(rho, sigma, sigma)) for rho in args.rhos]
        row += [repr(six_lognormal([[1.0, rho], [rho, 1.0]], (1, 1))) for rho in args.rhos]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(sigmas)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
