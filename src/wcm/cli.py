"""Command-line interface.

Subcommands: ``validate``, ``construct``, ``sample``, ``cdf``, ``bounds``,
``six``, ``curve``.  Structured output is JSON (CSV where tabular); every
command that consumes randomness either receives an explicit ``--seed`` or
has one generated and recorded, and each run emits a manifest (command,
arguments, seed, version, output digests) so outputs can be reproduced
byte-for-byte.  Results only render text or JSON-ready dicts; the two writers
here, ``_emit_json`` and ``_write_with_manifest``, open every output file and
attach every manifest.  Exit codes: 0 success, 1 domain error or ``OSError``
(JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import locale  # noqa: F401 - argparse's gettext imports it; pay for that at import, not in main
import math
import secrets
import sys
from typing import Iterable

from . import __version__, bounds
from .copula import GENERATOR_NAME, build_grouped_wcm, build_triangle
from .data import DEFAULT_WINDOW, detrend_by_index, load_prices, rolling_six
from .errors import DomainError, WcmError
from .indices import rhix_degeneracy_curve
from .weights import (as_weight_vector, existence_deficit, shrink_weights,
                      validate_wcm_existence, variance_lower_bound, variance_upper_bound)

__all__ = ["main", "entrypoint"]

_CURVE_BLOCK = 1 << 10  # rows per block of ``curve`` text: bounds the strings held at once


def _manifest(
    args: argparse.Namespace, seed: int | None, outputs: dict[str, str], **counts: int
) -> dict:
    return {
        "command": args.command,
        "argv": args._argv,
        "seed": seed,
        "generator": GENERATOR_NAME if seed is not None else None,
        "version": __version__,
        "outputs": outputs,
        **counts,
    }


def _dumps(payload: dict, **kwargs) -> str:
    """JSON text of ``payload``; a non-finite float, which JSON cannot carry,
    is a :class:`DomainError`."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise DomainError(f"output holds a non-finite float: {exc}") from None


def _emit_json(payload: dict, args, seed: int | None = None, **counts: int) -> None:
    """Write ``payload`` with its manifest as JSON to ``--out`` or stdout."""
    payload["manifest"] = _manifest(args, seed, {}, **counts)
    text = _dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_with_manifest(
    blocks: Iterable[str], args, seed: int | None = None, **counts: int
) -> None:
    """Write tabular output to ``--out`` plus a sidecar manifest, or to stdout
    with the manifest on stderr.

    Each block of text is encoded once, written and fed to one sha256, so only
    one block is held at a time and the digest is of the bytes written.
    """
    digest = hashlib.sha256()
    if args.out:
        with open(args.out, "wb") as fh:
            for block in blocks:
                data = block.encode()
                fh.write(data)
                digest.update(data)
        manifest = _manifest(args, seed, {args.out: digest.hexdigest()}, **counts)
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(_dumps(manifest, indent=2) + "\n")
    else:
        for block in blocks:
            sys.stdout.write(block)
            digest.update(block.encode())
        manifest = _manifest(args, seed, {"-": digest.hexdigest()}, **counts)
        sys.stderr.write(_dumps(manifest) + "\n")


def _resolve_seed(args: argparse.Namespace) -> int:
    """Explicit seed, else a fresh one recorded in the manifest."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    return secrets.randbits(63)


def _cmd_validate(args) -> int:
    wv = as_weight_vector(args.weights)
    _emit_json({
        "weights": list(wv.values),
        "exists": validate_wcm_existence(wv),
        "deficit": existence_deficit(wv),
    }, args)
    return 0


def _cmd_construct(args) -> int:
    if len(args.weights) != 3:
        raise DomainError("construct needs exactly 3 weights (triangle construction)")
    copula = build_triangle(args.weights, variant=args.variant)
    _emit_json(copula.to_dict(), args)
    return 0


def _build_for_sampling(weights, variant: str):
    wv = as_weight_vector(weights)
    if wv.d == 3:
        return build_triangle(wv, variant=variant)
    if variant != "A":
        raise DomainError("variant B is only defined for exactly 3 weights")
    return build_grouped_wcm(wv)


def _cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    copula = _build_for_sampling(args.weights, args.variant)
    matrix = copula.sample(args.n, seed)
    if args.format == "json":
        _emit_json({**matrix.to_json_dict(), "rows": matrix.values.tolist()}, args, seed)
    else:
        _write_with_manifest(matrix.csv_blocks(), args, seed)
    return 0


def _cmd_cdf(args) -> int:
    values = args.values
    if len(values) != 6:
        raise DomainError(
            "cdf needs 3 weights and 3 coordinates, e.g. `cdf 5 4 3 -- 1 0.25 0.333`"
        )
    copula = build_triangle(values[:3], variant=args.variant)
    point = values[3:]
    _emit_json({
        "weights": values[:3],
        "variant": args.variant,
        "u": point,
        "cdf": copula.cdf(point),
    }, args)
    return 0


def _cmd_bounds(args) -> int:
    wv = as_weight_vector(args.weights)
    if args.threads < 1:
        raise DomainError(f"threads must be >= 1, got {args.threads}")
    seed = _resolve_seed(args)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    # before any draw: if the bounds fit a float, so does the estimate
    payload = {"weights": list(wv.values), "lower": variance_lower_bound(wv),
               "upper": variance_upper_bound(wv)}
    shrunk = shrink_weights(wv)
    if shrunk is wv:  # admissible weights come back as they are: one existence decision
        attained = f"{wv.values} (constant sum)"
    else:
        attained = (f"shrunken weights {shrunk.values}; "
                    "the oversized coordinate's excess rides on U1")
    payload["attained_by"] = f"weighted-countermonotonic coupling on {attained}"
    rows = [("weights", " ".join(repr(v) for v in wv.values)),
            ("lower l(w)", repr(payload["lower"])), ("upper", repr(payload["upper"]))]
    if args.mc is None:
        seed = None
    else:
        # through the module, so that a tracer that patches ``wcm.bounds`` sees the calls
        coupling, _ = bounds.optimal_coupling(wv)
        estimate, stderr = bounds.mc_variance(coupling, wv, args.mc, seed, threads=args.threads)
        payload["mc"] = {"n": args.mc, "estimate": estimate, "stderr": stderr, "seed": seed}
        rows += [("mc estimate", repr(estimate)), ("mc stderr", repr(stderr)),
                 ("mc n", str(args.mc)), ("seed", str(seed))]
    if args.json or args.out:
        _emit_json(payload, args, seed)
    else:
        width = max(len(k) for k, _ in rows)
        table = "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"
        _write_with_manifest([table], args, seed)
    return 0


def _cmd_six(args) -> int:
    series = load_prices(args.csv, index_column=args.index_column)
    if args.detrend:
        series = detrend_by_index(series)
    weights = args.weights if args.weights else None
    rolling = rolling_six(
        series,
        w=weights,
        window=args.window,
        step=args.step,
        estimator=args.estimator,
    )
    counts = {
        "rows_read": series.load_report.rows_read,
        "rows_dropped": series.load_report.rows_dropped,
        "pairs_dropped": rolling.pairs_dropped,
        "windows_skipped": len(rolling.skipped),
    }
    if args.json:
        payload = rolling.to_json_dict()
        payload.update(rows_read=counts["rows_read"], rows_dropped=counts["rows_dropped"])
        _emit_json(payload, args, **counts)
    else:
        _write_with_manifest([rolling.csv_text()], args, **counts)
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = map(float, text.split(":"))
    except ValueError:
        raise DomainError(f"grid must be start:stop:step, got {text!r}") from None
    count = (stop - start) / step if step > 0.0 and stop >= start else math.nan
    if not all(map(math.isfinite, (start, stop, step, count))):
        raise DomainError(f"bad grid {text!r}: need finite start <= stop and step > 0")
    grid = [start + k * step for k in range(round(count) + 1)]
    return [g for g in grid if g <= stop + 1e-12]


def _cmd_curve(args) -> int:
    grid = _parse_grid(args.grid)
    curve = rhix_degeneracy_curve(args.rho, grid)
    blocks = ("".join(f"{s!r},{v!r}\n" for s, v in curve[start:start + _CURVE_BLOCK])
              for start in range(0, len(curve), _CURVE_BLOCK))
    _write_with_manifest(itertools.chain(["sigma,rhix\n"], blocks), args)
    return 0


def _add_weights_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("weights", nargs="+", type=float, help="strictly positive weights")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcm",
        description=(
            "Weighted-countermonotonic copulas, variance bounds of weighted "
            "sums of uniforms, and the SIX herd behavior index."
        ),
    )
    parser.add_argument("--version", action="version", version=f"wcm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="existence test for the given weights")
    _add_weights_argument(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("construct", help="triangle copula descriptor (d=3)")
    _add_weights_argument(p)
    p.add_argument("--variant", choices=("A", "B"), default="A")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sample", help="draw observations from the constructed copula")
    _add_weights_argument(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, help="RNG seed; generated and recorded if omitted")
    p.add_argument("--variant", choices=("A", "B"), default="A")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "cdf", help="exact CDF: `cdf W1 W2 W3 -- U1 U2 U3`, options anywhere before `--`"
    )
    p.add_argument("values", nargs="+", type=float)
    p.add_argument("--variant", choices=("A", "B"), default="A")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("bounds", help="exact variance bounds with optional MC check")
    _add_weights_argument(p)
    p.add_argument("--mc", type=int, help="Monte Carlo sample size")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("six", help="rolling SIX over a price CSV")
    p.add_argument("csv", help="price table: header `date,<ticker>,...`")
    p.add_argument("--weights", nargs="+", type=float, help="default: equal weights")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--estimator", choices=("rank", "lognormal"), default="rank")
    p.add_argument("--index-column", help="name of the market index column")
    p.add_argument("--detrend", action="store_true",
                   help="divide prices by the market index before estimating")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_six)

    p = sub.add_parser("curve", help="volatility-degeneracy sweep: `curve RHO 0.1:5:0.1`")
    p.add_argument("rho", type=float)
    p.add_argument("grid", help="sigma grid as start:stop:step")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_curve)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "cdf":
        # An option between the weights and the point ends ``values`` early, so
        # the point arrives as leftovers.
        try:
            args.values += [float(v) for v in (rest[1:] if rest[:1] == ["--"] else rest)]
            rest = []
        except ValueError:
            pass
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args._argv = argv
    try:
        return args.func(args)
    except (WcmError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


def entrypoint() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
