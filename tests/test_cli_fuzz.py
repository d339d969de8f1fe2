"""Fuzz of ``wcm.cli.main``: every call exits 0 or 1 and never raises, and
exit 1 writes one JSON line with ``error`` and ``message`` to stderr.  Next
to the existence boundary, ``construct`` and ``sample`` follow ``validate``."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import boundary_weights
from wcm.cli import main

WEIGHT = st.floats(1e-320, 1e300, allow_subnormal=True)


def run(argv: list[str]) -> tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, code)
    if code == 1:
        line, = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}, (argv, line)
    return code, out.getvalue(), err.getvalue()


@given(st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.5, 0.99, -0.5])),
       st.one_of(st.floats(-1.0, 60.0), st.floats(1e-300, 1e-3)),
       st.floats(1e-300, 10.0), st.integers(0, 198))
@settings(max_examples=150, deadline=None)
def test_curve(rho, start, step, k):
    # at most 200 points: the grid has round((stop - start) / step) + 1
    run(["curve", "--", repr(rho), f"{start!r}:{start + k * step!r}:{step!r}"])


@given(st.sampled_from(["validate", "construct"]), st.lists(WEIGHT, min_size=2, max_size=6))
@settings(max_examples=150, deadline=None)
def test_validate_and_construct(command, weights):
    run([command, *map(repr, weights)])


@given(st.lists(WEIGHT, min_size=2, max_size=5), st.integers(0, 2000),
       st.integers(-1, 2**63 - 1), st.sampled_from(["1", "2"]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_bounds(weights, n, seed, threads, as_json):
    argv = ["bounds", *map(repr, weights), "--mc", str(n), "--seed", str(seed),
            "--threads", threads]
    run(argv + ["--json"] if as_json else argv)


@given(boundary_weights(st.just(3)))
@settings(max_examples=100, deadline=None)
def test_construct_and_sample_follow_validate(weights):
    argv = list(map(repr, weights))
    exists = json.loads(run(["validate", *argv])[1])["exists"]
    for command in (["construct", *argv], ["sample", *argv, "--n", "3", "--seed", "0"]):
        code, _, err = run(command)
        assert code == (0 if exists else 1), (command, code)
        if code == 1:
            assert json.loads(err)["error"] == "ExistenceError", (command, err)
