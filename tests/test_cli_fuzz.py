"""The CLI's exit-code contract under random arguments.

``main`` runs in-process on random subcommands, flags, small ranges and
window, named, random, malformed or missing moment sources. Whatever the
input, it returns 0, 1, 2 or 3 and raises nothing. Exit 2, and exit 3
without a report on stdout, leave exactly one JSON record on stderr;
exits 0 and 1 leave stderr empty. Numeric ``tau gl2`` runs at orders up
to 48 on windows up to 100 values long, and named families at an index of
10^18, also stay under a CPU-time ceiling.
"""
import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tauq.cli import main

# flags per subcommand: which moment flags it takes, its range flags, and
# whether it has --mode, --count and --max-work
GL2, GL3 = ("--moments",), ("--moments-c", "--moments-d", "--moments-e")
COMMANDS = [
    (("tau", "gl2"), GL2, ("k", "alpha"), True, False, False),
    (("tau", "gl3"), GL3, ("k", "l", "alpha", "beta"), True, False, True),
    (("verify", "qsystem"), GL2, ("k", "alpha"), True, False, False),
    (("verify", "gl3"), GL3, ("k", "l", "alpha", "beta"), True, False, True),
    (("verify", "zero-curvature"), GL2, ("k", "alpha"), True, False, False),
    (("verify", "orthogonality"), GL2, ("alpha",), False, True, False),
    (("verify", "mop"), GL3, ("k", "l", "alpha", "beta"), False, False, False),
    (("opgen",), GL2, ("alpha",), False, True, False),
    (("mop",), GL3, ("k", "l", "alpha", "beta"), False, False, False),
    (("recurrence",), GL2, ("alpha",), False, True, False),
]
# largest --k a symbolic run may ask for here: small enough that a run
# takes well under a second, far below the CLI's own bounds
SYMBOLIC_K = {("verify", "zero-curvature"): 2, ("verify", "gl3"): 3}
SYMBOLIC_ORDER = 6

rationals = st.builds(lambda n, d: f"{n}/{d}" if d > 1 else str(n),
                      st.integers(-3, 3), st.integers(1, 3))
malformed = st.sampled_from(["{", '{"kind": "spiral"}', "[1, 2]",
                             '{"kind": "window", "lo": 0, "values": ["1/0"]}',
                             "no/such/moments.json"])
sources = st.one_of(
    st.builds(lambda lo, vals: json.dumps({"kind": "window", "lo": lo,
                                           "values": vals}),
              st.integers(-3, 3), st.lists(rationals, max_size=8)),
    st.sampled_from(['{"kind": "named", "name": "catalan"}',
                     '{"kind": "named", "name": "hermite"}']),
    st.builds(lambda seed, lo, span: json.dumps(
        {"kind": "random", "seed": seed, "lo": lo, "hi": lo + span,
         "max_abs_num": 3, "max_den": 2}),
        st.integers(0, 50), st.integers(-3, 2), st.integers(-1, 8)),
)


@st.composite
def ranges(draw, top: int) -> str:
    """'LO..HI' at most 3 wide with HI <= top, or a bare integer, or
    (one time in sixteen) a malformed or empty range."""
    lo = draw(st.integers(-3, top))
    hi = min(top, lo + draw(st.integers(0, 2)))
    return draw(st.sampled_from([f"{lo}..{hi}"] * 9 + [str(lo)] * 5
                                + [f"{hi + 1}..{lo}", "x"]))


@st.composite
def cli_argv(draw) -> list[str]:
    words, moment_flags, range_flags, has_mode, has_count, has_work = \
        draw(st.sampled_from(COMMANDS))
    argv = list(words)
    symbolic = has_mode and draw(st.booleans())
    if has_mode:
        argv += ["--mode", "symbolic" if symbolic else "numeric"]
    for flag in moment_flags:
        # symbolic runs take no moments (give them one now and then anyway);
        # a numeric run misses one or gets a malformed one now and then,
        # and has an e family half the time
        roll = draw(st.integers(0, 15))
        if roll == 0 and not symbolic:
            argv += [flag, draw(malformed)]
        elif (roll == 1) if symbolic else roll >= (8 if flag == GL3[2] else 2):
            argv += [flag, draw(sources)]
    top = SYMBOLIC_K.get(words, SYMBOLIC_ORDER) if symbolic else 6
    for name in range_flags:
        # a symbolic run always bounds its --k: some defaults take seconds
        if (symbolic and name == "k") or draw(st.booleans()):
            argv += [f"--{name}", draw(ranges(top if name in "kl" else 3))]
    if has_count and draw(st.booleans()):
        argv += ["--count", str(draw(st.integers(-1, 5)))]
    if has_work and draw(st.booleans()):
        argv += ["--max-work", str(draw(st.integers(-1, 5)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "pretty"]))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
@example(argv=["verify", "zero-curvature", "--mode", "symbolic", "--k", "-1"])
@example(argv=["verify", "zero-curvature", "--mode", "symbolic", "--k", "-2..1"])
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines()
    if code == 2 or (code == 3 and not out.getvalue()):
        assert len(lines) == 1, (argv, lines)
        assert "error" in json.loads(lines[0]), argv
    else:
        assert lines == [], argv


# numeric tau gl2 at high order: the condensation table and its
# determinant fallback must finish within this much process time per argv
# (the dearest example below takes about 1.8 s on a 2-vCPU VM)
CPU_CEILING_S = 5.0
MAX_ORDER, MAX_WINDOW = 48, 100


def _window_values(seed: int, length: int, zeros: float) -> list[str]:
    """Two-digit numerators over one-digit denominators, each value zero
    with probability ``zeros``: a zero moment leaves every entry above it
    in the cone to the determinant fallback, whose cost at order 48 grows
    with the digit count."""
    rng = random.Random(seed)
    return ["0" if rng.random() < zeros
            else f"{rng.randint(-99, 99)}/{rng.randint(1, 9)}"
            for _ in range(length)]


@st.composite
def numeric_gl2_argv(draw) -> list[str]:
    """tau gl2 on a window of up to 100 values, with orders up to 48, a k
    range at most 3 wide and an alpha range at most 12 wide."""
    values = _window_values(draw(st.integers(0, 2 ** 32)),
                            draw(st.integers(0, MAX_WINDOW)),
                            draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])))
    k_hi = draw(st.integers(-2, MAX_ORDER))
    k_lo = k_hi - draw(st.integers(0, 2))
    a_lo = draw(st.integers(-8, 8))
    a_hi = a_lo + draw(st.integers(0, 11))
    window = {"kind": "window", "lo": draw(st.integers(-5, 5)),
              "values": values}
    return ["tau", "gl2", "--moments", json.dumps(window),
            "--k", f"{k_lo}..{k_hi}", "--alpha", f"{a_lo}..{a_hi}",
            "--format", draw(st.sampled_from(["json", "csv", "pretty"]))]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=numeric_gl2_argv())
# the dearest shape drawn: 36 entries of order 46-48 that read the zeros
# left of the window, so all of them fall back to the determinant
@example(argv=["tau", "gl2", "--moments", json.dumps(
    {"kind": "window", "lo": 0, "values": _window_values(1, MAX_WINDOW, 0.01)}),
    "--k", "46..48", "--alpha", "-8..3"])
def test_numeric_tau_gl2_cpu_ceiling(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    spent = time.process_time() - start
    assert spent < CPU_CEILING_S, (spent, argv)
    assert (code, err.getvalue()) == (0, ""), argv


@pytest.mark.parametrize("name", ["catalan", "hermite"])
@pytest.mark.parametrize("words", [("opgen", "--count", "2"),
                                   ("tau", "gl2", "--k", "2"),
                                   ("verify", "orthogonality", "--count", "2")],
                         ids=["opgen", "tau-gl2", "orthogonality"])
def test_named_family_at_huge_alpha_is_resource_bound(words, name):
    # math.comb at this index would not finish: the moment index bound
    # refuses it before any arithmetic
    argv = [*words, "--moments", json.dumps({"kind": "named", "name": name}),
            "--alpha", str(10 ** 18)]
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.process_time() - start < CPU_CEILING_S
    assert (code, out.getvalue()) == (2, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ResourceBoundError"
