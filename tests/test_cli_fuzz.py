"""The CLI's exit-code contract under random arguments.

``main`` runs in-process on random subcommands, flags, small ranges and
window, named, random, malformed or missing moment sources. Whatever the
input, it returns 0, 1, 2 or 3 and raises nothing. Exit 2, and exit 3
without a report on stdout, leave exactly one JSON record on stderr;
exits 0 and 1 leave stderr empty.
"""
import contextlib
import io
import json

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
