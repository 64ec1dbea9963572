"""Seeded corpora of polynomial, tau-table and verifier runs, each pinned
by one SHA-256.

The corpus runs ``opgen``, ``recurrence``, ``verify orthogonality``,
``mop``, ``verify mop`` and ``verify qsystem`` on named families, windows
with a negative ``lo`` and windows where 30-60% of the values are zero,
with k and l ranges that mostly start at -1. The digest covers the argv,
exit code, stdout and stderr of every run, in order. It was recorded
before ``mop_bordered_poly`` took over the rule that B_{k,l} vanishes
outside 0 <= l <= k and before ``verify orthogonality`` read its taus from
the bordered polynomials; any change to what these subcommands print
changes it.

The second corpus runs numeric ``tau gl3`` without an e-family and
``verify zero-curvature`` on the same kinds of sources. The third runs
``opgen``, ``recurrence``, ``verify qsystem``, ``verify zero-curvature``,
``verify orthogonality`` and ``mop`` on catalan and hermite with the
named-index bound lowered, so that some runs read past it. Those two were
recorded before the subcommands read their taus and polynomials a whole
column at a time from one elimination.

The fourth runs ``verify gl3`` without an e-family on the same kinds of
sources, ``mop --l 0..2`` on windows whose l = 1 column has a zero
leading minor, both again with the named-index bound lowered, and
prints ``window_matrix_gl2``/``window_matrix_gl3`` (or the
``DegenerateTauError`` record) on seeded windows with 30% zeros. It was
recorded while ``verify gl3`` and the wave factors still took one
determinant per tau and per bordered polynomial.

The fifth runs ``verify mop`` and ``verify orthogonality`` on the same
kinds of sources, on window pairs whose l = 1 column has a zero leading
minor, on windows with a zero tau_k and on hermite at odd alpha, and
again with the named-index bound lowered. It was recorded while ``verify
mop`` built each polynomial by its own elimination and both verifiers
paired polynomials one ``form_eval`` at a time.

The sixth runs the symbolic subcommands: ``tau gl2`` and ``tau gl3`` in
json, pretty and csv, and ``verify qsystem``, ``verify gl3`` and ``verify
zero-curvature`` in json and pretty, over formal moments with k and l
ranges that mostly start at -1 and alpha and beta in -2..2. It was
recorded while every symbolic tau was its own determinant, built one
``MomentPoly`` product at a time, and every check printed both sides.

The seventh runs ``tau gl3`` (json, pretty and csv) and ``verify gl3``
(json and pretty) with an e-family: the same kinds of sources, so a
named C or D beside a nonzero E is a ``SupportError`` record; windows
whose first Cauchy entry or first c-moment is forced to zero, so a
leading minor at k >= l vanishes; and all-zero e-windows beside named and
window C and D. Its k and l ranges mostly start at -1 and often reach
l > k. It was recorded while every tau with a nonzero E was its own
determinant and an all-zero e-window took one determinant per tau.
"""
import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import tauq.moments
from tauq import DegenerateTauError, window_matrix_gl2, window_matrix_gl3
from tauq.cli import main

from reference import forced_zero_window, seeded_window

SEED, PER_COMMAND = 16, 60
PINNED = "8266891d2f3ac5db7aca04ab35b974cab80f668415fab577a6bea8b0c0e57374"
TAU_SEED, TAU_PER_COMMAND = 17, 70
TAU_PINNED = "6c9eb77666ea21ec08847d95e48b5e561cd38e6e4c3a45f620651e6f4325c714"
BOUNDED_PINNED = "75871320e7ef57a61ae8a9787faeb11709884504e30e6bc6fa2c3c65e2436c79"
COLUMN_SEED, COLUMN_PER_COMMAND = 18, 130
COLUMN_PINNED = "bbe5ac15d314a6387fd520aeb92101e6d6b20de8bd080a4f0c5b307af47fdbc8"
PAIRING_SEED = 19
PAIRING_PINNED = "5515ba45a961f97a8a761921253bb6f182d2bb9ca7cda0ebe89d5eea4cc6c47d"
SYMBOLIC_SEED = 20
SYMBOLIC_PINNED = "061b17c31ebc70725073f467502c6dec735457692733b3ec50e1509b35b1c82c"
E_SEED = 22
E_PINNED = "324dc73ae9040d99cd24eccd782367b2c198d54be8e60a2f8ac0d53ca3a446a9"


def _source(rng: random.Random) -> str:
    """A named family one time in four, otherwise a window of 4-12 small
    rationals at lo in -4..2, with none, 30%, 45% or 60% of them zero."""
    if rng.random() < 0.25:
        return json.dumps({"kind": "named",
                           "name": rng.choice(["catalan", "hermite"])})
    zeros = rng.choice([0.0, 0.3, 0.45, 0.6])
    values = ["0" if rng.random() < zeros
              else str(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
              for _ in range(rng.randint(4, 12))]
    return json.dumps({"kind": "window", "lo": rng.randint(-4, 2),
                       "values": values})


def _range(rng: random.Random, lo_choices, hi: int) -> str:
    return f"{rng.choice(lo_choices)}..{hi}"


def _argv(rng: random.Random, command: str) -> list[str]:
    fmt = ["--format", rng.choice(["json", "pretty", "pretty"])]
    if command in ("opgen", "recurrence"):
        return [command, "--moments", _source(rng),
                "--count", str(rng.randint(0, 6)),
                "--alpha", str(rng.randint(-2, 3)), *fmt]
    if command == "orthogonality":
        a = rng.randint(-2, 2)
        return ["verify", "orthogonality", "--moments", _source(rng),
                "--alpha", f"{a}..{a + rng.randint(0, 2)}",
                "--count", str(rng.randint(0, 5)), *fmt]
    if command == "qsystem":
        a = rng.randint(-2, 2)
        return ["verify", "qsystem", "--moments", _source(rng),
                "--k", _range(rng, (-1, -1, 0, 1), rng.randint(1, 6)),
                "--alpha", f"{a}..{a + rng.randint(0, 2)}", *fmt]
    ks = ["--k", _range(rng, (-1, -1, -1, 0, 1), rng.randint(1, 4)),
          "--l", _range(rng, (-1, -1, 0, 1), rng.randint(0, 3))]
    families = ["--moments-c", _source(rng), "--moments-d", _source(rng)]
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    if command == "mop":
        return ["mop", *families, *ks, "--alpha", str(a), "--beta", str(b),
                *fmt]
    return ["verify", "mop", *families, *ks,
            "--alpha", f"{a}..{a + rng.randint(0, 1)}",
            "--beta", f"{b}..{b + rng.randint(0, 1)}", *fmt]


def corpus() -> list[list[str]]:
    rng = random.Random(SEED)
    return [_argv(rng, command)
            for command in ("opgen", "recurrence", "orthogonality",
                            "mop", "verify-mop", "qsystem")
            for _ in range(PER_COMMAND)]


def corpus_digest(argvs) -> str:
    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (json.dumps(argv), str(code), out.getvalue(),
                     err.getvalue()):
            digest.update(part.encode() + b"\0")
    return digest.hexdigest()


def test_corpus_output_is_pinned():
    argvs = corpus()
    assert len(argvs) >= 300
    assert corpus_digest(argvs) == PINNED


def _tau_argv(rng: random.Random, command: str) -> list[str]:
    a, b = rng.randint(-3, 2), rng.randint(-2, 2)
    alphas = ["--alpha", f"{a}..{a + rng.randint(0, 2)}"]
    if command == "zero-curvature":
        return ["verify", "zero-curvature", "--moments", _source(rng),
                "--k", _range(rng, (-1, -1, 0, 1), rng.randint(1, 4)),
                *alphas, "--format", rng.choice(["json", "pretty"])]
    return ["tau", "gl3", "--moments-c", _source(rng),
            "--moments-d", _source(rng),
            "--k", _range(rng, (-1, -1, 0, 1), rng.randint(1, 6)),
            "--l", _range(rng, (-1, -1, 0, 1), rng.randint(0, 3)),
            *alphas, "--beta", f"{b}..{b + rng.randint(0, 1)}",
            "--format", rng.choice(["json", "csv", "pretty"])]


def tau_corpus() -> list[list[str]]:
    rng = random.Random(TAU_SEED)
    return [_tau_argv(rng, command)
            for command in ("tau-gl3", "zero-curvature")
            for _ in range(TAU_PER_COMMAND)]


def test_tau_corpus_output_is_pinned():
    argvs = tau_corpus()
    assert len(argvs) >= 120
    assert corpus_digest(argvs) == TAU_PINNED


def bounded_corpus() -> list[tuple[int, list[str]]]:
    """(MAX_NAMED_INDEX, argv) pairs whose named-moment reads reach the
    bound in some runs and not in others, with and without a zero tau
    before it."""
    out = []
    for bound, name, a in itertools.product((8, 13), ("catalan", "hermite"),
                                            (-2, -1, 0, 1, 2)):
        m = json.dumps({"kind": "named", "name": name})
        other = json.dumps({"kind": "named", "name": "catalan"
                            if name == "hermite" else "hermite"})
        for n in (3, 5, 7):
            out += [(bound, ["opgen", "--moments", m, "--count", str(n),
                             "--alpha", str(a)]),
                    (bound, ["recurrence", "--moments", m, "--count", str(n),
                             "--alpha", str(a)]),
                    (bound, ["verify", "qsystem", "--moments", m,
                             "--k", f"0..{n + 1}", "--alpha", f"{a}..{a + 1}"]),
                    (bound, ["verify", "zero-curvature", "--moments", m,
                             "--k", f"-1..{n - 2}", "--alpha", f"{a}..{a + 1}",
                             "--format", "json"]),
                    (bound, ["verify", "orthogonality", "--moments", m,
                             "--count", str(n), "--alpha", f"{a}..{a + 1}"]),
                    (bound, ["mop", "--moments-c", m, "--moments-d", other,
                             "--k", f"0..{n}", "--l", "0..2",
                             "--alpha", str(a), "--beta", str(a % 2)])]
    return out


def test_bounded_corpus_output_is_pinned(monkeypatch):
    # recorded before any of these read a whole column of taus or
    # polynomials at once: reading past the bound must fail, or not, as
    # one entry at a time does
    digest = hashlib.sha256()
    for bound, argv in bounded_corpus():
        monkeypatch.setattr(tauq.moments, "MAX_NAMED_INDEX", bound)
        digest.update(corpus_digest([argv]).encode())
    assert digest.hexdigest() == BOUNDED_PINNED


def _gl3_verify_argv(rng: random.Random) -> list[str]:
    a, b = rng.randint(-3, 2), rng.randint(-2, 2)
    return ["verify", "gl3", "--moments-c", _source(rng),
            "--moments-d", _source(rng),
            "--k", _range(rng, (-1, -1, 0, 1), rng.randint(0, 3)),
            "--l", _range(rng, (-1, -1, 0, 1), rng.randint(0, 3)),
            "--alpha", f"{a}..{a + rng.randint(0, 1)}",
            "--beta", f"{b}..{b + rng.randint(0, 1)}",
            "--format", rng.choice(["json", "pretty"])]


def _window_json(lo: int, values) -> str:
    return json.dumps({"kind": "window", "lo": lo,
                       "values": [str(v) for v in values]})


def _zero_minor_pair(rng: random.Random) -> tuple[list[str], int, int]:
    """(--moments-c/--moments-d args, alpha, beta) for a window pair whose
    l = 1 column at (alpha, beta) has a zero leading minor of order 1
    (d_alpha = 0) or of order 2 (d_alpha c_{alpha-beta+1} = d_{alpha+1}
    c_{alpha-beta})."""
    a, b = rng.randint(-2, 2), rng.randint(-1, 1)
    c = seeded_window(rng, a - b - 2, a - b + 11, num=7, den=3)
    d = seeded_window(rng, a - 2, a + 11, num=7, den=3)
    if rng.random() < 0.5 or not d.get(a):
        d.values[2] = Fraction(0)
    else:
        c.values[3] = d.get(a + 1) * c.get(a - b) / d.get(a)
    return (["--moments-c", _window_json(c.lo, c.values),
             "--moments-d", _window_json(d.lo, d.values)], a, b)


def _mop_zero_minor_argv(rng: random.Random) -> list[str]:
    """``mop --l 0..2`` on a zero-minor pair, with k ranges that start
    below, at or past the zero minor."""
    families, a, b = _zero_minor_pair(rng)
    k_lo = rng.randint(0, 3)
    return ["mop", *families,
            "--k", f"{k_lo}..{k_lo + rng.randint(0, 3)}", "--l", "0..2",
            "--alpha", str(a), "--beta", str(b),
            "--format", rng.choice(["json", "pretty"])]


def column_corpus() -> list[list[str]]:
    rng = random.Random(COLUMN_SEED)
    return ([_gl3_verify_argv(rng) for _ in range(COLUMN_PER_COMMAND)]
            + [_mop_zero_minor_argv(rng) for _ in range(40)])


def bounded_column_corpus() -> list[tuple[int, list[str]]]:
    """(MAX_NAMED_INDEX, argv) pairs of ``verify gl3`` and ``mop`` on
    catalan and hermite, whose reads reach the bound in some runs."""
    out = []
    for bound, name, a in itertools.product((8, 13), ("catalan", "hermite"),
                                            (-1, 0, 1, 3)):
        m = json.dumps({"kind": "named", "name": name})
        other = json.dumps({"kind": "named", "name": "catalan"
                            if name == "hermite" else "hermite"})
        for n in (2, 4):
            out += [(bound, ["verify", "gl3", "--moments-c", m,
                             "--moments-d", other, "--k", f"0..{n}",
                             "--l", "-1..2", "--alpha", f"{a}..{a + 1}",
                             "--beta", "0..1", "--format", "json"]),
                    (bound, ["mop", "--moments-c", other, "--moments-d", m,
                             "--k", f"0..{n + 1}", "--l", "0..2",
                             "--alpha", str(a), "--beta", str(a % 2)])]
    return out


def _printed(window) -> str:
    try:
        matrix = window()
    except DegenerateTauError as exc:
        return json.dumps(exc.record())
    return json.dumps([[str(e) for e in row] for row in matrix.entries])


def window_corpus() -> list[str]:
    """window_matrix_gl2 and window_matrix_gl3, as printed, on seeded
    windows with 30% zeros."""
    rng = random.Random(COLUMN_SEED)
    out = []
    for _ in range(50):
        m = seeded_window(rng, rng.randint(-3, 1), 10, num=6, den=3, zeros=0.3)
        k, a = rng.randint(0, 4), rng.randint(-2, 2)
        out.append(_printed(lambda: window_matrix_gl2(k, a, m)))
        C, D = (seeded_window(rng, rng.randint(-3, 1), 10, num=6, den=3,
                              zeros=0.3) for _ in range(2))
        k, l = rng.randint(0, 4), rng.randint(0, 3)
        a, b = rng.randint(-2, 2), rng.randint(-1, 1)
        out.append(_printed(lambda: window_matrix_gl3(k, l, a, b, C, D)))
    return out


def test_column_corpus_output_is_pinned(monkeypatch):
    argvs = column_corpus()
    assert sum(argv[:2] == ["verify", "gl3"] for argv in argvs) >= 120
    digest = hashlib.sha256(corpus_digest(argvs).encode())
    for bound, argv in bounded_column_corpus():
        monkeypatch.setattr(tauq.moments, "MAX_NAMED_INDEX", bound)
        digest.update(corpus_digest([argv]).encode())
    monkeypatch.undo()
    windows = window_corpus()
    assert len(windows) >= 80
    for printed in windows:
        digest.update(printed.encode() + b"\0")
    assert digest.hexdigest() == COLUMN_PINNED


def _verify_mop_argv(rng: random.Random) -> list[str]:
    """``verify mop`` with k and l ranges mostly from -1, one time in three
    on a zero-minor pair with alpha and beta ranges that hold it."""
    if rng.random() < 1 / 3:
        families, a, b = _zero_minor_pair(rng)
        alphas = f"{a - rng.randint(0, 1)}..{a}"
        betas = f"{b}..{b + rng.randint(0, 1)}"
        ks = ["--k", f"{rng.randint(-1, 3)}..{rng.randint(3, 6)}",
              "--l", f"{rng.choice((-1, 0, 1))}..2"]
    else:
        families = ["--moments-c", _source(rng), "--moments-d", _source(rng)]
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        alphas = f"{a}..{a + rng.randint(0, 1)}"
        betas = f"{b}..{b + rng.randint(0, 1)}"
        ks = ["--k", _range(rng, (-1, -1, 0, 1, 2), rng.randint(1, 5)),
              "--l", _range(rng, (-1, -1, 0, 1), rng.randint(0, 3))]
    return ["verify", "mop", *families, *ks, "--alpha", alphas,
            "--beta", betas, "--format", rng.choice(["json", "pretty"])]


def _verify_orthogonality_argv(rng: random.Random) -> list[str]:
    """``verify orthogonality`` on hermite at an odd alpha, on a window
    with a zero tau_k at its first alpha, or on any source."""
    pick, a = rng.random(), rng.randint(-2, 2)
    if pick < 0.25:
        m, a = json.dumps({"kind": "named", "name": "hermite"}), 2 * a + 1
    elif pick < 0.5:
        w = forced_zero_window(rng, rng.randint(1, 4), a)
        m = _window_json(w.lo, w.values)
    else:
        m = _source(rng)
    return ["verify", "orthogonality", "--moments", m,
            "--alpha", f"{a}..{a + rng.randint(0, 2)}",
            "--count", str(rng.randint(0, 6)),
            "--format", rng.choice(["json", "pretty"])]


def pairing_corpus() -> list[list[str]]:
    rng = random.Random(PAIRING_SEED)
    return ([_verify_mop_argv(rng) for _ in range(150)]
            + [_verify_orthogonality_argv(rng) for _ in range(100)])


def bounded_pairing_corpus() -> list[tuple[int, list[str]]]:
    """(MAX_NAMED_INDEX, argv) pairs of ``verify mop`` and ``verify
    orthogonality`` on catalan and hermite, whose reads reach the bound in
    some runs."""
    out = []
    for bound, name, a in itertools.product((8, 13), ("catalan", "hermite"),
                                            (-1, 0, 1, 3)):
        m = json.dumps({"kind": "named", "name": name})
        other = json.dumps({"kind": "named", "name": "catalan"
                            if name == "hermite" else "hermite"})
        for n in (2, 4, 6):
            out += [(bound, ["verify", "mop", "--moments-c", m,
                             "--moments-d", other, "--k", f"-1..{n}",
                             "--l", "-1..2", "--alpha", f"{a}..{a + 1}",
                             "--beta", "0..1", "--format", "json"]),
                    (bound, ["verify", "orthogonality", "--moments", m,
                             "--count", str(n), "--alpha", f"{a}..{a + 1}",
                             "--format", "json"])]
    return out


def test_pairing_corpus_output_is_pinned(monkeypatch):
    argvs = pairing_corpus()
    assert sum(argv[:2] == ["verify", "mop"] for argv in argvs) >= 120
    assert sum(argv[:2] == ["verify", "orthogonality"]
               for argv in argvs) >= 80
    digest = hashlib.sha256(corpus_digest(argvs).encode())
    for bound, argv in bounded_pairing_corpus():
        monkeypatch.setattr(tauq.moments, "MAX_NAMED_INDEX", bound)
        digest.update(corpus_digest([argv]).encode())
    assert digest.hexdigest() == PAIRING_PINNED


def _symbolic_argv(rng: random.Random, command: str) -> list[str]:
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    alphas = ["--alpha", f"{a}..{a + rng.randint(0, 1)}"]
    betas = ["--beta", f"{b}..{b + rng.randint(0, 1)}"]
    if command == "tau-gl2":
        return ["tau", "gl2", "--mode", "symbolic",
                "--k", _range(rng, (-1, -1, 0, 1), rng.randint(1, 6)),
                *alphas, "--format", rng.choice(["json", "pretty", "csv"])]
    if command == "tau-gl3":
        return ["tau", "gl3", "--mode", "symbolic",
                "--k", _range(rng, (-1, -1, 0, 1), rng.randint(1, 5)),
                "--l", _range(rng, (-1, -1, 0, 1), rng.randint(0, 3)),
                *alphas, *betas,
                "--format", rng.choice(["json", "pretty", "csv"])]
    fmt = ["--format", rng.choice(["json", "pretty"])]
    if command == "qsystem":
        return ["verify", "qsystem", "--mode", "symbolic",
                "--k", _range(rng, (-1, -1, 0, 1), rng.randint(1, 6)),
                *alphas, *fmt]
    if command == "gl3":
        return ["verify", "gl3", "--mode", "symbolic",
                "--k", _range(rng, (-1, -1, 0, 1), rng.randint(0, 3)),
                "--l", _range(rng, (-1, -1, 0, 1), rng.randint(0, 2)),
                "--alpha", str(a), "--beta", str(b), *fmt]
    return ["verify", "zero-curvature", "--mode", "symbolic",
            "--k", _range(rng, (-2, -1, -1, 0), rng.randint(-1, 1)),
            "--alpha", str(a), *fmt]


def symbolic_corpus() -> list[list[str]]:
    rng = random.Random(SYMBOLIC_SEED)
    return [_symbolic_argv(rng, command)
            for command, count in (("tau-gl2", 80), ("tau-gl3", 80),
                                   ("qsystem", 60), ("gl3", 50),
                                   ("zero-curvature", 50))
            for _ in range(count)]


def test_symbolic_corpus_output_is_pinned():
    argvs = symbolic_corpus()
    assert len(argvs) >= 300
    assert corpus_digest(argvs) == SYMBOLIC_PINNED


def _zero_e_source(rng: random.Random) -> str:
    """An identically-zero e-window: empty, or 1-6 zeros at lo in -3..2."""
    return _window_json(rng.randint(-3, 2), ["0"] * rng.randint(0, 6))


def _forced_zero_triple(rng: random.Random) -> tuple[list[str], int, int]:
    """(--moments-c/-d/-e args, alpha, beta) for a window triple with a
    zero leading minor of order 1 at (alpha, beta): either the first
    Cauchy entry d_alpha - sum_m c_{alpha-beta-m-1} e_{beta+m}, which
    every l >= 1 column starts with, or c_{alpha-beta}, which the l = 0
    column starts with."""
    a, b = rng.randint(-2, 2), rng.randint(-1, 1)
    C = seeded_window(rng, a - b - 4, a - b + 8, num=7, den=3, zeros=0.3)
    D = seeded_window(rng, a - 2, a + 10, num=7, den=3, zeros=0.3)
    E = seeded_window(rng, b - 2, b + 8, num=7, den=3, zeros=0.3)
    if rng.random() < 0.5:
        D.values[a - D.lo] = sum(C.get(a - b - m - 1) * E.get(b + m)
                                 for m in range(a - b - C.lo))
    else:
        C.values[a - b - C.lo] = Fraction(0)
    return (["--moments-c", _window_json(C.lo, C.values),
             "--moments-d", _window_json(D.lo, D.values),
             "--moments-e", _window_json(E.lo, E.values)], a, b)


def _e_argv(rng: random.Random, command: str, kind: str) -> list[str]:
    """``tau gl3`` or ``verify gl3`` with --moments-e: on any sources, on a
    forced-zero triple (alpha and beta ranges that hold it), or with an
    all-zero e-window beside a named or window C and D."""
    if kind == "forced":
        families, a, b = _forced_zero_triple(rng)
        alphas = f"{a - rng.randint(0, 1)}..{a}"
    else:
        e = _zero_e_source(rng) if kind == "zero-e" else _source(rng)
        families = ["--moments-c", _source(rng), "--moments-d", _source(rng),
                    "--moments-e", e]
        a, b = rng.randint(-3, 2), rng.randint(-2, 2)
        alphas = f"{a}..{a + rng.randint(0, 1)}"
    spans = ["--alpha", alphas, "--beta", f"{b}..{b + rng.randint(0, 1)}"]
    if command == "tau-gl3":
        ks = ["--k", _range(rng, (-1, -1, 0, 1), rng.randint(1, 4)),
              "--l", _range(rng, (-1, -1, 0), rng.randint(0, 4))]
        return ["tau", "gl3", *families, *ks, *spans,
                "--format", rng.choice(["json", "pretty", "csv"])]
    ks = ["--k", _range(rng, (-1, 0, 1), rng.randint(1, 3)),
          "--l", _range(rng, (-1, 0), rng.randint(0, 2))]
    return ["verify", "gl3", *families, *ks, *spans,
            "--format", rng.choice(["json", "pretty"])]


def e_corpus() -> list[list[str]]:
    rng = random.Random(E_SEED)
    return [_e_argv(rng, command, kind)
            for command in ("tau-gl3", "verify-gl3")
            for kind, count in (("any", 70), ("forced", 40), ("zero-e", 30))
            for _ in range(count)]


def test_e_corpus_output_is_pinned():
    argvs = e_corpus()
    assert sum(argv[:2] == ["verify", "gl3"] for argv in argvs) >= 120
    assert sum("--moments-e" in argv for argv in argvs) == len(argvs)
    assert corpus_digest(argvs) == E_PINNED
