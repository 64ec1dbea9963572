"""Seeded job streams for the four benchmark workloads.

A workload is a cycle of 15 job slots. Job i comes from slot i mod 15, and
a run stops at the end of a cycle, so every slot has the same share of it.
With 15 slots the median falls in the middle of the 8th slot in cost order
and the 90th percentile in the middle of the 14th, never on the boundary
between two slots, where it would jump between their costs. Only the drawn values
depend on the seed: matrix orders, window lengths and digit sizes are fixed
per slot, which keeps run-to-run cost steady across seeds.

Every job gets inputs no other job in the stream has (asserted), so a cache
kept across jobs cannot pass for speed. Inputs that would make a job fail
(a zero tau where a polynomial or factor needs a nonzero one) are redrawn,
tested by modular determinants that share no code with tauq.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from modp import leading_minors_nonzero

WORKLOADS = ("hankel-large", "orthopoly-grid", "symbolic-factor", "gl3-residue")

# Jobs in the first batch: the stated input size, what set-up generates,
# and what a traced run traces.
BATCH = {"hankel-large": 15, "orthopoly-grid": 105,
         "symbolic-factor": 15, "gl3-residue": 30}


@dataclass
class Job:
    """One unit of work: a CLI argv, or a library call when ``call`` is set."""

    kind: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    order: int = 0
    windows: tuple[dict, ...] = ()
    check: dict = field(default_factory=dict)

    def key(self) -> tuple:
        return (self.argv, json.dumps(self.call))


def window_values(spec: dict):
    """Lookup i -> Fraction for a window spec (0 outside the window)."""
    lo = spec["lo"]
    vals = [Fraction(v) for v in spec["values"]]

    def get(i: int) -> Fraction:
        j = i - lo
        return vals[j] if 0 <= j < len(vals) else Fraction(0)
    return get


def draw_window(rng: random.Random, lo: int, hi: int,
                num: int, den: int) -> dict:
    """Window on [lo, hi] of nonzero rationals +-a/b, a <= num, b <= den."""
    return {"kind": "window", "lo": lo,
            "values": [str(Fraction(rng.choice((-1, 1)) * rng.randint(1, num),
                                    rng.randint(1, den)))
                       for _ in range(hi - lo + 1)]}


def hankel_ok(spec: dict, alpha: int, k: int) -> bool:
    """tau_j^(alpha) != 0 for every j <= k."""
    get = window_values(spec)
    return leading_minors_nonzero(
        [[get(alpha + i + j) for j in range(k)] for i in range(k)])


def block_ok(c_spec: dict, d_spec: dict, alpha: int, beta: int,
             k: int, l_max: int) -> bool:
    """tau_{j,l}^(alpha,beta) != 0 (E = 0) for every j <= k, l <= l_max:
    the leading minors of the l d-column, k-l c-column block matrix."""
    c, d = window_values(c_spec), window_values(d_spec)
    return all(leading_minors_nonzero(
        [[d(alpha + i + j) if j < l else c(alpha - beta + i + j - l)
          for j in range(k)] for i in range(k)])
        for l in range(l_max + 1))


def redraw(draw, ok, tries: int = 200):
    """Draw until ok() accepts; degenerate draws are rare but possible."""
    for _ in range(tries):
        value = draw()
        if ok(value):
            return value
    raise RuntimeError("no nondegenerate input in 200 draws")


def rng_range(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}..{hi}"


def _js(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


# -- hankel-large -------------------------------------------------------------
# Numeric Hankel work at orders 9-32 on windows with up to 3-digit
# numerators and 2-digit denominators: large Fraction Bareiss matrices whose
# rationals grow.

H_NUM, H_DEN = 999, 99


def _hankel_slots(rng: random.Random):
    def win(alpha_lo: int, hi: int) -> dict:
        lo = alpha_lo - rng.randint(0, 2)
        return draw_window(rng, lo, hi + rng.randint(0, 2), H_NUM, H_DEN)

    def table(k_lo: int, k_hi: int, n_alpha: int):
        def make() -> Job:
            a = rng.randint(-4, 2)
            a_hi = a + n_alpha - 1
            spec = win(a, a_hi + 2 * k_hi - 2)
            return Job("tau-gl2",
                       ("tau", "gl2", "--moments", _js(spec),
                        "--k", rng_range(k_lo, k_hi),
                        "--alpha", rng_range(a, a_hi), "--format", "json"),
                       order=k_hi, windows=(spec,), check={"m": spec})
        return make

    def qsystem(k: int):
        def make() -> Job:
            a = rng.randint(-4, 2)
            spec = win(a, a + 1 + 2 * k - 2)
            return Job("verify",
                       ("verify", "qsystem", "--moments", _js(spec),
                        "--k", f"0..{k}", "--alpha", rng_range(a, a + 1),
                        "--format", "json"),
                       order=k, windows=(spec,))
        return make

    def polys(cmd: str, count: int):
        def make() -> Job:
            a = rng.randint(-4, 2)
            spec = redraw(lambda: win(a, a + 2 * count),
                          lambda s: hankel_ok(s, a, count + 1))
            return Job(cmd,
                       (cmd, "--moments", _js(spec), "--count", str(count),
                        "--alpha", str(a), "--format", "json"),
                       order=count + 1, windows=(spec,),
                       check={"m": spec, "alpha": a, "count": count})
        return make

    # The three dearest slots have one shape, so the 90th percentile falls in
    # the middle of their pooled times; three slots of near cost straddle
    # the median in the same way.
    return [table(0, 12, 3), qsystem(12), polys("recurrence", 9),
            polys("opgen", 9), table(22, 22, 2), table(26, 26, 1),
            qsystem(14), polys("recurrence", 10), polys("opgen", 10),
            table(16, 18, 3), table(28, 28, 1), polys("opgen", 11),
            table(32, 32, 1), table(32, 32, 1), table(32, 32, 1)]


# -- orthopoly-grid -----------------------------------------------------------
# Many short jobs at order <= 8 on catalan, hermite and small windows with
# negative lo: the same determinant layer, called thousands of times on
# small matrices, with repeated tau_det calls inside each job.

O_NUM, O_DEN = 9, 9
NAMED_COUNT = 6


def _named_pool(rng: random.Random):
    """Every (command, sequence, alpha) the named slots may use, shuffled.
    opgen and recurrence at one count cost about the same, so a named
    slot's cost varies only with alpha. The alphas keep every Hankel minor
    positive (catalan: any alpha >= 0, hermite: even alpha)."""
    pool = [(cmd, name, alpha)
            for cmd in ("opgen", "recurrence")
            for name, alphas in (("catalan", range(0, 100)),
                                 ("hermite", range(0, 400, 2)))
            for alpha in alphas]
    rng.shuffle(pool)
    return iter(pool)


def _poly_job(cmd: str, spec: dict, alpha: int, count: int,
              windows: tuple) -> Job:
    m = _js(spec)
    if cmd == "orthogonality":
        argv = ("verify", "orthogonality", "--moments", m,
                "--count", str(count), "--alpha", str(alpha))
        kind = "verify"
    else:
        argv = (cmd, "--moments", m, "--count", str(count),
                "--alpha", str(alpha))
        kind = cmd
    return Job(kind, argv + ("--format", "json"), order=count + 1,
               windows=windows, check={"m": spec, "alpha": alpha,
                                       "count": count})


def _ortho_slots(rng: random.Random):
    pool = _named_pool(rng)

    def named() -> Job:
        cmd, name, alpha = next(pool)
        return _poly_job(cmd, {"kind": "named", "name": name}, alpha,
                         NAMED_COUNT, ())

    def win_poly(cmd: str, count: int):
        def make() -> Job:
            lo = rng.randint(-4, -1)
            a = lo + rng.randint(0, 2)
            spec = redraw(lambda: draw_window(rng, lo, a + 2 * count + 2,
                                              O_NUM, O_DEN),
                          lambda s: hankel_ok(s, a, count + 1))
            return _poly_job(cmd, spec, a, count, (spec,))
        return make

    def zero_curvature(k: int):
        def make() -> Job:
            lo = rng.randint(-4, -1)
            a = lo + 1 + rng.randint(0, 1)
            spec = draw_window(rng, lo, a + 2 * k + 3, O_NUM, O_DEN)
            return Job("verify",
                       ("verify", "zero-curvature", "--moments", _js(spec),
                        "--k", f"0..{k}", "--alpha", rng_range(a, a + 1),
                        "--format", "json"),
                       order=k + 2, windows=(spec,))
        return make

    def two_family(cmd: tuple, k: int, l_max: int, n_alpha: int):
        def make() -> Job:
            a = rng.randint(-2, 1)
            b = rng.randint(0, 1)

            def draw():
                return (draw_window(rng, a - b - rng.randint(0, 2),
                                    a - b + n_alpha + 2 * k, O_NUM, O_DEN),
                        draw_window(rng, a - rng.randint(0, 2),
                                    a + n_alpha + 2 * k, O_NUM, O_DEN))
            need = "mop" in cmd
            c, d = redraw(draw, lambda cd: not need or block_ok(
                cd[0], cd[1], a, b, k, l_max))
            argv = cmd + ("--moments-c", _js(c), "--moments-d", _js(d),
                          "--k", f"0..{k}", "--l", f"0..{l_max}",
                          "--alpha", rng_range(a, a + n_alpha - 1),
                          "--beta", str(b), "--format", "json")
            kind = {"mop": "mop", "verify": "verify"}.get(cmd[0], "tau-gl3-e0")
            return Job(kind, argv, order=k, windows=(c, d),
                       check={"C": c, "D": d, "alpha": a, "beta": b})
        return make

    return [named, win_poly("opgen", 8), win_poly("recurrence", 8),
            win_poly("orthogonality", 6), zero_curvature(4),
            two_family(("mop",), 6, 2, 1),
            two_family(("verify", "mop"), 6, 2, 1),
            two_family(("tau", "gl3"), 8, 3, 2),
            named, win_poly("opgen", 6), named, win_poly("recurrence", 6),
            win_poly("orthogonality", 4), two_family(("mop",), 4, 2, 1),
            two_family(("tau", "gl3"), 6, 3, 1)]


# -- symbolic-factor ----------------------------------------------------------
# The exponential routes: cofactor expansion over MomentPoly, and shifted
# tau evaluation through LaurentPoly products in window_matrix_gl2/gl3.

S_NUM, S_DEN = 9, 9


def _symbolic_slots(rng: random.Random):
    counter = itertools.count(rng.randint(-500, 500))

    def sym_table(group: str, k: tuple, l: tuple | None = None, b: int = 0):
        def make() -> Job:
            a = next(counter)
            argv = ("tau", group, "--mode", "symbolic",
                    "--k", rng_range(*k), "--alpha", str(a))
            check = {"alpha": a}
            if group == "gl2":
                check["c"] = draw_window(rng, a, a + 2 * k[1], S_NUM, S_DEN)
            else:
                argv += ("--l", rng_range(*l), "--beta", str(b))
                check.update(beta=b,
                             c=draw_window(rng, a - b, a - b + 2 * k[1],
                                           S_NUM, S_DEN),
                             d=draw_window(rng, a, a + 2 * k[1], S_NUM, S_DEN))
            return Job(f"tau-{group}-sym", argv + ("--format", "json"),
                       order=k[1], check=check)
        return make

    def sym_verify(suite: str, k: tuple):
        def make() -> Job:
            a = next(counter)
            return Job("verify",
                       ("verify", suite, "--mode", "symbolic",
                        "--k", rng_range(*k), "--alpha", str(a),
                        "--format", "json"),
                       order=k[1] + 2 if suite == "zero-curvature" else k[1])
        return make

    # A window job's cost depends on where alpha (and beta) sit in the
    # window, so each slot fixes those offsets; the seed draws the values
    # and the window's place on the line.
    def window_gl2(k: int, length: int, off: int):
        def make() -> Job:
            a = rng.randint(-2, 1)
            lo = a - off
            spec = redraw(lambda: draw_window(rng, lo, lo + length - 1,
                                              S_NUM, S_DEN),
                          lambda s: hankel_ok(s, a, k + 1)
                          and hankel_ok(s, a + 1, k + 1))
            return Job("window-gl2", call=("window_matrix_gl2", k, a, spec),
                       order=k + 1, windows=(spec,))
        return make

    def window_gl3(k: int, l: int, length: int, b: int, off: int):
        def make() -> Job:
            a = rng.randint(-2, 1)
            lo = min(a, a - b) - off

            def draw():
                return tuple(draw_window(rng, lo, lo + length - 1, S_NUM, S_DEN)
                             for _ in range(2))
            c, d = redraw(draw, lambda cd: block_ok(cd[0], cd[1], a, b, k, l))
            return Job("window-gl3", call=("window_matrix_gl3", k, l, a, b, c, d),
                       order=k + 1, windows=(c, d))
        return make

    return [sym_table("gl2", (0, 6)), sym_table("gl3", (0, 5), (0, 2), -1),
            sym_verify("qsystem", (0, 6)), sym_verify("zero-curvature", (0, 2)),
            window_gl2(4, 12, 1), window_gl3(4, 2, 12, 0, 1),
            window_gl2(3, 12, 2), sym_table("gl2", (7, 7)),
            sym_table("gl2", (0, 5)), sym_table("gl3", (0, 6), (0, 2), 1),
            sym_verify("qsystem", (0, 5)), sym_verify("zero-curvature", (0, 1)),
            window_gl2(2, 12, 0), window_gl3(3, 2, 12, 1, 2),
            window_gl3(3, 1, 12, 0, 0)]


# -- gl3-residue --------------------------------------------------------------
# Three families with E != 0: every tau goes through the residue summand
# expansion, at k + l <= 6 on length-4 windows.

R_NUM, R_DEN, R_LEN = 9, 9, 4
MAX_WORK = "99"


def _residue_slots(rng: random.Random):
    # Each slot has its own fixed (alpha, beta), and the supports sit at
    # fixed offsets from them, so the residue cutoffs, and with them the
    # slot's cost, do not depend on the seed; only the values do.
    def windows(a: int, b: int):
        return tuple(draw_window(rng, lo - 1, lo + R_LEN - 2, R_NUM, R_DEN)
                     for lo in (a - b, a, b))

    def args(c, d, e, a, b, k, l, n_alpha):
        return ("--moments-c", _js(c), "--moments-d", _js(d),
                "--moments-e", _js(e), "--k", k, "--l", l,
                "--alpha", rng_range(a, a + n_alpha - 1), "--beta", str(b),
                "--max-work", MAX_WORK, "--format", "json")

    def table(k: tuple, l: tuple, n_alpha: int, a: int, b: int):
        def make() -> Job:
            c, d, e = windows(a, b)
            n_entries = ((k[1] - k[0] + 1) * (l[1] - l[0] + 1) * n_alpha)
            # The residue oracle costs as much as the entry it checks, so
            # one job in four has one entry checked by it.
            sample = rng.randrange(n_entries) if rng.random() < 1 / 4 else None
            return Job("tau-gl3-res",
                       ("tau", "gl3") + args(c, d, e, a, b, rng_range(*k),
                                             rng_range(*l), n_alpha),
                       order=k[1] + l[1], windows=(c, d, e),
                       check={"C": c, "D": d, "E": e, "sample": sample})
        return make

    def relations(k: int, l: int, a: int, b: int):
        def make() -> Job:
            c, d, e = windows(a, b)
            return Job("verify",
                       ("verify", "gl3") + args(c, d, e, a, b, f"0..{k}",
                                                f"0..{l}", 1),
                       order=k + l + 2, windows=(c, d, e))
        return make

    # Six cheaper slots, three of one shape in the middle and six dearer, the
    # three dearest k + l = 6 entries: the median falls in the middle of the
    # pooled times of the middle shape, the 90th percentile in the middle of
    # the three dearest.
    middle = relations(1, 2, -1, 0)
    return [table((3, 3), (2, 2), 2, 0, 0), table((2, 2), (3, 3), 2, 1, 1),
            table((4, 4), (1, 1), 2, -1, 0), table((0, 2), (0, 2), 1, 0, 1),
            relations(1, 1, 1, 0), middle, table((3, 3), (3, 3), 1, 0, 0),
            middle, middle, table((2, 2), (4, 4), 1, 0, 1),
            table((3, 3), (1, 1), 2, 1, 0), table((1, 1), (3, 3), 2, -1, 1),
            table((2, 2), (2, 2), 2, 0, 0), table((4, 4), (2, 2), 1, 1, 1),
            table((0, 3), (0, 1), 1, -1, 0)]


SLOTS = {"hankel-large": _hankel_slots, "orthopoly-grid": _ortho_slots,
         "symbolic-factor": _symbolic_slots, "gl3-residue": _residue_slots}


def cycle_length(workload: str) -> int:
    return len(SLOTS[workload](random.Random(0)))


def stream(workload: str, seed: int):
    """Endless job stream (ends only if a finite pool of named inputs runs
    out). Raises AssertionError if two jobs would share inputs."""
    rng = random.Random(f"tauq-bench/{workload}/{seed}")
    slots = SLOTS[workload](rng)
    seen: set[tuple] = set()
    for i in itertools.count():
        try:
            job = slots[i % len(slots)]()
        except StopIteration:
            return
        key = job.key()
        assert key not in seen, f"two {workload} jobs share inputs: {job.argv or job.call}"
        seen.add(key)
        yield job


def sizes(jobs: list[Job]) -> dict:
    """Stated input size of a batch: job count, orders, window lengths and
    the largest numerator / denominator bit lengths in its windows."""
    vals = [Fraction(v) for j in jobs for w in j.windows for v in w["values"]]
    lengths = [len(w["values"]) for j in jobs for w in j.windows]
    return {"jobs": len(jobs),
            "orders": (min(j.order for j in jobs), max(j.order for j in jobs)),
            "window_lengths": (min(lengths), max(lengths)) if lengths else None,
            "num_bits": max((abs(v.numerator).bit_length() for v in vals), default=0),
            "den_bits": max((v.denominator.bit_length() for v in vals), default=0)}
