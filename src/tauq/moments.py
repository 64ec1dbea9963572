"""Moment sequences: construction, evaluation, and serialization.

A moment sequence is a total function i -> value on the integers. Three
kinds exist:

* ``window``: finite support, lo + explicit rational values, 0 outside;
* ``named``: catalan or hermite, total on i >= 0 and 0 for i < 0;
* ``formal``: returns the formal symbol of its family, for symbolic work.

The external JSON schema (kinds window / named / random) keeps rationals
bit-exact as strings. The random kind is materialized deterministically
into a window via a documented linear congruential generator.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, prod

from .errors import MomentParseError, ResourceBoundError, SupportError
from .rings import MomentPoly, as_rational

NAMED_GENERATORS = ("catalan", "hermite")

# Input bounds, checked before any work starts: the widest random window
# (hi - lo + 1), the largest |exponent| of a value string like "1e400" and
# the largest named-moment index. Unbounded, a span of 10^8 runs for minutes,
# "1e10000000" parses for 12 s and C_i hangs at i = 10^18. CPU time on 2 vCPU
# (Python 3.11.7) at i = 10^5 / 2*10^5: C_i 0.76 / 2.7 s, hermite 1.13 / 5.6 s.
MAX_RANDOM_SPAN = 10_000
MAX_DECIMAL_EXPONENT = 1000
MAX_NAMED_INDEX = 100_000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")

# MMIX linear congruential constants (Knuth); state advances modulo 2^64
# and each draw reads the top 31 bits.
_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_LCG_MOD = 1 << 64


class MomentSequence:
    """Total integer-indexed family of exact moments."""

    def __init__(self, kind: str, *, lo: int = 0, values: list[Fraction] | None = None,
                 name: str | None = None, family: str | None = None):
        self.kind = kind
        self.lo = lo
        self.values = values if values is not None else []
        self.name = name
        self.family = family

    @classmethod
    def window(cls, lo: int, values) -> "MomentSequence":
        return cls("window", lo=lo, values=[as_rational(v) for v in values])

    @classmethod
    def named(cls, name: str) -> "MomentSequence":
        if name not in NAMED_GENERATORS:
            raise MomentParseError("name", f"unknown generator {name!r}")
        return cls("named", name=name)

    @classmethod
    def formal(cls, family: str) -> "MomentSequence":
        if family not in ("c", "d", "e"):
            raise MomentParseError("family", f"unknown family {family!r}")
        return cls("formal", family=family)

    @classmethod
    def zero(cls) -> "MomentSequence":
        """The identically-zero sequence (empty window)."""
        return cls.window(0, [])

    # -- evaluation ---------------------------------------------------

    def get(self, i: int):
        if self.kind == "window":
            j = i - self.lo
            if 0 <= j < len(self.values):
                return self.values[j]
            return Fraction(0)
        if self.kind == "named":
            if i < 0:
                return Fraction(0)
            if i > MAX_NAMED_INDEX:
                raise ResourceBoundError(f"{self.name} index {i} is above {MAX_NAMED_INDEX}")
            if self.name == "catalan":
                return Fraction(comb(2 * i, i) // (i + 1))
            return _hermite_moment(i)
        return MomentPoly.symbol(self.family, i)

    # -- structure ----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == "window"

    @property
    def is_formal(self) -> bool:
        return self.kind == "formal"

    def support(self) -> tuple[int, int] | None:
        """Trimmed (lo, hi) of nonzero values; None when identically zero."""
        if self.kind != "window":
            raise SupportError(f"support of a {self.kind} sequence is not finite")
        idx = [self.lo + j for j, v in enumerate(self.values) if v]
        if not idx:
            return None
        return (idx[0], idx[-1])

    def truncated(self, lo: int, hi: int) -> "MomentSequence":
        """Finite window snapshot of this sequence on [lo, hi]."""
        if self.kind == "formal":
            raise SupportError("cannot truncate a formal sequence to numbers")
        return MomentSequence.window(lo, [self.get(i) for i in range(lo, hi + 1)])

    def ring_zero(self):
        return MomentPoly.zero() if self.kind == "formal" else Fraction(0)

    def ring_one(self):
        return MomentPoly.one() if self.kind == "formal" else Fraction(1)

    def __eq__(self, other):
        if not isinstance(other, MomentSequence):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "window":
            return _trim(self) == _trim(other)
        if self.kind == "named":
            return self.name == other.name
        return self.family == other.family

    def __repr__(self) -> str:
        if self.kind == "window":
            return f"MomentSequence.window({self.lo}, {[str(v) for v in self.values]})"
        if self.kind == "named":
            return f"MomentSequence.named({self.name!r})"
        return f"MomentSequence.formal({self.family!r})"


def _trim(seq: MomentSequence) -> tuple[int, tuple]:
    vals = list(seq.values)
    lo = seq.lo
    while vals and not vals[0]:
        vals.pop(0)
        lo += 1
    while vals and not vals[-1]:
        vals.pop()
    return (lo if vals else 0, tuple(vals))


def _hermite_moment(i: int) -> Fraction:
    """Even moments (2m-1)!!/2^m of the Gaussian weight, with the overall
    constant dropped so everything stays rational; odd moments vanish."""
    if i % 2:
        return Fraction(0)
    m = i // 2
    return Fraction(prod(range(1, 2 * m, 2)), 2 ** m)


# -- external schema ------------------------------------------------------

def build_moments(spec) -> MomentSequence:
    """Build a sequence from the JSON schema (dict or JSON text)."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except ValueError as exc:  # JSONDecodeError or an over-long integer
            raise MomentParseError("(document)", f"invalid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise MomentParseError("(document)", "moment spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "window":
        return _build_window(spec)
    if kind == "named":
        name = spec.get("name")
        if name not in NAMED_GENERATORS:
            raise MomentParseError("name", f"expected one of {NAMED_GENERATORS}, got {name!r}")
        return MomentSequence.named(name)
    if kind == "random":
        return _build_random(spec)
    raise MomentParseError("kind", f"expected window|named|random, got {kind!r}")


def _require_int(spec: dict, field: str, minimum: int | None = None) -> int:
    v = spec.get(field)
    if not isinstance(v, int) or isinstance(v, bool):
        raise MomentParseError(field, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise MomentParseError(field, f"must be >= {minimum}, got {v}")
    return v


def _build_window(spec: dict) -> MomentSequence:
    lo = _require_int(spec, "lo")
    raw = spec.get("values")
    if not isinstance(raw, list):
        raise MomentParseError("values", f"expected a list, got {type(raw).__name__}")
    vals = []
    for idx, item in enumerate(raw):
        if not isinstance(item, (str, int)):
            raise MomentParseError(f"values[{idx}]", f"expected a rational string, got {item!r}")
        if isinstance(item, str):
            _check_exponent(item, f"values[{idx}]")
        try:
            vals.append(as_rational(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise MomentParseError(f"values[{idx}]", f"not a rational: {item!r}") from exc
    return MomentSequence.window(lo, vals)


def _check_exponent(text: str, field: str) -> None:
    match = _EXPONENT.search(text)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or 0) > MAX_DECIMAL_EXPONENT):
            raise MomentParseError(
                field, f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}: {text!r}")


def _build_random(spec: dict) -> MomentSequence:
    seed = _require_int(spec, "seed", minimum=0)
    lo = _require_int(spec, "lo")
    hi = _require_int(spec, "hi")
    if hi < lo:
        raise MomentParseError("hi", f"must be >= lo={lo}, got {hi}")
    if hi - lo + 1 > MAX_RANDOM_SPAN:
        raise MomentParseError(
            "hi", f"window hi - lo + 1 = {hi - lo + 1} exceeds {MAX_RANDOM_SPAN}")
    max_abs_num = _require_int(spec, "max_abs_num", minimum=0)
    max_den = _require_int(spec, "max_den", minimum=1)
    state = seed % _LCG_MOD
    values = []
    for _ in range(hi - lo + 1):
        state = (_LCG_MUL * state + _LCG_ADD) % _LCG_MOD
        num = (state >> 33) % (2 * max_abs_num + 1) - max_abs_num
        state = (_LCG_MUL * state + _LCG_ADD) % _LCG_MOD
        den = (state >> 33) % max_den + 1
        values.append(Fraction(num, den))
    return MomentSequence.window(lo, values)


def serialize(seq: MomentSequence) -> dict:
    """Canonical JSON form; windows keep bit-exact rational strings."""
    if seq.kind == "window":
        return {"kind": "window", "lo": seq.lo, "values": [str(v) for v in seq.values]}
    if seq.kind == "named":
        return {"kind": "named", "name": seq.name}
    raise SupportError("formal sequences have no external serialization")
