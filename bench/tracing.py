"""Spans around tauq's public functions, recorded from the benchmark's side.

While installed, every binding of a traced function in every tauq module
(``det`` and ``tau_det`` are imported by name into several) points at a
wrapper that records a span (name, start, end, parent) while the tracer is
active. Spans live in flat arrays until the run ends. A span's self time is
its duration minus the durations of its direct children.

Counters that need the call's arguments or result (Bareiss inner updates,
the largest determinant bit length, repeated tau_det calls in one job,
monomials fed to evaluate_shifted, residue summands) are taken at the same
boundaries.
"""
from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name); several attributes may share a span name.
FUNCTIONS = [
    ("rings", "det", "rings.det"),
    ("rings", "det_bareiss", "rings.det_bareiss"),
    ("rings", "det_cofactor", "rings.det_cofactor"),
    ("tau_gl2", "tau_det", "tau_gl2.tau_det"),
    ("tau_gl3", "tau3_e0_det", "tau_gl3.tau3_e0_det"),
    ("tau_gl3", "tau3_residue", "tau_gl3.tau3_residue"),
    ("tau_gl3", "kernel_specs", "tau_gl3.kernel_specs"),
    ("factorization", "evaluate_shifted", "factorization.evaluate_shifted"),
    ("factorization", "g_minus_gl2", "factorization.g_minus"),
    ("factorization", "g_minus_gl3", "factorization.g_minus"),
    ("factorization", "bordered_tau_poly", "factorization.bordered_tau_poly"),
    ("factorization", "connection_matrices_gl2",
     "factorization.connection_matrices_gl2"),
    ("orthopoly", "monic_op", "orthopoly.monic_op"),
    ("orthopoly", "form_eval", "orthopoly.form_eval"),
    ("orthopoly", "mop_bordered_poly", "orthopoly.mop_bordered_poly"),
    ("moments", "build_moments", "moments.build_moments"),
    ("cli", "main", "cli.main"),
    ("cli", "load_moments", "cli.load_moments"),
    ("cli", "emit_entries", "cli.emit"),
    ("cli", "emit_report", "cli.emit"),
    ("cli", "emit_polys", "cli.emit"),
]
# (module, class, method, span name); __rmul__ is the same function.
METHODS = [
    ("rings", "MomentPoly", "__mul__", "rings.MomentPoly.mul"),
    ("rings", "MomentPoly", "__rmul__", "rings.MomentPoly.mul"),
    ("rings", "LaurentPoly", "__mul__", "rings.LaurentPoly.mul"),
    ("rings", "LaurentPoly", "__rmul__", "rings.LaurentPoly.mul"),
]
SPAN_NAMES = sorted({name for *_, name in FUNCTIONS + METHODS})
COUNTERS = ("rings.det.max_bits", "rings.det_bareiss.ops",
            "rings.det_bareiss.max_n", "rings.det_cofactor.max_n",
            "tau_gl2.tau_det.repeat_calls", "factorization.evaluate_shifted.terms",
            "tau_gl3.kernel_specs.summands")


def _seq_key(m) -> tuple:
    return (m.kind, m.lo, tuple(m.values), m.name, m.family)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._seen_tau: set = set()
        self._seq_keys: dict[int, tuple] = {}

    def begin_job(self) -> None:
        """Repeats of tau_det are counted within one job only."""
        self._seen_tau.clear()
        self._seq_keys.clear()

    # -- counters taken at span boundaries --------------------------------

    def _note_det(self, args, result) -> None:
        if isinstance(result, Fraction):
            bits = max(result.numerator.bit_length(),
                       result.denominator.bit_length())
            self._max("rings.det.max_bits", bits)

    def _note_bareiss(self, args, result) -> None:
        n = len(args[0])
        self.counters["rings.det_bareiss.ops"] += (n - 1) * n * (2 * n - 1) // 6
        self._max("rings.det_bareiss.max_n", n)

    def _note_cofactor(self, args, result) -> None:
        self._max("rings.det_cofactor.max_n", len(args[0]))

    def _note_tau(self, args, result) -> None:
        k, alpha, m = args[:3]
        seq = self._seq_keys.get(id(m))
        if seq is None or seq[0] is not m:
            seq = self._seq_keys[id(m)] = (m, _seq_key(m))
        key = (k, alpha, seq[1])
        if key in self._seen_tau:
            self.counters["tau_gl2.tau_det.repeat_calls"] += 1
        self._seen_tau.add(key)

    def _note_shifted(self, args, result) -> None:
        self.counters["factorization.evaluate_shifted.terms"] += len(args[0].terms)

    def _note_specs(self, args, result) -> None:
        self.counters["tau_gl3.kernel_specs.summands"] += len(result)

    def _max(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    NOTES = {"rings.det": _note_det, "rings.det_bareiss": _note_bareiss,
             "rings.det_cofactor": _note_cofactor, "tau_gl2.tau_det": _note_tau,
             "factorization.evaluate_shifted": _note_shifted,
             "tau_gl3.kernel_specs": _note_specs}

    # -- spans ------------------------------------------------------------

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        note = self.NOTES.get(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                note(self, args, result)
            return result
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name."""
        n = len(self.span_name)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_s"] += own[i]
        return out

    def write(self, path) -> None:
        """Every span as [name, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [[self.names[self.span_name[i]],
                                  round(self.start[i], 7), round(self.end[i], 7),
                                  self.parent[i]]
                                 for i in range(len(self.span_name))]},
                      fh, separators=(",", ":"))


@contextmanager
def installed(tracer: Tracer):
    """Point every tauq binding of the traced functions at the tracer's
    wrappers; restore the originals on exit."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "tauq" or name.startswith("tauq.")}
    undo = []
    for mod_name, attr, span in FUNCTIONS:
        orig = getattr(mods[f"tauq.{mod_name}"], attr)
        wrapper = tracer.wrap(orig, span)
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, attr, span in METHODS:
        cls = getattr(mods[f"tauq.{mod_name}"], cls_name)
        orig = cls.__dict__[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(orig, span))
    try:
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)
