"""Tests of the benchmark itself (not part of the library's test suite):

    python3 -m pytest bench/test_bench.py -q

They check that the output checks are not vacuous, that traced counts
repeat exactly for a fixed seed, that job streams are seeded and never
repeat inputs, and that the benchmark prints what BENCHMARK.json names.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from copy import deepcopy
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import run
import speed

run.import_tauq()

import oracles  # noqa: E402
import workloads  # noqa: E402
from tauq import LaurentPoly  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".ops", ".max_bits", ".max_n", ".repeat_calls",
                  ".repeat_ratio", ".terms", ".summands")


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of every workload with one seed."""
    return {w: [bench("--workload", w, "--seed", "5", "--seconds", "1",
                      "--trace", "1")[0] for _ in range(2)]
            for w in workloads.WORKLOADS}


def test_traced_counts_repeat_exactly(traced_runs):
    for w, (first, second) in traced_runs.items():
        assert first["correct"] and second["correct"], w
        counts = {name: m["value"] for name, m in first["metrics"].items()
                  if name.endswith(COUNT_SUFFIXES)
                  or name.startswith(("report.", "trace.jobs", "trace.spans"))}
        again = {name: second["metrics"][name]["value"] for name in counts}
        assert counts == again, w
        assert counts["cli.main.calls"] + counts["moments.build_moments.calls"] > 0


def test_output_names_match_benchmark_json(traced_runs):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced_runs.values():
        got = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
        assert got == per_layer
    result, stdout = bench("--workload", "orthopoly-grid", "--seed", "3",
                           "--seconds", "0.1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in result["metrics"]:
        assert f"metric {name} = " in stdout
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_streams_are_seeded_and_unique():
    for w in workloads.WORKLOADS:
        n = 3 * workloads.cycle_length(w)
        a = [j.key() for j in islice(workloads.stream(w, 9), n)]
        b = [j.key() for j in islice(workloads.stream(w, 9), n)]
        c = [j.key() for j in islice(workloads.stream(w, 10), n)]
        assert a == b and a != c
        assert len(set(a)) == n


def test_stream_rejects_shared_inputs(monkeypatch):
    job = workloads.Job("opgen", ("opgen", "--count", "3"))
    monkeypatch.setitem(workloads.SLOTS, "hankel-large", lambda rng: [lambda: job])
    with pytest.raises(AssertionError, match="share inputs"):
        list(islice(workloads.stream("hankel-large", 1), 2))


def test_gauge_scales_job_time_by_reference(monkeypatch):
    """A job's latency is its CPU seconds times REF_S over the median of the
    last three probes, and probes are taken between jobs only."""
    probes = iter([speed.REF_S * 2, speed.REF_S * 4, speed.REF_S * 2])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    gauge = speed.Gauge()
    assert gauge.scale() == 0.5
    gauge.ran(speed.PROBE_EVERY_S / 2)
    assert gauge.scale() == 0.5 and len(gauge.probes) == 1
    gauge.ran(speed.PROBE_EVERY_S)
    assert gauge.scale() == 1 / 3
    gauge.ran(speed.PROBE_EVERY_S)
    assert gauge.scale() == 0.5 and len(gauge.probes) == 3
    job = next(workloads.stream("orthopoly-grid", 4))
    tally = run.Tally()
    run.execute(job, tally, gauge=gauge)
    assert not tally.problems
    assert tally.latencies == [tally.cpu_s * 0.5]


def test_reference_does_not_use_tauq():
    code = ("import sys, speed; speed.Gauge().scale(); "
            "assert not any(m.startswith('tauq') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                   timeout=60)


def test_failing_job_counts_as_failed():
    job = workloads.Job("opgen", ("opgen", "--moments",
                                  '{"kind": "named", "name": "hermite"}',
                                  "--alpha", "1", "--format", "json"),
                        check={"m": {"kind": "named", "name": "hermite"},
                               "alpha": 1, "count": 6})
    tally = run.Tally()
    run.execute(job, tally)
    assert len(tally.problems) == 1 and "exit code 3" in tally.problems[0]


# -- every output check catches a corrupted output ---------------------------

def first_jobs():
    """The first job of every kind, with its output."""
    out = {}
    for w in workloads.WORKLOADS:
        for job in islice(workloads.stream(w, 2), workloads.cycle_length(w)):
            if job.kind == "tau-gl3-res":
                job.check["sample"] = 0
            key = (job.kind, job.argv[:2])
            if key not in out:
                rc, output, _ = run.call(job)
                assert rc == 0
                out[key] = (job, output)
    return list(out.values())


def _bump(value: str) -> str:
    return str(Fraction(value) + 1)


def corruptions(job, output):
    """Corrupted copies of a job's output, one per way it can be wrong."""
    if not job.argv:
        one = LaurentPoly.const(Fraction(1))
        bad = deepcopy(output)
        bad.entries[0][0] = bad.entries[0][0] + one
        yield bad
        bad = deepcopy(output)
        bad.entries[1][0] = bad.entries[1][0] + LaurentPoly.z_pow(-1)
        yield bad
        return
    doc = json.loads(output)
    if job.kind == "verify":
        bad = deepcopy(doc)
        bad["checks"][-1]["pass"] = False
        yield bad
        bad = deepcopy(doc)
        bad["summary"]["total"] += 1
        yield bad
        return
    entries = doc["entries"]
    if job.kind == "tau-gl3-res":
        # only the sampled entry and the l = 0 / k = 0 edges are checked
        picks = [0] + [i for i, e in enumerate(entries) if 0 in (e["k"], e["l"])]
    else:
        picks = range(len(entries))
    for i in picks:
        bad = deepcopy(doc)
        e = bad["entries"][i]
        if "value" in e:
            e["value"] = (e["value"] + " + 1" if job.kind.endswith("-sym")
                          else _bump(e["value"]))
        elif "coefficients" in e:
            e["coefficients"][0] = _bump(e["coefficients"][0])
        else:
            e["a"] = _bump(e["a"])
        yield bad
    bad = deepcopy(doc)
    bad["entries"].pop()
    yield bad


@pytest.mark.parametrize("job,output", first_jobs(),
                         ids=lambda x: getattr(x, "kind", ""))
def test_output_check_catches_corruption(job, output):
    assert oracles.check(job, output)[0] is None
    n = 0
    for bad in corruptions(job, output):
        text = bad if not job.argv else json.dumps(bad)
        assert oracles.check(job, text)[0] is not None, (job.kind, bad)
        n += 1
    assert n >= 2


def test_needs_tauq_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "hankel-large", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
