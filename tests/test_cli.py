import hashlib
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import tauq
from tauq import cli
from tauq.cli import main, parse_range, single_value
from tauq.errors import UsageError

from reference import tau_det_table

CATALAN = '{"kind": "named", "name": "catalan"}'
HERMITE = '{"kind": "named", "name": "hermite"}'
LINEAR = json.dumps({"kind": "window", "lo": 0,
                     "values": [str(i + 1) for i in range(13)]})
RAND_C = '{"kind": "random", "seed": 42, "lo": -2, "hi": 4, "max_abs_num": 6, "max_den": 4}'
RAND_D = '{"kind": "random", "seed": 43, "lo": -2, "hi": 4, "max_abs_num": 6, "max_den": 4}'
RAND_E = '{"kind": "random", "seed": 44, "lo": -1, "hi": 2, "max_abs_num": 6, "max_den": 4}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range_forms():
    assert parse_range("3", "k") == (3, 3)
    assert parse_range("-1..4", "k") == (-1, 4)
    for bad in ("4..1", "x", "1..", "1..2..3", ""):
        with pytest.raises(UsageError):
            parse_range(bad, "k")
    assert single_value("-2", "alpha") == -2
    with pytest.raises(UsageError):
        single_value("0..2", "alpha")


def test_tau_gl2_pretty(capsys):
    code, out, _ = run(capsys, "tau", "gl2", "--moments", CATALAN,
                       "--k", "0..2", "--alpha", "0")
    assert code == 0
    assert out.splitlines() == ["tau[k=0, alpha=0] = 1",
                                "tau[k=1, alpha=0] = 1",
                                "tau[k=2, alpha=0] = 1"]


def test_tau_gl2_json(capsys):
    code, out, _ = run(capsys, "tau", "gl2", "--moments", HERMITE,
                       "--k", "0..3", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries[3] == {"k": 3, "alpha": 0, "value": "1/4"}


def test_tau_gl2_csv(capsys):
    code, out, _ = run(capsys, "tau", "gl2", "--moments", CATALAN,
                       "--k", "0..1", "--alpha", "2..3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,alpha,value", "0,2,1", "0,3,1",
                                "1,2,2", "1,3,5"]


def test_tau_gl2_negative_range(capsys):
    code, out, _ = run(capsys, "tau", "gl2", "--moments", CATALAN,
                       "--k", "1..1", "--alpha", "-1..0")
    assert code == 0
    assert out.splitlines() == ["tau[k=1, alpha=-1] = 0",
                                "tau[k=1, alpha=0] = 1"]


def test_tau_gl2_symbolic(capsys):
    code, out, _ = run(capsys, "tau", "gl2", "--mode", "symbolic",
                       "--k", "2..2")
    assert code == 0
    assert out.strip() == "tau[k=2, alpha=0] = c_0*c_2 - c_1^2"


def test_symbolic_rejects_moments(capsys):
    code, _, err = run(capsys, "tau", "gl2", "--mode", "symbolic",
                       "--moments", CATALAN)
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_tau_gl3_table(capsys):
    code, out, _ = run(capsys, "tau", "gl3", "--moments-c", CATALAN,
                       "--moments-d", LINEAR, "--k", "2..2", "--l", "0..2")
    assert code == 0
    assert out.splitlines() == ["tau[k=2, l=0, alpha=0, beta=0] = 1",
                                "tau[k=2, l=1, alpha=0, beta=0] = 1",
                                "tau[k=2, l=2, alpha=0, beta=0] = 1"]


def test_tau_gl3_symbolic(capsys):
    code, out, _ = run(capsys, "tau", "gl3", "--mode", "symbolic",
                       "--k", "2..2", "--l", "1..1")
    assert code == 0
    assert out.strip() == "tau[k=2, l=1, alpha=0, beta=0] = c_0*d_1 - c_1*d_0"


@pytest.mark.parametrize("kl, flag", [("3", []), ("2", ["--max-work", "3"])],
                         ids=["no-flag", "max-work-3"])
def test_tau_gl3_max_work_ignored(capsys, kl, flag):
    # every tau is one determinant: --max-work is accepted and bounds nothing
    argv = ["tau", "gl3", "--moments-c", RAND_C, "--moments-d", RAND_D,
            "--moments-e", RAND_E, "--k", kl, "--l", kl]
    code, out, err = run(capsys, *argv, *flag)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *argv, "--max-work", "99")


def test_verify_qsystem(capsys):
    code, out, _ = run(capsys, "verify", "qsystem", "--moments", CATALAN,
                       "--k", "0..6", "--alpha", "0..2")
    assert code == 0
    assert out.strip() == "qsystem: 21 checks, 21 pass"


def test_verify_qsystem_symbolic_json(capsys):
    code, out, _ = run(capsys, "verify", "qsystem", "--mode", "symbolic",
                       "--k", "0..4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"total": 5, "pass": 5, "skipped": 0}


def test_verify_gl3_e0(capsys):
    code, out, _ = run(capsys, "verify", "gl3", "--moments-c", CATALAN,
                       "--moments-d", LINEAR, "--k", "0..2", "--l", "0..2",
                       "--alpha", "0..1", "--beta", "0..1")
    assert code == 0
    assert out.strip() == "gl3-relations: 144 checks, 144 pass"


def test_verify_gl3_nonzero_e(capsys):
    code, out, _ = run(capsys, "verify", "gl3", "--moments-c", RAND_C,
                       "--moments-d", RAND_D, "--moments-e", RAND_E,
                       "--k", "0..1", "--l", "0..1")
    assert code == 0
    assert out.strip() == "gl3-relations: 16 checks, 16 pass"


def test_verify_gl3_nonzero_e_k4(capsys):
    # tau up to (5, 5): the residue engine did not finish this in a minute
    code, out, _ = run(capsys, "verify", "gl3", "--moments-c", RAND_C,
                       "--moments-d", RAND_D, "--moments-e", RAND_E,
                       "--k", "0..4", "--l", "0..4", "--alpha", "-1..1",
                       "--beta", "0..1")
    assert code == 0
    assert out.strip() == "gl3-relations: 600 checks, 600 pass"


def test_verify_zero_curvature_skips(capsys):
    code, out, _ = run(capsys, "verify", "zero-curvature", "--moments", HERMITE,
                       "--k", "0..3", "--alpha", "0..1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["total"] == 10
    assert payload["summary"]["pass"] == 10
    assert payload["summary"]["skipped"] == 14


def test_verify_zero_curvature_symbolic(capsys):
    code, out, _ = run(capsys, "verify", "zero-curvature", "--mode", "symbolic",
                       "--k", "0..2")
    assert code == 0
    assert out.strip() == "zero-curvature: 9 checks, 9 pass"


def test_verify_zero_curvature_symbolic_negative_k(capsys):
    # tau_k = 0 for k < 0: a zero denominator is a skip, as in numeric mode
    code, out, err = run(capsys, "verify", "zero-curvature", "--mode", "symbolic",
                         "--k", "-2..1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"] == {"total": 8, "pass": 8, "skipped": 4}
    negative = [s for s in json.loads(out)["skipped"] if s["instance"]["k"] < 0]
    code, out, _ = run(capsys, "verify", "zero-curvature", "--moments", CATALAN,
                       "--k", "-2..-1", "--format", "json")
    assert code == 0 and json.loads(out)["skipped"] == negative


def test_verify_orthogonality(capsys):
    code, out, _ = run(capsys, "verify", "orthogonality", "--moments", CATALAN,
                       "--count", "4")
    assert code == 0
    assert out.strip() == "orthogonality: 15 checks, 15 pass"


def test_verify_orthogonality_all_degenerate(capsys):
    code, out, _ = run(capsys, "verify", "orthogonality", "--moments", HERMITE,
                       "--alpha", "1..1", "--count", "3")
    assert code == 3
    assert "skipped" in out


def test_verify_mop(capsys):
    code, out, _ = run(capsys, "verify", "mop", "--moments-c", CATALAN,
                       "--moments-d", LINEAR, "--k", "0..2", "--l", "0..2")
    assert code == 0
    assert out.strip() == "mop-orthogonality: 8 checks, 8 pass"


def test_verify_mop_rejects_e(capsys):
    code, _, err = run(capsys, "verify", "mop", "--moments-c", CATALAN,
                       "--moments-d", LINEAR, "--moments-e", RAND_E)
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_opgen(capsys):
    code, out, _ = run(capsys, "opgen", "--moments", CATALAN, "--count", "3")
    assert code == 0
    assert out.splitlines() == ["p_1 = z - 1",
                                "p_2 = z^2 - 3 z + 1",
                                "p_3 = z^3 - 5 z^2 + 6 z - 1"]


def test_opgen_json_coefficients(capsys):
    code, out, _ = run(capsys, "opgen", "--moments", HERMITE, "--count", "2",
                       "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries[1] == {"k": 2, "coefficients": ["-1/2", "0", "1"],
                          "text": "z^2 - 1/2"}


def test_opgen_degenerate_exit(capsys):
    code, _, err = run(capsys, "opgen", "--moments",
                       '{"kind": "window", "lo": 0, "values": ["0", "0", "0"]}')
    assert code == 3
    rec = json.loads(err)
    assert rec["error"] == "DegenerateTauError"
    assert rec["k"] == 1


def test_mop_generation(capsys):
    code, out, _ = run(capsys, "mop", "--moments-c", CATALAN,
                       "--moments-d", LINEAR, "--k", "2..2", "--l", "0..2")
    assert code == 0
    assert out.splitlines() == ["p_{2,0} = z^2 - 3 z + 1",
                                "p_{2,1} = z^2 - z - 1",
                                "p_{2,2} = z^2 - 2 z + 1"]


def test_recurrence(capsys):
    code, out, _ = run(capsys, "recurrence", "--moments", CATALAN,
                       "--count", "3")
    assert code == 0
    assert out.splitlines() == ["k=0: a=1, b=0", "k=1: a=2, b=1",
                                "k=2: a=2, b=1"]


def test_recurrence_json(capsys):
    code, out, _ = run(capsys, "recurrence", "--moments", HERMITE,
                       "--count", "4", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries == [{"k": 0, "a": "0", "b": "0"},
                       {"k": 1, "a": "0", "b": "1/2"},
                       {"k": 2, "a": "0", "b": "1"},
                       {"k": 3, "a": "0", "b": "3/2"}]


def test_malformed_moments_json(capsys):
    code, _, err = run(capsys, "tau", "gl2", "--moments",
                       '{"kind": "window", "lo": 0, "values": }')
    assert code == 2
    rec = json.loads(err)
    assert rec["error"] == "MomentParseError"


def test_unreadable_moments_file(capsys):
    code, _, err = run(capsys, "tau", "gl2", "--moments", "/no/such/file.json")
    assert code == 2
    assert json.loads(err)["error"] == "MomentParseError"


def test_non_utf8_moments_file(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "opgen", "--moments", str(f))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "MomentParseError"


def test_oversized_json_integer(capsys):
    spec = '{"kind": "window", "lo": 0, "values": [%s]}' % ("1" * 5000)
    code, _, err = run(capsys, "opgen", "--moments", spec)
    assert code == 2
    assert json.loads(err)["error"] == "MomentParseError"


HUGE = json.dumps({"kind": "window", "lo": 0,
                   "values": ["1" * 3000, "0", "1" * 3000]})


@pytest.mark.parametrize("argv", [
    ("tau", "gl2", "--k", "2", "--moments", HUGE),
    ("tau", "gl2", "--k", "0..2", "--format", "json", "--moments", HUGE),
    ("verify", "qsystem", "--k", "0..2", "--moments", HUGE),
])
def test_unprintable_result_is_resource_bound(capsys, argv):
    # tau_2 = m_0 m_2 has about 6000 digits, past Python's str() limit
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ResourceBoundError"


def test_named_moments_at_large_alpha(capsys):
    start = time.process_time()
    code, out, _ = run(capsys, "tau", "gl2", "--moments", CATALAN, "--k", "2",
                       "--alpha", "3000", "--format", "json")
    elapsed = time.process_time() - start
    c = [comb(2 * n, n) // (n + 1) for n in (3000, 3001, 3002)]
    assert code == 0
    assert json.loads(out)["entries"] == [
        {"k": 2, "alpha": 3000, "value": str(c[0] * c[2] - c[1] ** 2)}]
    assert elapsed < 5


@pytest.mark.parametrize("argv, line", [
    (("--k", "2", "--l", "0", "--alpha", str(2 ** 27), "--beta", "10"),
     "tau[k=2, l=0, alpha=134217728, beta=10] = c_134217718*c_134217720 - c_134217719^2"),
    (("--k", "2", "--l", "2", "--alpha", "0", "--beta", str(-2 ** 27)),
     "tau[k=2, l=2, alpha=0, beta=-134217728] = -d_0*d_2 + d_1^2"),
])
def test_symbolic_family_without_columns_is_not_read(capsys, argv, line):
    # the unused family's indices are past the 2^27 symbol bound
    code, out, err = run(capsys, "tau", "gl3", "--mode", "symbolic", *argv)
    assert (code, out, err) == (0, line + "\n", "")


def test_moments_file_path(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text('{"kind": "named", "name": "catalan"}')
    code, out, _ = run(capsys, "tau", "gl2", "--moments", str(f),
                       "--k", "1..1")
    assert code == 0
    assert out.strip() == "tau[k=1, alpha=0] = 1"


def test_bad_range_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "qsystem", "--moments", CATALAN,
                       "--k", "4..1")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_csv_rejected_for_reports(capsys):
    code, _, err = run(capsys, "verify", "qsystem", "--moments", CATALAN,
                       "--format", "csv")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ("verify", "qsystem", "--moments", CATALAN),
    ("verify", "gl3", "--moments-c", CATALAN, "--moments-d", LINEAR),
    ("verify", "zero-curvature", "--moments", CATALAN),
    ("verify", "orthogonality", "--moments", CATALAN),
    ("verify", "mop", "--moments-c", CATALAN, "--moments-d", LINEAR),
    ("opgen", "--moments", CATALAN),
    ("mop", "--moments-c", CATALAN, "--moments-d", LINEAR),
    ("recurrence", "--moments", CATALAN),
])
def test_csv_refused_before_any_work(capsys, monkeypatch, argv):
    # csv is a tau-table format: every other subcommand refuses it while
    # parsing, before it loads a moment source
    def no_load(*_):
        raise AssertionError("moments loaded before --format was checked")
    monkeypatch.setattr(cli, "load_moments", no_load)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "UsageError"


def test_stray_tauq_error_is_one_json_line(capsys, monkeypatch):
    # any TauqError, not only the subclasses main() names, ends as a record
    def boom(*_):
        raise tauq.TauqError("boom")
    monkeypatch.setattr(cli, "condensation_table", boom)
    code, out, err = run(capsys, "tau", "gl2", "--moments", CATALAN)
    assert (code, out) == (2, "")
    assert err == '{"error": "TauqError", "detail": "boom"}\n'


def test_infinite_support_is_exit_2(capsys):
    # the factorization route needs a finite window
    code, _, err = run(capsys, "verify", "gl3", "--moments-c", CATALAN,
                       "--moments-d", LINEAR, "--moments-e", HERMITE,
                       "--k", "0..1", "--l", "0..1")
    assert code == 2
    assert json.loads(err) == {
        "error": "SupportError",
        "detail": "the c*e convolution in tau3_det needs finite-support sequences"}


@pytest.mark.parametrize("argv", [
    ("opgen", "--moments", CATALAN, "--count", "-2"),
    ("recurrence", "--moments", CATALAN, "--count", "-1"),
    ("verify", "orthogonality", "--moments", CATALAN, "--count", "-1"),
    ("tau", "gl3", "--moments-c", RAND_C, "--moments-d", RAND_D,
     "--moments-e", RAND_E, "--max-work", "-1"),
    ("verify", "gl3", "--moments-c", RAND_C, "--moments-d", RAND_D,
     "--moments-e", RAND_E, "--max-work", "-1"),
    ("opgen", "--moments", CATALAN, "--count", "two"),
])
def test_negative_count_or_work_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ("verify", "qsystem", "--moments", CATALAN, "--k", "-3..-1"),
    ("verify", "gl3", "--moments-c", CATALAN, "--moments-d", LINEAR,
     "--k", "-2..-1"),
    ("verify", "mop", "--moments-c", CATALAN, "--moments-d", LINEAR,
     "--k", "-3..-1"),
    ("verify", "mop", "--moments-c", CATALAN, "--moments-d", LINEAR,
     "--k", "1", "--l", "2..3"),
])
def test_verify_selecting_no_instance_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "UsageError"


def test_commands_in_one_process_match_fresh_runs(capsys):
    # main() keeps one parser for the process: a success, a usage error and
    # other subcommands with other flags must print what each prints alone
    sequence = [
        ("tau", "gl2", "--moments", CATALAN, "--k", "0..2", "--alpha", "1",
         "--format", "csv"),
        ("opgen", "--moments", CATALAN, "--count", "-2"),
        ("tau", "gl2", "--moments", HERMITE, "--k", "0..3"),
        ("recurrence", "--moments", HERMITE, "--count", "3", "--format", "json"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(tauq.__file__).parents[1]))
    for argv in sequence:
        code, out, err = run(capsys, *argv)
        alone = subprocess.run([sys.executable, "-m", "tauq.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)


# sha256 of stdout, recorded before the symbolic layer moved to packed
# monomials, int coefficients and the Laplace subset kernel
PINNED_SYMBOLIC = [
    (("tau", "gl2", "--mode", "symbolic", "--k", "0..7", "--alpha", "-3"),
     "b2ad409c7bf7f9fee58484fbbb2adf6da7af4023bd854c5d7bb38c006b742f57"),
    (("tau", "gl3", "--mode", "symbolic", "--k", "0..5", "--l", "0..2",
      "--beta", "-1", "--format", "csv"),
     "860b7bb47baba9934ff4fe2ae09ddf8755f7e284ea9b1fe842b01a7078064c6b"),
    (("verify", "qsystem", "--mode", "symbolic", "--k", "0..6",
      "--format", "json"),
     "fd3c3ad75c386bf44989ffcf4ef7061c37228b88ef047f5637d8a42e45c9fed8"),
]


@pytest.mark.parametrize("argv, digest", PINNED_SYMBOLIC,
                         ids=["tau-gl2", "tau-gl3-csv", "qsystem-json"])
def test_symbolic_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("tau", "gl2", "--mode", "symbolic", "--k", "0..20"),
    ("tau", "gl3", "--mode", "symbolic", "--k", "10", "--l", "0..2"),
    ("verify", "qsystem", "--mode", "symbolic", "--k", "0..10"),
    ("verify", "gl3", "--mode", "symbolic", "--k", "0..9", "--l", "0"),
    ("verify", "zero-curvature", "--mode", "symbolic", "--k", "0..4"),
    ("tau", "gl2", "--mode", "symbolic", "--k", "1", "--alpha", str(2 ** 27)),
    ("tau", "gl2", "--mode", "symbolic", "--k", "1", "--alpha", str(-2 ** 27)),
])
def test_symbolic_bounds_are_resource_bound(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ResourceBoundError"


def test_symbolic_bounds_are_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SYMBOLIC_ORDER_BOUND", 2)
    monkeypatch.setattr(cli, "SYMBOLIC_ZERO_CURVATURE_K_BOUND", 1)
    for argv, code in [
            (("tau", "gl2", "--mode", "symbolic", "--k", "0..2"), 0),
            (("tau", "gl2", "--mode", "symbolic", "--k", "0..3"), 2),
            (("verify", "gl3", "--mode", "symbolic", "--k", "0..1"), 0),
            (("verify", "gl3", "--mode", "symbolic", "--k", "0..2"), 2),
            (("verify", "zero-curvature", "--mode", "symbolic", "--k", "0..1"), 0),
            (("verify", "zero-curvature", "--mode", "symbolic", "--k", "0..2"), 2),
            # numeric runs have no order bound
            (("tau", "gl2", "--moments", CATALAN, "--k", "0..3"), 0)]:
        assert run(capsys, *argv)[0] == code, argv


@pytest.mark.parametrize("argv", [
    ("tau", "gl2", "--mode", "symbolic", "--k", "0..2"),
    # long enough to fail inside print, not at the final flush
    ("verify", "qsystem", "--mode", "symbolic", "--k", "0..6", "--format", "json"),
])
def test_closed_stdout_is_exit_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(tauq.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "tauq.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "OutputClosedError"


def _numeric_gl2_argvs(count: int = 21) -> list[tuple]:
    """Seeded numeric tau gl2 argvs: random windows (3-digit numerators,
    2-digit denominators, some ending inside the cone the table reads),
    catalan, hermite at odd alpha and the zero window, with negative k
    and alpha, in every format."""
    rng = random.Random(12)
    argvs = []
    for i in range(count):
        k_lo = rng.randint(-3, 6)
        k_hi = k_lo + rng.randint(0, 6)
        a_lo = rng.randint(-4, 5)
        a_hi = a_lo + rng.randint(0, 10)
        if i % 4 == 0:
            source = json.dumps({"kind": "random", "seed": rng.randint(0, 999),
                                 "lo": a_lo + rng.randint(-2, 2),
                                 "hi": a_hi + 2 * k_hi + rng.randint(-8, 0),
                                 "max_abs_num": 999, "max_den": 99})
        else:
            source = (CATALAN, HERMITE,
                      '{"kind": "window", "lo": 0, "values": []}')[i % 4 - 1]
        argvs.append(("tau", "gl2", "--moments", source,
                      "--k", f"{k_lo}..{k_hi}", "--alpha", f"{a_lo}..{a_hi}",
                      "--format", ("json", "csv", "pretty")[i % 3]))
    return argvs


@pytest.mark.parametrize("argv", _numeric_gl2_argvs())
def test_tau_gl2_numeric_output_matches_determinants(capsys, monkeypatch,
                                                     argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "condensation_table", tau_det_table)
    assert run(capsys, *argv) == (code, out, err)


def test_verifiers_never_read_a_condensation_table(capsys, monkeypatch):
    # verify qsystem checks the relation condensation_table fills with,
    # and zero-curvature's identities are its consequences: both must
    # read determinants
    def refuse(*args):
        raise AssertionError("a verifier read a condensation table")

    monkeypatch.setattr(cli, "condensation_table", refuse)
    monkeypatch.setattr(tauq.tau_gl2, "condensation_table", refuse)
    for suite in ("qsystem", "zero-curvature"):
        for source in (("--moments", RAND_C), ("--moments", HERMITE),
                       ("--mode", "symbolic")):
            code, _, err = run(capsys, "verify", suite, *source,
                               "--k", "0..2", "--alpha", "-1..1")
            assert (code, err) == (0, ""), (suite, source)
    with pytest.raises(AssertionError):
        main(["tau", "gl2", "--moments", RAND_C])
