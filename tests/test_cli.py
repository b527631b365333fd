import dataclasses
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from structmat import (Circulant, Config, EmbeddingPolicy, Toeplitz, cli, config_get,
                       errors, levinson_solve, read_matrix, register_preconditioner,
                       smtgallery)
from structmat.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

from conftest import rel_err


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_dict(stdout):
    pairs = [line.partition(":") for line in stdout.splitlines() if ":" in line]
    return {k.strip(): v.strip() for k, _, v in pairs}


def test_gen_gaussian(tmp_path, capsys):
    out = tmp_path / "g.smt"
    code, stdout, _ = run(capsys, "gen", "gaussian", "7", "-o", str(out))
    assert code == EXIT_OK and "toeplitz 7x7" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "smt toeplitz 7 7"
    assert len(lines) == 1 + 13


def test_gen_seeded_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.smt", tmp_path / "b.smt"
    assert run(capsys, "gen", "crrand", "4", "--seed", "1", "-o", str(a))[0] == EXIT_OK
    assert run(capsys, "gen", "crrand", "4", "--seed", "1", "-o", str(b))[0] == EXIT_OK
    assert a.read_text() == b.read_text()


def test_gen_kms_body(tmp_path, capsys):
    out = tmp_path / "k.smt"
    code, _, _ = run(capsys, "gen", "tkms", "3", "--rho", "0.5", "-o", str(out))
    assert code == EXIT_OK
    T = read_matrix(out)
    assert np.allclose(sorted(T.t), [0.25, 0.25, 0.5, 0.5, 1.0])


def test_gen_bad_name_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "nope", "4", "-o", str(tmp_path / "x.smt"))
    assert code == EXIT_USAGE and "valid names" in err


def test_info_compact_and_full(tmp_path, capsys):
    path = tmp_path / "t.smt"
    run(capsys, "gen", "tkms", "4", "-o", str(path))
    code, stdout, _ = run(capsys, "info", str(path))
    assert code == EXIT_OK
    fields = report_dict(stdout)
    assert fields["type"] == "toeplitz"
    assert fields["dims"] == "4x4"
    assert fields["t"] == "7 entries"
    assert fields["cev"] == "8"
    code, stdout, _ = run(capsys, "info", str(path), "--full")
    assert "1." in stdout and "0.5" in stdout


@pytest.mark.parametrize("name, band, length", [
    ("tkms", "-9..9", "20"),  # dense: 2 * 10 - 1 = 19, rounded up to 20
    ("ttridiag", "-1..1", "12"),  # 10 + 1 = 11, rounded up to 12
    ("tgrcar", "-3..1", "15"),  # 10 + 3 = 13, rounded up to 15
])
def test_info_reports_band_and_solver_length(tmp_path, capsys, name, band, length):
    path = tmp_path / "t.smt"
    run(capsys, "gen", name, "10", "-o", str(path))
    code, stdout, _ = run(capsys, "info", str(path))
    assert code == EXIT_OK
    assert stdout.splitlines() == ["type: toeplitz", "dims: 10x10", "t: 19 entries",
                                   "cev: 32", f"band: lags {band}", f"solver length: {length}"]


def test_info_tight_embedding_flag(tmp_path, capsys):
    path = tmp_path / "t.smt"
    run(capsys, "gen", "tkms", "4", "-o", str(path))
    code, stdout, _ = run(capsys, "info", str(path), "--embedding", "tight")
    assert report_dict(stdout)["cev"] == "7"


def test_info_circulant_full_prints_matrix(tmp_path, capsys):
    path = tmp_path / "c.smt"
    from structmat import write_matrix

    write_matrix(path, Circulant([1.0, 2.0, 3.0, 4.0]))
    code, stdout, _ = run(capsys, "info", str(path), "--full")
    assert code == EXIT_OK
    assert "[1. 4. 3. 2.]" in stdout.replace("  ", " ")


def test_info_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/path.smt")
    assert code == EXIT_IO


def test_info_truncated_file(tmp_path, capsys):
    path = tmp_path / "bad.smt"
    path.write_text("smt toeplitz 4 4\n1 0\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == EXIT_IO and "needs 7 entry lines, found 1" in err


@pytest.mark.parametrize("data", [b"smt vector 3\n1 0\n2\xff 0\n3 0\n",
                                  b"smt vector 3\r\n1 0\r\n\xe92 0\r\n3 0\r\n"])
def test_info_non_utf8_file_is_io_error(tmp_path, capsys, data):
    path = tmp_path / "bad.smt"
    path.write_bytes(data)
    code, _, err = run(capsys, "info", str(path))
    assert code == EXIT_IO
    assert "MatrixFileError" in err and "line 3: not UTF-8 text" in err


@pytest.mark.parametrize("text, what", [
    ("smt circulant 2\ninf 0\n1 0\n", "first column"),
    ("smt toeplitz 2 2\n1 0\nnan 0\n1 0\n", "diagonal vector"),
], ids=["circulant", "toeplitz"])
def test_info_non_finite_structured_body_is_io_error(tmp_path, capsys, text, what):
    path = tmp_path / "bad.smt"
    path.write_text(text)
    code, _, err = run(capsys, "info", str(path))
    assert code == EXIT_IO
    assert f"MatrixFileError: {path}: {what} contains non-finite entries" in err


def test_precond_strang_pipeline_values(tmp_path, capsys):
    tri = tmp_path / "tri.smt"
    out = tmp_path / "c.smt"
    run(capsys, "gen", "ttridiag", "4", "-o", str(tri))
    code, _, _ = run(capsys, "precond", "strang", str(tri), "-o", str(out))
    assert code == EXIT_OK
    C = read_matrix(out)
    assert isinstance(C, Circulant)
    assert np.array_equal(C.col, [2, -1, 0, -1])


def test_precond_strang_on_dense_errors(tmp_path, capsys):
    dense = tmp_path / "d.smt"
    from structmat import write_matrix

    write_matrix(dense, np.eye(4))
    code, _, err = run(capsys, "precond", "strang", str(dense), "-o", str(tmp_path / "o.smt"))
    assert code == EXIT_USAGE and "Toeplitz" in err


def test_precond_optimal_on_circulant_is_identity(tmp_path, capsys):
    src = tmp_path / "c.smt"
    out = tmp_path / "o.smt"
    from structmat import write_matrix

    write_matrix(src, Circulant([3.0, 1.0, 2.0]))
    code, _, _ = run(capsys, "precond", "optimal", str(src), "-o", str(out))
    assert code == EXIT_OK
    assert np.allclose(read_matrix(out).col, [3, 1, 2])


def test_precond_superoptimal_of_huge_entries(tmp_path, capsys):
    src, out = tmp_path / "t.smt", tmp_path / "c.smt"
    from structmat import write_matrix

    write_matrix(src, Toeplitz([1e200, 1.0, 0.5]))
    code, _, err = run(capsys, "precond", "superoptimal", str(src), "-o", str(out))
    assert code == EXIT_OK, err
    assert np.allclose(read_matrix(out).col, [1e200, 0.0, 0.0], rtol=1e-12, atol=1e188)


def test_solve_auto_matches_library(tmp_path, capsys):
    mat = tmp_path / "k.smt"
    rhs = tmp_path / "b.smt"
    sol = tmp_path / "x.smt"
    run(capsys, "gen", "tkms", "16", "-o", str(mat))
    T = read_matrix(mat)
    b = T @ np.ones(16)
    from structmat import write_matrix

    write_matrix(rhs, b)
    code, stdout, _ = run(capsys, "solve", str(mat), str(rhs), "-o", str(sol))
    assert code == EXIT_OK
    fields = report_dict(stdout)
    assert fields["flag"] == "converged"
    assert fields["iterations"] == "0"
    x = read_matrix(sol)
    assert np.array_equal(x, levinson_solve(T, b))


def test_solve_circulant_direct(tmp_path, capsys):
    mat = tmp_path / "c.smt"
    from structmat import write_matrix

    write_matrix(mat, Circulant([4.0, 1.0, 0.0, 1.0]))
    code, stdout, _ = run(capsys, "solve", str(mat), "--rhs-ones")
    fields = report_dict(stdout)
    assert code == EXIT_OK
    assert fields["iterations"] == "0"
    assert float(fields["relative_residual"]) <= 1e-12


def test_solve_pcg_with_strang(tmp_path, capsys):
    mat = tmp_path / "g.smt"
    run(capsys, "gen", "gaussian", "256", "-o", str(mat))
    code, stdout, _ = run(
        capsys, "solve", str(mat), "--rhs-ones", "--method", "pcg",
        "--precond", "strang", "--tol", "1e-8", "--maxit", "300",
    )
    fields = report_dict(stdout)
    assert code == EXIT_OK
    assert fields["flag"] == "converged"
    assert int(fields["iterations"]) < 300
    assert float(fields["relative_residual"]) <= 1e-8


def test_solve_pcg_nan_tol_is_usage_error(tmp_path, capsys):
    path = tmp_path / "T.smt"
    assert main(["gen", "tkms", "8", "-o", str(path)]) == EXIT_OK
    code, _, err = run(capsys, "solve", str(path), "--rhs-ones", "--method", "pcg",
                       "--tol", "nan")
    assert code == EXIT_USAGE
    assert "tol must be positive, got nan" in err


def test_solve_pcg_with_precond_file(tmp_path, capsys, monkeypatch):
    # gen -> precond -> solve: the written circulant is read back, not rebuilt
    mat, prec = tmp_path / "g.smt", tmp_path / "c.smt"
    run(capsys, "gen", "gaussian", "256", "-o", str(mat))
    run(capsys, "precond", "strang", str(mat), "-o", str(prec))
    args = ("solve", str(mat), "--rhs-ones", "--method", "pcg", "--tol", "1e-8",
            "--maxit", "300", "--precond")
    built = report_dict(run(capsys, *args, "strang")[1])

    def no_build(kind, A):
        raise AssertionError("preconditioner rebuilt")

    monkeypatch.setattr(cli, "smtcprec", no_build)
    code, stdout, _ = run(capsys, *args, str(prec))
    read = report_dict(stdout)
    assert code == EXIT_OK and read["precond"] == str(prec)
    assert read["iterations"] == built["iterations"]
    assert float(read["relative_residual"]) <= 1e-8


def test_solve_precond_kind_names_are_reserved(tmp_path, capsys, monkeypatch):
    from structmat import write_matrix

    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "gaussian", "64", "-o", "g.smt")
    write_matrix("strang", Circulant(np.eye(64)[0]))  # the identity, named like a kind
    args = ("solve", "g.smt", "--rhs-ones", "--method", "pcg", "--maxit", "500")
    plain = report_dict(run(capsys, *args)[1])
    kind = report_dict(run(capsys, *args, "--precond", "strang")[1])
    from_file = report_dict(run(capsys, *args, "--precond", "./strang")[1])
    assert from_file["iterations"] == plain["iterations"] != kind["iterations"]


@pytest.mark.parametrize("kind, same_as", [("Strang", "strang"), ("unit", "none")],
                         ids=["any-case", "registered"])
def test_solve_precond_takes_the_kinds_precond_takes(tmp_path, capsys, monkeypatch,
                                                     kind, same_as):
    # `solve --precond` reads a kind name as `precond` does, from the registry
    import structmat.preconditioners as pmod

    monkeypatch.chdir(tmp_path)
    register_preconditioner("unit", lambda A: Circulant(np.eye(A.shape[0])[0]))
    try:
        run(capsys, "gen", "gaussian", "64", "-o", "g.smt")
        assert run(capsys, "precond", kind, "g.smt", "-o", "C.smt")[0] == EXIT_OK
        args = ("solve", "g.smt", "--rhs-ones", "--method", "pcg", "--maxit", "500",
                "--precond")
        code, stdout, err = run(capsys, *args, kind)
        want = report_dict(run(capsys, *args, same_as)[1])
    finally:
        with pmod._registry_lock:
            pmod._REGISTRY.pop("unit", None)
    assert code == EXIT_OK and err == ""
    got = report_dict(stdout)
    assert got["precond"] == kind and got["iterations"] == want["iterations"]


def test_solve_precond_file_errors(tmp_path, capsys, monkeypatch):
    from structmat import write_matrix

    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "gaussian", "8", "-o", "g.smt")
    write_matrix("small.smt", Circulant([2.0, 1.0, 1.0]))
    args = ("solve", "g.smt", "--rhs-ones", "--method", "pcg", "--precond")
    code, _, err = run(capsys, *args, "g.smt")
    assert code == EXIT_IO
    assert err == "error: MatrixFileError: g.smt: expected a circulant file\n"
    code, _, err = run(capsys, *args, "small.smt")
    assert code == EXIT_USAGE
    assert err == ("error: DimensionMismatchError: small.smt: preconditioner has order 3, "
                   "the matrix has 8 rows\n")
    code, _, err = run(capsys, *args, "missing.smt")
    assert code == EXIT_IO and "missing.smt" in err


@pytest.mark.parametrize("name, n", [("tprolate", 61), ("tprolate", 200),
                                     ("tprolate", 257), ("tdramadah", 200)])
def test_solve_levinson_ill_conditioned_exit_code(tmp_path, capsys, name, n):
    mat = tmp_path / "t.smt"
    run(capsys, "gen", name, str(n), "-o", str(mat))
    code, _, err = run(capsys, "solve", str(mat), "--rhs-ones", "--method", "levinson")
    assert code == EXIT_NUMERICAL
    assert err.startswith("error: BreakdownError: Levinson backward error ")


@pytest.mark.parametrize("n", [300, 800])
def test_solve_numerically_singular_toeplitz_exit_code(tmp_path, capsys, n):
    # tprolate with a random b passes Levinson's backward-error certificate,
    # but eps ||T||_1 ||x||_1 >= ||b||_1 at its answer
    from structmat import write_matrix

    mat, rhs = tmp_path / "t.smt", tmp_path / "b.smt"
    write_matrix(mat, smtgallery("tprolate", n))
    write_matrix(rhs, np.random.default_rng(0).standard_normal(n))
    code, out, err = run(capsys, "solve", str(mat), str(rhs))
    assert code == EXIT_NUMERICAL and out == ""
    assert err.startswith("error: SingularMatrixError: numerically singular: "
                          "||T||_1 ||x||_1 / ||b||_1 = ")
    assert err.endswith(" is at least 1/eps\n")
    assert err.count("\n") == 1


def test_solve_levinson_overflow_exit_code(tmp_path, capsys):
    # the solution overflows: one error line on stderr and no numpy warning
    mat = tmp_path / "t.smt"
    run(capsys, "gen", "ttriw", "2000", "-o", str(mat))
    code, _, err = run(capsys, "solve", str(mat), "--rhs-ones", "--method", "levinson")
    assert code == EXIT_NUMERICAL
    assert err.startswith("error: BreakdownError: Levinson overflow in the solution; ")
    assert err.count("\n") == 1


def test_solve_underdetermined_exit_code(tmp_path, capsys):
    mat = tmp_path / "w.smt"
    rhs = tmp_path / "b.smt"
    from structmat import write_matrix

    write_matrix(mat, Toeplitz.from_diagonals(np.ones(9), 4, 6))
    write_matrix(rhs, np.ones(4))
    code, _, err = run(capsys, "solve", str(mat), str(rhs), "--method", "lstsq")
    assert code == EXIT_NUMERICAL and "underdetermined" in err


def test_solve_singular_circulant_exit_code(tmp_path, capsys):
    mat = tmp_path / "s.smt"
    rhs = tmp_path / "b.smt"
    from structmat import write_matrix

    write_matrix(mat, Circulant([1.0, 1.0, 1.0, 1.0]))
    write_matrix(rhs, np.ones(4))
    code, _, err = run(capsys, "solve", str(mat), str(rhs))
    assert code == EXIT_NUMERICAL and "singular" in err


def test_bench_matvec_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "matvec", "--sizes", "64,128",
                     "--reps", "3", "-o", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "op,n,policy,fast_seconds,dense_seconds,max_rel_err"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "matvec"
        assert float(fields[5]) <= 1e-11


def test_bench_both_policies_rows(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "matvec", "--sizes", "64,128",
                     "--policies", "both", "-o", str(out))
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 5


def test_bench_solve_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "solve", "--sizes", "64,256", "-o", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "solve" and float(fields[5]) <= 1e-8


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("embedding=tight\ntoeprem=off\n")
    mat = tmp_path / "t.smt"
    run(capsys, "gen", "tkms", "4", "-o", str(mat))
    code, stdout, _ = run(capsys, "info", str(mat), "--config", str(cfg))
    assert code == EXIT_OK
    assert report_dict(stdout)["cev"] == "not computed"


def test_usage_exit_code_from_argparse(capsys):
    assert main(["solve"]) == EXIT_USAGE  # missing required argument
    assert main(["frobnicate"]) == EXIT_USAGE


def test_module_entry_point(tmp_path):
    env_path = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "m.smt"
    proc = subprocess.run(
        [sys.executable, "-m", "structmat", "gen", "tkms", "3", "-o", str(out)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(env_path), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("method, m", [("levinson", 16), ("lstsq", 24)])
def test_solve_direct_methods_report(tmp_path, capsys, method, m):
    mat = tmp_path / "t.smt"
    from structmat import write_matrix

    t = np.random.default_rng(17).standard_normal(m + 15)
    t[15] += 2 * m  # dominant main diagonal: well conditioned, no Levinson breakdown
    write_matrix(mat, Toeplitz.from_diagonals(t, m, 16))
    code, stdout, _ = run(capsys, "solve", str(mat), "--rhs-ones", "--method", method)
    fields = report_dict(stdout)
    assert code == EXIT_OK
    assert fields["method"] == method
    assert fields["iterations"] == "0"
    assert fields["flag"] == "converged"
    assert float(fields["relative_residual"]) <= 1e-10


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; no option or config setting of
    # one call may reach the next
    path = tmp_path / "t.smt"
    keys = ("method", "precond", "embedding", "toeprem", "intsolve", "tol", "maxit")
    code, _, _ = run(capsys, "gen", "tkms", "6", "--rho", "0.5", "-o", str(path),
                     "--embedding", "tight", "--no-toeprem")
    assert code == EXIT_OK
    code, stdout, _ = run(capsys, "solve", str(path), "--rhs-ones", "--method", "pcg",
                          "--precond", "strang", "--tol", "1e-3", "--maxit", "50",
                          "--embedding", "tight", "--no-toeprem", "--no-intsolve")
    fields = report_dict(stdout)
    assert code == EXIT_OK
    assert tuple(fields[k] for k in keys) == ("pcg", "strang", "tight", "off", "off",
                                             "0.001", "50")
    code, stdout, _ = run(capsys, "solve", str(path), "--rhs-ones")
    fields = report_dict(stdout)
    assert code == EXIT_OK
    assert tuple(fields[k] for k in keys) == ("auto", "none", "pow2", "on", "on",
                                             "1e-07", "-")
    code, stdout, _ = run(capsys, "info", str(path))
    assert report_dict(stdout)["cev"] == "16"  # pow2 embedding of 6x6


@pytest.mark.parametrize("rhs", [["--rhs-ones"], ["b.smt"]], ids=["rhs-ones", "rhs-file"])
def test_solve_vector_file_as_matrix_is_io_error(tmp_path, capsys, monkeypatch, rhs):
    from structmat import write_matrix

    monkeypatch.chdir(tmp_path)
    write_matrix("v.smt", np.ones(3))
    write_matrix("b.smt", np.ones(3))
    code, _, err = run(capsys, "solve", "v.smt", *rhs)
    assert code == EXIT_IO
    assert err == "error: MatrixFileError: v.smt: expected a matrix file\n"


@pytest.mark.parametrize("matrix, flags", [
    (np.ones((3, 3)), []),
    (Toeplitz.from_diagonals(np.ones(5), 3, 3), ["--no-intsolve"]),
], ids=["dense", "toeplitz-dense-fallback"])
def test_solve_singular_dense_system_is_numerical_error(tmp_path, capsys, matrix, flags):
    from structmat import write_matrix

    mat, rhs = tmp_path / "s.smt", tmp_path / "b.smt"
    write_matrix(mat, matrix)
    write_matrix(rhs, np.ones(3))
    code, _, err = run(capsys, "solve", str(mat), str(rhs), *flags)
    assert code == EXIT_NUMERICAL and err.startswith("error: LinAlgError:")


@pytest.mark.parametrize("matrix, flags", [
    (smtgallery("tdramadah", 60).full(), []),
    (smtgallery("tdramadah", 60), ["--no-intsolve"]),
], ids=["dense", "toeplitz-dense-fallback"])
def test_solve_numerically_singular_dense_system_is_numerical_error(tmp_path, capsys,
                                                                   matrix, flags):
    # cond_1 8.7e15: LU returns without a word, the condition number raises
    from structmat import write_matrix

    mat = tmp_path / "s.smt"
    write_matrix(mat, matrix)
    code, stdout, err = run(capsys, "solve", str(mat), "--rhs-ones", *flags)
    assert code == EXIT_NUMERICAL and stdout == ""
    assert err.startswith("error: SingularMatrixError: numerically singular")


def test_solve_square_dense_agrees_with_lapack(tmp_path, capsys, monkeypatch):
    from structmat import write_matrix

    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(8)
    A, b = rng.standard_normal((12, 12)) + 12.0 * np.eye(12), rng.standard_normal(12)
    write_matrix("A.smt", A)
    write_matrix("b.smt", b)
    code, stdout, _ = run(capsys, "solve", "A.smt", "b.smt", "-o", "x.smt")
    assert code == EXIT_OK and report_dict(stdout)["flag"] == "converged"
    assert rel_err(read_matrix("x.smt"), np.linalg.solve(A, b)) <= 1e-15


def test_levinson_refusal_says_when_the_dense_fallback_helps(tmp_path, capsys, monkeypatch):
    # Levinson refuses both systems and gives one advice.  Only the second,
    # cond_1 9 with a leading entry of 1e-11, is solved by the dense path;
    # tdramadah 60 (cond_1 8.7e15) is refused there too, as the advice says
    from structmat import write_matrix
    from structmat.solvers import _FALLBACK_ADVICE

    monkeypatch.chdir(tmp_path)
    write_matrix("d.smt", smtgallery("tdramadah", 60))
    T = Toeplitz([1e-11, 1, 0.3], [1e-11, 0.5, 0.2])
    write_matrix("m.smt", T)
    write_matrix("b.smt", T @ np.ones(3))
    assert "when cond_1(T) * eps >= 1" in _FALLBACK_ADVICE
    for args in (["d.smt", "--rhs-ones"], ["m.smt", "b.smt"]):
        code, _, err = run(capsys, "solve", *args)
        assert code == EXIT_NUMERICAL
        assert re.fullmatch(rf"error: BreakdownError: Levinson backward error \S+ exceeds "
                            rf"1e-12; {re.escape(_FALLBACK_ADVICE)}\n", err)
    code, _, err = run(capsys, "solve", "d.smt", "--rhs-ones", "--no-intsolve")
    assert code == EXIT_NUMERICAL
    assert err == "error: SingularMatrixError: numerically singular: condition number 8.7e+15\n"
    code, _, _ = run(capsys, "solve", "m.smt", "b.smt", "--no-intsolve", "-o", "x.smt")
    assert code == EXIT_OK and rel_err(read_matrix("x.smt"), np.ones(3)) <= 1e-15


@pytest.mark.parametrize("name, param", [("ttoeppd", "m=1e400"), ("tgrcar", "k=1e400")])
def test_gen_infinite_integer_parameter_is_usage_error(tmp_path, capsys, name, param):
    code, _, err = run(capsys, "gen", name, "4", "--param", param,
                       "-o", str(tmp_path / "x.smt"))
    assert code == EXIT_USAGE
    option = param.partition("=")[0]
    assert err == f"error: ValueError: option {option} must be an integer, got inf\n"
    assert not (tmp_path / "x.smt").exists()


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_bench_rejects_reps_below_one(tmp_path, capsys, reps):
    out = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", "matvec", "--sizes", "8", "--reps", reps,
                       "-o", str(out))
    assert code == EXIT_USAGE and "StructmatError: invalid --reps" in err
    assert not out.exists()


# Exit code of each error class, as the README states it.
EXIT_CODE_OF = {
    errors.StructmatError: EXIT_USAGE,
    errors.DimensionMismatchError: EXIT_USAGE,
    errors.UnsupportedOperationError: EXIT_USAGE,
    errors.SingularMatrixError: EXIT_NUMERICAL,
    errors.BreakdownError: EXIT_NUMERICAL,
    errors.UnderdeterminedError: EXIT_NUMERICAL,
    errors.RankDeficientError: EXIT_NUMERICAL,
    errors.MatrixFileError: EXIT_IO,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
    TypeError: EXIT_USAGE,
    OverflowError: EXIT_USAGE,
    MemoryError: EXIT_USAGE,
    np.linalg.LinAlgError: EXIT_NUMERICAL,
}


def test_exit_code_table_lists_every_structmat_error():
    package_errors = {cls for cls in vars(errors).values()
                      if isinstance(cls, type) and issubclass(cls, errors.StructmatError)}
    assert package_errors <= set(EXIT_CODE_OF)


@pytest.mark.parametrize("cls", list(EXIT_CODE_OF), ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(capsys, monkeypatch, cls):
    def fail(path):
        raise cls("boom")

    monkeypatch.setattr(cli, "read_matrix", fail)
    code, stdout, err = run(capsys, "info", "x")
    assert code == EXIT_CODE_OF[cls]
    assert stdout == "" and err == f"error: {cls.__name__}: boom\n"


def test_oversized_order_is_usage_error(tmp_path, capsys):
    # the generator's first array cannot be allocated, so this uses no memory
    out = tmp_path / "x.smt"
    code, stdout, err = run(capsys, "gen", "gaussian", "99999999999", "-o", str(out))
    assert code == EXIT_USAGE and stdout == "" and not out.exists()
    assert err.startswith("error: ") and "MemoryError" in err


def test_unmapped_error_is_not_swallowed(monkeypatch):
    def fail(path):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "read_matrix", fail)
    with pytest.raises(KeyError):
        main(["info", "x"])


def test_no_warnings_flag_silences_tphans(tmp_path, capsys):
    out = tmp_path / "p.smt"
    with pytest.warns(UserWarning, match="rank deficient"):
        assert run(capsys, "gen", "tphans", "6", "-o", str(out))[0] == EXIT_OK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "gen", "tphans", "6", "--no-warnings", "-o", str(out))[0] == EXIT_OK


def _non_default(field):
    """A value other than the default for a Config field, the CLI flag that
    sets it, and its spelling in a configuration file."""
    if field.name == "embedding":
        return EmbeddingPolicy.TIGHT, ["--embedding", "tight"], "tight"
    return False, [f"--no-{field.name}"], "off"


@pytest.mark.parametrize("field", dataclasses.fields(Config), ids=lambda f: f.name)
def test_every_config_field_can_be_set_from_the_cli(tmp_path, field):
    want, flag, text = _non_default(field)
    assert getattr(Config(), field.name) != want
    conf = tmp_path / "conf"
    conf.write_text(f"{field.name}={text}\n")
    for argv in (["info", "x", *flag], ["info", "x", "--config", str(conf)]):
        cli._apply_global_config(cli._build_parser().parse_args(argv))
        assert getattr(config_get(), field.name) == want


# -- report tables -------------------------------------------------------------

SOLVE_DEFAULTS = {"command": "solve", "matrix": "I.smt", "rhs": "v.smt", "method": "auto",
                  "precond": "none", "embedding": "pow2", "toeprem": "on", "intsolve": "on",
                  "intsolvels": "on", "tol": "1e-07", "maxit": "-", "iterations": "0",
                  "relative_residual": "0.000000000000e+00", "flag": "converged",
                  "wall_seconds": None, "output": "-"}


def _identity_files():
    """Order-4 identities of every matrix kind and an rhs vector, in the
    current directory: every solve of them is exact."""
    from structmat import write_matrix

    write_matrix("I.smt", Toeplitz([1.0, 0.0, 0.0, 0.0]))
    write_matrix("C.smt", Circulant([1.0, 0.0, 0.0, 0.0]))
    write_matrix("D.smt", np.eye(4))
    write_matrix("v.smt", np.arange(1.0, 5.0))


@pytest.mark.parametrize("argv, changed", [
    (["I.smt", "v.smt"], {}),
    (["I.smt", "v.smt", "--method", "levinson", "--tol", "1e-3"],
     {"method": "levinson", "tol": "0.001"}),
    (["I.smt", "v.smt", "--method", "pcg", "--maxit", "9", "--embedding", "tight",
      "--no-intsolvels", "-o", "x.smt"],
     {"method": "pcg", "maxit": "9", "embedding": "tight", "intsolvels": "off",
      "iterations": "1", "output": "x.smt"}),
    (["I.smt", "v.smt", "--method", "pcg", "--precond", "strang", "--no-toeprem",
      "--no-intsolve"],
     {"method": "pcg", "precond": "strang", "toeprem": "off", "intsolve": "off",
      "iterations": "1"}),
    (["C.smt", "--rhs-ones"], {"matrix": "C.smt", "rhs": "ones-image"}),
    (["D.smt", "v.smt"], {"matrix": "D.smt"}),
])
def test_solve_report_fields_in_order(tmp_path, capsys, monkeypatch, argv, changed):
    monkeypatch.chdir(tmp_path)
    _identity_files()
    code, stdout, _ = run(capsys, "solve", *argv)
    assert code == EXIT_OK
    want = {**SOLVE_DEFAULTS, **changed}
    lines = stdout.splitlines()
    assert [line.partition(": ")[0] for line in lines] == list(want)
    for line, (key, value) in zip(lines, want.items()):
        if value is None:
            assert re.fullmatch(rf"{key}: \d+\.\d{{6}}", line), line
        else:
            assert line == f"{key}: {value}"


@pytest.mark.parametrize("path, flags, lines", [
    ("I.smt", [], ["type: toeplitz", "dims: 4x4", "t: 7 entries", "cev: 8",
                   "band: lags 0..0", "solver length: 4"]),
    ("I.smt", ["--no-toeprem"], ["type: toeplitz", "dims: 4x4", "t: 7 entries",
                                  "cev: not computed", "band: lags 0..0", "solver length: 4"]),
    ("C.smt", [], ["type: circulant", "dims: 4x4", "col: 4 entries", "ev: 4"]),
    ("D.smt", [], ["type: dense", "dims: 4x4"]),
    ("v.smt", ["--full"], ["type: vector", "dims: 4", "[1. 2. 3. 4.]"]),
])
def test_info_report_fields_in_order(tmp_path, capsys, monkeypatch, path, flags, lines):
    monkeypatch.chdir(tmp_path)
    _identity_files()
    code, stdout, _ = run(capsys, "info", path, *flags)
    assert code == EXIT_OK
    assert stdout.splitlines() == lines


def test_info_full_above_order_twelve_is_summarised(tmp_path, capsys):
    path = tmp_path / "g.smt"
    run(capsys, "gen", "gaussian", "13", "-o", str(path))
    code, stdout, _ = run(capsys, "info", str(path), "--full")
    assert code == EXIT_OK
    assert stdout.splitlines()[-1] == "(matrix too large for full display)"


# -- gen options -----------------------------------------------------------------


def test_gen_options_are_generator_keywords():
    # a renamed generator option must not leave a dead `gen` flag behind
    from structmat.gallery import _PARAMS

    keywords = set().union(*_PARAMS.values())
    assert set(cli._GEN_OPTIONS) <= keywords, set(cli._GEN_OPTIONS) - keywords


def test_gen_rectangular_complex(tmp_path, capsys):
    out = tmp_path / "r.smt"
    code, stdout, _ = run(capsys, "gen", "tprand", "4,6", "--complex", "--seed", "1",
                          "-o", str(out))
    assert code == EXIT_OK and "toeplitz 4x6" in stdout
    T = read_matrix(out)
    assert T.shape == (4, 6) and np.iscomplexobj(T.t)
    assert np.array_equal(T.t, smtgallery("tprand", (4, 6), complex=True, seed=1).t)


@pytest.mark.parametrize("name, size, params, want", [
    ("ttoeppd", "5", ["weights=1,2", "theta=0.1,0.3"],
     {"weights": [1.0, 2.0], "theta": [0.1, 0.3]}),
    ("crrand", "4", ["complex=true", "seed=2"], {"complex": True, "seed": 2}),
    ("tkms", "4", ["rho= 0.25 "], {"rho": 0.25}),
    ("crrand", "4", ["complex=on", "complex=off", "seed=2.0"], {"complex": False, "seed": 2}),
], ids=["lists", "bool", "float", "bool-off"])
def test_gen_param_values(tmp_path, capsys, name, size, params, want):
    out = tmp_path / "p.smt"
    argv = [arg for item in params for arg in ("--param", item)]
    code, _, _ = run(capsys, "gen", name, size, *argv, "-o", str(out))
    assert code == EXIT_OK
    got, ref = read_matrix(out), smtgallery(name, int(size), **want)
    assert type(got) is type(ref)
    assert np.allclose(got.full(), ref.full(), rtol=1e-15, atol=0)


@pytest.mark.parametrize("argv, message", [
    (["tprand", "4x5x6"], "invalid size '4x5x6'"),
    (["tkms", "4", "--param", "rho"], "--param expects KEY=VALUE, got 'rho'"),
    (["algdec", "4", "--param", "p=steep"], "could not convert string to float: 'steep'"),
])
def test_gen_usage_errors(tmp_path, capsys, argv, message):
    code, _, err = run(capsys, "gen", *argv, "-o", str(tmp_path / "x.smt"))
    assert code == EXIT_USAGE and message in err


# -- config files -------------------------------------------------------------------


def test_config_file_line_without_equals_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf"
    conf.write_text("# a comment\n\nembedding=tight\nnoequals\n")
    code, _, err = run(capsys, "info", "x.smt", "--config", str(conf))
    assert code == EXIT_USAGE
    assert f"{conf}:4: expected key=value, got 'noequals'" in err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "info", "x.smt", "--config", str(tmp_path / "none"))
    assert code == EXIT_IO and "cannot read config file" in err


# -- solve branches -----------------------------------------------------------------


@pytest.mark.parametrize("argv, code, message", [
    (["I.smt"], EXIT_USAGE, "solve needs an rhs file or --rhs-ones"),
    (["I.smt", "D.smt"], EXIT_IO, "D.smt: expected a vector file"),
    (["C.smt", "--rhs-ones", "--method", "levinson"], EXIT_USAGE,
     "--method levinson requires a Toeplitz matrix file"),
])
def test_solve_argument_errors(tmp_path, capsys, monkeypatch, argv, code, message):
    monkeypatch.chdir(tmp_path)
    _identity_files()
    got, _, err = run(capsys, "solve", *argv)
    assert got == code and message in err


def test_solve_tall_dense_is_least_squares(tmp_path, capsys, monkeypatch):
    from structmat import write_matrix

    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(3)
    A, b = rng.standard_normal((9, 4)), rng.standard_normal(9)
    write_matrix("A.smt", A)
    write_matrix("b.smt", b)
    code, stdout, _ = run(capsys, "solve", "A.smt", "b.smt", "-o", "x.smt")
    assert code == EXIT_OK
    want, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert rel_err(read_matrix("x.smt"), want) <= 1e-12
    assert float(report_dict(stdout)["relative_residual"]) == pytest.approx(
        np.linalg.norm(b - A @ want) / np.linalg.norm(b), rel=1e-12)


def test_solve_rank_deficient_tall_dense_is_numerical_error(tmp_path, capsys, monkeypatch):
    from structmat import write_matrix

    monkeypatch.chdir(tmp_path)
    T = Toeplitz.from_diagonals(np.ones(12), 8, 5)
    write_matrix("A.smt", T.full())
    write_matrix("b.smt", T @ np.arange(5.0))
    code, stdout, err = run(capsys, "solve", "A.smt", "b.smt")
    assert code == EXIT_NUMERICAL and stdout == ""
    assert err.startswith("error: RankDeficientError: rank deficient")


# -- bench --------------------------------------------------------------------------------


def test_bench_rejects_sizes_below_one(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", "matvec", "--sizes", "0", "-o", str(out))
    assert code == EXIT_USAGE and "invalid --sizes '0'" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", list(cli._BENCH_OPS))
def test_bench_rows_above_the_dense_cutoff_leave_dense_columns_empty(
        tmp_path, capsys, monkeypatch, kind):
    monkeypatch.setattr(cli, "BENCH_DENSE_CUTOFF", 8)
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", kind, "--sizes", "8,9", "--reps", "1", "-o", str(out))
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:3] for row in rows] == [[kind, "8", "pow2"], [kind, "9", "pow2"]]
    assert rows[0][4] and rows[0][5] and rows[1][4:] == ["", ""]


def test_bench_rows_share_one_matrix_vector_and_error_rule():
    # the KMS matrix (rho = 0.5), one seeded vector, err = max|fast - dense| / max|dense|
    n = 12
    rows = {kind: cli.bench_rows(kind, [n], 1, [EmbeddingPolicy.TIGHT]) for kind in cli._BENCH_OPS}
    x = np.random.default_rng(cli._BENCH_SEED).standard_normal(n)
    A = smtgallery("tkms", n, rho=0.5).full()
    T = Toeplitz.from_diagonals(smtgallery("tkms", n, rho=0.5).t, n, n,
                                config=Config(embedding=EmbeddingPolicy.TIGHT))
    for kind, fast in (("matvec", T @ x), ("solve", levinson_solve(T, x))):
        ref = A @ x if kind == "matvec" else np.linalg.solve(A, x)
        (op, size, policy, _, dense, err), = rows[kind]
        assert (op, size, policy) == (kind, n, "tight") and dense > 0
        assert err == pytest.approx(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)),
                                    rel=1e-6, abs=1e-18)
