import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from structmat import Circulant, Toeplitz, levinson_solve, read_matrix, smtgallery
from structmat.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


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
