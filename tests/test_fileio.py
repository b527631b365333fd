import numpy as np
import pytest

from structmat import (
    Circulant,
    MatrixFileError,
    Toeplitz,
    read_matrix,
    write_matrix,
)

from conftest import same_bits


def roundtrip(tmp_path, value, name="m.smt"):
    path = tmp_path / name
    write_matrix(path, value)
    return read_matrix(path)


def test_circulant_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    C = Circulant(rng.standard_normal(9))
    back = roundtrip(tmp_path, C)
    assert isinstance(back, Circulant)
    assert np.array_equal(back.col, C.col)


def test_toeplitz_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    T = Toeplitz.from_diagonals(rng.standard_normal(12) * 1e-7, 5, 8)
    back = roundtrip(tmp_path, T)
    assert isinstance(back, Toeplitz)
    assert back.shape == (5, 8)
    assert np.array_equal(back.t, T.t)


def test_dense_and_vector_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    back = roundtrip(tmp_path, A)
    assert isinstance(back, np.ndarray) and back.shape == (4, 6)
    assert np.array_equal(back, A)
    v = rng.standard_normal(11)
    backv = roundtrip(tmp_path, v, "v.smt")
    assert backv.ndim == 1 and np.array_equal(backv, v)


def test_bit_exact_for_awkward_doubles(tmp_path):
    rng = np.random.default_rng(4)
    vals = np.concatenate(
        [
            rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000),
            [0.0, -0.0, 1e-308, -1e308, np.pi, 2.0 / 3.0],
        ]
    )
    back = roundtrip(tmp_path, vals)
    assert np.array_equal(back, vals)
    complex_vals = vals[:500] + 1j * vals[500:1000]
    backc = roundtrip(tmp_path, complex_vals, "c.smt")
    assert np.array_equal(backc, complex_vals)
    # non-finite values round-trip too; NaN != NaN, so compare the bits
    special = np.concatenate([vals, [np.inf, -np.inf, np.nan]])
    assert same_bits(roundtrip(tmp_path, special, "s.smt"), special)
    special_c = np.empty(9, dtype=complex)
    special_c.real = [np.inf, -np.inf, np.nan, 1.0, -0.0, np.nan, np.inf, 0.0, -0.0]
    special_c.imag = [0.0, np.nan, -np.inf, np.inf, np.nan, np.nan, -0.0, -0.0, np.inf]
    assert same_bits(roundtrip(tmp_path, special_c, "sc.smt"), special_c)


def per_entry_body(values):
    """The per-entry formatter that the bulk writer replaced, kept as the
    byte oracle of the file format."""
    flat = np.asarray(values).ravel()
    re = np.real(flat)
    im = np.imag(flat)
    return "\n".join([f"{re[i]:.17g} {im[i]:.17g}" for i in range(flat.shape[0])]) + "\n"


def awkward_values(dtype, finite, rng):
    """14 values of `dtype`: random magnitudes over the exponent range, the
    signed zeros, subnormals and, unless `finite`, inf, NaN and the largest
    double."""
    if np.issubdtype(dtype, np.integer):
        return np.concatenate([rng.integers(-(2**62), 2**62, 10),
                               [0, -1, 2**53 + 1, 2**63 - 1]]).astype(dtype)
    e = int(np.log10(np.finfo(dtype).max)) - 2
    x = rng.standard_normal(14) * 10.0 ** rng.integers(-e, e, 14)
    specials = [-0.0, 0.0, 5e-324, -1e-320, 1e-45, 2.0**53 + 2, 0.1]
    if not finite:
        specials += [np.inf, -np.inf, np.nan, 1.7976931348623157e308]
    x[: len(specials)] = specials
    if np.issubdtype(dtype, np.complexfloating):
        z = np.empty(14, dtype=complex)
        z.real, z.imag = x, rng.permutation(x)
        x = z
    with np.errstate(over="ignore"):  # the largest double narrows to inf
        return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64, np.float32,
                                   np.complex64])
@pytest.mark.parametrize("kind", ["circulant", "toeplitz", "dense", "vector"])
def test_written_bytes_match_per_entry_formatter(tmp_path, kind, dtype):
    rng = np.random.default_rng(5)
    x = awkward_values(dtype, kind in ("circulant", "toeplitz"), rng)
    if kind == "circulant":
        value = Circulant(x)
        header, stored = "smt circulant 14", value.col
    elif kind == "toeplitz":
        value = Toeplitz.from_diagonals(x, 5, 10)
        header, stored = "smt toeplitz 5 10", value.t
    elif kind == "dense":
        value = stored = x.reshape(2, 7)
        header = "smt dense 2 7"
    else:
        value = stored = x
        header = "smt vector 14"
    path = tmp_path / "m.smt"
    write_matrix(path, value)
    want = (header + "\n" + per_entry_body(stored)).encode("utf-8")
    assert path.read_bytes() == want
    back = read_matrix(path)
    back = back.col if kind == "circulant" else back.t if kind == "toeplitz" else back
    # the file holds doubles, and the reader narrows complex to real only
    # when every imaginary part is zero
    wide = np.asarray(stored, dtype=np.result_type(stored, np.float64))
    if np.iscomplexobj(wide) and np.all(wide.imag == 0.0):
        wide = wide.real
    assert same_bits(back, wide)


def test_header_layout(tmp_path):
    path = tmp_path / "t.smt"
    write_matrix(path, Toeplitz([4, 5, 6, 7], [4, 3, 2, 1]))
    lines = path.read_text().splitlines()
    assert lines[0] == "smt toeplitz 4 4"
    assert len(lines) == 8  # header + m+n-1 entries
    assert lines[1].split() == ["1", "0"]


def test_truncated_file_reports_missing_lines(tmp_path):
    path = tmp_path / "bad.smt"
    path.write_text("smt toeplitz 4 4\n1 0\n2 0\n3 0\n")
    with pytest.raises(MatrixFileError, match="needs 7 entry lines, found 3"):
        read_matrix(path)


def test_bad_header_and_entries(tmp_path):
    path = tmp_path / "bad.smt"
    path.write_text("smx circulant 4\n")
    with pytest.raises(MatrixFileError, match="line 1"):
        read_matrix(path)
    path.write_text("smt circulant 2\n1 0\nbogus 0\n")
    with pytest.raises(MatrixFileError, match="line 3"):
        read_matrix(path)
    path.write_text("smt circulant 2\n1 0\n1\n")
    with pytest.raises(MatrixFileError, match="two numeric fields"):
        read_matrix(path)
    path.write_text("smt sparse 2\n1 0\n1 0\n")
    with pytest.raises(MatrixFileError, match="unknown kind"):
        read_matrix(path)
    path.write_text("")
    with pytest.raises(MatrixFileError, match="empty file"):
        read_matrix(path)


def test_real_detection(tmp_path):
    path = tmp_path / "r.smt"
    write_matrix(path, Circulant([1.0, 2.0]))
    assert read_matrix(path).isreal
    write_matrix(path, Circulant([1.0 + 1j, 2.0]))
    assert not read_matrix(path).isreal
