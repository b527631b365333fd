"""The operator table shared by Circulant and Toeplitz, against dense oracles."""

import operator
import warnings

import numpy as np
import pytest

from structmat import (Circulant, DimensionMismatchError, Toeplitz, config_set, is_circulant,
                       is_toeplitz)
from structmat._structured import cyclic_reverse, reversal_index
from structmat.cli import EXIT_OK, EXIT_USAGE, main

from conftest import dense_circulant, dense_toeplitz, random_complex, rel_err, same_bits


def test_operator_table_against_dense_oracles():
    rng = np.random.default_rng(20261017)
    c, d, t, w = (random_complex(rng, k) for k in (5, 5, 9, 7))
    C, D = Circulant(c), Circulant(d)
    T = Toeplitz.from_diagonals(t, 5, 5)
    W = Toeplitz.from_diagonals(w, 5, 3)
    oracle = {id(C): dense_circulant(c), id(D): dense_circulant(d),
              id(T): dense_toeplitz(t, 5, 5), id(W): dense_toeplitz(w, 5, 3)}

    # ndarray @ structured, for 1-d and 2-d operands, real and complex
    for A in (C, T, W):
        m = A.shape[0]
        for x in (random_complex(rng, m), rng.standard_normal(m),
                  random_complex(rng, 4, m), rng.standard_normal((4, m))):
            got = x @ A
            assert isinstance(got, np.ndarray) and got.shape == (x @ oracle[id(A)]).shape
            assert rel_err(got, x @ oracle[id(A)]) <= 1e-12

    # products leave the lattice unless both factors are circulant
    for P, ref in ((C @ T, oracle[id(C)] @ oracle[id(T)]),
                   (T @ C, oracle[id(T)] @ oracle[id(C)])):
        assert isinstance(P, np.ndarray) and rel_err(P, ref) <= 1e-12
    CD = C @ D
    assert isinstance(CD, Circulant)
    assert rel_err(CD.full(), oracle[id(C)] @ oracle[id(D)]) <= 1e-12

    # scalar division keeps the class; reflected division and hashing do not exist
    s = 2.5 - 0.5j
    for A in (C, T):
        Q = A / s
        assert type(Q) is type(A) and rel_err(Q.full(), oracle[id(A)] / s) <= 1e-13
        with pytest.raises(TypeError):
            2 / A
        with pytest.raises(TypeError):
            hash(A)

    # +, - and * with a scalar keep the class on either side, a 0-d array
    # included, and a circulant's shifted spectrum stays its column's DFT
    for s in (2.5 - 0.5j, 3, np.float32(1.5), np.complex64(1j), np.array(2.0),
              np.array(2.0 - 1j)):
        for A in (C, T):
            for op in (operator.add, operator.sub, operator.mul):
                for got, ref in ((op(A, s), op(oracle[id(A)], s)),
                                 (op(s, A), op(s, oracle[id(A)]))):
                    assert type(got) is type(A) and rel_err(got.full(), ref) <= 1e-13
                    if type(got) is Circulant:
                        assert rel_err(got.ev, np.fft.fft(got.col)) <= 1e-13

    # operands the table does not take: Python's fallback decides
    for A in (C, T):
        assert (A == A.full()) is False and (A == "A") is False and A != [1.0]
        n = A.shape[1]
        for bad in (lambda: A + ([1.0] * n), lambda: A / np.ones(n), lambda: A @ ([1.0] * n),
                    lambda: np.ones((2, n, A.shape[0])) @ A):
            with pytest.raises(TypeError):
                bad()

    # every pair: mismatched shapes raise, matching shapes agree with the oracle
    C3, T3 = Circulant(random_complex(rng, 3)), Toeplitz(random_complex(rng, 3))
    oracle[id(C3)], oracle[id(T3)] = C3.full(), T3.full()
    operands = (C, C3, T, T3, W)
    for name, op in (("+", operator.add), ("-", operator.sub),
                     ("*", operator.mul), ("@", operator.matmul)):
        for a in operands:
            for b in operands:
                ok = (a.shape[1] == b.shape[0]) if name == "@" else (a.shape == b.shape)
                if not ok:
                    with pytest.raises(DimensionMismatchError):
                        op(a, b)
                    continue
                got = op(a, b)
                dense = got if isinstance(got, np.ndarray) else got.full()
                ref = op(oracle[id(a)], oracle[id(b)])
                assert rel_err(dense, ref) <= 1e-12, (name, a, b)


def test_single_precision_operands_are_applied_in_double_precision():
    # a 2-d float32/complex64 operand is transformed in its own precision, but
    # the spectrum is never rounded down to it: the result comes back in
    # double precision, as for a 1-d operand
    rng = np.random.default_rng(7)
    c, t = random_complex(rng, 6), random_complex(rng, 11)
    C, T = Circulant(c.real), Toeplitz.from_diagonals(t, 6, 6)
    dense_C, dense_T = dense_circulant(c.real), dense_toeplitz(t, 6, 6)
    for X in (rng.standard_normal((6, 3)).astype(np.float32),
              random_complex(rng, 6, 3).astype(np.complex64)):
        wide = X.astype(np.complex128 if np.iscomplexobj(X) else np.float64)
        for got, ref in ((C @ X, dense_C @ wide), (X.T @ C, wide.T @ dense_C),
                         (C.solve(X), np.linalg.solve(dense_C, wide)),
                         (T @ X, dense_T @ wide), (X.T @ T, wide.T @ dense_T)):
            assert got.dtype == ref.dtype
            assert rel_err(got, ref) <= 1e-5


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
def test_cyclic_reverse_is_the_reversal_gather(n):
    rng = np.random.default_rng(n)
    for v in (rng.standard_normal(n), random_complex(rng, n)):
        assert same_bits(cyclic_reverse(v), v[reversal_index(n)])


def _index_grid(dim):
    return [0, -1, dim - 1, np.int64(2), True, slice(None), slice(1, 3), slice(3, 1),
            slice(-2, None), slice(None, None, 2), slice(None, None, -1), [0, 2],
            np.array([1, -1]), np.array([], int), []]


def test_indexing_selects_on_each_axis_as_numpy_does():
    rng = np.random.default_rng(17)
    values = (Toeplitz.from_diagonals(rng.standard_normal(8), 5, 4),
              Toeplitz.from_diagonals(random_complex(rng, 9), 4, 6),
              Circulant(rng.standard_normal(5)))
    for A in values:
        F = A.full()
        for rows in _index_grid(A.shape[0]):
            for cols in _index_grid(A.shape[1]):
                # the positions each key selects; numpy would read True as a mask
                r, c = (np.arange(dim)[int(k) if isinstance(k, bool) else k]
                        for k, dim in zip((rows, cols), A.shape))
                want = F[np.ix_(np.ravel(r), np.ravel(c))].reshape(np.shape(r) + np.shape(c))
                got = A[rows, cols]
                unit = all(isinstance(k, slice) and k.step is None for k in (rows, cols))
                if unit and want.size:
                    assert isinstance(got, (Circulant, Toeplitz)), (A, rows, cols)
                    assert got is A or isinstance(got, Toeplitz)
                    assert same_bits(got.full(), want), (A, rows, cols)
                else:
                    assert isinstance(got, (np.ndarray, np.generic)), (A, rows, cols)
                    assert isinstance(got, np.generic) == (want.ndim == 0)
                    assert same_bits(np.asarray(got), want), (A, rows, cols)
        # a 0-d integer array is an integer, as in numpy
        assert same_bits(np.asarray(A[np.array(2), 1]), np.asarray(F[2, 1]))


def test_indexing_errors():
    for A in (Toeplitz.from_diagonals(np.arange(8.0), 5, 4), Circulant(np.arange(5.0))):
        m, n = A.shape
        for key in ((m, 0), (-m - 1, 0), (0, n), (0, -n - 1), (m, slice(None)),
                    (slice(None), [0, n])):
            with pytest.raises(IndexError):
                A[key]
        for key in ((0.5, 0), (0, 0.5), (np.True_, 0), (0, np.True_),
                    (np.array([[0, 1]]), 0), (slice(None), np.array([[0]])),
                    0, (0,), (0, 0, 0), [0, 0]):
            with pytest.raises(TypeError):
                A[key]


def test_type_predicates():
    C, T = Circulant([1.0, 2.0]), Toeplitz([1.0, 2.0])
    assert is_circulant(C) and not is_circulant(T) and not is_circulant(C.full())
    assert is_toeplitz(T) and not is_toeplitz(C) and not is_toeplitz(T.full())
    assert is_toeplitz(C.to_toeplitz())


@pytest.mark.parametrize("tag, f", [("round", np.round), ("fix", np.trunc),
                                    ("floor", np.floor), ("ceil", np.ceil)])
def test_rounding_maps_act_on_real_and_imaginary_parts(tag, f):
    rng = np.random.default_rng(8)
    col, t = 10 * random_complex(rng, 5), 10 * random_complex(rng, 7)
    for A in (Circulant(col), Toeplitz.from_diagonals(t, 3, 5),
              Circulant(col.real), Toeplitz.from_diagonals(t.real, 3, 5)):
        got = A.map_entries(tag)
        assert type(got) is type(A) and got.isreal == A.isreal
        dense = A.full()
        assert np.array_equal(got.full().real, f(dense.real))
        assert np.array_equal(got.full().imag, f(dense.imag))


def test_diagonal_outside_the_matrix_is_empty():
    for A in (Circulant([1.0, 2.0, 3.0]), Toeplitz.from_diagonals(np.arange(1.0, 7.0), 4, 3)):
        m, n = A.shape
        for k in (n, n + 2, -m, -m - 1):
            got = A.diag(k)
            assert got.shape == (0,) and got.dtype == A.dtype


def test_unary_plus_is_the_value_itself():
    C = Circulant([1.0, -2.0, 3.0])
    assert +C is C
    assert np.array_equal((+C).full(), C.full())


@pytest.mark.parametrize("toeprem", [True, False], ids=["toeprem", "lazy"])
def test_a_spectrum_that_overflows_is_refused_where_it_is_written(tmp_path, capsys, toeprem):
    # finite entries whose spectrum overflows: ev[0], the sum of the column
    # or of the embedding, passes the largest double
    config_set("toeprem", toeprem)
    refused = pytest.raises(ValueError, match="^spectrum contains non-finite entries$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the transform prints no numpy warning
        with refused:
            Circulant([1e308, 1e308])
        if toeprem:
            with refused:
                Toeplitz([1e308, 1e308])
        else:  # a lazy value is refused when its spectrum is first asked for
            T = Toeplitz([1e308, 1e308])
            for order in (T.embed_order, T._exact_order()):  # the cache, the solvers' order
                with refused:
                    T._spectrum(order)
            assert T.cev is None
            with refused:
                T @ np.ones(2)

    # a carried spectrum: scaling keeps the entries finite and overflows ev[0]
    C = Circulant(np.full(4, 4e307))
    T = Toeplitz.from_diagonals(np.full(3, 4e307), 2, 2)
    with refused:
        C * 1.5
    if toeprem:
        with refused:
            T * 1.5
    else:
        S = T * 1.5
        with refused:
            S @ np.ones(2)

    # the command line builds under toeprem unless told not to
    path = tmp_path / "T.smt"
    gen = ["gen", "ttriw", "9", "--alpha", "1e308", "-o", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(gen) == EXIT_USAGE and not path.exists()
        err = capsys.readouterr().err
        assert err == "error: ValueError: spectrum contains non-finite entries\n"
        if not toeprem:  # written lazily, and refused when read under toeprem
            assert main([*gen, "--no-toeprem"]) == EXIT_OK
            assert main(["info", str(path)]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"error: ValueError: {path}: spectrum contains non-finite entries\n")
            assert main(["info", str(path), "--no-toeprem"]) == EXIT_OK
