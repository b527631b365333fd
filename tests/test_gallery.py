import warnings

import numpy as np
import pytest

from structmat import Circulant, Toeplitz, config_set, smtgallery, GALLERY_NAMES
from structmat.cli import EXIT_OK, EXIT_USAGE, main
from structmat.gallery import _GENERATORS

from conftest import rel_err


def test_name_set():
    assert len(GALLERY_NAMES) == 18
    with pytest.raises(ValueError, match="valid names"):
        smtgallery("hilb", 4)
    with pytest.raises(ValueError, match="unknown parameter"):
        smtgallery("tkms", 4, decay=3)
    with pytest.raises(ValueError):
        smtgallery("gaussian", 0)


def test_random_circulants():
    C = smtgallery("crrand", 7, seed=1)
    assert isinstance(C, Circulant) and C.n == 7 and C.isreal
    assert np.all((C.col >= 0) & (C.col < 1))
    Z = smtgallery("crrand", 7, seed=1, complex=True)
    assert np.iscomplexobj(Z.col)
    N = smtgallery("crrandn", 5, seed=2)
    assert isinstance(N, Circulant) and N.isreal


def test_random_toeplitz_and_rectangular():
    T = smtgallery("tprand", (4, 6), seed=3)
    assert isinstance(T, Toeplitz) and T.shape == (4, 6)
    G = smtgallery("tprandn", 5, seed=4, complex=True)
    assert G.shape == (5, 5) and np.iscomplexobj(G.t)


def test_seeded_reproducibility():
    for name in ("crrand", "crrandn", "tprand", "tprandn", "ttoeppd"):
        a = smtgallery(name, 6, seed=42)
        b = smtgallery(name, 6, seed=42)
        va = a.col if isinstance(a, Circulant) else a.t
        vb = b.col if isinstance(b, Circulant) else b.t
        assert np.array_equal(va, vb)


def test_decay_families():
    n = 7
    A = smtgallery("algdec", n)
    E = smtgallery("expdec", n)
    G = smtgallery("gaussian", n)
    k = np.arange(n)
    assert np.allclose(A.full()[:, 0], (1.0 + k) ** -2.0)
    assert np.allclose(E.full()[:, 0], np.exp(-0.5 * k))
    assert np.allclose(G.full()[:, 0], np.exp(-0.1 * k**2))
    assert np.allclose(smtgallery("expdec", n, p=1.5).full()[1, 0], np.exp(-1.5))
    for M in (A, E, G):
        assert isinstance(M, Toeplitz)
        assert np.array_equal(M.full(), M.full().T)


def test_kms():
    K = smtgallery("tkms", 3, rho=0.5)
    want = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert np.array_equal(K.full(), want)
    Z = smtgallery("tkms", 4, rho=0.3 + 0.4j)
    assert np.allclose(Z.full(), Z.full().conj().T)


def test_banded_families():
    T = smtgallery("ttridiag", 5)
    want = 2 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)
    assert np.array_equal(T.full(), want)
    custom = smtgallery("ttridiag", 3, c=1.0, d=5.0, e=2.0)
    assert custom.full()[1, 0] == 1.0 and custom.full()[0, 1] == 2.0
    P = smtgallery("ttoeppen", 6)
    A = P.full()
    assert A[2, 0] == 1 and A[1, 0] == -10 and A[0, 0] == 0
    assert A[0, 1] == 10 and A[0, 2] == 1 and A[0, 3] == 0


def test_toeppd():
    M = smtgallery("ttoeppd", 6, m=3, weights=[1.0, 2.0, 0.5], theta=[0.1, 0.2, 0.3])
    k = np.arange(6)
    want = sum(w * np.cos(2 * np.pi * th * k) for w, th in [(1, 0.1), (2, 0.2), (0.5, 0.3)])
    assert np.allclose(M.full()[:, 0], want)
    with pytest.raises(ValueError):
        smtgallery("ttoeppd", 6, weights=[1.0, -1.0], theta=[0.1, 0.2])
    with pytest.raises(ValueError, match="weights and theta must have the same length"):
        smtgallery("ttoeppd", 6, weights=[1.0, 2.0], theta=[0.1])


def test_grcar():
    T = smtgallery("tgrcar", 6)
    A = T.full()
    assert np.all(np.diag(A, -1) == -1)
    for k in range(0, 4):
        assert np.all(np.diag(A, k) == 1)
    assert np.all(np.diag(A, 4) == 0)
    assert np.all(np.diag(A, -2) == 0)
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        smtgallery("tgrcar", 6, k=-1)


def test_parter():
    T = smtgallery("tparter", 5)
    i, j = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    assert np.allclose(T.full(), 1.0 / (i - j + 0.5))


def test_prolate():
    T = smtgallery("tprolate", 3)
    assert T.full()[0, 0] == pytest.approx(0.5)
    assert T.full()[1, 0] == pytest.approx(1.0 / np.pi)
    assert T.full()[2, 0] == pytest.approx(0.0, abs=1e-16)


def test_chow():
    T = smtgallery("tchow", 5, alpha=0.5, delta=2.0)
    A = T.full()
    assert np.all(np.diag(A, 1) == 1.0)          # alpha**0
    assert np.all(np.diag(A) == 0.5 + 2.0)        # alpha + delta
    assert np.all(np.diag(A, -2) == 0.125)
    assert np.all(np.diag(A, 2) == 0.0)
    default = smtgallery("tchow", 4)
    assert np.array_equal(np.triu(default.full(), 2), np.zeros((4, 4)))


def test_triw():
    T = smtgallery("ttriw", 5)
    A = T.full()
    assert np.array_equal(np.tril(A, -1), np.zeros((5, 5)))
    assert np.all(np.diag(A) == 1)
    assert np.all(A[np.triu_indices(5, 1)] == -1)
    banded = smtgallery("ttriw", 5, alpha=2.0, k=2)
    assert banded.full()[0, 2] == 2.0 and banded.full()[0, 3] == 0.0
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        smtgallery("ttriw", 5, k=-1)


def test_dramadah():
    for k in (1, 2, 3):
        T = smtgallery("tdramadah", 8, k=k)
        A = T.full()
        assert set(np.unique(A)) <= {0.0, 1.0}
    assert abs(abs(np.linalg.det(smtgallery("tdramadah", 8, k=1).full())) - 1.0) <= 1e-9
    upper = smtgallery("tdramadah", 8, k=2).full()
    assert np.array_equal(np.tril(upper, -1), np.zeros((8, 8)))
    hess = smtgallery("tdramadah", 8, k=3).full()
    assert np.array_equal(np.triu(hess, 2), np.zeros((8, 8)))
    with pytest.raises(ValueError):
        smtgallery("tdramadah", 8, k=4)


def test_phans_rank_deficiency():
    for n in (16, 40, 64):
        T = smtgallery("tphans", n)
        s = np.linalg.svd(T.full(), compute_uv=False)
        assert s[-1] / s[0] <= 1e-8
        assert s[8] / s[0] <= 1e-10 < s[7] / s[0]  # clean gap after rank 8


def test_psd_spot_checks():
    for name, kwargs in [
        ("tkms", {"rho": 0.5}),
        ("ttoeppd", {"seed": 0}),
        ("gaussian", {}),
        ("expdec", {}),
    ]:
        for n in (8, 64):
            T = smtgallery(name, n, **kwargs)
            evals = np.linalg.eigvalsh(T.full())
            assert evals.min() >= -1e-10


# Every generator's options and their defaults, as the README lists them.
GENERATOR_PARAMS = {
    "algdec": {"p": 2.0},
    "crrand": {"seed": None, "complex": False},
    "crrandn": {"seed": None, "complex": False},
    "expdec": {"p": 0.5},
    "gaussian": {"p": 0.1},
    "tchow": {"alpha": 1.0, "delta": 0.0},
    "tdramadah": {"k": 1},
    "tgrcar": {"k": 3},
    "tkms": {"rho": 0.5},
    "tparter": {},
    "tphans": {},
    "tprand": {"seed": None, "complex": False},
    "tprandn": {"seed": None, "complex": False},
    "tprolate": {"w": 0.25},
    "ttoeppd": {"m": None, "seed": None, "weights": None, "theta": None},
    "ttoeppen": {"a": 1.0, "b": -10.0, "c": 0.0, "d": 10.0, "e": 1.0},
    "ttridiag": {"c": -1.0, "d": 2.0, "e": -1.0},
    "ttriw": {"alpha": -1.0, "k": None},
}


def _values(M):
    return M.col if isinstance(M, Circulant) else M.t


def test_parameter_table_covers_the_gallery():
    assert sorted(GENERATOR_PARAMS) == list(GALLERY_NAMES)


@pytest.mark.parametrize("name", sorted(GENERATOR_PARAMS))
def test_listed_parameters_accepted_with_their_defaults(name):
    seeded = {"seed": 7} if "seed" in GENERATOR_PARAMS[name] else {}
    want = _values(smtgallery(name, 12, **seeded))
    got = _values(smtgallery(name, 12, **{**GENERATOR_PARAMS[name], **seeded}))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    with pytest.raises(ValueError, match=rf"^unknown parameter\(s\) for '{name}': bogus$"):
        smtgallery(name, 12, bogus=1, **seeded)


@pytest.mark.parametrize("name", sorted(GENERATOR_PARAMS))
def test_signature_states_shape_and_options(name):
    # the gallery reads a generator's shape from its positional arity and its
    # options from its keyword-only defaults
    code, options = _GENERATORS[name].__code__, _GENERATORS[name].__kwdefaults__ or {}
    rectangular = name in ("tprand", "tprandn")
    assert code.co_argcount == (2 if rectangular else 1)
    assert code.co_kwonlyargcount == len(options) and options == GENERATOR_PARAMS[name]
    seeded = {"seed": 7} if "seed" in options else {}
    want = smtgallery(name, 12, **seeded)
    assert want.shape == (12, 12)
    for size in ((12,), [12]):
        assert np.array_equal(_values(smtgallery(name, size, **seeded)), _values(want))
    for pair in ((12, 12), (12, 14), [14, 12]):
        if rectangular:
            assert smtgallery(name, pair, **seeded).shape == tuple(pair)
        else:
            with pytest.raises(ValueError, match=rf"^'{name}' generates square matrices"):
                smtgallery(name, pair, **seeded)
    if rectangular:
        assert np.array_equal(_values(smtgallery(name, (12, 12), **seeded)), _values(want))
    for bad in (0, (-1,), (12, 0), (1, 2, 3)):
        with pytest.raises(ValueError, match="dimensions must be positive|generates"):
            smtgallery(name, bad, **seeded)


# Each value option of each generator; these take any float.
VALUE_OPTIONS = [(name, option) for name, params in sorted(GENERATOR_PARAMS.items())
                 for option, default in params.items() if isinstance(default, float)]

# Each integer option; these take integral values only.
INTEGER_OPTIONS = [(name, option) for name, params in sorted(GENERATOR_PARAMS.items())
                   for option in params if option in ("k", "m", "seed")]


@pytest.mark.parametrize("name, option", VALUE_OPTIONS + INTEGER_OPTIONS)
def test_extreme_option_values_print_no_numpy_warning(tmp_path, capsys, name, option):
    integer = (name, option) in INTEGER_OPTIONS
    extremes = ("inf", "-inf", "nan", "2.5") if integer else ("inf", "-inf", "nan", "1e308",
                                                              "-1e308")
    for raw in extremes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the call
            try:
                smtgallery(name, 9, **{option: float(raw)})
            except ValueError as exc:
                refusal = str(exc)
            else:
                refusal = None
            code = main(["gen", name, "9", "-o", str(tmp_path / "T.smt"),
                         "--param", f"{option}={raw}"])
        err = capsys.readouterr().err.splitlines()
        assert code in (EXIT_OK, EXIT_USAGE) and len(err) == (code != EXIT_OK), (raw, err)
        assert code == EXIT_OK or err[0].startswith("error: ValueError: ")
        if integer:  # no integral value among them: each is refused by name
            assert refusal == f"option {option} must be an integer, got {raw}"
            assert err == [f"error: ValueError: {refusal}"]


@pytest.mark.parametrize("value", [3.0, np.int64(3), np.float64(3.0)],
                         ids=["float", "int64", "float64"])
def test_integral_values_of_integer_options_pass(value):
    for name, option in INTEGER_OPTIONS:
        seeded = {"seed": 7} if "seed" in GENERATOR_PARAMS[name] else {}
        want = smtgallery(name, 9, **{**seeded, option: 3})
        got = smtgallery(name, 9, **{**seeded, option: value})
        assert np.array_equal(_values(got), _values(want)), (name, option)


def test_dimension_names_are_not_parameters():
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) for 'tkms': n$"):
        smtgallery("tkms", 4, n=3)
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) for 'tprand': m, n$"):
        smtgallery("tprand", (2, 3), m=3, n=4)
    assert smtgallery("ttoeppd", 4, m=2, seed=1).shape == (4, 4)  # a real option there


def test_bad_option_value_reported_before_unknown_option():
    with pytest.raises(ValueError, match="could not convert"):
        smtgallery("algdec", 4, p="steep", bogus=1)


def test_tphans_small_order_warning_follows_the_switch():
    with pytest.warns(UserWarning, match="rank deficient only for orders above 8") as rec:
        smtgallery("tphans", 8)
    assert rec[0].filename == __file__  # attributed to the caller of smtgallery
    config_set("warnings", False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smtgallery("tphans", 8)
