import numpy as np
import pytest

from structmat import (
    Circulant,
    Config,
    EmbeddingPolicy,
    StructmatError,
    Toeplitz,
    config_get,
    config_reset,
    config_set,
    embedded_size,
    smtgallery,
)

from conftest import rel_err


def test_defaults():
    cfg = config_get()
    assert cfg.embedding is EmbeddingPolicy.POW2
    assert cfg.toeprem and cfg.intsolve and cfg.intsolvels and cfg.warnings


def test_set_and_snapshot():
    snap = config_set("toeprem", "off")
    assert snap.toeprem is False
    assert config_get().toeprem is False
    config_set("embedding", "tight")
    assert config_get().embedding is EmbeddingPolicy.TIGHT
    config_set("embedding", EmbeddingPolicy.POW2)  # a member passes as it is
    assert config_get().embedding is EmbeddingPolicy.POW2
    config_reset()
    assert config_get() == Config()


def test_invalid_keys_and_values():
    with pytest.raises(StructmatError, match="unknown configuration key"):
        config_set("display", "on")
    with pytest.raises(StructmatError, match="invalid value"):
        config_set("toeprem", "maybe")
    with pytest.raises(StructmatError, match="invalid embedding"):
        config_set("embedding", "huge")


def test_embedded_size():
    assert embedded_size(4, 4, EmbeddingPolicy.TIGHT) == 7
    assert embedded_size(4, 4, EmbeddingPolicy.POW2) == 8
    assert embedded_size(1, 1, EmbeddingPolicy.POW2) == 1


def test_toeprem_off_defers_cev():
    config_set("toeprem", "off")
    T = Toeplitz([4, 5, 6, 7], [4, 3, 2, 1])
    assert T.cev is None
    T @ np.ones(4)  # first product fills the cache
    assert T.cev is not None


def test_settings_baked_at_construction():
    config_set("embedding", "tight")
    T = Toeplitz([4, 5, 6, 7], [4, 3, 2, 1])
    assert T.cev.shape == (7,)
    config_set("embedding", "pow2")
    assert T.cev.shape == (7,)  # unchanged: policy was baked in
    assert Toeplitz([4, 5, 6, 7], [4, 3, 2, 1]).cev.shape == (8,)


def test_explicit_config_argument_wins():
    cfg = Config(embedding=EmbeddingPolicy.TIGHT, toeprem=False)
    T = Toeplitz.from_diagonals(np.arange(1.0, 8.0), 4, 4, config=cfg)
    assert T.cev is None
    assert T.embed().shape == (7,)


def test_policy_invariance_of_results():
    rng = np.random.default_rng(40)
    t = rng.standard_normal(41)
    x = rng.standard_normal(21)
    results = []
    for policy in EmbeddingPolicy:
        T = Toeplitz.from_diagonals(t, 21, 21, config=Config(embedding=policy))
        results.append(T @ x)
    assert rel_err(results[0], results[1]) <= 1e-11


def test_intsolve_toggle_routes_solver(monkeypatch):
    import structmat.solvers as solvers

    K = smtgallery("tkms", 8)
    b = K @ np.ones(8)
    seen = []

    def probe(T, bb):
        seen.append("user")
        return np.linalg.solve(T.full(), bb)

    monkeypatch.setitem(solvers._user_solvers, "tsolve", probe)
    solvers.toep_divide(K, b)
    assert seen == []  # intsolve on: internal Levinson used
    config_set("intsolve", "off")
    solvers.toep_divide(K, b)
    assert seen == ["user"]
