"""The operand rule: every product, division and solve reads its array
argument by one function, so one fault raises one error wherever it is made."""

import numpy as np
import pytest

from structmat import (
    Circulant,
    DimensionMismatchError,
    Toeplitz,
    levinson_solve,
    optimal,
    pcg_solve,
    smtcprec,
    solvers,
    strang,
    superoptimal,
    toep_divide,
    toep_lstsq,
)

T = Toeplitz([4.0, 1.0, 0.5, 0.25])
C = Circulant([4.0, 1.0, 0.0, 1.0])
# tall, with enough columns for CGLS rather than the dense QR
W = Toeplitz.from_diagonals(np.random.default_rng(0).standard_normal(194), 130, 65)

# entry point -> (call, name in the message, expected leading dimension,
# whether a matrix of stacked columns is an operand, whether it stacks rows)
ENTRIES = {
    "levinson_solve": (lambda b: levinson_solve(T, b), "right-hand side", 4, False, False),
    "toep_lstsq": (lambda b: toep_lstsq(W, b), "right-hand side", 130, False, False),
    "toep_divide": (lambda b: toep_divide(T, b), "right-hand side", 4, False, False),
    "pcg_solve b": (lambda b: pcg_solve(T, b), "right-hand side", 4, False, False),
    "pcg_solve M": (lambda b: pcg_solve(lambda v: v, b, M=C), "right-hand side", 4,
                    False, False),
    "_dense_solve": (lambda b: solvers._dense_solve(T.full(), b), "right-hand side", 4,
                     False, False),
    "Circulant.solve left": (lambda b: C.solve(b), "right-hand side", 4, True, False),
    "Circulant.solve right": (lambda b: C.solve(b, side="right"), "right-hand side", 4,
                              True, False),
    "T @ x": (lambda x: W @ x, "operand", 65, True, False),
    "x @ T": (lambda x: x @ W, "operand", 130, True, True),
    "C @ x": (lambda x: C @ x, "operand", 4, True, False),
}


def operand_shape(rows, ndim, stacks_rows):
    """A shape with leading dimension `rows` along the axis the entry reads."""
    if ndim == 1:
        return (rows,)
    return (2, rows) if stacks_rows else (rows, 2)


@pytest.mark.parametrize("entry, ndim", [(entry, ndim) for entry in ENTRIES for ndim in (1, 2)
                                         if ndim == 1 or ENTRIES[entry][3]])
def test_a_wrong_leading_dimension_raises_one_message(entry, ndim):
    call, what, rows, _, stacks_rows = ENTRIES[entry]
    for wrong in (rows - 1, rows + 1):
        bad = np.ones(operand_shape(wrong, ndim, stacks_rows))
        with pytest.raises(DimensionMismatchError,
                           match=f"^{what} has leading dimension {wrong}, expected {rows}$"):
            call(bad)
    call(np.ones(operand_shape(rows, ndim, stacks_rows)))  # and lets the right one in


@pytest.mark.parametrize("dtype", ["U1", bool, object])
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_non_numeric_operand_raises_the_packages_type_error(entry, ndim, dtype):
    call, what, rows, _, stacks_rows = ENTRIES[entry]
    bad = np.full(operand_shape(rows, ndim, stacks_rows), 1, dtype=dtype)
    with pytest.raises(TypeError, match=f"^{what} must be numeric, got dtype {bad.dtype}$"):
        call(bad)


def test_a_scalar_where_a_leading_dimension_is_expected():
    for side in ("left", "right"):
        with pytest.raises(DimensionMismatchError,
                           match="^right-hand side is a scalar, expected leading dimension 4$"):
            C.solve(3.0, side=side)


def test_a_circulant_product_of_two_orders_keeps_its_message():
    with pytest.raises(DimensionMismatchError,
                       match="^operand has leading dimension 3, expected 4$"):
        C @ Circulant([1.0, 2.0, 3.0])


SOLVES = ["levinson_solve", "toep_lstsq", "toep_divide", "pcg_solve b", "pcg_solve M",
          "_dense_solve"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", SOLVES)
def test_a_non_finite_right_hand_side_raises_value_error(entry, bad):
    call, _, rows, _, _ = ENTRIES[entry]
    b = np.ones(rows)
    b[1] = bad
    with pytest.raises(ValueError, match="^right-hand side contains non-finite entries$"):
        call(b)


WIDE = Toeplitz.from_diagonals([1.0, 2.0, 3.0, 4.0], 2, 3)

# square-matrix entry point -> (call, who, the TypeError of a dense operand
# when the entry takes Toeplitz values only)
SQUARE_ENTRIES = {
    "strang": (strang, "the Strang preconditioner",
               "the Strang preconditioner is defined only for Toeplitz matrices"),
    "optimal": (optimal, "the optimal preconditioner", None),
    "superoptimal": (superoptimal, "the superoptimal preconditioner", None),
    "smtcprec": (lambda A: smtcprec("superoptimal", A), "the superoptimal preconditioner",
                 None),
    "levinson_solve": (lambda A: levinson_solve(A, np.ones(2)), "levinson_solve",
                       "levinson_solve expects a Toeplitz matrix"),
    "pcg_solve": (lambda A: pcg_solve(A, np.ones(2)), "pcg_solve", None),
}


@pytest.mark.parametrize("entry", SQUARE_ENTRIES)
def test_a_square_matrix_argument_is_read_by_one_rule(entry):
    call, who, toeplitz_only = SQUARE_ENTRIES[entry]
    for wide in [WIDE] if toeplitz_only else [WIDE, WIDE.full()]:
        with pytest.raises(DimensionMismatchError,
                           match=f"^{who} requires a square matrix, got 2x3$"):
            call(wide)
    text = np.full((3, 3), "a")
    message = toeplitz_only or f"the operand of {who} must be numeric, got dtype <U1"
    with pytest.raises(TypeError, match=f"^{message}$"):
        call(text)
    if not toeplitz_only:
        with pytest.raises(ValueError, match=rf"^{who} expects a matrix, got shape \(4,\)$"):
            call(np.ones(4))


def test_pcg_takes_a_circulant_preconditioner_or_none():
    with pytest.raises(TypeError,
                       match="^pcg_solve's M must be a Circulant or None, got ndarray$"):
        pcg_solve(T, np.ones(4), M=np.eye(4))
