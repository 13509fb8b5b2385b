"""The closed-form 2x2 state algebra and the mapped libm helper.

``dynamics.expectations`` reads <sigma_u> straight from the entries of each
state and ``dynamics.check_states`` checks each state entrywise, with a
closed-form lowest eigenvalue.  Both must agree with the general algebra of
``oracles.pauli_expectations_reference`` and ``oracles.check_states_reference``:
bit for bit for the expectations, accept for accept and message for message
for the check.  ``dynamics._mapped`` must give the bits of the Python scalar
function it maps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slqns.dynamics import EIGENVALUE_TOL, DynamicsError, _mapped, _square, check_states, expectations

from oracles import check_states_reference, pauli_expectations_reference

SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def pure_states(draw):
    """|v><v| of a random normalised complex 2-vector."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    v = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.array([1.0, 0.0], dtype=complex), 1.0
    v = v / norm
    return np.outer(v, v.conj())


@st.composite
def mixed_states(draw):
    """(I + r . sigma) / 2 for a Bloch vector of length at most 1."""
    r = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    r = r / max(1.0, float(np.linalg.norm(r)))
    return 0.5 * np.array([[1.0 + r[2], complex(r[0], -r[1])], [complex(r[0], r[1]), 1.0 - r[2]]])


@st.composite
def diagonal_states(draw):
    """diag(p, 1 - p), every zero part a signed zero."""
    p = draw(st.floats(0.0, 1.0))
    zeros = [draw(SIGNED_ZEROS) for _ in range(6)]
    return np.array([
        [complex(p, zeros[0]), complex(zeros[1], zeros[2])],
        [complex(zeros[3], zeros[4]), complex(1.0 - p, zeros[5])],
    ])


@st.composite
def signed_zero_states(draw, states):
    """A state whose zero parts may each be flipped to -0.0."""
    matrix = draw(states).copy()
    parts = matrix.view(float).reshape(-1)
    flips = draw(st.lists(st.booleans(), min_size=parts.size, max_size=parts.size))
    parts[(parts == 0.0) & np.array(flips)] = -0.0
    return matrix


STATES = st.one_of(*(signed_zero_states(s) for s in (pure_states(), mixed_states(), diagonal_states())))


@settings(max_examples=300, deadline=None)
@given(st.lists(STATES, min_size=1, max_size=12), st.data())
def test_expectations_equal_the_trace_of_the_pauli_product_bit_for_bit(states, data):
    stack = np.stack(states)
    axes = data.draw(st.lists(st.integers(0, 2), min_size=len(states), max_size=len(states)))
    assert _bits(expectations(stack, axes)) == _bits(pauli_expectations_reference(stack, axes))


def test_an_empty_stack_has_no_expectations():
    empty = np.empty((0, 2, 2), dtype=complex)
    assert _bits(expectations(empty, [])) == _bits(pauli_expectations_reference(empty, [])) == b""


def _outcome(check, stack):
    """The message of the DynamicsError that ``check`` raises, else None."""
    try:
        check(stack)
    except DynamicsError as error:
        return str(error)
    return None


def _same_outcome(stack) -> None:
    """check_states accepts where the reference does, and otherwise raises
    the same message; a negative eigenvalue is named to within 1e-15."""
    got, want = _outcome(check_states, stack), _outcome(check_states_reference, stack)
    prefix = "state has negative eigenvalue "
    if want is not None and want.startswith(prefix):
        assert got is not None and got.startswith(prefix)
        assert float(got[len(prefix):]) == pytest.approx(float(want[len(prefix):]), abs=1e-15)
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(STATES, min_size=1, max_size=8))
def test_states_pass_both_checks(states):
    stack = np.stack(states)
    check_states(stack)
    check_states_reference(stack)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([-1e-13, 1e-13]), st.floats(-math.pi, math.pi), st.floats(0.0, math.pi))
def test_the_eigenvalue_edge_is_where_the_reference_puts_it(offset, phi, theta):
    # eigenvalues (1 -+ |r|)/2, the lower one 1e-13 inside or outside -1e-10
    lowest = -EIGENVALUE_TOL + offset
    length = 1.0 - 2.0 * lowest
    r = length * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    stack = 0.5 * np.array([[[1.0 + r[2], complex(r[0], -r[1])], [complex(r[0], r[1]), 1.0 - r[2]]]])
    _same_outcome(stack)
    assert (_outcome(check_states, stack) is None) == (offset > 0.0)


def _broken(state: np.ndarray, kind: str, size: float) -> np.ndarray:
    """``state`` broken by one failure of ``kind``, ``size`` beyond its tolerance."""
    bad = state.copy()
    if kind == "non-finite":
        bad[1, 0] = complex(math.nan, 0.0)
    elif kind == "trace":
        bad[0, 0] += 1e-12 + size
    elif kind == "diagonal":
        bad[1, 1] += complex(0.0, 0.5e-12 + size)
    elif kind == "coherence":
        bad[0, 1] += complex(-(1e-12 + size), 0.0)
    else:  # the Bloch vector of a pure state stretched: eigenvalue -(1e-10 + size)
        bad += (2.0 * EIGENVALUE_TOL + 2.0 * size) * (state - 0.5 * np.eye(2))
    return bad


KINDS = ["non-finite", "trace", "diagonal", "coherence", "eigenvalue"]


@settings(max_examples=200, deadline=None)
@given(pure_states(), st.sampled_from(KINDS), st.sampled_from([-1e-14, 1e-14, 1e-9]))
def test_each_failure_kind_is_caught_as_the_reference_catches_it(state, kind, size):
    _same_outcome(_broken(state, kind, size)[None])


@settings(max_examples=100, deadline=None)
@given(st.lists(STATES, min_size=2, max_size=10), st.sampled_from(KINDS), st.data())
def test_a_bad_state_inside_a_stack_of_good_ones_is_caught(states, kind, data):
    stack = np.stack(states)
    k = data.draw(st.integers(0, len(states) - 1))
    stack[k] = _broken(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), kind, 1e-9)
    assert _outcome(check_states, stack) is not None
    _same_outcome(stack)


FUNCTIONS = {"exp": (math.exp, 700.0), "log": (math.log, 1e308), "square": (_square, 1e150)}
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.0, -1.0]


def _inputs(name):
    _, bound = FUNCTIONS[name]
    low = 5e-324 if name == "log" else -bound
    return st.floats(low, bound, allow_subnormal=True) | st.sampled_from(
        [v for v in SPECIAL if v >= low] + [bound, low])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["0-d", "1-d", "2-d"])
def test_the_mapped_helper_gives_the_bits_of_the_scalar_function(name, shape):
    fn, _ = FUNCTIONS[name]
    size = math.prod(shape)
    reference = (lambda v: v**2) if name == "square" else fn

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_inputs(name), min_size=size, max_size=size))
    @example([5e-324] * size)
    def check(values):
        array = np.array(values, dtype=float).reshape(shape)
        got = _mapped(fn, array)
        assert got.shape == shape and got.dtype == float
        assert _bits(got) == _bits(np.array([reference(v) for v in values]).reshape(shape))

    check()


def test_the_square_is_pythons_float_power_of_two():
    for value in [0.1, -0.0, 3.0000000000000004, 1e-160, 1.3407807929942596e154, 123456.789]:
        assert _bits(_square(value)) == _bits(value**2)
