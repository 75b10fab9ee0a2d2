import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import plstab.presentation as pr
from plstab.errors import ParseError
from plstab.presentation import (Presentation, abelianization, commutator,
                                 format_presentation, free_reduce,
                                 parse_presentation, smith_normal_form,
                                 word_ball)

from support import det_by_elimination


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]])["D"] == [[1, 0], [0, 1]]


def test_snf_diag_2_3():
    d = smith_normal_form([[2, 0], [0, 3]])["D"]
    assert [d[0][0], d[1][1]] == [1, 6]


def test_snf_zero_matrix():
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]])["D"] == [[0, 0, 0], [0, 0, 0]]


def test_snf_refuses_a_ragged_matrix_and_word_ball_radius_zero():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 0], [0]])
    with pytest.raises(ValueError, match="radius"):
        word_ball(Presentation(["a"], []), 0)


def check_snf(m):
    s = smith_normal_form(m)
    r, c = len(m), len(m[0])
    assert matmul(matmul(s["U"], m), s["V"]) == s["D"]
    diag = [s["D"][i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert s["D"][i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    return s


def test_snf_random_validity():
    rng = random.Random(1)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 8)
        check_snf([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])


def test_abelianization_examples():
    assert abelianization(Presentation(["a"], [])).invariant_factors == [0]
    rep = abelianization(Presentation(["a"], [(1, 1)]))
    assert rep.invariant_factors == [2] and rep.free_rank == 0
    rep = abelianization(Presentation(["a", "b"], [commutator((1,), (2,))]))
    assert rep.invariant_factors == [0, 0] and rep.free_rank == 2


def test_commutator_zero_exponent_sum():
    rng = random.Random(4)
    for _ in range(30):
        w1 = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 5)))
        w2 = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 5)))
        c = commutator(w1, w2)
        for g in (1, 2, 3):
            assert sum(1 if x == g else -1 if x == -g else 0 for x in c) == 0


def test_commutator_basics():
    assert commutator((1,), (1,)) == ()
    assert commutator((1,), (2,)) == (1, 2, -1, -2)
    assert commutator((1,), ()) == ()


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)


def test_word_ball_one_generator():
    p = Presentation(["a"], [])
    assert set(word_ball(p, 1)) == {(), (1,), (-1,)}
    assert set(word_ball(p, 2)) == {(), (1,), (-1,), (1, 1), (-1, -1)}


def test_word_ball_two_generators():
    p = Presentation(["a", "b"], [])
    b2 = word_ball(p, 2)
    # 1 empty word, 4 of length one, 12 reduced of length two
    assert len(b2) == 17
    assert set(word_ball(p, 1)) <= set(b2) <= set(word_ball(p, 3))


def test_word_ball_monotone():
    p = Presentation(["a", "b"], [(1, 1)])
    for i in (1, 2, 3):
        assert set(word_ball(p, i)) <= set(word_ball(p, i + 1))


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(["a"], [(2,)])
    with pytest.raises(ValueError):
        Presentation(["a", "a"], [])


@pytest.mark.parametrize("text", [
    "gens a\nrel b\n",        # unknown generator
    "gens a\nrel a^x\n",      # bad exponent
    "gens a\nrel a^\n",       # missing exponent
    "gens a\nrelator a\n",    # unrecognized line
    "gens a a\nrel a\n",      # duplicate names
    "gens a\nrel a^1000000000\n",  # relator too long
    "gens a b\nrel b\ngens a\n",  # relator uses a generator a later gens line drops
])
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_relator_length_bound(monkeypatch):
    monkeypatch.setattr(pr, "MAX_RELATOR_LENGTH", 5)
    assert parse_presentation("gens a b\nrel a^3 b^-2\n").relators == [(1, 1, 1, -2, -2)]
    with pytest.raises(ParseError):
        parse_presentation("gens a b\nrel a^3 b^-2 a\n")


@st.composite
def square_integer_matrices(draw):
    """A square integer matrix with small entries, many of them zero: drawn
    freely, made singular (a row a multiple of another, or zero), or made
    unimodular by elementary row operations on the identity; then, maybe,
    with two rows swapped.  Returns the matrix and its kind."""
    kind = draw(st.sampled_from(["free", "singular", "unimodular"]))
    n = draw(st.integers(kind == "singular", 5))
    entries = st.integers(-3, 3)
    if kind == "unimodular":
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 12)) if n > 1 else 0):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            q = draw(entries)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    else:
        m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        i, j, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(entries)
        m[i] = [q * x for x in m[j]] if i != j else [0] * n
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[i], m[j] = m[j], m[i]
    return m, kind


@settings(max_examples=300, deadline=None)
@given(square_integer_matrices())
def test_integer_determinant_matches_fraction_elimination(case):
    """The fraction-free elimination of `_det_unimodular` gives the
    determinant of Gaussian elimination over `Fraction`: 0 for a singular
    matrix, +-1 for a unimodular one, row swaps included."""
    m, kind = case
    det = pr._det_unimodular([row[:] for row in m])
    assert det == det_by_elimination(m)
    assert type(det) is int
    if kind == "singular":
        assert det == 0
    elif kind == "unimodular":
        assert abs(det) == 1


# A wrong Smith form must trip the explicit unimodularity check under
# `python -O`, which would strip a plain assert.
UNIMODULAR_PROBE = r"""
import sys
import plstab.presentation as pr
from plstab.errors import InternalError

assert sys.flags.optimize
pr._det_unimodular = lambda m: 2
try:
    pr.smith_normal_form([[2, 4], [6, 8]])
except InternalError:
    print("fired")
"""


def test_unimodularity_check_survives_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", UNIMODULAR_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["fired"]


def test_parse_format_roundtrip():
    p = parse_presentation("gens a b\nrel a b a^-1 b^-1\nrel a^3\n")
    assert p.relators == [(1, 2, -1, -2), (1, 1, 1)]
    again = parse_presentation(format_presentation(p))
    assert again.generator_names == p.generator_names
    assert again.relators == p.relators
