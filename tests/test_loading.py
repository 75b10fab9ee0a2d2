"""Loading through one token table per request: the table-based readers
against the per-token parse they replaced (`support.read_records_per_token`
and `support.load_map_per_token`), and the integer-ratio point keys against
sets of Fraction points."""

import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from plstab.cli import load_map
from plstab.complexes import Complex, parse_complex
from plstab.errors import InvalidComplex, ParseError
from plstab.geometry import TokenTable, fmt, homogeneous
from plstab.plmap import parse_plmap

from support import load_map_per_token

# tokens that are no canonical spelling of a coordinate the files below use:
# other spellings of 1/2, 1 and 0, values off the square, and no rationals
FOREIGN = ("2/4", "+1", "-0", "0/5", "1.5", "3e-1", "1/0", "x")

CORNERS = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
FAN = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
# the centroid of cell (0, 1, 4) of the fan, splitting it into three
SPLIT = [(0, 1, 5), (1, 4, 5), (0, 4, 5), (1, 2, 4), (2, 3, 4), (0, 3, 4)]


def spellings(q):
    """Texts that `rat` reads as q: canonical, unreduced, signed, and as a
    decimal and in exponent form when q has one."""
    out = [fmt(q), "%d/%d" % (2 * q.numerator, 2 * q.denominator)]
    if q >= 0:
        out.append("+" + fmt(q))
    if q == 0:
        out += ["-0", "0/5"]
    if 10 % q.denominator == 0:
        out += [str(float(q)), "%de-1" % (q * 10)]
    return out


def outcome(load):
    """The loaded map's points, simplices, images and whether its
    refinement is its base; or the class and message of what it raised."""
    try:
        m = load()
    except Exception as exc:
        return type(exc), str(exc)
    return (m.base.points, m.base.simplices, m.refinement.points, m.refinement.simplices,
            m.images, m.refinement is m.base)


@st.composite
def map_files(draw):
    """A base square and a map file on it, as texts: the map rotates the
    square or fixes its corners, and sends the centre to a drawn point; its
    refinement block repeats the base or splits one cell.  Every coordinate
    token is a drawn spelling of its value or, now and then, a foreign
    token; records come in a drawn order with comment and blank lines."""
    odds = draw(st.sampled_from([0, 0, 60, 10]))  # one token in `odds` is foreign

    def token(q):
        if odds and draw(st.integers(1, odds)) == 1:
            return draw(st.sampled_from(FOREIGN))
        return draw(st.sampled_from(spellings(q)))

    def record(kind, i, p):
        return "%s %d %s" % (kind, i, " ".join(token(q) for q in p))

    def shuffled(lines):
        lines = draw(st.permutations(lines))
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(lines)))
            lines = lines[:k] + [draw(st.sampled_from(["", "# note", "  "]))] + lines[k:]
        return lines

    centre = (F(1, 2), F(1, 2))
    base_lines = [record("v", i, p) for i, p in enumerate(CORNERS + [centre])]
    base_lines += ["s %d %d %d" % s for s in FAN]
    turn = draw(st.booleans())
    image_of = {p: ((1 - p[1], p[0]) if turn else p) for p in CORNERS}
    image_of[centre] = draw(st.sampled_from([centre, (F(1, 3), F(1, 2)), (F(1, 2), F(3, 4))]))
    points = CORNERS + [centre]
    split = draw(st.booleans())
    if split:
        points.append(tuple(sum(c) / 3 for c in zip(*points[:2], centre)))
        image_of[points[5]] = tuple(sum(c) / 3 for c in zip(*(image_of[p] for p in points[:2]),
                                                          image_of[centre]))
    map_lines = [record("v", i, p) for i, p in enumerate(points)]
    map_lines += ["s %d %d %d" % s for s in (SPLIT if split else FAN)]
    map_lines += [record("img", i, image_of[p]) for i, p in enumerate(points)]
    header = ["base base.cx"] if draw(st.booleans()) else ["# a map", "base base.cx"]
    return ("\n".join(shuffled(base_lines)) + "\n",
            "\n".join(header + shuffled(map_lines)) + "\n")


def load_files(base_text, map_text):
    with tempfile.TemporaryDirectory() as d:
        Path(d, "base.cx").write_text(base_text)
        Path(d, "f.pm").write_text(map_text)
        return load_map(str(Path(d, "f.pm")))[0]


@settings(max_examples=300, deadline=None)
@given(map_files())
def test_the_token_table_loads_what_per_token_parsing_loads(texts):
    assert outcome(lambda: load_files(*texts)) == outcome(lambda: load_map_per_token(*texts))


def test_a_refinement_repeating_the_base_holds_the_base_fractions():
    base_text = "".join("v %d %s %s\n" % (i, fmt(x), fmt(y))
                        for i, (x, y) in enumerate(CORNERS + [(F(1, 2), F(1, 2))]))
    base_text += "".join("s %d %d %d\n" % s for s in FAN)
    tokens = TokenTable()
    base = parse_complex(base_text, tokens=tokens)
    m = parse_plmap("base base.cx\n" + base_text.replace("s 0 1 4\n", "")
                    + "s 4 1 0\n" + "".join("img %d %s\n" % (i, " ".join(fmt(c) for c in p))
                                            for i, p in enumerate(base.points)),
                    base, tokens)
    assert m.refinement is base and m.refinement.points[4][0] is base.points[4][0]
    # the images are kept as rows, each equal to its base vertex's
    assert m.image.hom_points() == base.hom_points()


def test_equal_values_spelled_differently_in_the_base_and_the_map():
    """2/4 in the map equals 1/2 in the base: the refinement is the base,
    as with per-token parsing."""
    base_text = ("v 0 0 0\nv 1 1 0\nv 2 1 1\nv 3 0 1\nv 4 1/2 1/2\n"
                 + "".join("s %d %d %d\n" % s for s in FAN))
    map_text = ("base base.cx\n"
                + base_text.replace("1/2 1/2", "2/4 0.5").replace("v 1 1 0", "v 1 +1 -0")
                + "img 0 0 0\nimg 1 1 0\nimg 2 1 1\nimg 3 0 1\nimg 4 1/3 2/4\n")
    m = load_files(base_text, map_text)
    assert m.refinement is m.base
    assert m.images[4] == (F(1, 3), F(1, 2))
    assert outcome(lambda: m) == outcome(lambda: load_map_per_token(base_text, map_text))


@pytest.mark.parametrize("bad", ["1/0", "x", "1/", "--1"])
def test_a_bad_token_raises_every_time_and_is_never_stored(bad):
    tokens = TokenTable()
    for _ in range(2):
        with pytest.raises(ParseError, match="bad rational literal"):
            tokens[bad]
    assert bad not in tokens
    text = "v 0 0 0\nv 1 1 %s\ns 0 1\n" % bad
    for _ in range(2):
        with pytest.raises(ParseError, match="bad rational literal %r" % bad):
            parse_complex(text, tokens=tokens)
    assert list(tokens) == ["0", "1"]


def test_a_bad_token_in_the_base_and_the_map_fails_both_reads():
    """One table serves both files: the base's failed token is not kept,
    so the map file repeating it fails again, with the same message."""
    tokens = TokenTable()
    square = parse_complex("v 0 0 0\nv 1 1 0\nv 2 0 1\ns 0 1 2\n", tokens=tokens)
    with pytest.raises(ParseError) as first:
        parse_complex("v 0 0 0\nv 1 x 0\nv 2 0 1\ns 0 1 2\n", tokens=tokens)
    with pytest.raises(ParseError) as second:
        parse_plmap("v 0 0 0\nv 1 1 0\nv 2 0 1\ns 0 1 2\nimg 0 0 0\nimg 1 x 0\nimg 2 0 1\n",
                    square, tokens)
    assert str(first.value) == str(second.value) == "bad rational literal 'x'"


# equal values built apart, as ints and as Fractions
coordinates = st.sampled_from([0, F(0), F(1, 2), F(2, 4), F(-1, 2), 1, F(1), F(2, 6), F(-1, 3)])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.data())
def test_homogeneous_keys_find_the_duplicates_of_a_fraction_set(ambient, data):
    """`homogeneous` keys points of one or two coordinates, ints and
    Fractions mixed, by ints: keys are equal iff the points are.  A
    1-complex in ambient dimension 1 or 2 with two vertices at one point
    is refused, naming the two."""
    points = data.draw(st.lists(st.tuples(*[coordinates] * ambient), min_size=1, max_size=8))
    keys = [homogeneous(p) for p in points]
    assert all(len(k) == ambient + 1 and all(type(c) is int for c in k) for k in keys)
    assert len(set(keys)) == len(set(points))
    for p, kp in zip(points, keys):
        for q, kq in zip(points, keys):
            assert (kp == kq) == (p == q)
    seen = {}
    first = next(((seen[p], v) for v, p in enumerate(points) if seen.setdefault(p, v) != v), None)
    if first is None:
        return
    # the path p0 q0 p1 q1 ... through far points q, so that no edge is
    # degenerate: the complex refuses the pair that a Fraction dict finds first
    n = len(points)
    far = [(F(10 + k), F(k * k))[:ambient] for k in range(n - 1)]
    path = [(v, n + v) for v in range(n - 1)] + [(n + v, v + 1) for v in range(n - 1)]
    with pytest.raises(InvalidComplex, match="^vertices %d and %d lie at one point$" % first):
        Complex(points + far, path)
