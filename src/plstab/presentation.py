"""Finite group presentations and abelianization.

Words are tuples of signed generator indices: 1-based, negative means
inverse, so (1, 2, -1, -2) is the commutator of the first two generators.
"""

from typing import Dict, List, Sequence, Tuple

from .errors import InternalError, ParseError
from .geometry import records

Word = Tuple[int, ...]

# Relators are stored letter by letter, so an exponent costs memory linear
# in its size; a relator longer than this is rejected before it is built.
MAX_RELATOR_LENGTH = 10**6


def free_reduce(word: Sequence[int]) -> Word:
    out: List[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word: Sequence[int]) -> Word:
    return tuple(-letter for letter in reversed(word))


def commutator(w1: Sequence[int], w2: Sequence[int]) -> Word:
    return free_reduce(tuple(w1) + tuple(w2) + invert_word(w1) + invert_word(w2))


class Presentation:
    """A finite presentation: named generators plus relator words."""

    def __init__(self, generator_names: Sequence[str], relators: Sequence[Sequence[int]]):
        names = list(generator_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        n = len(names)
        reduced = []
        for rel in relators:
            for letter in rel:
                if letter == 0 or abs(letter) > n:
                    raise ValueError("relator letter %r out of range" % (letter,))
            reduced.append(free_reduce(rel))
        self.generator_names = names
        self.relators: List[Word] = reduced

    def relator_matrix(self) -> List[List[int]]:
        """Exponent-sum matrix, one row per relator."""
        n = len(self.generator_names)
        rows = []
        for rel in self.relators:
            row = [0] * n
            for letter in rel:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _det_unimodular(m: List[List[int]]) -> int:
    """The determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination: each division of a 2x2 minor by the previous
    pivot is exact, so every entry stays an int."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def smith_normal_form(m: Sequence[Sequence[int]]) -> Dict[str, List[List[int]]]:
    """Return {U, D, V} with U*m*V = D, U and V unimodular, D diagonal
    with a divisibility chain d1 | d2 | ... (entries nonnegative)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(map(int, row)) for row in m]
    for row in d:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i, j, q):  # row i -= q * row j
        for k in range(cols):
            d[i][k] -= q * d[j][k]
        for k in range(rows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col i -= q * col j
        for k in range(rows):
            d[k][i] -= q * d[k][j]
        for k in range(cols):
            v[k][i] -= q * v[k][j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(rows):
            d[k][i], d[k][j] = d[k][j], d[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    t = 0
    while t < min(rows, cols):
        done = False
        while True:
            # smallest-|value| nonzero entry of the trailing block becomes
            # the pivot, scanning rows then columns for determinism
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if d[i][j] != 0 and (best is None
                                         or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                done = True
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_op(i, t, d[i][t] // d[t][t])
                    dirty = dirty or d[i][t] != 0
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    col_op(j, t, d[t][j] // d[t][t])
                    dirty = dirty or d[t][j] != 0
            if dirty:
                continue
            # pivot must divide every remaining entry
            bad = None
            for i in range(t + 1, rows):
                if any(d[i][j] % d[t][t] != 0 for j in range(t + 1, cols)):
                    bad = i
                    break
            if bad is None:
                break
            row_op(t, bad, -1)
        if done:
            break
        if d[t][t] < 0:
            for k in range(cols):
                d[t][k] = -d[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
        t += 1

    if abs(_det_unimodular(u)) != 1 or abs(_det_unimodular(v)) != 1:
        raise InternalError("Smith normal form transform is not unimodular")
    return {"U": u, "D": d, "V": v}


class AbelianizationReport:
    def __init__(self, invariant_factors: List[int]):
        self.invariant_factors = invariant_factors
        self.free_rank = sum(1 for f in invariant_factors if f == 0)

    def __repr__(self):
        return "AbelianizationReport(factors=%r, free_rank=%d)" % (
            self.invariant_factors, self.free_rank)


def abelianization(p: Presentation) -> AbelianizationReport:
    """H1 of the presented group as invariant factors; a factor of 1 is
    dropped, 0 encodes an infinite cyclic factor."""
    n = len(p.generator_names)
    mat = p.relator_matrix()
    if not mat:
        return AbelianizationReport([0] * n)
    snf = smith_normal_form(mat)
    diag = [snf["D"][i][i] for i in range(min(len(mat), n))]
    factors = [x for x in diag if x != 1]
    factors += [0] * (n - len(diag))
    # zeros sort last so the divisibility chain reads d1 | d2 | ... | 0 | 0
    factors.sort(key=lambda x: (x == 0, x))
    return AbelianizationReport(factors)


def word_ball(p: Presentation, i: int) -> List[Word]:
    """All freely reduced products of at most i symmetric generators,
    including the identity. No relator rewriting."""
    if i < 1:
        raise ValueError("ball radius must be >= 1")
    gens = []
    for g in range(1, len(p.generator_names) + 1):
        gens.extend([g, -g])
    ball = {(): None}
    frontier = [()]
    for _ in range(i):
        nxt = []
        for w in frontier:
            for g in gens:
                red = free_reduce(w + (g,))
                if red not in ball:
                    ball[red] = None
                    nxt.append(red)
        frontier = nxt
    return sorted(ball, key=lambda w: (len(w), w))


def parse_presentation(text: str) -> Presentation:
    names: List[str] = []
    relators: List[List[int]] = []
    for lineno, parts, _ in records(text):
        if parts[0] == "gens":
            names = parts[1:]
            if len(set(names)) != len(names):
                raise ParseError("duplicate generator names")
        elif parts[0] == "rel":
            word = []
            for tok in parts[1:]:
                name, e = tok, 1
                if "^" in tok:
                    name, exp = tok.split("^", 1)
                    try:
                        e = int(exp)
                    except ValueError:
                        raise ParseError("bad exponent in %r" % tok) from None
                if name not in names:
                    raise ParseError("unknown generator %r" % name)
                idx = names.index(name) + 1
                if len(word) + abs(e) > MAX_RELATOR_LENGTH:
                    raise ParseError(
                        "relator longer than %d letters" % MAX_RELATOR_LENGTH)
                word.extend([idx if e > 0 else -idx] * abs(e))
            relators.append(word)
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    try:
        return Presentation(names, relators)
    except ValueError as exc:  # a later `gens` line dropped a used generator
        raise ParseError(str(exc)) from None


def format_presentation(p: Presentation) -> str:
    lines = ["gens " + " ".join(p.generator_names)]
    for rel in p.relators:
        toks = []
        for letter in rel:
            name = p.generator_names[abs(letter) - 1]
            toks.append(name if letter > 0 else name + "^-1")
        lines.append("rel " + " ".join(toks))
    return "\n".join(lines) + "\n"
