"""Exact arithmetic substrate: integer Laurent polynomials, Smith normal form,
and ranks/nullspaces over Q and F_p.  A matrix is a list of integer rows.

Ranks, kernels and the spectral sequence's persistence pairs share one
sparse column reduction, fraction-free over Q and modular over F_p; the
kernel reduces the columns over an identity block.
:func:`graded_homology` builds each degree's boundary matrix once and, over
a field, ranks it once; over Z it reads the Smith form of the map in.

Everything here is exact; no floating point anywhere.  Coefficient growth in
the Smith reduction is handled by Python's big integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class LaurentPolynomial:
    """Laurent polynomial with integer coefficients in a single variable.

    Stored as a map exponent -> coefficient with no zero coefficients.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs=None, var="A"):
        self.var = var
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls, var="A"):
        return cls({}, var)

    @classmethod
    def one(cls, var="A"):
        return cls({0: 1}, var)

    @classmethod
    def monomial(cls, coeff, exponent, var="A"):
        return cls({exponent: coeff}, var)

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        self._check_var(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out, self.var)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial(
                {e: c * other for e, c in self.coeffs.items()}, self.var
            )
        self._check_var(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out, self.var)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, tuple(sorted(self.coeffs.items()))))

    def exponents(self):
        return sorted(self.coeffs)

    def evaluate(self, x):
        """Evaluate at a nonzero rational point, exactly."""
        x = Fraction(x)
        if x == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        return sum((Fraction(c) * x**e for e, c in self.coeffs.items()), Fraction(0))

    def l1_norm(self):
        return sum(abs(c) for c in self.coeffs.values())

    def __str__(self):
        """Canonical ascending-exponent form, e.g. ``A^-8+1-A^4``."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in self.exponents():
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = self.var if mag == 1 else f"{mag}*{self.var}"
                body = f"{head}^{e}" if e != 1 else head
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPolynomial({self})"


class SmithForm:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    __slots__ = ("factors", "nrows", "ncols")

    def __init__(self, factors, nrows, ncols):
        self.factors = list(factors)
        self.nrows = nrows
        self.ncols = ncols
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        if len(self.factors) > min(nrows, ncols):
            raise ValueError("rank exceeds matrix dimensions")

    @property
    def rank(self):
        return len(self.factors)

    def torsion(self):
        """Invariant factors exceeding 1."""
        return [d for d in self.factors if d > 1]


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix given as a list of rows.

    Pivots are chosen with minimal absolute value to limit entry growth.
    """
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0

    def row_op(dst, src, q):
        # row[dst] -= q * row[src]
        for j in range(ncols):
            m[dst][j] -= q * m[src][j]

    def col_op(dst, src, q):
        for i in range(nrows):
            m[i][dst] -= q * m[i][src]

    t = 0
    size = min(nrows, ncols)
    while t < size:
        # locate smallest-magnitude nonzero pivot in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = m[i][j]
                if v and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        clean = True
        for i in range(t + 1, nrows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                row_op(i, t, q)
                if m[i][t]:
                    clean = False
        for j in range(t + 1, ncols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                col_op(j, t, q)
                if m[t][j]:
                    clean = False
        if not clean:
            continue  # remainders left; re-pick a smaller pivot
        # enforce divisibility of the rest of the block by the pivot
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offender row to pivot row
            continue
        if m[t][t] < 0:
            for j in range(ncols):
                m[t][j] = -m[t][j]
        t += 1

    factors = [m[i][i] for i in range(min(nrows, ncols)) if m[i][i]]
    return SmithForm(factors, nrows, ncols)


def _product(a, b):
    """The product a*b of two row lists, skipping the zero entries of a."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for k, v in enumerate(row):
            if v:
                for j, w in enumerate(b[k]):
                    acc[j] += v * w
        out.append(acc)
    return out


def bareiss_determinant(rows):
    """Exact integer determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _reduce_columns(columns, p=None):
    """Left-to-right column reduction over Q (p=None) or F_p: (pivots,
    reduced).  Each column, a dict {row: coefficient}, loses multiples of
    earlier columns until its lowest (largest) row is the lowest row of no
    earlier column; ``pivots`` maps that row to the column's index, in column
    order, and ``reduced`` holds the reduced columns, zero ones empty.

    Over Q it is fraction-free: the column is scaled by the earlier column's
    pivot before the subtraction, then divided by the gcd of its entries.
    Over F_p the earlier column's pivot is inverted mod p.
    """
    if p is not None and not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    pivots, reduced = {}, []
    for n, col in enumerate(columns):
        col = {r: c if p is None else c % p for r, c in col.items()}
        col = {r: c for r, c in col.items() if c}
        while col and (low := max(col)) in pivots:
            other = reduced[pivots[low]]
            if p is None:
                a, b = other[low], col[low]
                col = {r: a * col.get(r, 0) - b * other.get(r, 0) for r in col.keys() | other.keys()}
                g = gcd(*col.values())
                col = {r: c // g for r, c in col.items() if c}
            else:
                f = col[low] * pow(other[low], -1, p)
                for r, c in other.items():
                    if v := (col.get(r, 0) - f * c) % p:
                        col[r] = v
                    else:
                        del col[r]
        if col:
            pivots[low] = n
        reduced.append(col)
    return pivots, reduced


def _columns(matrix):
    """The sparse columns {row: entry} of a list of integer rows."""
    columns = [{} for _ in (matrix[0] if matrix else ())]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                columns[j][i] = int(v)
    return columns


def rank_over_field(matrix, p=None):
    """Matrix rank by exact elimination: fraction-free over Q (p=None),
    modular over F_p."""
    return len(_reduce_columns(_columns(matrix), p)[0])


def nullspace_over_field(matrix, p=None):
    """Spanning set of the right kernel over Q (p=None) or F_p.

    Column j is reduced with an identity entry in row -1-j, above every
    matrix row, so a column whose lowest row ends negative has lost its
    matrix part and keeps a kernel vector in its identity rows.  Over Q the
    vectors are integral; any spanning set is as good as a basis for the
    rank computations built on top.
    """
    columns = _columns(matrix)
    for j, column in enumerate(columns):
        column[-1 - j] = 1
    pivots, reduced = _reduce_columns(columns, p)
    return [[reduced[n].get(-1 - j, 0) for j in range(len(columns))]
            for low, n in pivots.items() if low < 0]


def homology_groups(boundary_in, boundary_out):
    """Homology at the middle of  C_in --d_in--> C --d_out--> C_next.

    Both boundaries are lists of integer rows.  ``boundary_in`` maps into
    the chain group: one row per generator of C, one column per generator of
    C_in (rows ``[]`` when nothing maps in).  ``boundary_out`` maps out of it,
    one column per generator of C.  Returns (free_rank, torsion) where
    torsion lists the invariant factors of d_in above 1.
    """
    dim = len(boundary_in)
    if any(len(row) != dim for row in boundary_out):
        raise ValueError("chain group dimension mismatch")
    if any(any(row) for row in _product(boundary_out, boundary_in)):
        raise ValueError("boundary_out o boundary_in != 0: not a chain complex")
    rank_out = rank_over_field(boundary_out)
    snf_in = smith_normal_form(boundary_in)
    free_rank = dim - rank_out - snf_in.rank
    if free_rank < 0:
        raise ValueError("negative free rank: inconsistent boundaries")
    return free_rank, snf_in.torsion()


def ring_name(ring):
    """The name of a ring as :func:`parse_coefficients` returns it: "Z", "Q"
    or "F<p>"."""
    return ring if isinstance(ring, str) else f"F{ring}"


def parse_coefficients(value):
    """The coefficient ring named by ``value``: "Z", "Q" or a prime p.  Takes
    "Z", "Q", a prime p and "F<p>", in either case."""
    name = str(value).upper()
    if name in ("Z", "Q"):
        return name
    digits = name[1:] if name.startswith("F") else name
    if digits.isdecimal() and _is_prime(int(digits)):
        return int(digits)
    raise ValueError(f"unknown coefficient ring {value!r}: use Z, Q, a prime p or F<p>")


def graded_homology(gradings, rows, coefficients="Z"):
    """Homology of a graded chain complex, per degree.

    ``gradings`` maps each generator to its degree and ``rows[g]`` is d(g)
    as {target: coefficient}.  The degree d lands in is read off the targets,
    so any degree step works.  Over Z ("Z") the values are (free_rank,
    [torsion factors]); over a field ("Q", a prime p or "F<p>") they are
    dimensions.  Degrees with zero homology are left out.
    """
    ring = parse_coefficients(coefficients)
    gens = {}
    index = {}
    for g, deg in gradings.items():
        index[g] = len(gens.setdefault(deg, []))
        gens[deg].append(g)
    target = {}
    for g, row in rows.items():
        for dst in row:
            if target.setdefault(gradings[g], gradings[dst]) != gradings[dst]:
                raise ValueError(f"differential out of degree {gradings[g]} "
                                 "lands in two degrees")
    source = {t: s for s, t in target.items()}
    if len(source) != len(target):
        raise ValueError("two degrees map into one degree")

    p = None if ring == "Q" else ring
    out = {}  # degree -> d out of it: its rows over Z, its rank over a field
    for deg, here in gens.items():
        # one row per generator of the degree d lands in; none when d is 0
        matrix = [[0] * len(here) for _ in gens.get(target.get(deg), ())]
        for c, g in enumerate(here):
            for t, coeff in rows.get(g, {}).items():
                matrix[index[t]][c] = coeff
        out[deg] = matrix if ring == "Z" else rank_over_field(matrix, p)
    result = {}
    for deg, here in sorted(gens.items()):
        if ring == "Z":
            inc = out[source[deg]] if deg in source else [[] for _ in here]
            free, torsion = homology_groups(inc, out[deg])
            if free or torsion:
                result[deg] = (free, torsion)
        else:
            dim = len(here) - out[deg] - (out[source[deg]] if deg in source else 0)
            if dim:
                result[deg] = dim
    return result
