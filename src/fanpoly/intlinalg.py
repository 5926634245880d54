"""Exact linear algebra over the integers.

Dense matrices of Python ints, so every computation is arbitrary precision
and exact.  The Hermite loop works on sparse rows, so a row operation costs
the pivot row's nonzeros: a row of a restriction system is nonzero in only
two part blocks.  The two normal forms use fixed pivoting rules and return
canonical output:

* ``hnf`` puts a matrix in row-style Hermite normal form.  The nonzero rows
  are the unique echelon basis (positive pivots, entries above each pivot
  reduced into ``[0, pivot)``) of the row lattice, so two generating sets
  span the same lattice exactly when their forms agree.
* ``snf`` computes the Smith normal form ``U * A * V = S`` with unimodular
  ``U, V`` and a nonnegative diagonal ``d_1 | d_2 | ...``.

``kernel_lattice`` returns its canonical basis in Hermite form, so a graded
basis reads a member's coefficients off by division, row by row
(``divide``), with no second elimination.

Conventions used throughout the package: lattice bases are stored as matrix
*rows*, linear maps act on *column* vectors, and ``dot`` is the standard
pairing of a covector row with a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import mul


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    return sum(map(mul, u, v))


class IntMatrix:
    """Immutable dense matrix of Python ints.

    A matrix may have zero rows or zero columns; the column count of an
    empty matrix must be supplied explicitly so shapes stay meaningful.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        packed = []
        for row in entries:
            r = tuple(row)
            for x in r:
                if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
                    raise TypeError(f"matrix entries must be ints, got {type(x).__name__}")
            packed.append(r)
        if packed:
            ncols = len(packed[0])
            if any(len(r) != ncols for r in packed):
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("explicit column count disagrees with rows")
        else:
            if cols is None:
                raise ValueError("a matrix with no rows needs an explicit column count")
            if cols < 0:
                raise ValueError("negative column count")
            ncols = cols
        self.entries = tuple(packed)
        self.rows = len(packed)
        self.cols = ncols

    @classmethod
    def _of(cls, entries: tuple, cols: int) -> "IntMatrix":
        """Wrap a tuple of int tuples of length ``cols``, unchecked."""
        self = object.__new__(cls)
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    def row(self, i: int):
        return self.entries[i]

    def column(self, j: int):
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        cols = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._of(cols, self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        cols = other.transpose().entries
        rows = tuple(tuple(dot(r, c) for c in cols) for r in self.entries)
        return IntMatrix._of(rows, other.cols)

    def mul_vec(self, v):
        """Matrix times column vector, returned as a tuple."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(dot(r, v) for r in self.entries)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def tolist(self):
        return [list(r) for r in self.entries]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.tolist()!r}, cols={self.cols})"


def _sub(row, pivot, q):
    """row -= q * pivot on sparse rows, deleting entries that reach zero."""
    get = row.get
    for j, y in pivot.items():
        x = get(j, 0) - q * y
        if x:
            row[j] = x
        else:
            del row[j]


def _echelon(w, n: int) -> int:
    """Put the first ``n`` columns of the sparse rows ``w`` in Hermite form, in place.

    Rows are ``{column: nonzero}`` dicts holding no zeros.  Every operation
    acts on whole rows, so columns past ``n`` (a transform started at the
    identity) are carried along.  Returns the rank; the rows from the rank
    down have no entry in the first ``n`` columns.

    Columns are processed left to right.  Within a column the remaining row
    with the smallest nonzero absolute value (the first on ties) is swapped
    up and the others are reduced modulo it until the column is clear; this
    is just the Euclidean algorithm run on the column, so it terminates.
    Pivots and operations are those of a dense loop in the same order, so
    the results are identical; only the zeros are never touched.
    """
    m = len(w)
    r = 0
    for c in range(n):
        if r == m:
            break
        live = [i for i in range(r, m) if c in w[i]]
        if not live:
            continue
        while True:
            i0 = min(live, key=lambda i: (abs(w[i][c]), i))
            # the rows below r still holding column c; the old row r moves to i0
            live = [i0 if i == r else i for i in live if i != i0]
            w[r], w[i0] = w[i0], w[r]
            pivot = w[r]
            if pivot[c] < 0:
                pivot = w[r] = {j: -x for j, x in pivot.items()}
            p = pivot[c]
            for i in live:
                _sub(w[i], pivot, w[i][c] // p)
            live = [i for i in live if c in w[i]]
            if not live:
                break
            live.append(r)  # the pivot row, larger than every remainder
        for i in range(r):
            q = w[i].get(c, 0) // p
            if q:
                _sub(w[i], pivot, q)
        r += 1
    return r


def _sparse(rows):
    cols = range(len(rows[0])) if rows else ()
    return [dict(zip(compress(cols, row), filter(None, row))) for row in rows]


def _dense(w, lo: int, hi: int) -> IntMatrix:
    """Columns ``lo .. hi - 1`` of the sparse rows ``w``."""
    out = []
    for row in w:
        dense = [0] * (hi - lo)
        for j, x in row.items():
            if lo <= j < hi:
                dense[j - lo] = x
        out.append(tuple(dense))
    return IntMatrix._of(tuple(out), hi - lo)


def hnf(a: IntMatrix):
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular and ``U * A = H``.  ``H`` is in
    echelon form with positive pivots, every entry above a pivot reduced into
    ``[0, pivot)``, and zero rows collected at the bottom.  The nonzero rows
    of ``H`` are the canonical basis of the row lattice of ``A``.  ``U`` is
    read off the identity columns carried through the elimination of
    ``[A | I]``.
    """
    m, n = a.rows, a.cols
    w = _sparse(a.entries)
    for i, row in enumerate(w):
        row[n + i] = 1
    _echelon(w, n)
    return _dense(w, 0, n), _dense(w, n, n + m)


def hnf_basis(a: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice of ``a``: nonzero rows of its HNF."""
    w = _sparse(a.entries)
    return _dense(w[: _echelon(w, a.cols)], 0, a.cols)


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition ``U * A * V = S``."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self):
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S[i, i] for i in range(n))

    def nonzero_divisors(self):
        return tuple(d for d in self.diagonal() if d != 0)


def snf(a: IntMatrix) -> SNFResult:
    """Smith normal form with transformation matrices.

    Returns ``SNFResult(U, S, V)`` where ``U`` (``m x m``) and ``V``
    (``n x n``) are unimodular, ``S = U * A * V`` is diagonal, the diagonal
    is nonnegative and each entry divides the next.

    The pivot for each stage is the entry of smallest nonzero absolute value
    in the remaining block (first position in row-major order on ties), which
    makes the computation deterministic.  After the pivot's row and column
    are cleared, any entry of the remaining block not divisible by the pivot
    has its row added to the pivot row and the stage restarts; each restart
    strictly shrinks the pivot, so the loop terminates.

    The work rows are ``[A | I_m]`` followed by the rows of ``I_n``: row
    operations touch the first ``m`` rows whole, so they carry ``U`` in the
    columns past ``n``, and column operations touch every row, so they carry
    ``V`` in the rows past ``m``.
    """
    m, n = a.rows, a.cols
    w = [[*r, *e] for r, e in zip(a.entries, IntMatrix.identity(m).entries)]
    w += [list(e) for e in IntMatrix.identity(n).entries]

    def col_sub(j, t, q):
        for row in w:
            row[j] -= q * row[t]

    def col_swap(j, t):
        for row in w:
            row[j], row[t] = row[t], row[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = w[i][j]
                if x != 0 and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        if best is None:
            break
        i0, j0, _ = best
        if i0 != t:
            w[t], w[i0] = w[i0], w[t]
        if j0 != t:
            col_swap(j0, t)
        while True:
            if w[t][t] < 0:
                w[t] = [-x for x in w[t]]
            p = w[t][t]
            restart = False
            for i in range(m):
                if i != t and w[i][t] != 0:
                    q = w[i][t] // p
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t] != 0:
                        # remainder is a smaller pivot candidate
                        w[t], w[i] = w[i], w[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(n):
                if j != t and w[t][j] != 0:
                    col_sub(j, t, w[t][j] // p)
                    if w[t][j] != 0:
                        col_swap(j, t)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if w[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w[t] = [x + y for x, y in zip(w[t], w[offender])]
        t += 1
    return SNFResult(
        IntMatrix((r[n:] for r in w[:m]), cols=m),
        IntMatrix((r[:n] for r in w[:m]), cols=n),
        IntMatrix(w[m:], cols=n),
    )


def kernel_lattice(a: IntMatrix) -> IntMatrix:
    """Canonical basis of ``{x : A x = 0}`` as matrix rows.

    The kernel of the column action is read off a Hermite form of the
    transpose: rows of the transformation matrix that map to zero rows span
    the kernel, and the lattice they span is automatically saturated.  The
    result is put in Hermite form, so equal kernels give identical bases.

    The constraints (rows of ``A``) are eliminated last row first.  Their
    order does not change the kernel, but it sets how far the transform
    fills in: a constraint system lists its rows face by face, and in that
    order the early pivot rows drag a dense transform through every row
    operation.  Reversed, the cells the Hermite step's row operations
    touch fall from 495,745 to 68,896 on the 9-vector hypertoric system at
    k = 2 (522 x 420), from 21,378 to 6,175 on the cube at k = 4, and from
    31,436 to 17,031 on the 7-vector hypertoric system at k = 2.
    """
    h, u = hnf(IntMatrix._of(a.entries[::-1], a.cols).transpose())
    ker = tuple(urow for hrow, urow in zip(h.entries, u.entries) if not any(hrow))
    return hnf_basis(IntMatrix._of(ker, a.cols))


def divide(basis, v):
    """Coefficients of ``v`` on the echelon rows ``basis``, or None.

    ``v`` is reduced against the rows top-down; each pivot must divide the
    current coordinate exactly, and ``v`` must reduce to zero.  On a Hermite
    basis this is what ``solve_left`` returns, whose ``hnf`` step is then
    the identity.
    """
    w = v
    y = []
    for row in basis:
        j = next(c for c, x in enumerate(row) if x)
        q, r = divmod(w[j], row[j])
        if r:
            return None
        if q:
            w = [x - q * z for x, z in zip(w, row)]
        y.append(q)
    return None if any(w) else y


def solve_left(a: IntMatrix, b: IntMatrix):
    """Solve ``X * A = B`` over the integers.

    Returns ``X`` (``b.rows x a.rows``) or ``None`` if some row of ``B`` is
    not in the row lattice of ``A``.  Rows of ``B`` are divided by the
    nonzero rows of the Hermite form, and the transformation matrix converts
    the quotients back to coefficients on the original rows.
    """
    if a.cols != b.cols:
        raise ValueError("column count mismatch in solve_left")
    h, u = hnf(a)
    basis = [r for r in h.entries if any(r)]
    xs = []
    for brow in b.entries:
        y = divide(basis, brow)
        if y is None:
            return None
        x = [0] * a.rows
        for q, urow in zip(y, u.entries):
            if q:
                x = [s + q * t for s, t in zip(x, urow)]
        xs.append(x)
    return IntMatrix(xs, cols=a.rows)


def primitive(v):
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)
