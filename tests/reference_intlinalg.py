"""Frozen integer normal forms: the reference the elimination loop is checked against.

These are ``hnf``, ``hnf_basis``, ``snf``, ``kernel_lattice``, ``solve_left``
and ``in_row_lattice`` as fanpoly had them before one elimination loop
served them all, kept verbatim in behaviour:

* ``hnf`` applies every row operation twice, to the matrix and to a
  parallel transform list started at the identity;
* ``snf`` does the same for its rows, and applies every column operation
  to the matrix and to a parallel ``V``;
* ``hnf_basis`` takes the nonzero rows of ``hnf``, and ``in_row_lattice``
  runs the whole of ``solve_left``.

Only ``IntMatrix`` (the container) is shared with the code under test.
"""

from __future__ import annotations

from fanpoly.intlinalg import IntMatrix, SNFResult


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _row_sub(m, i, j, q):
    """m[i] -= q * m[j] in place."""
    mi, mj = m[i], m[j]
    for c in range(len(mi)):
        mi[c] -= q * mj[c]


def _row_neg(m, i):
    m[i] = [-x for x in m[i]]


def reference_hnf(a: IntMatrix):
    """Row-style Hermite normal form ``(H, U)`` with ``U * A = H``."""
    m, n = a.rows, a.cols
    w = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        if all(w[i][c] == 0 for i in range(r, m)):
            continue
        while True:
            i0 = min(
                (i for i in range(r, m) if w[i][c] != 0),
                key=lambda i: (abs(w[i][c]), i),
            )
            if i0 != r:
                w[r], w[i0] = w[i0], w[r]
                u[r], u[i0] = u[i0], u[r]
            if w[r][c] < 0:
                _row_neg(w, r)
                _row_neg(u, r)
            clear = True
            for i in range(r + 1, m):
                if w[i][c] != 0:
                    q = w[i][c] // w[r][c]
                    _row_sub(w, i, r, q)
                    _row_sub(u, i, r, q)
                    if w[i][c] != 0:
                        clear = False
            if clear:
                break
        for i in range(r):
            q = w[i][c] // w[r][c]
            if q:
                _row_sub(w, i, r, q)
                _row_sub(u, i, r, q)
        r += 1
    return IntMatrix(w, cols=n), IntMatrix(u, cols=m)


def reference_hnf_basis(a: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite form."""
    h, _ = reference_hnf(a)
    keep = [r for r in h.entries if any(x != 0 for x in r)]
    return IntMatrix(keep, cols=a.cols)


def reference_snf(a: IntMatrix) -> SNFResult:
    """Smith decomposition ``U * A * V = S`` with the smallest-entry pivot rule."""
    m, n = a.rows, a.cols
    s = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_sub(mat, j, t, q):
        for row in mat:
            row[j] -= q * row[t]

    def col_swap(mat, j, t):
        for row in mat:
            row[j], row[t] = row[t], row[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        if best is None:
            break
        i0, j0, _ = best
        if i0 != t:
            s[t], s[i0] = s[i0], s[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            col_swap(s, j0, t)
            col_swap(v, j0, t)
        while True:
            if s[t][t] < 0:
                _row_neg(s, t)
                _row_neg(u, t)
            p = s[t][t]
            restart = False
            for i in range(m):
                if i != t and s[i][t] != 0:
                    q = s[i][t] // p
                    _row_sub(s, i, t, q)
                    _row_sub(u, i, t, q)
                    if s[i][t] != 0:
                        s[t], s[i] = s[i], s[t]
                        u[t], u[i] = u[i], u[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(n):
                if j != t and s[t][j] != 0:
                    q = s[t][j] // p
                    col_sub(s, j, t, q)
                    col_sub(v, j, t, q)
                    if s[t][j] != 0:
                        col_swap(s, j, t)
                        col_swap(v, j, t)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_sub(s, t, offender, -1)
            _row_sub(u, t, offender, -1)
        t += 1
    return SNFResult(IntMatrix(u, cols=m), IntMatrix(s, cols=n), IntMatrix(v, cols=n))


def reference_kernel_lattice(a: IntMatrix) -> IntMatrix:
    """Canonical basis of ``{x : A x = 0}`` from the transform of HNF(A^T)."""
    h, u = reference_hnf(a.transpose())
    ker = [u.row(i) for i in range(h.rows) if all(x == 0 for x in h.row(i))]
    if not ker:
        return IntMatrix([], cols=a.cols)
    return reference_hnf_basis(IntMatrix(ker, cols=a.cols))


def reference_in_row_lattice(basis: IntMatrix, v) -> bool:
    return reference_solve_left(basis, IntMatrix([v], cols=basis.cols)) is not None


def reference_solve_left(a: IntMatrix, b: IntMatrix):
    """``X`` with ``X * A = B`` over the integers, or None."""
    if a.cols != b.cols:
        raise ValueError("column count mismatch in solve_left")
    h, u = reference_hnf(a)
    pivots = []
    for i in range(h.rows):
        row = h.row(i)
        j = next((c for c in range(h.cols) if row[c] != 0), None)
        if j is None:
            break
        pivots.append((i, j))
    xs = []
    for brow in b.entries:
        w = list(brow)
        y = [0] * a.rows
        for i, j in pivots:
            p = h[i, j]
            q, r = divmod(w[j], p)
            if r != 0:
                return None
            if q:
                hrow = h.row(i)
                for c in range(len(w)):
                    w[c] -= q * hrow[c]
                y[i] = q
        if any(x != 0 for x in w):
            return None
        xs.append(tuple(_dot(y, u.column(j)) for j in range(u.cols)))
    return IntMatrix(xs, cols=a.rows)
