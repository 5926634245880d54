"""A certificate for canonical bases that shares no code with the kernel.

A basis B (r x n) of the degree-k piece of a fan or multifan is the
canonical basis of PP^k exactly when:

1. B is in Hermite form: each row's first nonzero entry is positive and
   lies right of the row above's, and the entries above it lie in
   [0, pivot);
2. every row of B satisfies the evaluation conditions: for each incidence
   ``(a, b, _, tau)`` of the full ``incidences`` list, the parts a and b
   take equal values at the points sum c_i g_i, c_i >= 0, sum c_i <= k,
   for dim tau independent generators g_i of tau.  These points determine
   a polynomial of degree k on the span of tau, and the values are taken
   through each part's section: the point's coordinates are its pairings
   with the section's columns, and a monomial's value is the product of
   their powers, with no restriction matrix, no ``degree_matrix``, no
   stored powers and no ``LocalPolynomial``;
3. the evaluation system E, one row per condition over the coefficient
   layout, has rank n - r modulo the prime 2^61 - 1.  Then
   rank_p(E) <= rank_Q(E) <= n - r, so B spans the rational kernel: a
   wrong basis cannot pass, and an unlucky prime could only fail a
   correct one;
4. B is saturated: the product of its pivots is 1, or else every
   elementary divisor from ``snf`` (its own loop, not ``_echelon``) is 1.

Each part's coordinates, and then its monomials, are computed once per
point, and every row of B is valued there from those numbers (no basis
element is built), so a point shared by several incidences costs one
evaluation.  The rows of E are sparse, a repeated row is reduced once, and
the reduction stops when the rank reaches n - r.
"""

from itertools import product
from math import prod
from operator import mul

from fanpoly.intlinalg import snf

PRIME = 2**61 - 1


class RankModP:
    """Sparse rows reduced one at a time modulo PRIME; ``rank`` counts the independent ones."""

    def __init__(self):
        self.pivots = {}  # leading column -> row scaled to 1 there

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row) -> bool:
        """Reduce ``{column: value}`` by the pivots; keep it if anything is left."""
        row = {j: x % PRIME for j, x in row.items() if x % PRIME}
        while row:
            col = min(row)
            pivot = self.pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, PRIME)
                self.pivots[col] = {j: x * inv % PRIME for j, x in row.items()}
                return True
            c = row[col]
            for j, y in pivot.items():
                x = (row.get(j, 0) - c * y) % PRIME
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        return False


def is_hermite(rows) -> bool:
    pivots = []
    for i, row in enumerate(rows):
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None or row[col] <= 0 or (pivots and col <= pivots[-1]):
            return False
        if any(not 0 <= above[col] < row[col] for above in rows[:i]):
            return False
        pivots.append(col)
    return True


def evaluation_points(tau, k):
    """sum c_i g_i over dim tau independent generators g_i, c_i >= 0, sum c_i <= k."""
    independent, gens = RankModP(), []
    for g in tau.generators:
        if independent.add(dict(enumerate(g))):
            gens.append(g)
    assert len(gens) == tau.dim
    for cs in product(range(k + 1), repeat=len(gens)):
        if sum(cs) <= k:
            yield tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(tau.ambient_rank))


def failed_checks(container, gb):
    """Names of the checks 1-4 that ``gb`` fails: empty when it is certified."""
    rows = [list(r) for r in gb.coefficients.entries]
    n, r = gb.coefficients.cols, len(rows)
    failed = [] if is_hermite(rows) else ["hermite"]

    # a section's columns pair a point of the cone's span with its coordinates
    pairings = {pid: cone.quotient.section.transpose() for pid, cone in container.parts}
    blocks, start = {}, 0
    for pid, monos in gb.layout:
        end = start + len(monos)
        blocks[pid] = (start, monos, [row[start:end] for row in rows])
        start = end
    assert start == n

    values = {}

    def at(pid, point):
        """The part's monomials and each row's part at the point, evaluated once."""
        if (pid, point) not in values:
            lo, monos, coefficients = blocks[pid]
            coords = pairings[pid].mul_vec(point)
            m = [prod(map(pow, coords, mono)) for mono in monos]
            f = [sum(map(mul, c, m)) for c in coefficients]
            values[pid, point] = {lo + j: v for j, v in enumerate(m) if v}, f
        return values[pid, point]

    system, seen, agree = RankModP(), set(), True
    for a, b, _, tau in container.incidences:
        for point in evaluation_points(tau, gb.degree):
            (ea, fa), (eb, fb) = at(a, point), at(b, point)
            agree = agree and fa == fb
            if system.rank < n - r:
                e = tuple(sorted([*ea.items(), *((j, -v) for j, v in eb.items())]))
                if e not in seen:
                    seen.add(e)
                    system.add(dict(e))
    if not agree:
        failed.append("evaluation")
    if system.rank != n - r:
        failed.append("rank")

    pivot_product = 1
    for row in rows:
        pivot_product *= next((x for x in row if x), 0)
    if pivot_product != 1 and snf(gb.coefficients).nonzero_divisors() != (1,) * r:
        failed.append("saturation")
    return failed
