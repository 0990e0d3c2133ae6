"""Exact scalar arithmetic and integer/field matrix algorithms.

Everything here is exact: integers are Python ints (arbitrary precision),
rationals are `fractions.Fraction`, modular values are canonical
representatives in [0, m).  Matrices are stored dense; products skip zeros.

Kernels and lattice solves read one column reduction of the matrix stacked
over the identity (`Matrix.echelon`), computed at most once, on first use,
and kept with the matrix.  Homology reads only invariant factors
(`Matrix.invariant_factors`): unit pivots are removed first on sparse rows,
and the Smith elimination runs on the unit-free core that is left (empty
over a field).  `smith_normal_form` gives the Smith form with its transforms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Any, Sequence

from .errors import CompositionNotZeroError, UnsupportedRingError

Scalar = Any  # int | Fraction, depending on the ring


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class Ring:
    """A coefficient ring: Z, Q, or Z/m.  Values are plain Python scalars.

    The plain operators serve Z and Q; Z/m overrides them to reduce mod m.
    """

    name: str
    is_field: bool
    zero: Scalar
    one: Scalar

    def coerce(self, x) -> Scalar:
        raise NotImplementedError

    def add(self, a, b) -> Scalar:
        return a + b

    def sub(self, a, b) -> Scalar:
        return a - b

    def mul(self, a, b) -> Scalar:
        return a * b

    def neg(self, a) -> Scalar:
        return -a

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a) -> Scalar:
        raise NotImplementedError

    def quo(self, a, b) -> Scalar:
        """Quotient used in elimination: floor division over Z, exact over fields."""
        raise NotImplementedError

    def pivot_size(self, a):
        """Total order on nonzero values used by the deterministic pivot rule."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"
    is_field = False
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit of Z")
        return a

    def quo(self, a, b):
        return a // b

    def pivot_size(self, a):
        return abs(a)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class RationalRing(Ring):
    name = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return Fraction(1) / a

    def quo(self, a, b):
        return a / b

    def pivot_size(self, a):
        return abs(a)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("Q")


class ModularRing(Ring):
    """Z/m with canonical representatives in [0, m).  A field iff m is prime."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.name = f"Z/{m}"
        self.is_field = _is_prime(m)
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        return int(x) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def is_unit(self, a):
        return gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit of {self.name}")
        return pow(a, -1, self.m)

    def quo(self, a, b):
        return (a * self.inv(b)) % self.m

    def pivot_size(self, a):
        return a

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.m == self.m

    def __hash__(self):
        return hash(("Zmod", self.m))


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(m: int) -> ModularRing:
    return ModularRing(m)


def require_pid(ring: Ring) -> None:
    """Normal forms and homology need Z, Q or Z/p with p prime."""
    if isinstance(ring, (IntegerRing, RationalRing)):
        return
    if isinstance(ring, ModularRing) and ring.is_field:
        return
    raise UnsupportedRingError(
        f"normal forms require Z, Q or Z/p with p prime, got {ring.name}"
    )


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; all entries belong to `ring`."""

    ring: Ring
    rows: int
    cols: int
    data: tuple  # tuple of row tuples

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(ring.coerce(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(ring, len(data), ncols, data)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        z = ring.zero
        return cls(ring, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return cls(
            ring, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @classmethod
    def from_columns(cls, ring: Ring, cols: Sequence[Sequence], rows: int) -> "Matrix":
        """A matrix from columns whose entries are already values of `ring`."""
        data = tuple(zip(*cols)) if cols else ((),) * rows
        return cls(ring, rows, len(cols), data)

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(x == z for row in self.data for x in row)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.ring != other.ring:
            raise ValueError("dimension or ring mismatch")
        r = self.ring
        # row i of the product sums a_ik times row k of other, over the nonzero a_ik
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in other.data]
        out = []
        for row in self.data:
            acc = [r.zero] * other.cols
            for a, terms in zip(row, sparse):
                if a:
                    for j, x in terms:
                        acc[j] = r.add(acc[j], r.mul(a, x))
            out.append(tuple(acc))
        return Matrix(r, self.rows, other.cols, tuple(out))

    def __matmul__(self, other):
        return self.matmul(other)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring != other.ring:
            raise ValueError("dimension or ring mismatch")
        data = tuple(tuple(map(op, r, s)) for r, s in zip(self.data, other.data))
        return Matrix(self.ring, self.rows, self.cols, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.ring.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.ring.sub)

    @cached_property
    def echelon(self) -> "Echelon":
        """The column reduction of this matrix over the identity, computed on first use and kept with it."""
        return _echelon(self)

    @cached_property
    def invariant_factors(self) -> tuple:
        """The nonzero Smith diagonal (all ones over a field), whose length is the rank; by one
        elimination without transforms."""
        return _eliminate(self, transforms=False)[0]


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ original @ right == diagonal of d padded with zeros."""

    d: tuple
    left: Matrix
    right: Matrix
    rank: int

    def diagonal_matrix(self, rows: int, cols: int, ring: Ring) -> Matrix:
        out = [[ring.zero] * cols for _ in range(rows)]
        for i, x in enumerate(self.d):
            out[i][i] = x
        return Matrix.from_rows(ring, out)


def _find_pivot(a, t, nr, nc, ring):
    best = None  # (pivot size, row, column); the first of equal sizes wins
    for i in range(t, nr):
        for j in range(t, nc):
            x = a[i][j]
            if x:  # nonzero: zero is falsy in every ring, and the test is cheap on Fractions
                size = ring.pivot_size(x)
                if best is None or size < best[0]:
                    best = (size, i, j)
    return None if best is None else best[1:]


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations, with its transforms.

    Deterministic: the pivot is the nonzero entry of minimal pivot size, ties
    broken by lowest row then column index.
    """
    d, a = _eliminate(m, transforms=True)
    left = Matrix(m.ring, m.rows, m.rows, tuple(tuple(row[m.cols:]) for row in a[: m.rows]))
    return SmithDecomposition(d, left, Matrix(m.ring, m.cols, m.cols, tuple(map(tuple, a[m.rows:]))), len(d))


def _eliminate(m: Matrix, transforms: bool) -> tuple:
    """The Smith diagonal d of m and the working array.  With transforms, the array is m
    with the transforms riding along: left to the right of m's rows, right below them.
    Without them, unit pivots are removed first (`_unit_pivots`), and the array is the
    unit-free core they leave."""
    require_pid(m.ring)
    ring = m.ring
    if transforms:
        units = ()
        nr, nc = m.rows, m.cols
        a = [list(row) + list(e) for row, e in zip(m.data, Matrix.identity(ring, nr).data)]
        a += [list(row) for row in Matrix.identity(ring, nc).data]
    else:
        units, a = _unit_pivots(m)
        nr, nc = len(a), len(a[0]) if a else 0
    # At step t, rows t.. are zero left of column t, and columns t.. are zero above
    # row t, so the operations below start there.

    def row_sub(i, k, q):  # row i -= q * row k
        ri, rk = a[i], a[k]
        for j in range(t, len(ri)):
            if rk[j]:
                ri[j] = ring.sub(ri[j], ring.mul(q, rk[j]))

    def col_sub(j, k, q):  # col j -= q * col k
        for row in a[t:]:
            if row[k]:
                row[j] = ring.sub(row[j], ring.mul(q, row[k]))

    t = 0
    while t < min(nr, nc):
        piv = _find_pivot(a, t, nr, nc, ring)
        if piv is None:
            break
        while True:
            i, j = piv
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            # one reduction sweep against the pivot
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_sub(i, t, ring.quo(a[i][t], a[t][t]))
            for j in range(t + 1, nc):
                if a[t][j]:
                    col_sub(j, t, ring.quo(a[t][j], a[t][t]))
            if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][j] for j in range(t + 1, nc)):
                piv = _find_pivot(a, t, nr, nc, ring)
                continue
            if not ring.is_unit(a[t][t]):
                # enforce the divisibility chain d_t | everything below
                bad = next(
                    (i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % a[t][t] != 0), None
                )
                if bad is not None:
                    row_sub(t, bad, ring.neg(ring.one))  # row t += row bad
                    piv = _find_pivot(a, t, nr, nc, ring)
                    continue
            break
        # normalize pivot: positive over Z, 1 over a field
        u = ring.inv(a[t][t]) if ring.is_field else (-1 if a[t][t] < 0 else 1)
        if u != 1:
            a[t] = [ring.mul(x, u) for x in a[t]]
        t += 1

    return units + tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i]), a


def _unit_pivots(m: Matrix) -> tuple:
    """Remove the unit pivots of m: one `ring.one` per pivot, and the unit-free core left,
    as dense rows.

    A unit u at (i, j) clears its column by row operations, then its row by column
    operations.  That leaves u beside the Schur complement: the rest of m minus
    (column j) u^-1 (row i).  So m has the invariant factors of the complement plus one
    unit.  The pivot is the unit entry of least (row nnz - 1) * (column nnz - 1), which
    bounds its fill; ties go to the lowest row, then the lowest column.  Over a field
    every nonzero is a unit, so the core is empty.
    """
    ring = m.ring
    sub, mul, zero, field, is_unit = ring.sub, ring.mul, ring.zero, ring.is_field, ring.is_unit
    if not any(x and (field or is_unit(x)) for row in m.data for x in row):
        return (), [list(row) for row in m.data]
    rows: dict = {}  # row -> {column: nonzero entry}; ascending rows, as none is added
    cols: dict = {}  # column -> the rows with a nonzero entry there
    for i, row in enumerate(m.data):
        entries = {j: x for j, x in enumerate(row) if x}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    # (cost, row, column) keys.  Every change to a unit entry's cost pushes its new
    # key, so the least key that is still current is the pivot; keys gone out of date
    # are dropped when popped.
    heap = [
        ((len(entries) - 1) * (len(cols[j]) - 1), i, j)
        for i, entries in rows.items()
        for j, x in entries.items()
        if field or is_unit(x)
    ]
    heapify(heap)
    pivots = 0
    while heap:
        cost, i, j = heappop(heap)
        pivot = rows.get(i)
        if pivot is None or j not in pivot or cost != (len(pivot) - 1) * (len(cols[j]) - 1):
            continue
        if not (field or is_unit(pivot[j])):
            continue
        del rows[i]
        for c in pivot:
            cols[c].discard(i)
        inv = ring.inv(pivot.pop(j))
        touched = cols.pop(j)
        for k in touched:
            entries = rows[k]
            q = mul(entries.pop(j), inv)  # row k -= q * row i clears its entry in column j
            for c, x in pivot.items():
                v = sub(entries.get(c, zero), mul(q, x))
                if v:
                    entries[c] = v
                    cols[c].add(k)
                else:  # q * x is nonzero, so the entry was there and cancelled
                    del entries[c]
                    cols[c].discard(k)
        # new keys: the touched rows changed their counts, the pivot's columns theirs
        for k in touched:
            entries = rows[k]
            if not entries:
                del rows[k]
                continue
            fill = len(entries) - 1
            for c, x in entries.items():
                if field or is_unit(x):
                    heappush(heap, (fill * (len(cols[c]) - 1), k, c))
        for c in pivot:
            ks = cols[c]
            if not ks:
                del cols[c]
                continue
            fill = len(ks) - 1
            for k in ks - touched:
                if field or is_unit(rows[k][c]):
                    heappush(heap, ((len(rows[k]) - 1) * fill, k, c))
        pivots += 1
    keep = sorted(cols)
    return (ring.one,) * pivots, [[entries.get(j, zero) for j in keep] for entries in rows.values()]


@dataclass(frozen=True)
class Echelon:
    """The columns of m stacked over the identity and column-reduced: [m; I] u == [e; u]
    for an invertible u, with e = m u in column Hermite form (reduced column echelon
    form over a field).

    columns[j] is column j of [e; u].  The first rank columns of e are its nonzero ones;
    pivots[j] is the row of the first nonzero entry of column j < rank, and these rows
    ascend.  The u parts of the later columns, themselves in column Hermite form, are
    the canonical basis of ker m.
    """

    pivots: tuple
    columns: tuple


def _echelon(m: Matrix) -> Echelon:
    require_pid(m.ring)
    stacked = [col + e for col, e in zip(m.columns(), Matrix.identity(m.ring, m.cols).data)]
    cols, pivots = _hermite_column_reduce(stacked, m.rows + m.cols, m.ring)
    return Echelon(tuple(p for p in pivots if p < m.rows), tuple(map(tuple, cols)))


def _hermite_column_reduce(cols: list, nrows: int, ring: Ring) -> tuple:
    """Canonicalize a list of column vectors spanning a lattice/subspace.

    Over Z this is a column-style Hermite normal form (positive pivots,
    entries left of a pivot reduced into [0, pivot)); over a field it is a
    column reduced echelon form.  Column operations only, so the span (the
    full lattice, over Z) is unchanged.  Returns the columns and the pivot
    row of each nonzero one; those come first, their pivot rows ascending.
    """
    cols = [list(c) for c in cols]
    pivots = []

    def col_sub(j, k, q):  # col j -= q * col k, whose entries above row i are zero
        cj, ck = cols[j], cols[k]
        for h in range(i, nrows):
            if ck[h]:
                cj[h] = ring.sub(cj[h], ring.mul(q, ck[h]))

    for i in range(nrows):
        r = len(pivots)
        if r == len(cols):
            break
        while True:
            nz = [j for j in range(r, len(cols)) if cols[j][i]]
            if not nz:
                break
            best = nz[0] if len(nz) == 1 else min(nz, key=lambda j: (ring.pivot_size(cols[j][i]), j))
            if best != r:
                cols[best], cols[r] = cols[r], cols[best]
            if len(nz) == 1:
                break
            for j in range(r + 1, len(cols)):
                if cols[j][i]:
                    col_sub(j, r, ring.quo(cols[j][i], cols[r][i]))
            if ring.is_field:
                break
        if cols[r][i]:
            if ring.is_field:
                u = ring.inv(cols[r][i])
                cols[r] = [ring.mul(u, x) for x in cols[r]]
            elif cols[r][i] < 0:
                cols[r] = [-x for x in cols[r]]
            for j in range(r):
                if cols[j][i]:
                    col_sub(j, r, ring.quo(cols[j][i], cols[r][i]))
            pivots.append(i)
    return cols, pivots


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of ker(m) as matrix columns, in column Hermite form.

    Over Z the columns span the full (saturated) kernel lattice: every integer
    kernel vector is an integer combination of the columns.
    """
    require_pid(m.ring)
    if m.rows == 0:
        return Matrix.identity(m.ring, m.cols)  # already in Hermite form
    ech = m.echelon
    return Matrix.from_columns(m.ring, [col[m.rows:] for col in ech.columns[len(ech.pivots):]], m.cols)


def solve_in_lattice(basis: Matrix, target: Sequence):
    """Coefficients c with basis @ c == target, or None.

    Over Z membership means membership in the column lattice.  Dependent
    columns are tolerated (one solution is returned).  The target is reduced
    against the echelon columns pivot by pivot; the coefficients are read off
    their identity parts.
    """
    require_pid(basis.ring)
    ring = basis.ring
    target = [ring.coerce(x) for x in target]
    if len(target) != basis.rows:
        raise ValueError("target length mismatch")
    ech = basis.echelon
    top = basis.rows
    coeffs = [ring.zero] * basis.cols
    for col, p in zip(ech.columns, ech.pivots):
        x = target[p]
        if not x:
            continue
        z = ring.quo(x, col[p])  # over Z a remainder stays in target[p] and fails the last test
        for h in range(p, top):
            if col[h]:
                target[h] = ring.sub(target[h], ring.mul(z, col[h]))
        for k in range(basis.cols):
            if col[top + k]:
                coeffs[k] = ring.add(coeffs[k], ring.mul(z, col[top + k]))
    if any(target):
        return None
    return tuple(coeffs)


@dataclass
class HomologyGroup:
    """One graded piece: free rank plus invariant torsion factors (> 1, ascending)."""

    free_rank: int
    torsion: list = field(default_factory=list)

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def homology_of_pair(boundary_out: Matrix, boundary_in: Matrix) -> HomologyGroup:
    """ker(boundary_out) / im(boundary_in), both expressed in the same basis.

    boundary_out maps the degree under inspection outward (to degree n-1),
    boundary_in maps into it (from degree n+1).  With C_n the middle module,

        free rank = dim C_n - rank(boundary_out) - rank(boundary_in)
        torsion   = the invariant factors of boundary_in that are > 1 (none over a field)

    since over a PID C_n / ker(boundary_out) embeds in the free C_(n-1), so the
    kernel is saturated, a direct summand C_n = ker + D, and C_n / im(boundary_in)
    = ker / im + D has the homology's torsion.
    """
    require_pid(boundary_out.ring)
    if boundary_out.cols != boundary_in.rows:
        raise CompositionNotZeroError("boundary matrices are not composable")
    if not boundary_out.matmul(boundary_in).is_zero():
        raise CompositionNotZeroError("boundary_out @ boundary_in != 0")
    d_out, d_in = boundary_out.invariant_factors, boundary_in.invariant_factors
    torsion = [] if boundary_out.ring.is_field else [x for x in d_in if x > 1]
    return HomologyGroup(free_rank=boundary_out.cols - len(d_out) - len(d_in), torsion=torsion)
