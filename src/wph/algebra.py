"""Exact scalar arithmetic and integer/field matrix algorithms.

Everything here is exact: integers are Python ints (arbitrary precision),
rationals are `fractions.Fraction`, modular values are canonical
representatives in [0, m).  Matrices are dense; instance sizes stay at desk
scale so no sparse machinery is needed.

A matrix's Smith decomposition (`Matrix.smith`) is computed at most once, on
first use, and lives as long as the matrix: every kernel and lattice solve
against the same matrix object reuses it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
        data = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return cls(ring, rows, len(cols), data)

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(x == z for row in self.data for x in row)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.ring != other.ring:
            raise ValueError("dimension or ring mismatch")
        r = self.ring
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = r.zero
                for k in range(self.cols):
                    acc = r.add(acc, r.mul(self.data[i][k], other.data[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return Matrix(r, self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        r = self.ring
        out = []
        for i in range(self.rows):
            acc = r.zero
            for k in range(self.cols):
                acc = r.add(acc, r.mul(self.data[i][k], vec[k]))
            out.append(acc)
        return tuple(out)

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
    def smith(self) -> "SmithDecomposition":
        """The Smith decomposition of this matrix, computed on first use and kept with it."""
        return smith_normal_form(self)


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
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            x = a[i][j]
            if x == ring.zero:
                continue
            key = (ring.pivot_size(x), i, j)
            if best is None or key < best[0]:
                best = (key, i, j)
    if best is None:
        return None
    return best[1], best[2]


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations.

    Deterministic: the pivot is the nonzero entry of minimal pivot size, ties
    broken by lowest row then column index.
    """
    require_pid(m.ring)
    ring = m.ring
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.data]
    left = [list(row) for row in Matrix.identity(ring, nr).data]
    right = [list(row) for row in Matrix.identity(ring, nc).data]

    def row_sub(i, k, q):  # row i -= q * row k
        for j in range(nc):
            a[i][j] = ring.sub(a[i][j], ring.mul(q, a[k][j]))
        for j in range(nr):
            left[i][j] = ring.sub(left[i][j], ring.mul(q, left[k][j]))

    def col_sub(j, k, q):  # col j -= q * col k
        for i in range(nr):
            a[i][j] = ring.sub(a[i][j], ring.mul(q, a[i][k]))
        for i in range(nc):
            right[i][j] = ring.sub(right[i][j], ring.mul(q, right[i][k]))

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        left[i], left[k] = left[k], left[i]

    def col_swap(j, k):
        for i in range(nr):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(nc):
            right[i][j], right[i][k] = right[i][k], right[i][j]

    def row_scale(i, u):  # unit u
        for j in range(nc):
            a[i][j] = ring.mul(a[i][j], u)
        for j in range(nr):
            left[i][j] = ring.mul(left[i][j], u)

    t = 0
    while t < min(nr, nc):
        piv = _find_pivot(a, t, nr, nc, ring)
        if piv is None:
            break
        while True:
            i, j = piv
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            # one reduction sweep against the pivot
            for i in range(t + 1, nr):
                if a[i][t] != ring.zero:
                    row_sub(i, t, ring.quo(a[i][t], a[t][t]))
            for j in range(t + 1, nc):
                if a[t][j] != ring.zero:
                    col_sub(j, t, ring.quo(a[t][j], a[t][t]))
            cleared = all(a[i][t] == ring.zero for i in range(t + 1, nr)) and all(
                a[t][j] == ring.zero for j in range(t + 1, nc)
            )
            if not cleared:
                piv = _find_pivot(a, t, nr, nc, ring)
                continue
            if not ring.is_field:
                # enforce the divisibility chain d_t | everything below
                bad = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if a[i][j] % a[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is not None:
                    row_sub(t, bad, ring.neg(ring.one))  # row t += row bad
                    piv = _find_pivot(a, t, nr, nc, ring)
                    continue
            break
        # normalize pivot: positive over Z, 1 over a field
        if ring.is_field:
            row_scale(t, ring.inv(a[t][t]))
        elif a[t][t] < 0:
            row_scale(t, -1)
        t += 1

    d = tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i] != ring.zero)
    return SmithDecomposition(
        d=d,
        left=Matrix(ring, nr, nr, tuple(map(tuple, left))),
        right=Matrix(ring, nc, nc, tuple(map(tuple, right))),
        rank=len(d),
    )


def _hermite_column_reduce(cols: list, nrows: int, ring: Ring) -> list:
    """Canonicalize a list of column vectors spanning a lattice/subspace.

    Over Z this is a column-style Hermite normal form (positive pivots,
    entries left of a pivot reduced into [0, pivot)); over a field it is a
    column reduced echelon form.  Column operations only, so the span (the
    full lattice, over Z) is unchanged.
    """
    cols = [list(c) for c in cols]
    r = 0
    for i in range(nrows):
        if r == len(cols):
            break
        while True:
            nz = [j for j in range(r, len(cols)) if cols[j][i] != ring.zero]
            if not nz:
                break
            best = min(nz, key=lambda j: (ring.pivot_size(cols[j][i]), j))
            if best != r:
                cols[best], cols[r] = cols[r], cols[best]
            if len(nz) == 1:
                break
            for j in range(r + 1, len(cols)):
                if cols[j][i] != ring.zero:
                    q = ring.quo(cols[j][i], cols[r][i])
                    cols[j] = [ring.sub(cols[j][k], ring.mul(q, cols[r][k])) for k in range(nrows)]
            if ring.is_field:
                break
        if r < len(cols) and cols[r][i] != ring.zero:
            if ring.is_field:
                u = ring.inv(cols[r][i])
                cols[r] = [ring.mul(u, x) for x in cols[r]]
            elif cols[r][i] < 0:
                cols[r] = [-x for x in cols[r]]
            for j in range(r):
                if cols[j][i] != ring.zero:
                    q = ring.quo(cols[j][i], cols[r][i])
                    cols[j] = [ring.sub(cols[j][k], ring.mul(q, cols[r][k])) for k in range(nrows)]
            r += 1
    return cols


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of ker(m) as matrix columns.

    Over Z the columns span the full (saturated) kernel lattice: every integer
    kernel vector is an integer combination of the columns.
    """
    require_pid(m.ring)
    if m.rows == 0:
        return Matrix.identity(m.ring, m.cols)  # already in Hermite form
    snf = m.smith
    cols = [snf.right.column(j) for j in range(snf.rank, m.cols)]
    cols = _hermite_column_reduce(cols, m.cols, m.ring)
    return Matrix.from_columns(m.ring, cols, m.cols)


def solve_in_lattice(basis: Matrix, target: Sequence):
    """Coefficients c with basis @ c == target, or None.

    Over Z membership means membership in the column lattice.  Dependent
    columns are tolerated (one solution is returned).
    """
    require_pid(basis.ring)
    ring = basis.ring
    target = tuple(ring.coerce(x) for x in target)
    if len(target) != basis.rows:
        raise ValueError("target length mismatch")
    if basis.cols == 0:
        return () if all(x == ring.zero for x in target) else None
    snf = basis.smith
    y = snf.left.apply(target)
    z = []
    for i in range(basis.cols):
        if i < snf.rank:
            di = snf.d[i]
            if ring.is_field:
                z.append(ring.quo(y[i], di))
            else:
                if y[i] % di != 0:
                    return None
                z.append(y[i] // di)
        else:
            z.append(ring.zero)
    for i in range(snf.rank, basis.rows):
        if y[i] != ring.zero:
            return None
    return snf.right.apply(z)


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
    boundary_in maps into it (from degree n+1).
    """
    require_pid(boundary_out.ring)
    ring = boundary_out.ring
    if boundary_out.cols != boundary_in.rows:
        raise CompositionNotZeroError("boundary matrices are not composable")
    if not boundary_out.matmul(boundary_in).is_zero():
        raise CompositionNotZeroError("boundary_out @ boundary_in != 0")
    ker = kernel_basis(boundary_out)
    coeff_cols = []
    for j in range(boundary_in.cols):
        c = solve_in_lattice(ker, boundary_in.column(j))
        if c is None:
            raise CompositionNotZeroError("image vector escapes the kernel lattice")
        coeff_cols.append(c)
    coeff = Matrix.from_columns(ring, coeff_cols, ker.cols)
    snf = coeff.smith
    torsion = [] if ring.is_field else [x for x in snf.d if x > 1]
    return HomologyGroup(free_rank=ker.cols - snf.rank, torsion=torsion)
