"""Exact scalar arithmetic and integer/field matrix algorithms.

Everything here is exact: integers are Python ints (arbitrary precision),
rationals are `fractions.Fraction`, modular values are canonical
representatives in [0, m).  Matrices are stored dense; products skip zeros.

A matrix's Smith decomposition (`Matrix.smith`) is computed at most once, on
first use, and lives as long as the matrix: every kernel and lattice solve
against the same matrix object reuses it.  Homology reads only invariant
factors (`Matrix.invariant_factors`), which the same elimination finds
without transforms.
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

    @cached_property
    def invariant_factors(self) -> tuple:
        """The nonzero Smith diagonal (all ones over a field), whose length is the rank; from
        `smith` if that is computed, else by one elimination without transforms."""
        if "smith" in self.__dict__:
            return self.smith.d
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
    """The Smith diagonal d of m and the working array, in which the transforms ride
    along if asked: left to the right of m's rows, right below them.  Without them over
    a field, each step stops after its row sweep, as the echelon pivots give the rank."""
    require_pid(m.ring)
    ring = m.ring
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.data]
    if transforms:
        a = [row + list(e) for row, e in zip(a, Matrix.identity(ring, nr).data)]
        a += [list(row) for row in Matrix.identity(ring, nc).data]
    rows_only = ring.is_field and not transforms
    # At step t, rows t.. are zero left of column t, and (unless rows_only) columns
    # t.. are zero above row t, so the operations below start there.

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
            if rows_only:
                break
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

    return tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i]), a


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
