"""Exact scalar arithmetic and integer/field matrix algorithms.

Everything here is exact: integers are Python ints (arbitrary precision),
rationals are `fractions.Fraction`, modular values are canonical
representatives in [0, m).  Matrices are stored sparse: each column keeps its
nonzero entries keyed by row, and zeros are never stored, so equal matrices
have equal storage.  Products, sums and comparisons work on those entries.

Kernels and lattice solves read one column reduction of the sparse columns
stacked over the identity (`_echelon`).  Homology reads only invariant factors
(`_eliminate`), from one sparse elimination with one pivot
queue: unit pivots first, then Euclid steps over Z when no unit is left.  An
entry is keyed when it is made or changes value, and a key popped with an
out-of-date cost is pushed again with the current one.  Along a chain complex
(`chain_invariant_factors`) each boundary is eliminated without the rows that
the unit pivots of the boundary before it settle.
`smith_normal_form` gives the Smith form with its transforms, by a dense loop;
it is the reference the elimination is tested against, and no production path
calls it.
`solve_in_lattice` is a reference too: chains are re-expressed in the Omega
bases by pivot-row substitution (`chain.restrict_to_omega`), so only the
tests' reference constructions call it, and the benchmark's tracer wraps it
by name.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
import operator
from typing import Any, Sequence

from .errors import CompositionNotZeroError, UnsupportedRingError

Scalar = Any  # int | Fraction, depending on the ring


# Miller-Rabin to the prime bases 2..41 decides primality exactly below psi_13, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017).
MODULUS_BOUND = 3317044064679887385961981


def _is_prime(m: int) -> bool:
    """Whether m < MODULUS_BOUND is prime, by Miller-Rabin to the bases 2..41."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if m < 2 or any(m % a == 0 for a in bases):
        return m in bases
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, m)
        if x == 1:
            continue
        for _ in range(s):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


class Ring:
    """A coefficient ring: Z, Q, or Z/m.  Values are plain Python scalars.

    The plain operators serve Z and Q, bound as they are; Z/m overrides them to
    reduce mod m.
    """

    name: str
    is_field: bool
    zero: Scalar
    one: Scalar

    def coerce(self, x) -> Scalar:
        raise NotImplementedError

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

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

    least_pivot_size = None  # the pivot size no nonzero value is below, where there is one

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

    least_pivot_size = 1

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
    """Z/m with canonical representatives in [0, m), for 2 <= m < MODULUS_BOUND.  A field
    iff m is prime."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if m >= MODULUS_BOUND:
            raise ValueError(f"modulus must be below {MODULUS_BOUND}")
        self.m = m
        self.name = f"Z/{m}"
        self.is_field = _is_prime(m)
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        if isinstance(x, Fraction):  # p/q is p * q^-1; pow raises ValueError when q is no unit
            return x.numerator * pow(x.denominator, -1, self.m) % self.m
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

    least_pivot_size = 1

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


class Matrix:
    """Column-sparse matrix; all entries belong to `ring`.

    entries[j] maps the row of each nonzero entry of column j to its value.
    Zeros are never stored, so equal matrices have equal storage.  A matrix and
    its column dicts never change once built.  `data`, the dense row tuples, is
    a view computed on first read; `Matrix(ring, rows, cols, data)` builds a
    matrix from such rows.
    """

    def __init__(self, ring: Ring, rows: int, cols: int, data: Sequence):
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"data is not {rows} rows of {cols} entries")
        entries = tuple({} for _ in range(cols))
        for i, row in enumerate(data):
            for j, x in enumerate(row):
                if x:
                    entries[j][i] = x
        self.ring, self.rows, self.cols, self.entries = ring, rows, cols, entries

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "Matrix":
        data = [[ring.coerce(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(ring, len(data), ncols, data)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls.from_columns(ring, [{} for _ in range(cols)], rows)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        one = ring.one
        return cls.from_columns(ring, [{j: one} for j in range(n)], n)

    @classmethod
    def from_columns(cls, ring: Ring, cols: Sequence, rows: int) -> "Matrix":
        """A matrix on the given columns: {row: nonzero value of `ring`} dicts, kept as they are."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols, m.entries = ring, rows, len(cols), tuple(cols)
        return m

    @cached_property
    def data(self) -> tuple:
        """The dense row tuples."""
        out = [[self.ring.zero] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.entries):
            for i, x in col.items():
                out[i][j] = x
        return tuple(map(tuple, out))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring, self.rows, self.cols, self.entries) == (other.ring, other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, tuple(frozenset(col.items()) for col in self.entries)))

    def __repr__(self):
        return f"Matrix(ring={self.ring!r}, rows={self.rows}, cols={self.cols}, data={self.data!r})"

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.ring != other.ring:
            raise ValueError("dimension or ring mismatch")
        add, mul = self.ring.add, self.ring.mul
        left = self.entries
        out = []
        # column j of the product sums b_kj times column k of self, over the nonzero b_kj
        for col in other.entries:
            acc: dict = {}
            for k, b in col.items():
                for i, a in left[k].items():
                    acc[i] = add(acc[i], mul(a, b)) if i in acc else mul(a, b)
            out.append(acc if all(acc.values()) else {i: x for i, x in acc.items() if x})
        return Matrix.from_columns(self.ring, out, self.rows)

    def __matmul__(self, other):
        return self.matmul(other)


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ original @ right == diagonal of d padded with zeros."""

    d: tuple
    left: Matrix
    right: Matrix
    rank: int


def _find_pivot(a, t, nr, nc, ring):
    """(row, column) of the first nonzero of least pivot size in the block of a from (t, t),
    in row-major order, or None.  The scan stops at the first entry of size
    `ring.least_pivot_size` (1 over Z and Z/m), which no later entry can beat; over Q it
    reads the whole block."""
    floor = ring.least_pivot_size
    best = None  # (pivot size, row, column); the first of equal sizes wins
    for i in range(t, nr):
        row = a[i]
        for j in range(t, nc):
            x = row[j]
            if x:  # nonzero: zero is falsy in every ring, and the test is cheap on Fractions
                size = ring.pivot_size(x)
                if best is None or size < best[0]:
                    if size == floor:
                        return i, j
                    best = (size, i, j)
    return None if best is None else best[1:]


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations, with its transforms.

    Deterministic: the pivot is the nonzero entry of minimal pivot size, ties
    broken by lowest row then column index.  The elimination runs on a dense
    working array: m with the transforms riding along, left to the right of m's
    rows and right below them.  This is the reference the sparse engine
    (`_eliminate`) is tested against; no production path calls it.
    """
    require_pid(m.ring)
    ring = m.ring
    nr, nc = m.rows, m.cols
    a = [list(row) + list(e) for row, e in zip(m.data, Matrix.identity(ring, nr).data)]
    a += [list(row) for row in Matrix.identity(ring, nc).data]
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

    d = tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i])
    left = Matrix(ring, nr, nr, [row[nc:] for row in a[:nr]])
    return SmithDecomposition(d, left, Matrix(ring, nc, nc, a[nr:]), len(d))


def _eliminate(m: Matrix, skip=()) -> tuple:
    """The invariant factors of m without its rows in `skip`, by sparse elimination
    without transforms; and m's columns that unit pivots took before the first
    Euclid step (every pivot column, over a field).

    m and its transpose have the same invariant factors, so this eliminates
    whichever has fewer rows: the transpose's rows are m's stored columns, m's own
    rows are gathered from them.  A pivot touches one row per entry of its column,
    so fewer, longer rows mean fewer rows touched per pivot.  Each side is the
    faster one where this rule takes it: m's rows on the wide boundaries of the
    complete digraphs, the transpose on the tall ones of grids and hypergraph
    cylinders (timings in BENCH_10.json).  `rows` maps a row to its
    {column: nonzero entry} dict, `cols` a column to the rows with an entry there.

    One queue of (size, cost, row, column) keys gives every pivot.  The size is 1
    for a unit and |p| for another entry p; the cost,
    (row nnz - 1) * (column nnz - 1), bounds the pivot's fill; ties go to the
    lowest row, then the lowest column.  An entry gets a key when it is made or
    changes value: after a pivot, those are the entries of the rows it touched in
    its columns, and of a Euclid pivot's own row.  A count that changes pushes
    nothing; a popped key whose cost is out of date is pushed again with the
    current cost, so the pivot is the first popped key whose value and cost are
    both current.  Other entries than units are keyed only once the queue runs
    dry with rows left, which happens only over Z: the Euclid phase begins.  The
    loop ends with the last row.

    A unit u at (i, j) clears its column by row operations, then its row by
    column operations.  That leaves u beside the Schur complement: the rest minus
    (column j) u^-1 (row i), so it adds one unit factor.  Over a field every
    nonzero is a unit, so unit pivots eliminate everything.

    A Euclid pivot p, taken when no unit is left, reduces the other entries of
    its column by row operations to remainders of at most |p| / 2.  When none is
    left, column operations reduce the entries of its row the same way, which
    changes that row only; if they all vanish, p is a diagonal pivot and leaves
    with its row and column.  Otherwise a remainder smaller than |p| is left, so
    the least entry shrinks, and a unit remainder is the next pivot.

    What is left is diagonal: the units and the non-unit pivots, which gcd/lcm
    steps (diag(a, b) ~ diag(gcd, lcm)) put into the divisibility chain.  This is
    the elimination of Dumas, Saunders and Villard (JSC 2001).

    Unit columns.  Say the unit pivots before any Euclid step are on rows I and
    columns J of m.  Each pivot is a unit of the Schur complement left by the
    ones before it, so det m[I, J] is +- their product and m[I, J] is invertible.
    On which side the engine works does not matter: a Schur complement is the same
    whether rows or columns clear it.  A Euclid step changes m's row and column
    bases, so the columns are recorded only up to the first one.
    `chain_invariant_factors` drops the rows J of the next boundary with them.
    """
    require_pid(m.ring)
    ring = m.ring
    add, mul, neg, field = ring.add, ring.mul, ring.neg, ring.is_field
    entries = m.entries
    if skip:
        skip = set(skip)
        entries = [{i: x for i, x in col.items() if i not in skip} for col in entries]
    transposed = m.rows >= m.cols  # the side rule looks at m, whatever skip leaves out
    rows: dict = {}
    cols: dict = {}
    if not transposed:
        for j, col in enumerate(entries):
            if col:
                cols[j] = set(col)
                for i, x in col.items():
                    if i in rows:
                        rows[i][j] = x
                    else:
                        rows[i] = {j: x}
    else:
        for i, col in enumerate(entries):
            if col:
                rows[i] = dict(col)
                for j in col:
                    if j in cols:
                        cols[j].add(i)
                    else:
                        cols[j] = {i}

    # Units are every nonzero over a field, and 1 and -1 over Z, the one other ring.
    # An entry gets a key when it is made or changes value.  A popped key whose entry
    # is gone or changed value is dropped (the new value has its own key); one whose
    # cost went out of date is pushed again with the current cost.
    settled = None  # the unit count when the Euclid phase began

    def queue(every) -> list:
        """A heap of keys for every entry, or (every false) for the units."""
        heap = [
            (1 if field else abs(x), (len(entries) - 1) * (len(cols[c]) - 1), k, c)
            for k, entries in rows.items()
            for c, x in entries.items()
            if every or x == 1 or x == -1
        ]
        heapify(heap)
        return heap

    def push(ks, cs) -> None:
        """Keys for the entries of rows ks in columns cs, which a pivot made or changed."""
        every = field or settled is not None
        for k in ks:
            entries = rows.get(k)
            if entries is None:
                continue
            fill = len(entries) - 1
            for c in cs:
                x = entries.get(c)
                if x and (every or x == 1 or x == -1):
                    heappush(heap, (1 if field else abs(x), fill * (len(cols[c]) - 1), k, c))

    def row_sub(k, q, pivot) -> None:  # row k -= q * pivot, a row's entries; cols kept in step
        entries, nq = rows[k], neg(q)
        for c, x in pivot.items():
            if c in entries:
                v = add(entries[c], mul(nq, x))
                if v:
                    entries[c] = v
                else:
                    del entries[c]
                    cols[c].discard(k)
            else:  # nq * x is nonzero: a PID has no zero divisors
                entries[c] = mul(nq, x)
                cols[c].add(k)
        if not entries:
            del rows[k]

    def drop_empty(cs) -> None:
        """Drop the columns of cs left empty."""
        for c in cs:
            if c in cols and not cols[c]:
                del cols[c]

    heap = queue(field)
    units, pivots = [], []  # m's columns of the unit pivots; the non-unit diagonal pivots
    while rows:
        if not heap:  # no unit is left, so the ring is Z: the Euclid phase begins
            settled = len(units)
            heap = queue(True)
        size, cost, i, j = heappop(heap)
        pivot = rows.get(i)
        p = pivot.get(j) if pivot is not None else None
        if p is None or not field and abs(p) != size:
            continue
        now = (len(pivot) - 1) * (len(cols[j]) - 1)
        if cost != now:
            heappush(heap, (size, now, i, j))
            continue
        if size == 1:
            del rows[i]
            for c in pivot:
                cols[c].discard(i)
            del pivot[j]
            inv = ring.inv(p) if field else p  # over Z, p is 1 or -1
            touched = cols.pop(j)
            for k in touched:
                row_sub(k, mul(rows[k].pop(j), inv), pivot)  # clears its entry in column j
            drop_empty(pivot)
            push(touched, pivot)  # the entries the row operations made or changed
            units.append(i if transposed else j)
            continue
        ks = [k for k in cols[j] if k != i]
        cs = list(pivot)  # the columns in which the row operations change rows ks
        for k in ks:
            q = _nearest_quotient(rows[k][j], p)
            if q:
                row_sub(k, q, pivot)
        changed = (j,)  # p keeps its value, but its key was popped
        if len(cols[j]) == 1:  # column j is p alone: column operations change row i only
            for c in cs:
                if c != j:
                    v = pivot[c] - _nearest_quotient(pivot[c], p) * p
                    if v:
                        pivot[c] = v
                    else:
                        del pivot[c]
                        cols[c].discard(i)
            if len(pivot) == 1:
                pivots.append(abs(p))
                del rows[i], cols[j]
            changed = cs  # p is the least entry, so every other entry of row i changed
        drop_empty(cs)
        push(ks, cs)
        push((i,), changed)
    for a in range(len(pivots)):
        for b in range(a + 1, len(pivots)):
            g = gcd(pivots[a], pivots[b])
            pivots[a], pivots[b] = g, pivots[a] // g * pivots[b]
    return (ring.one,) * len(units) + tuple(pivots), units if settled is None else units[:settled]


def chain_invariant_factors(boundaries: Sequence[Matrix]) -> list:
    """The invariant factors of each of the boundaries d_0, d_1, ..., d_N of a chain
    complex, in order, each eliminated once without the rows that the unit pivots of
    the one before settle.

    This is the elementary reduction of algebraic Morse theory (Skoldberg, Trans.
    AMS 2006; Mischaikow and Nanda, DCG 2013), its matching read off the
    elimination.  Let A = d_n and B = d_(n+1), so A B = 0, and let the unit phase
    of A's elimination pivot on rows I and columns J (see `_eliminate`), so that
    A[I, J] is invertible.  From A[I, :] B = 0,

        B[J, :] = -A[I, J]^-1 A[I, J^c] B[J^c, :],

    so the rows J of B are ring combinations of its other rows, and B and B[J^c, :]
    have the same invariant factors.  A B = 0 still holds with the rows of A that
    d_(n-1)'s unit columns dropped, so B[J^c, :] d_(n+2) = 0 and the step repeats up
    the complex.  The argument needs d_n d_(n+1) = 0: callers check it on the full
    boundaries (`homology_group`).
    """
    factors, settled = [], ()
    for m in boundaries:
        d, settled = _eliminate(m, settled)
        factors.append(d)
    return factors


def _nearest_quotient(x: int, p: int) -> int:
    """The q with |x - q p| <= |p| / 2: the remainder is as small as it can be."""
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def _echelon(m: Matrix) -> tuple:
    """The columns of m stacked over the identity and column-reduced: [m; I] u == [e; u]
    for an invertible u, with e = m u in column Hermite form (reduced column echelon
    form over a field).  Returns (pivots, columns).

    columns[j] holds the nonzero entries of column j of [e; u], keyed by row (rows
    from m.rows on are u's).  The first rank columns of e are its nonzero ones;
    pivots[j] is the row of the first nonzero entry of column j < rank, and these
    rows ascend.  The u parts of the later columns, themselves in column Hermite
    form, are the canonical basis of ker m.
    """
    require_pid(m.ring)
    one, top = m.ring.one, m.rows
    stacked = [{**col, top + j: one} for j, col in enumerate(m.entries)]
    pivots = _hermite_column_reduce(stacked, m.ring)
    return [p for p in pivots if p < top], stacked


def _hermite_column_reduce(cols: list, ring: Ring) -> list:
    """Canonicalize, in place, a list of linearly independent sparse columns ({row: nonzero}).

    Over Z this is a column-style Hermite normal form (positive pivots, entries
    left of a pivot reduced into [0, pivot)); over a field it is a column reduced
    echelon form.  Column operations only, so the span (the full lattice, over Z)
    is unchanged.  Returns the pivot row of each column; they ascend.
    """
    sub, mul, quo, zero, field = ring.sub, ring.mul, ring.quo, ring.zero, ring.is_field

    def col_sub(cj, ck, q):  # cj -= q * ck
        for h, x in ck.items():
            v = sub(cj.get(h, zero), mul(q, x))
            if v:
                cj[h] = v
            else:
                del cj[h]

    lead = [min(c) for c in cols]  # each column's first row; columns r.. are zero above row i
    pivots = []
    for r in range(len(cols)):
        i = min(lead[r:])
        while True:
            nz = [j for j in range(r, len(cols)) if lead[j] == i]
            best = nz[0] if len(nz) == 1 else min(nz, key=lambda j: (ring.pivot_size(cols[j][i]), j))
            if best != r:
                cols[best], cols[r] = cols[r], cols[best]
                lead[best], lead[r] = lead[r], lead[best]
            if len(nz) == 1:
                break
            pivot = cols[r]
            for j in range(r + 1, len(cols)):
                if lead[j] == i:
                    col_sub(cols[j], pivot, quo(cols[j][i], pivot[i]))
                    lead[j] = min(cols[j])
            if field:
                break
        pivot = cols[r]
        if field:
            u = ring.inv(pivot[i])
            if u != 1:
                for h in pivot:
                    pivot[h] = mul(u, pivot[h])
        elif pivot[i] < 0:
            for h in pivot:
                pivot[h] = -pivot[h]
        for j in range(r):
            x = cols[j].get(i)
            if x:
                q = quo(x, pivot[i])
                if q:
                    col_sub(cols[j], pivot, q)
        pivots.append(i)
    return pivots


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of ker(m) as matrix columns, in column Hermite form.

    Over Z the columns span the full (saturated) kernel lattice: every integer
    kernel vector is an integer combination of the columns.
    """
    pivots, columns = _echelon(m)
    top = m.rows
    kernel = [{h - top: x for h, x in col.items()} for col in columns[len(pivots):]]
    return Matrix.from_columns(m.ring, kernel, m.cols)


def solve_in_lattice(basis: Matrix, target: Sequence):
    """Coefficients c with basis @ c == target, or None.

    Over Z membership means membership in the column lattice.  Dependent
    columns are tolerated (one solution is returned).  The target is reduced
    against the echelon columns pivot by pivot; the coefficients are read off
    their identity parts.
    """
    require_pid(basis.ring)
    ring = basis.ring
    sub, mul, zero = ring.sub, ring.mul, ring.zero
    if len(target) != basis.rows:
        raise ValueError("target length mismatch")
    rest = {i: x for i, x in enumerate(map(ring.coerce, target)) if x}
    pivots, columns = _echelon(basis)
    top = basis.rows
    coeffs = [zero] * basis.cols
    for col, p in zip(columns, pivots):
        x = rest.get(p)
        if not x:
            continue
        z = ring.quo(x, col[p])  # over Z a remainder stays at p and fails the last test
        for h, y in col.items():
            if h < top:
                rest[h] = sub(rest.get(h, zero), mul(z, y))
            else:
                coeffs[h - top] = ring.add(coeffs[h - top], mul(z, y))
    if any(rest.values()):
        return None
    return tuple(coeffs)


@dataclass
class HomologyGroup:
    """One graded piece: free rank plus invariant torsion factors (> 1, ascending)."""

    free_rank: int
    torsion: list = field(default_factory=list)

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def homology_group(boundary_out: Matrix, boundary_in: Matrix, d_out: tuple, d_in: tuple) -> HomologyGroup:
    """ker(boundary_out) / im(boundary_in), from the invariant factors d_out and d_in
    of the two boundaries, once they are checked to compose to zero.  With C_n the
    middle module,

        free rank = dim C_n - rank(boundary_out) - rank(boundary_in)
        torsion   = the invariant factors of boundary_in that are > 1 (none over a field)

    since over a PID C_n / ker(boundary_out) embeds in the free C_(n-1), so the
    kernel is saturated, a direct summand C_n = ker + D, and C_n / im(boundary_in)
    = ker / im + D has the homology's torsion.
    """
    if boundary_out.cols != boundary_in.rows:
        raise CompositionNotZeroError("boundary matrices are not composable")
    if not boundary_out.matmul(boundary_in).is_zero():
        raise CompositionNotZeroError("boundary_out @ boundary_in != 0")
    torsion = [] if boundary_out.ring.is_field else [x for x in d_in if x > 1]
    return HomologyGroup(free_rank=boundary_out.cols - len(d_out) - len(d_in), torsion=torsion)
