"""Independent homology oracle via plain Gaussian elimination over a field.

Deliberately shares no code with the engine (`chain`, `algebra`): regular paths
come from the plain filter `PathComplex.regular_paths`, not the engine's path
codes, and ranks and kernels from textbook row reduction, over Q (`Fraction`) or
over Z/p for a prime p (ints mod p), so the two routes cross-check each other.
Every function takes `p`: None for Q, else the prime p.
"""
from __future__ import annotations

from fractions import Fraction

from .pathcx import PathComplex


class _Field:
    """The scalars of Q (p is None) or of Z/p: coercion, inverses and reduction."""

    def __init__(self, p=None):
        self.p = p

    def __call__(self, x):
        """An int or Fraction as an element of the field."""
        x = Fraction(x)
        if self.p is None:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def norm(self, x):
        """The canonical representative of a sum or product of field elements."""
        return x if self.p is None else x % self.p

    def inv(self, x):
        return 1 / x if self.p is None else pow(x, -1, self.p)


def row_reduce(rows: list, p=None) -> tuple:
    """In-place-free RREF; returns (reduced rows, pivot column list)."""
    field = _Field(p)
    rows = [[field(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.norm(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [field.norm(x - factor * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows: list, p=None) -> int:
    if not rows or not rows[0]:
        return 0
    _, pivots = row_reduce(rows, p)
    return len(pivots)


def kernel_vectors(rows: list, ncols: int, p=None) -> list:
    """A basis of the kernel, over the field, of the matrix given by rows."""
    field = _Field(p)
    if not rows:
        return [[field(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = row_reduce(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field(0)] * ncols
        vec[fc] = field(1)
        for r, pc in enumerate(pivots):
            vec[pc] = field.norm(-reduced[r][fc])
        basis.append(vec)
    return basis


def _omega(pc: PathComplex, max_degree: int, p) -> tuple:
    """(regular paths, boundary rows, Omega bases) for degrees 0..max_degree over the field."""
    field = _Field(p)
    zero = field(0)
    weights = {v: field(w) for v, w in pc.weight_map().items()}
    reg = [pc.regular_paths(n) for n in range(max_degree + 1)]

    def boundary_rows(n):
        """Rows: coefficient vector of d(e_p) over regular (n-1)-paths on V."""
        if n == 0:
            return [{} for _ in reg[0]]
        out = []
        for path in reg[n]:
            coeffs = {}
            for s in range(len(path.vertices)):
                face = path.drop(s)
                if not face.is_regular():
                    continue
                sign = -1 if s % 2 else 1
                coeffs[face] = field.norm(coeffs.get(face, zero) + sign * weights[path.vertices[s]])
            out.append(coeffs)
        return out

    bnd = [boundary_rows(n) for n in range(max_degree + 1)]

    # Omega_n: kernel of the projection of the boundary onto paths outside P
    omega_bases = []
    for n in range(max_degree + 1):
        outside = sorted(
            {q for coeffs in bnd[n] for q in coeffs if q not in pc.paths}
        )
        col_of = {q: i for i, q in enumerate(outside)}
        rows = [[zero] * len(reg[n]) for _ in outside]
        for j, coeffs in enumerate(bnd[n]):
            for q, c in coeffs.items():
                if q in col_of:
                    rows[col_of[q]][j] = c
        omega_bases.append(kernel_vectors(rows, len(reg[n]), p))
    return reg, bnd, omega_bases


def omega_dimensions(pc: PathComplex, max_degree: int, p=None) -> list:
    """dim Omega_n over Q (p None) or Z/p, for n in [0, max_degree]."""
    _, _, omega_bases = _omega(pc, max_degree, p)
    return [len(basis) for basis in omega_bases]


def homology_dimensions(pc: PathComplex, max_degree: int, p=None) -> list:
    """dim H_n over Q (p None) or Z/p, for n in [0, max_degree), by rank-nullity only.

    dim H_n = dim Omega_n - rank(d_n on Omega_n) - rank(d_{n+1} on Omega_{n+1}).
    """
    field = _Field(p)
    reg, bnd, omega_bases = _omega(pc, max_degree, p)

    def boundary_rank(n):
        """Rank of d_n restricted to Omega_n, expressed over regular (n-1)-paths."""
        if n < 1 or n > max_degree or not omega_bases[n]:
            return 0
        col_of = {q: i for i, q in enumerate(reg[n - 1])}
        rows = []
        for gen in omega_bases[n]:
            acc = [field(0)] * len(reg[n - 1])
            for coeff, coeffs in zip(gen, bnd[n]):
                if coeff == 0:
                    continue
                for q, c in coeffs.items():
                    if q in col_of:
                        acc[col_of[q]] = field.norm(acc[col_of[q]] + coeff * c)
            rows.append(acc)
        if not rows or not rows[0]:
            return 0
        return rank(rows, p)

    dims = []
    for n in range(max_degree):
        dims.append(len(omega_bases[n]) - boundary_rank(n) - boundary_rank(n + 1))
    return dims
