import heapq
import importlib.util
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wph import algebra
from wph.algebra import (
    MODULUS_BOUND,
    QQ,
    ZZ,
    Matrix,
    Zmod,
    chain_invariant_factors,
    kernel_basis,
    smith_normal_form,
    solve_in_lattice,
)
from wph.chain import build_omega
from wph.digraph import WeightedDigraph, paths_functor
from wph.errors import CompositionNotZeroError, UnsupportedRingError
from wph.pathcx import Vertex

import helpers
from helpers import (
    FIXTURES,
    chain_eliminations,
    dense_columns,
    diagonal_matrix,
    eliminate_with_two_queues,
    find_pivot_by_full_scan,
    homology_of_pair,
    matrix_add,
    matrix_of_columns,
    matrix_sub,
    random_sparse_matrix,
)


def apply(m: Matrix, vec) -> tuple:
    """m times the column vector vec."""
    return dense_columns(m.matmul(Matrix(m.ring, len(vec), 1, tuple((x,) for x in vec))))[0]


def det(m: Matrix) -> Fraction:
    """Determinant by fraction-free style Gaussian elimination (test-only)."""
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.data]
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return d


small_int_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_int_matrices)
def test_snf_reconstruction_over_z(rows):
    m = Matrix.from_rows(ZZ, rows)
    snf = smith_normal_form(m)
    prod = snf.left.matmul(m).matmul(snf.right)
    assert prod == diagonal_matrix(snf, m.rows, m.cols, ZZ)
    assert abs(det(snf.left)) == 1
    assert abs(det(snf.right)) == 1
    for i in range(len(snf.d) - 1):
        assert snf.d[i + 1] % snf.d[i] == 0
    assert all(x > 0 for x in snf.d)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices)
def test_snf_over_q_diagonal_is_unit(rows):
    m = Matrix.from_rows(QQ, [[Fraction(x, 3) for x in row] for row in rows])
    snf = smith_normal_form(m)
    assert all(x == 1 for x in snf.d)
    assert snf.left.matmul(m).matmul(snf.right) == diagonal_matrix(snf, m.rows, m.cols, QQ)


@settings(max_examples=100, deadline=None)
@given(small_int_matrices)
def test_kernel_basis_is_annihilated(rows):
    m = Matrix.from_rows(ZZ, rows)
    k = kernel_basis(m)
    if k.cols:
        assert m.matmul(k).is_zero()
    snf = smith_normal_form(m)
    assert k.cols == m.cols - snf.rank


def test_kernel_is_saturated_over_z():
    # kernel of [2 -2] must contain (1,1), not only (2,2)
    m = Matrix.from_rows(ZZ, [[2, -2]])
    k = kernel_basis(m)
    cols = dense_columns(k)
    assert [1, 1] in [[abs(x) for x in c] for c in cols]


def test_solve_in_lattice_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        basis = Matrix.from_rows(
            ZZ, [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        coeffs = [rng.randint(-3, 3) for _ in range(cols)]
        target = apply(basis, coeffs)
        sol = solve_in_lattice(basis, target)
        assert sol is not None
        assert apply(basis, sol) == target


def test_solve_in_lattice_detects_non_membership():
    basis = Matrix.from_rows(ZZ, [[2], [0]])
    assert solve_in_lattice(basis, [1, 0]) is None
    assert list(solve_in_lattice(basis, [4, 0])) == [2]


def test_composite_modulus_rejected_for_normal_forms():
    ring = Zmod(6)
    assert ring.mul(2, 3) == 0  # arithmetic itself is fine
    m = Matrix.from_rows(ring, [[2]])
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(m)


def test_z_mod_m_reads_a_fraction_as_numerator_times_inverse_denominator():
    assert Zmod(3).coerce(Fraction(1, 2)) == 2
    assert Zmod(7).coerce(Fraction(-3, 4)) == 1  # 4 * 2 = 1 mod 7, so -3/4 = -6 = 1
    assert Zmod(6).coerce(Fraction(10, 1)) == 4
    with pytest.raises(ValueError, match="not invertible"):
        Zmod(6).coerce(Fraction(1, 3))


def test_prime_modulus_accepted():
    ring = Zmod(5)
    m = Matrix.from_rows(ring, [[2, 1], [0, 3]])
    snf = smith_normal_form(m)
    assert snf.rank == 2


def test_primality_agrees_with_trial_division_below_ten_to_the_five():
    sieve = [False, False] + [True] * (10**5 - 2)
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [m for m in range(10**5) if algebra._is_prime(m)] == [m for m in range(10**5) if sieve[m]]


@pytest.mark.parametrize(
    "m, prime",
    [
        (561, False),  # a Carmichael number
        (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
        (318665857834031151167461, False),  # psi_12: a strong pseudoprime to the bases 2..37
        (2**53 - 111, True),
        (2**61 - 1, True),
        (MODULUS_BOUND - 1, False),  # even
    ],
)
def test_primality_on_large_moduli(m, prime):
    assert algebra._is_prime(m) is prime
    assert Zmod(m).is_field is prime


def test_a_modulus_at_the_primality_bound_is_refused():
    with pytest.raises(ValueError, match="below"):
        Zmod(MODULUS_BOUND)


def test_homology_of_pair_circle():
    # chain complex of a directed 3-cycle: C1 = Z^3 -> C0 = Z^3
    d1 = Matrix.from_rows(ZZ, [[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    d2 = Matrix.zeros(ZZ, 3, 0)
    h1 = homology_of_pair(d1, d2)
    assert (h1.free_rank, h1.torsion) == (1, [])


def test_homology_of_pair_torsion():
    # Z --2--> Z gives H0 = Z/2 at the bottom of the pair
    d_out = Matrix.zeros(ZZ, 0, 1)
    d_in = Matrix.from_rows(ZZ, [[2]])
    h = homology_of_pair(d_out, d_in)
    assert (h.free_rank, h.torsion) == (0, [2])


def test_homology_of_pair_requires_zero_composition():
    d_out = Matrix.from_rows(ZZ, [[1]])
    d_in = Matrix.from_rows(ZZ, [[1]])
    with pytest.raises(CompositionNotZeroError):
        homology_of_pair(d_out, d_in)


RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7)}


@settings(max_examples=150, deadline=None)
@given(small_int_matrices, st.sampled_from(sorted(RINGS)))
def test_invariant_factors_equal_the_smith_diagonal(rows, ring_name):
    ring = RINGS[ring_name]
    assert chain_invariant_factors([Matrix.from_rows(ring, rows)])[0] == smith_normal_form(Matrix.from_rows(ring, rows)).d


def test_invariant_factors_keep_the_divisibility_chain():
    assert chain_invariant_factors([Matrix.from_rows(ZZ, [[2, 0], [0, 3]])])[0] == (1, 6)
    h = homology_of_pair(Matrix.zeros(ZZ, 0, 2), Matrix.from_rows(ZZ, [[2, 0], [0, 3]]))
    assert (h.free_rank, h.torsion) == (0, [6])


def test_matrix_add_and_sub_are_entrywise():
    m = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    n = Matrix.from_rows(ZZ, [[5, -1], [0, 2]])
    assert matrix_add(m, n) == Matrix.from_rows(ZZ, [[6, 1], [3, 6]])
    assert matrix_sub(m, n) == Matrix.from_rows(ZZ, [[-4, 3], [3, 2]])
    assert matrix_sub(m, m).is_zero()


@pytest.mark.parametrize("op", [matrix_add, matrix_sub, operator.matmul], ids=["add", "sub", "matmul"])
@pytest.mark.parametrize(
    "right",
    [Matrix.from_rows(ZZ, [[1, 2, 3]]), Matrix.from_rows(QQ, [[1, 2], [3, 4]])],
    ids=["shape", "ring"],
)
def test_matrix_arithmetic_rejects_shape_or_ring_mismatch(op, right):
    left = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="mismatch"):
        op(left, right)


@pytest.mark.parametrize(
    "rows, cols, data",
    [(1, 2, [[1], [2]]), (2, 1, [[1]]), (1, 2, [[1, 2, 3]]), (2, 2, [[1, 2], [3]]), (3, 0, [])],
    ids=["extra-row", "missing-row", "long-row", "short-row", "no-rows"],
)
def test_matrix_rejects_data_of_the_wrong_shape(rows, cols, data):
    # a stray row would be stored past the last row and break the dense view
    with pytest.raises(ValueError, match=f"not {rows} rows of {cols} entries"):
        Matrix(ZZ, rows, cols, data)
    assert Matrix(ZZ, 3, 0, [(), (), ()]).data == ((), (), ())


def plain_matmul(m: Matrix, n: Matrix) -> tuple:
    """The product by the dense triple loop, zeros included."""
    r = m.ring
    out = []
    for i in range(m.rows):
        row = []
        for j in range(n.cols):
            acc = r.zero
            for k in range(m.cols):
                acc = r.add(acc, r.mul(m.data[i][k], n.data[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)



@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matmul_equals_the_plain_triple_loop(data):
    ring = RINGS[data.draw(st.sampled_from(sorted(RINGS)))]
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    if ring == QQ:
        entry = st.builds(Fraction, entry, st.integers(1, 4))

    def matrix(rows, cols):
        if rows == 0:
            return Matrix(ring, 0, cols, ())
        row = st.lists(entry, min_size=cols, max_size=cols)
        return Matrix.from_rows(ring, data.draw(st.lists(row, min_size=rows, max_size=rows)))

    left, right = matrix(n, k), matrix(k, m)
    if n and k and m and data.draw(st.booleans()):  # a zero row of left and a zero column of right
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        left = Matrix.from_rows(ring, [[0] * k if r == i else row for r, row in enumerate(left.data)])
        right = Matrix.from_rows(ring, [[0 if c == j else x for c, x in enumerate(row)] for row in right.data])
    product = left.matmul(right)
    assert (product.rows, product.cols) == (n, m)
    assert product.data == plain_matmul(left, right)
    assert all(isinstance(x, type(ring.zero)) for row in product.data for x in row)


def reference_hermite(cols: list, nrows: int, ring) -> list:
    """Column Hermite form (reduced column echelon form over a field), by whole-column operations."""
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


def smith_kernel_basis(m: Matrix) -> Matrix:
    """The kernel by the Smith route: the right transform's columns past the rank, in
    column Hermite form.  The route before the stacked echelon."""
    if m.rows == 0:
        return Matrix.identity(m.ring, m.cols)
    snf = smith_normal_form(m)
    cols = dense_columns(snf.right)[snf.rank:]
    return matrix_of_columns(m.ring, reference_hermite(cols, m.cols, m.ring), m.cols)


def smith_solve_in_lattice(basis: Matrix, target):
    """The lattice solve by the Smith route: left transform, divide by the diagonal,
    right transform.  The route before the stacked echelon."""
    ring = basis.ring
    if basis.cols == 0:
        return () if all(x == ring.zero for x in target) else None
    snf = smith_normal_form(basis)
    y = apply(snf.left, target)
    z = [ring.zero] * basis.cols
    for i, di in enumerate(snf.d):
        if not ring.is_field and y[i] % di:
            return None
        z[i] = ring.quo(y[i], di)
    if any(y[snf.rank:]):
        return None
    return apply(snf.right, z)


SPARSE_RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7), "Z2": Zmod(2)}


@st.composite
def sparse_matrices(draw, max_dim: int = 5, unit_free: bool = False):
    """Mostly zero matrices with unit and non-unit entries, any shape down to 0 x 0.

    With unit_free, integer matrices whose entries are 0, +-2, +-3, 4 and 6: no
    entry is a unit, so their elimination starts with the Euclid phase."""
    ring = ZZ if unit_free else SPARSE_RINGS[draw(st.sampled_from(sorted(SPARSE_RINGS)))]
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entry = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6] if unit_free else [0, 0, 0, 0, 1, -1, 2, -3, 6])
    if ring == QQ:
        entry = st.builds(Fraction, entry, st.sampled_from([1, 2, 3]))
    data = [[ring.coerce(x) for x in draw(st.lists(entry, min_size=cols, max_size=cols))] for _ in range(rows)]
    if rows and cols and draw(st.booleans()):  # a zero row and a zero column
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        data = [[ring.zero if r == i or c == j else x for c, x in enumerate(row)] for r, row in enumerate(data)]
    return Matrix(ring, rows, cols, tuple(map(tuple, data)))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_equals_the_smith_route(m):
    k, want = kernel_basis(m), smith_kernel_basis(m)
    assert (k.rows, k.cols, k.data) == (want.rows, want.cols, want.data)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.data())
def test_solve_in_lattice_agrees_with_the_smith_route(basis, data):
    ring = basis.ring
    entry = st.sampled_from([0, 0, 1, -1, 2, 3])
    if data.draw(st.booleans()):  # a lattice member
        target = apply(basis, [ring.coerce(x) for x in data.draw(st.lists(entry, min_size=basis.cols, max_size=basis.cols))])
    else:
        target = tuple(ring.coerce(x) for x in data.draw(st.lists(entry, min_size=basis.rows, max_size=basis.rows)))
    sol, want = solve_in_lattice(basis, target), smith_solve_in_lattice(basis, target)
    assert (sol is None) == (want is None)
    if sol is not None:
        assert len(sol) == basis.cols
        assert apply(basis, sol) == target


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(max_dim=7))
def test_invariant_factors_equal_the_smith_diagonal_on_sparse_matrices(m):
    assert chain_invariant_factors([m])[0] == smith_normal_form(m).d


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(max_dim=7, unit_free=True))
def test_invariant_factors_equal_the_smith_diagonal_without_units(m):
    assert chain_invariant_factors([m])[0] == smith_normal_form(m).d


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_rows_that_unit_pivots_settle_leave_the_invariant_factors_as_they_are(data):
    # A B = 0, so the rows of B at A's unit columns are combinations of B's other rows
    unit_free = data.draw(st.booleans())
    a = data.draw(sparse_matrices(max_dim=7, unit_free=unit_free))
    ring = a.ring
    ker = kernel_basis(a)
    entry = st.sampled_from([0, 0, 1, -1, 2, -3, 4] if ring != QQ else [0, 1, -1, Fraction(1, 2), 3])
    c = Matrix(ring, ker.cols, 4, [[ring.coerce(x) for x in data.draw(st.lists(entry, min_size=4, max_size=4))] for _ in range(ker.cols)])
    b = ker @ c
    assert (a @ b).is_zero()
    factors, settled = algebra._eliminate(a)
    assert factors == chain_invariant_factors([a])[0] and len(settled) <= len(factors)
    assert algebra._eliminate(b, settled)[0] == chain_invariant_factors([b])[0] == smith_normal_form(b).d


def test_one_queue_elimination_equals_the_two_queue_reference_on_random_matrices():
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(1000):
            m, skip = random_sparse_matrix(rng)
            assert algebra._eliminate(m, skip) == eliminate_with_two_queues(m, skip), (seed, m, skip)


def counting_heap_calls(monkeypatch, module) -> dict:
    """Count the heappush and heappop calls that `module` makes, and the keys it heapifies,
    from now on."""
    counts = {"push": 0, "pop": 0, "heapify": 0}

    def push(heap, key):
        counts["push"] += 1
        heapq.heappush(heap, key)

    def pop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    def heapify(heap):
        counts["heapify"] += len(heap)
        heapq.heapify(heap)

    monkeypatch.setattr(module, "heappush", push)
    monkeypatch.setattr(module, "heappop", pop)
    monkeypatch.setattr(module, "heapify", heapify)
    return counts


def ladder_boundaries() -> list:
    """(rung name, its boundaries d_0 .. d_L) for each rung of scripts/ladder.py."""
    spec = importlib.util.spec_from_file_location("ladder", FIXTURES.parent / "scripts" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    out = []
    for name, paths, length in ladder.RUNGS:
        om = build_omega(paths(length), length)
        out.append((name, [om.boundary(n) for n in range(length + 1)]))
    return out


def test_one_queue_elimination_pushes_what_the_reference_pushes_on_every_ladder_rung(monkeypatch):
    ours, reference = counting_heap_calls(monkeypatch, algebra), counting_heap_calls(monkeypatch, helpers)
    for name, boundaries in ladder_boundaries():
        for counts in (ours, reference):
            counts.update(push=0, pop=0, heapify=0)
        got = chain_eliminations(algebra._eliminate, boundaries)
        assert got == chain_eliminations(eliminate_with_two_queues, boundaries), name
        assert ours["push"] == reference["push"] and ours["heapify"] == reference["heapify"], (name, ours, reference)
        assert ours["pop"] <= reference["pop"], (name, ours, reference)


def test_the_elimination_stops_with_its_last_row(monkeypatch):
    # K4 L3 Z has no Euclid step, and its pivots neither make nor change a unit entry nor
    # leave a key out of date: the 105 keys of the first queue are all it gets, and a queue
    # drained of its stale keys would pop them all
    vs = [Vertex(s) for s in "abcd"]
    k4 = WeightedDigraph.build(vs, [(x, y) for x in vs for y in vs if x != y], dict(zip(vs, [1, 2, 3, 4])), ZZ)
    om = build_omega(paths_functor(k4, 3), 3)
    counts = counting_heap_calls(monkeypatch, algebra)
    assert [len(d) for d in om.invariant_factors] == [0, 3, 9, 27]
    assert counts == {"push": 0, "pop": 44, "heapify": 105}


def test_the_smith_pivot_scan_stops_at_a_least_size_and_changes_nothing(monkeypatch):
    # over Z and Z/m the scan returns at the first entry of pivot size 1, which is the first
    # least one in row-major order, so d, left and right equal those of the full scan
    rng = random.Random(31)
    matrices = [random_sparse_matrix(rng, max_dim=12)[0] for _ in range(300)]
    assert {m.ring for m in matrices} == {ZZ, QQ, Zmod(7), Zmod(2)}
    early = [smith_normal_form(m) for m in matrices]
    monkeypatch.setattr(algebra, "_find_pivot", find_pivot_by_full_scan)
    assert [smith_normal_form(m) for m in matrices] == early


def settled_columns_have_unit_factors(m: Matrix, skip) -> bool:
    """Whether the columns J of m that `_eliminate(m, skip)` settles, without the rows in
    skip, have |J| unit invariant factors, by `smith_normal_form`."""
    settled = algebra._eliminate(m, skip)[1]
    keep = {i: r for r, i in enumerate(i for i in range(m.rows) if i not in skip)}
    columns = [{keep[i]: x for i, x in m.entries[j].items() if i in keep} for j in settled]
    return smith_normal_form(Matrix.from_columns(m.ring, columns, len(keep))).d == (m.ring.one,) * len(settled)


def test_the_settled_columns_have_unit_factors_whatever_the_pivot_order():
    # chain_invariant_factors drops the next boundary's rows J because m[I, J] is invertible
    # for the unit pivots' rows I; then m[:, J] has |J| unit invariant factors, which no
    # pivot order changes
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(500):
            m, skip = random_sparse_matrix(rng)
            assert settled_columns_have_unit_factors(m, skip), (seed, m, skip)
    for name, boundaries in ladder_boundaries():
        settled = ()
        for n, m in enumerate(boundaries):
            assert settled_columns_have_unit_factors(m, set(settled)), (name, n)
            settled = algebra._eliminate(m, settled)[1]
