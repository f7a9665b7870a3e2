"""Sublattice arithmetic against brute-force enumeration."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wct.lattice import (
    Coset,
    Sublattice,
    mat_identity,
    mat_inv_unimodular,
    matmul,
    matvec,
    solve_integer,
    vadd,
    vneg,
    vsub,
)


def brute_members(lat: Sublattice, bound: int, coeff: int = 24) -> set:
    """All lattice vectors with max-norm <= bound, by coefficient sweep."""
    gens = lat.rows
    if not gens:
        return {(0,) * lat.dim}
    out = set()
    for coeffs in itertools.product(range(-coeff, coeff + 1), repeat=len(gens)):
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(lat.dim))
        if all(abs(t) <= bound for t in v):
            out.add(v)
    return out


def random_lattice(rnd: random.Random, max_gens: int = 3) -> Sublattice:
    gens = [
        tuple(rnd.randint(-4, 4) for _ in range(2))
        for _ in range(rnd.randint(0, max_gens))
    ]
    return Sublattice(2, gens)


def unimodular_pair(rnd: random.Random, dim: int):
    """A random unimodular U built from elementary column moves, and U^-1
    built alongside from the inverse row moves."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    u_inv = [row[:] for row in u]
    for _ in range(8 if dim > 1 else 0):
        i, j = rnd.sample(range(dim), 2)
        t = rnd.choice((-2, -1, 1, 2))
        for row in u:  # U <- U (I + t e_i e_j^T)
            row[j] += t * row[i]
        u_inv[i] = [a - t * b for a, b in zip(u_inv[i], u_inv[j])]
    k = rnd.randrange(dim)
    for row in u:  # and one sign flip
        row[k] = -row[k]
    u_inv[k] = [-a for a in u_inv[k]]
    return u, u_inv


def smith_lattice(rnd: random.Random, dim: int, rank: int):
    """A random L = U diag(d) Z^rank in Z^dim, its generators and a membership test.

    v lies in L exactly when w = U^-1 v has w_k divisible by d_k for k < rank
    and w_k = 0 beyond, which shares no code with the HNF.  The generators are
    the columns d_k U e_k in a shuffled order, with a redundant sum and
    multiple mixed in.
    """
    u, u_inv = unimodular_pair(rnd, dim)
    d = [rnd.randint(1, 3) for _ in range(rank)]
    gens = [tuple(d[c] * u[i][c] for i in range(dim)) for c in range(rank)]
    if gens:
        a, b = rnd.choice(gens), rnd.choice(gens)
        gens += [tuple(x + y for x, y in zip(a, b)), tuple(-2 * x for x in a)]
    rnd.shuffle(gens)

    def member(v) -> bool:
        w = [sum(u_inv[i][j] * v[j] for j in range(dim)) for i in range(dim)]
        return all(w[c] % d[c] == 0 for c in range(rank)) and not any(w[rank:])

    return Sublattice(dim, gens), gens, member


def nd_cases(seed: int, per_rank: int = 3):
    """(dim, rank, lattice, generators, member) for dims 1-4 and every rank 0..dim."""
    rnd = random.Random(seed)
    for dim in range(1, 5):
        for rank in range(dim + 1):
            for _ in range(per_rank):
                yield (dim, rank, *smith_lattice(rnd, dim, rank))


def test_known_kernels():
    # ker(act(rho^2) - I) for the sixfold rotation, and its cube counterpart
    k2 = Sublattice(2, [(-2, 1), (1, 1)])
    assert k2.rows == ((1, 1), (0, 3))
    assert k2.index() == 3
    assert k2.contains((3, 0)) and k2.contains((-2, 1))
    assert not k2.contains((1, 0))

    k3 = Sublattice(2, [(2, 0), (0, 2)])
    assert k3.index() == 4
    meet = k2.intersect(k3)
    assert meet == Sublattice(2, [(2, 2), (2, -4)])
    assert meet.rows == ((2, 2), (0, 6))
    assert meet.index() == 12


def test_zero_and_full():
    z = Sublattice.zero(2)
    assert z.rank == 0 and z.index() is None
    assert z.contains((0, 0)) and not z.contains((1, 0))
    full = Sublattice.full(2)
    assert full.index() == 1
    assert full.contains((-7, 13))
    assert z.intersect(full) == z
    assert full.intersect(full) == full


def test_generator_redundancy():
    a = Sublattice(2, [(1, 2), (3, 4)])
    b = Sublattice(2, [(1, 2), (3, 4), (4, 6), (-2, -4)])
    assert a == b
    assert hash(a) == hash(b)


def test_membership_vs_brute():
    rnd = random.Random(2024)
    for _ in range(60):
        lat = random_lattice(rnd)
        members = brute_members(lat, 6)
        for v in itertools.product(range(-6, 7), repeat=2):
            assert lat.contains(v) == (v in members), (lat.rows, v)
    # Z^1 to Z^4 at every rank; a list argument is left as it was and gets
    # the tuple's answer
    for dim, rank, lat, gens, member in nd_cases(2024):
        assert lat.rank == rank
        box = range(-3, 4) if dim < 4 else range(-2, 3)
        combos = [tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(dim))
                  for cs in itertools.product(range(-2, 3), repeat=len(gens[:3]))]
        for v in itertools.chain(itertools.product(box, repeat=dim), combos):
            w = list(v)
            assert lat.contains(v) == lat.contains(w) == member(v), (lat.rows, v)
            assert w == list(v)


def test_intersection_vs_brute():
    rnd = random.Random(99)
    for _ in range(60):
        a, b = random_lattice(rnd), random_lattice(rnd)
        meet = a.intersect(b)
        both = brute_members(a, 6) & brute_members(b, 6)
        mine = {v for v in itertools.product(range(-6, 7), repeat=2) if meet.contains(v)}
        assert mine == both, (a.rows, b.rows)


def test_intersection_contained_in_both():
    rnd = random.Random(5)
    for _ in range(100):
        a, b = random_lattice(rnd), random_lattice(rnd)
        meet = a.intersect(b)
        for g in meet.rows:
            assert a.contains(g) and b.contains(g)


def test_reduce_canonical():
    rnd = random.Random(31)
    for _ in range(100):
        lat = random_lattice(rnd)
        v = (rnd.randint(-30, 30), rnd.randint(-30, 30))
        r = lat.reduce(v)
        assert lat.contains((v[0] - r[0], v[1] - r[1]))
        assert lat.reduce(r) == r
        for g in lat.rows:
            assert lat.reduce(vadd(v, g)) == r
    # Z^1 to Z^4 at every rank: r = reduce(v) is congruent to v, its pivot
    # coordinates lie in [0, pivot), and every vector of v + L reduces to it
    for dim, _, lat, gens, member in nd_cases(31):
        for _ in range(12):
            v = tuple(rnd.randint(-30, 30) for _ in range(dim))
            w = list(v)
            r = lat.reduce(w)
            assert w == list(v) and type(r) is tuple and r == lat.reduce(v)
            assert member(vsub(v, r)), (lat.rows, v, r)
            assert lat.reduce(r) == r
            for row in lat.rows:
                c = next(j for j in range(dim) if row[j])
                assert 0 <= r[c] < row[c]
            for g in gens + list(lat.rows):
                assert lat.reduce(vadd(v, g)) == lat.reduce(vsub(v, g)) == r


def test_coset_identity():
    lat = Sublattice(2, [(2, 0), (0, 3)])
    assert Coset((5, 7), lat) == Coset((1, 1), lat)
    assert Coset((5, 7), lat).contains((1, 1))
    assert Coset((1, 1), lat) != Coset((0, 1), lat)
    assert Coset((1, 1), lat).to_json() == {"offset": [1, 1], "lattice": [[2, 0], [0, 3]]}


def test_solve_integer():
    # unique solution
    m = ((2, 1), (1, 1))
    sol = solve_integer(m, (3, 2))
    assert sol is not None
    part, ker = sol
    assert matvec(m, part) == (3, 2) and ker == ()

    # singular with solutions: x + y even
    m2 = ((1, 1), (1, 1))
    sol2 = solve_integer(m2, (4, 4))
    assert sol2 is not None
    part2, ker2 = sol2
    assert matvec(m2, part2) == (4, 4)
    assert len(ker2) == 1 and matvec(m2, ker2[0]) == (0, 0)

    # no integer solution
    assert solve_integer(((2, 0), (0, 2)), (1, 0)) is None
    # no real solution
    assert solve_integer(m2, (1, 0)) is None
    # zero matrix
    assert solve_integer(((0, 0), (0, 0)), (0, 0)) is not None
    assert solve_integer(((0, 0), (0, 0)), (1, 0)) is None


def test_solve_integer_randomised():
    rnd = random.Random(7)
    for _ in range(200):
        m = tuple(tuple(rnd.randint(-3, 3) for _ in range(2)) for _ in range(2))
        x = (rnd.randint(-5, 5), rnd.randint(-5, 5))
        b = matvec(m, x)
        sol = solve_integer(m, b)
        assert sol is not None
        part, ker = sol
        assert matvec(m, part) == b
        for k in ker:
            assert matvec(m, k) == (0, 0)


def test_dense_helpers_vs_loops():
    rnd = random.Random(13)
    for _ in range(100):
        rows, inner, cols = (rnd.randint(1, 4) for _ in range(3))
        a = tuple(tuple(rnd.randint(-5, 5) for _ in range(inner)) for _ in range(rows))
        b = tuple(tuple(rnd.randint(-5, 5) for _ in range(cols)) for _ in range(inner))
        u = [rnd.randint(-9, 9) for _ in range(inner)]
        v = [rnd.randint(-9, 9) for _ in range(inner)]
        prod = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for k in range(inner):
                    prod[i][j] += a[i][k] * b[k][j]
        assert matmul(a, b) == tuple(map(tuple, prod))
        image = [0] * rows
        for i in range(rows):
            for k in range(inner):
                image[i] += a[i][k] * u[k]
        assert matvec(a, u) == tuple(image)
        assert vadd(u, v) == tuple(u[i] + v[i] for i in range(inner))
        assert vsub(u, v) == tuple(u[i] - v[i] for i in range(inner))
        assert vneg(u) == tuple(-u[i] for i in range(inner))


def test_unimodular_inverse():
    rnd = random.Random(11)
    count = 0
    while count < 50:
        m = tuple(tuple(rnd.randint(-3, 3) for _ in range(2)) for _ in range(2))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det not in (1, -1):
            continue
        count += 1
        assert matmul(m, mat_inv_unimodular(m)) == mat_identity(2)
    for dim in (1, 3, 4):  # the general branch, which solves for each column
        for _ in range(10):
            u, u_inv = unimodular_pair(rnd, dim)
            assert mat_inv_unimodular(tuple(map(tuple, u))) == tuple(map(tuple, u_inv))


vec2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(deadline=None, max_examples=150)
@given(st.lists(vec2, max_size=4), st.lists(vec2, max_size=4))
def test_generating_set_invariance(gens_a, extra):
    lat = Sublattice(2, gens_a)
    # adding integer combinations of existing generators changes nothing
    combos = [vadd(g, h) for g in gens_a for h in gens_a]
    assert Sublattice(2, gens_a + combos) == lat
    # adding genuinely new vectors can only grow the lattice
    grown = Sublattice(2, gens_a + extra)
    for g in lat.rows:
        assert grown.contains(g)


@st.composite
def lattice_and_two_vectors(draw):
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-6, 6)] * dim)
    return dim, draw(st.lists(vec, max_size=dim + 1)), draw(vec), draw(vec)


@settings(deadline=None, max_examples=300)
@given(lattice_and_two_vectors())
def test_coset_reduce_consistency(case):
    dim, gens, v, w = case
    lat = Sublattice(dim, gens)
    coset = Coset(v, lat)
    # the definition Coset.contains had before it compared reductions
    assert coset.contains(w) == lat.contains(vsub(w, coset.offset)) == lat.contains(vsub(v, w))
