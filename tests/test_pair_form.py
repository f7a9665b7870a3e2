"""The affine pair form, the certificate that reads it, and the map algebra.

G.pair_form(m, f1, f2) gives both sides of m(g1 g2) ~ m(g1) m(g2) on one
pair of parts as affine functions of the translation parts.  Here it is
held to G.mul and m.apply at sampled points of ball(3), and maps.decide,
which reads it, is held to the probe-based certificate of uniform
conjugators that came before it, kept below verbatim as a reference: the
part pairs the reference labels are exactly the ones decide calls
"uniform", and a proof by the reference is a pass of decide.  compose and
invert build their results without re-validation; they are compared with
the validated construction of the same rules.
"""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest
from law_reference import probe_pairs

from wct import semidirect
from wct.acceptance import P2_THETAS, SD_CASES
from wct.groups import GROUP_IDS, Element, load_group
from wct.lattice import mat_inv_unimodular, matmul, matvec, vadd, vneg
from wct.maps import (
    CosetwiseAffineMap,
    _check_map,
    catalog,
    decide,
    parse_map_expr,
    random_map,
)
from wct.semidirect import SdElement, SdMap, build, verify_sd


def _reference_certificate(G, m) -> dict:
    """The certificate as it was before the pair form: the probe pairs of
    each part pair are multiplied out through G.mul and m.apply."""
    _check_map(G, m)
    pair_report = {}
    for pairs in probe_pairs(G):
        images = [(m.apply(G.mul(g1, g2)), G.mul(m.apply(g1), m.apply(g2)))
                  for g1, g2 in pairs]
        (_, f), (_, h) = images[0]
        found = None
        if all(lhs[1] == f and rhs[1] == h for lhs, rhs in images):
            lat = G.slack[h]
            for label, mat, s in G.conjugators[f, h]:
                if all(lat.contains([y - x - t for x, y, t in zip(matvec(mat, a), b, s)])
                       for (a, _), (b, _) in images):
                    found = label
                    break
        (_, f1), (_, f2) = pairs[0]
        pair_report[f1, f2] = found
        if found is None:
            return {"proven": False, "pairs": pair_report}
    return {"proven": True, "pairs": pair_report}


def _words(G, rnd, count):
    """Seeded words of 1 to 4 catalog atoms, some of them inverted."""
    names = sorted(catalog(G))
    for _ in range(count):
        atoms = [rnd.choice(names) for _ in range(rnd.randint(1, 4))]
        yield parse_map_expr(G, " * ".join(
            f"inv({a})" if rnd.random() < 0.3 else a for a in atoms))


def _unimodular(n, rnd):
    """A seeded n x n unimodular matrix: a few row additions, then a signed
    row permutation."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rnd.randint(0, 4)):
        if n > 1:
            i, j = rnd.sample(range(n), 2)
            c = rnd.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    order = list(range(n))
    rnd.shuffle(order)
    signs = [rnd.choice((-1, 1)) for _ in range(n)]
    return tuple(tuple(sign * x for x in rows[k]) for k, sign in zip(order, signs))


SD_GROUPS = tuple((theta, p) for _, p, theta in SD_CASES) + \
    tuple((theta, 2) for _, theta in P2_THETAS)


def _normalizer(H):
    """theta^j U for the signed permutations U with U theta U^-1 a power of
    theta; they keep im(theta - I), so maps built from them get past the
    first slice pairs, and the ones that do not commute with theta tell
    theta^-k from theta^k."""
    n = H.n
    out = []
    for perm in permutations(range(n)):
        for signs in product((-1, 1), repeat=n):
            U = tuple(tuple(signs[i] * (perm[i] == j) for j in range(n)) for i in range(n))
            if matmul(matmul(U, H.theta), mat_inv_unimodular(U)) in H.powers:
                out += [matmul(power, U) for power in H.powers]
    return out


def _sd_maps(H, rnd, count):
    """Seeded unimodular SdMaps; a third of the slices take a power of theta
    and a third an element of its normalizer, so some of them pass."""
    pools = (H.powers, _normalizer(H))
    for _ in range(count):
        yield SdMap(H, [_unimodular(H.n, rnd) if rnd.random() < 1 / 3
                        else rnd.choice(rnd.choice(pools)) for _ in range(H.p)])


# -- the certificate against its probe-based reference ---------------------------


def _assert_same_certificate(G, m, res=None):
    """The reference labels a part pair exactly when decide calls it
    "uniform", up to the pair where the reference stops."""
    res = decide(G, m) if res is None else res
    want = _reference_certificate(G, m)
    keys = [f"{f1},{f2}" for f1, f2 in want["pairs"]]
    assert list(res["methods"])[:len(keys)] == keys, m
    assert [res["methods"][key] == "uniform" for key in keys] == \
        [label is not None for label in want["pairs"].values()], m
    assert res["ok"] or not want["proven"], m
    return want["proven"]


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_certificate_matches_reference_on_catalog_and_words(gid):
    G = load_group(gid)
    proven = [_assert_same_certificate(G, m) for m in catalog(G).values()]
    assert proven.count(False) == (1 if gid == "p4" else 0)  # conj_rho_on_rho2
    rnd = random.Random(f"pair-form-words:{gid}")
    for m in _words(G, rnd, 30):
        _assert_same_certificate(G, m)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_certificate_matches_reference_on_random_maps(gid):
    G = load_group(gid)
    rnd = random.Random(f"pair-form-random:{gid}")
    for _ in range(30):
        _assert_same_certificate(G, random_map(G, rnd))
    for M in (((0, 1), (1, 0)), ((1, 1), (0, 1)), ((0, -1), (1, 0))):
        # one matrix on every part: a map that gets past the first part
        # pairs whenever M commutes with enough of the point group
        _assert_same_certificate(G, CosetwiseAffineMap(G, {f: (f, M, (0, 0)) for f in G.F}))


@pytest.mark.parametrize("theta,p", SD_GROUPS)
def test_verify_sd_matches_reference(theta, p):
    H = build(theta, p)
    rnd = random.Random(f"pair-form-sd:{p}:{theta}")
    named = semidirect.phi_for_odd_p(H) if p > 2 else semidirect.p2_candidate(H)
    sd_maps = [semidirect.identity_sd_map(H), named] + list(_sd_maps(H, rnd, 150))
    proven = {_assert_same_certificate(H, m, verify_sd(H, m, 1)) for m in sd_maps}
    assert proven == ({True, False} if H.n > 1 else {True})


# -- the pair form itself --------------------------------------------------------


def _affine(c, cols, v):
    return tuple(x + sum(col[i] * y for col, y in zip(cols, v)) for i, x in enumerate(c))


def _assert_pair_form(G, m, make, g1, g2):
    (a1, f1), (a2, f2) = g1, g2
    lf, a0, A, rf, b0, B = G.pair_form(m, f1, f2)
    v = tuple(a1) + tuple(a2)
    assert len(A) == len(B) == len(v)
    assert m.apply(G.mul(g1, g2)) == make(_affine(a0, A, v), lf)
    assert G.mul(m.apply(g1), m.apply(g2)) == make(_affine(b0, B, v), rf)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_pair_form_reproduces_products(gid):
    G = load_group(gid)
    rnd = random.Random(f"pair-form-points:{gid}")
    ball = G.ball(3)
    test_maps = list(catalog(G).values()) + [random_map(G, rnd) for _ in range(10)]
    for m in test_maps:
        for _ in range(20):
            _assert_pair_form(G, m, Element, rnd.choice(ball), rnd.choice(ball))


@pytest.mark.parametrize("theta,p", SD_GROUPS)
def test_semidirect_pair_form_reproduces_products(theta, p):
    H = build(theta, p)
    rnd = random.Random(f"pair-form-sd-points:{p}:{theta}")
    ball = H.ball(3)
    for m in [semidirect.identity_sd_map(H)] + list(_sd_maps(H, rnd, 12)):
        for _ in range(30):
            _assert_pair_form(H, m, SdElement, rnd.choice(ball), rnd.choice(ball))


# -- compose and invert against the validated construction -------------------------


def _validated_compose(G, m1, m2):
    """m1 after m2, built through the checking constructor."""
    rule = {}
    for f in G.F:
        f2, b, t2 = m2.rule[f]
        f1, a, t1 = m1.rule[f2]
        rule[f] = (f1, matmul(a, b), vadd(matvec(a, t2), t1))
    return CosetwiseAffineMap(G, rule)


def _validated_invert(G, m):
    rule = {}
    for f, (f2, mat, t) in m.rule.items():
        inv = mat_inv_unimodular(mat)
        rule[f2] = (f, inv, vneg(matvec(inv, t)))
    return CosetwiseAffineMap(G, rule)


def _assert_same_map(G, got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert list(got.rule) == list(want.rule) == list(G.F)
    assert got.to_json() == want.to_json()
    assert CosetwiseAffineMap(G, got.rule) == got


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_trusted_compose_and_invert_match_validated(gid):
    G = load_group(gid)
    rnd = random.Random(f"pair-form-algebra:{gid}")
    test_maps = list(_words(G, rnd, 12)) + [random_map(G, rnd) for _ in range(12)]
    for m1 in test_maps:
        m2 = rnd.choice(test_maps)
        _assert_same_map(G, m1.compose(m2), _validated_compose(G, m1, m2))
        _assert_same_map(G, m1.invert(), _validated_invert(G, m1))
        conjugated = _validated_compose(G, _validated_invert(G, m2), m1)
        _assert_same_map(G, m1.conjugate_by(m2), _validated_compose(G, conjugated, m2))
