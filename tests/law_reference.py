"""Reference for the map laws: probe pairs multiplied out through G.mul and m.apply.

For one pair of parts (cosets A*f, or k-slices of Z^n x C_p), both sides of
m(g1 g2) = m(g1) m(g2), and of m(g1 g2) = m(g2) m(g1), are affine in the
translation parts of g1 and g2 together.  So the probe pairs (o, o),
(e_i, o) and (o, e_j) decide either law on the whole pair.  This is how
maps.homomorphism_failure and antihomomorphism_failure decided the laws
before they read G.pair_form; the tests hold them to it.
"""

from __future__ import annotations


def probe_pairs(G):
    """Per pair of parts, in G.F order: the probe pairs (o, o), then
    (e_i, o) and (o, e_j) for each axis."""
    make, n = type(G.identity), len(G.identity[0])
    o = (0,) * n
    steps = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for f1 in G.F:
        for f2 in G.F:
            yield ([(make(o, f1), make(o, f2))]
                   + [(make(e, f1), make(o, f2)) for e in steps]
                   + [(make(o, f1), make(e, f2)) for e in steps])


def probe_failure(G, m, anti: bool):
    """First probe pair with m(g1 g2) != m(g1) m(g2), or != m(g2) m(g1) when
    anti is set; None when every probe holds."""
    for pairs in probe_pairs(G):
        for g1, g2 in pairs:
            m1, m2 = m.apply(g1), m.apply(g2)
            if m.apply(G.mul(g1, g2)) != (G.mul(m2, m1) if anti else G.mul(m1, m2)):
                return g1, g2
    return None
