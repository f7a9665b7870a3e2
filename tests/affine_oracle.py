"""Independent oracle: wallpaper elements as exact affine isometries of Q^2.

The representation here is built only from the geometric data of each group
(generator matrices plus half-integer glide shifts), not from the cocycle
tables in wct.groups, so agreement between the two is a real check.  An
element a*f maps to w |-> P w + t with P the inverse of act(f); products are
plain affine composition and decoding back to normal form asserts that the
translation part lands on the right half-integer offset.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from wct.groups import Element, GroupTable

FVec = tuple[Fraction, Fraction]
FMat = tuple[FVec, FVec]

_F0 = Fraction(0)
_F1 = Fraction(1)
_FI: FMat = ((_F1, _F0), (_F0, _F1))
_HALF = Fraction(1, 2)

# glide shifts: translation part of the affine map of the bare generator
_SHIFTS: dict[str, dict[str, FVec]] = {
    "pg": {"gamma": (_HALF, _F0)},
    "p2mg": {"rho": (_F0, _HALF)},
    "p2gg": {"rho": (_F0, _HALF), "gamma": (_HALF, _F0)},
    "p4mg": {"gamma": (_HALF, -_HALF)},
}


class Affine(NamedTuple):
    m: FMat
    t: FVec

    def __call__(self, w: FVec) -> FVec:
        return (
            self.m[0][0] * w[0] + self.m[0][1] * w[1] + self.t[0],
            self.m[1][0] * w[0] + self.m[1][1] * w[1] + self.t[1],
        )

    def compose(self, other: "Affine") -> "Affine":
        """self after other."""
        m = tuple(
            tuple(sum(self.m[i][k] * other.m[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        return Affine(m, self(other.t))

    def invert(self) -> "Affine":
        det = self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]
        inv: FMat = (
            (self.m[1][1] / det, -self.m[0][1] / det),
            (-self.m[1][0] / det, self.m[0][0] / det),
        )
        u = (
            inv[0][0] * self.t[0] + inv[0][1] * self.t[1],
            inv[1][0] * self.t[0] + inv[1][1] * self.t[1],
        )
        return Affine(inv, (-u[0], -u[1]))


def _frac_inv(m) -> FMat:
    a, b = m[0]
    c, d = m[1]
    det = Fraction(a * d - b * c)
    return (
        (Fraction(d) / det, Fraction(-b) / det),
        (Fraction(-c) / det, Fraction(a) / det),
    )


class AffineRep:
    def __init__(self, table: GroupTable):
        self.table = table
        shifts = _SHIFTS.get(table.gid, {})
        # generator maps: P = act(gen)^-1 over Q, t = glide shift
        rho = Affine(_frac_inv(table.act["rho"]), shifts.get("rho", (_F0, _F0))) \
            if "rho" in table.act else Affine(_FI, (_F0, _F0))
        refl = None
        if table.refl is not None:
            refl = Affine(_frac_inv(table.act[table.refl]), shifts.get("gamma", (_F0, _F0)))

        self.part_map: dict[str, Affine] = {}
        for f in table.F:
            k, e = table._part_of[f]
            phi = Affine(_FI, (_F0, _F0))
            for _ in range(k):
                phi = phi.compose(rho)
            if e:
                phi = phi.compose(refl)
            self.part_map[f] = phi
        self.decode_map = {phi.m: (f, phi.t) for f, phi in self.part_map.items()}
        if len(self.decode_map) != len(table.F):
            raise AssertionError(f"point maps not distinct for {table.gid}")

    def encode(self, g: Element) -> Affine:
        phi = self.part_map[g.f]
        return Affine(phi.m, (phi.t[0] + g.a[0], phi.t[1] + g.a[1]))

    def decode(self, phi: Affine) -> Element:
        f, delta = self.decode_map[phi.m]
        a = (phi.t[0] - delta[0], phi.t[1] - delta[1])
        if a[0].denominator != 1 or a[1].denominator != 1:
            raise AssertionError(f"non-integral translation {a} for part {f}")
        return Element((int(a[0]), int(a[1])), f)

    def mul(self, g: Element, h: Element) -> Element:
        return self.decode(self.encode(g).compose(self.encode(h)))

    def inv(self, g: Element) -> Element:
        return self.decode(self.encode(g).invert())

    def conj(self, g: Element, h: Element) -> Element:
        hi = self.encode(h).invert()
        return self.decode(hi.compose(self.encode(g)).compose(self.encode(h)))
