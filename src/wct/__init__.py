"""Exact conjugacy structure and weak Cayley table maps.

Covers the 17 wallpaper groups (integer matrices throughout, no floats) and
the semidirect products Z^n x C_p.  Everything closed-form is paired with a
brute-force oracle; the acceptance module wires both sides together.
"""

from .acceptance import run_criterion, run_suite
from .conjugacy import (
    brute_is_conjugate,
    conjugacy_class,
    conjugates_within,
    involution_loci,
    involution_locus,
    is_conjugate,
    kf,
)
from .groups import (
    GROUP_IDS,
    Element,
    GroupTable,
    all_groups,
    element_from_json,
    load_group,
    parse_element,
)
from .lattice import Coset, Sublattice
from .maps import (
    NONTRIVIAL_CATALOG,
    CosetwiseAffineMap,
    catalog,
    decide,
    generator,
    identity_map,
    iota,
    is_wct_on_ball,
    nontriviality_certificate,
    normality_check,
    parse_map_expr,
    random_map,
    wct_invariants,
    wgroup_relations,
)
from .semidirect import (
    SdElement,
    SdGroup,
    SdMap,
    build,
    class_sd,
    is_conjugate_sd,
    p2_candidate,
    phi_for_odd_p,
    sd_invariants,
    verify_sd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
