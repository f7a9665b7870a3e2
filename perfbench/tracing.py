"""Layer tracing for the traced benchmark pass, installed from outside the package.

The wct package carries no instrumentation of its own, so this module wraps
its public functions and methods at run time.  Every wrapped call is counted.
A call that crosses a module boundary (its caller sits in another layer, or
is the benchmark itself) is also timed, so each layer's self time is its own
spans minus the spans of the layers it called.  Calls inside one layer are
only counted, which keeps the overhead where the boundaries are.

Module-level copies made by ``from .lattice import matvec`` are patched too:
every wct module global that is bound to a wrapped object is rebound to the
wrapper.  The vector helpers of wct.lattice are patched only outside
wct.lattice, so their count is "called from other modules".
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

LAYERS = ("lattice", "groups", "conjugacy", "maps", "semidirect")

# layer module -> (object path, count name); a dotted path is a class method
TARGETS = {
    "lattice": (
        ("Sublattice.__init__", "hnf_builds"),
        ("Sublattice.contains", "contains_calls"),
        ("Sublattice.reduce", "reduce_calls"),
        ("Sublattice.intersect", "intersect_calls"),
        ("Coset.__init__", "coset_builds"),
        ("Coset.contains", "coset_contains_calls"),
        ("solve_integer", "solve_calls"),
    ),
    "groups": (
        ("GroupTable.__init__", "table_builds"),
        ("GroupTable.mul", "mul_calls"),
        ("GroupTable.inv", "inv_calls"),
        ("GroupTable.conj", "conj_calls"),
        ("GroupTable.power", "power_calls"),
        ("GroupTable.check_element", "check_element_calls"),
        ("GroupTable.ball", "ball_calls"),
        ("GroupTable.word", "word_calls"),
        ("load_group", "load_group_calls"),
        ("parse_element", "parse_element_calls"),
    ),
    "conjugacy": (
        ("is_conjugate", "is_conjugate_calls"),
        ("conjugacy_class", "class_calls"),
        ("conjugates_within", "conjugates_within_calls"),
        ("brute_is_conjugate", "brute_is_conjugate_calls"),
        ("kf", "kf_calls"),
        ("TranslationClass.contains", "class_contains_calls"),
        ("CosetUnionClass.contains", "class_contains_calls"),
        ("involution_loci", "involution_loci_calls"),
    ),
    "maps": (
        ("CosetwiseAffineMap.__init__", "maps_built"),
        ("CosetwiseAffineMap.apply", "apply_calls"),
        ("CosetwiseAffineMap.compose", "compose_calls"),
        ("CosetwiseAffineMap.invert", "invert_calls"),
        ("is_wct_on_ball", "ball_checks"),
        ("nontriviality_certificate", "certificate_calls"),
        ("wct_certificate_symbolic", "symbolic_calls"),
        ("wct_invariants", "invariants_calls"),
        ("parse_map_expr", "parse_calls"),
        ("generator", "generator_calls"),
        ("catalog", "catalog_calls"),
        ("random_map", "random_map_calls"),
        ("homomorphism_failure", "hom_probe_calls"),
        ("antihomomorphism_failure", "antihom_probe_calls"),
        ("wgroup_relations", "relation_suites"),
        ("normality_check", "normality_checks"),
    ),
    "semidirect": (
        ("SdGroup.__init__", "groups_built"),
        ("SdGroup.mul", "mul_calls"),
        ("SdGroup.inv", "inv_calls"),
        ("SdGroup.conj", "conj_calls"),
        ("SdMap.apply", "apply_calls"),
        ("is_conjugate_sd", "is_conjugate_calls"),
        ("brute_is_conjugate_sd", "brute_calls"),
        ("class_sd", "class_calls"),
        ("verify_sd", "verify_calls"),
        ("sd_nontriviality", "nontriviality_calls"),
        ("sd_invariants", "invariants_calls"),
        ("sd_antihomomorphism_failure", "antihom_probe_calls"),
    ),
}

VEC_HELPERS = ("matvec", "vadd", "vsub", "vneg", "matmul", "mat_pow",
               "mat_identity", "mat_inv_unimodular")

# inclusive-time buckets: name -> functions whose spans it sums
INCLUSIVE = {
    "groups.table_build_s": ("groups.table_builds",),
    "conjugacy.oracle_s": ("conjugacy.conjugates_within_calls",
                           "conjugacy.brute_is_conjugate_calls"),
    "maps.certificate_s": ("maps.certificate_calls", "maps.symbolic_calls"),
}


class Tracer:
    """Counts, boundary spans and per-job query statistics for one process."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.jobs: list = []          # (job name, start, end) spans
        self._stack: list = [["bench", 0.0]]
        self._seen_queries: set = set()
        self._bucket = {key: name for name, keys in INCLUSIVE.items() for key in keys}
        self.stats = Counter()        # verdict-level facts read off results

    def end_job(self, name: str, start: float, end: float) -> None:
        """Close one job's span; repeated queries are counted per job."""
        self.jobs.append((name, start, end))
        self._seen_queries = set()

    # -- wrapping --------------------------------------------------------------

    def wrap(self, layer: str, key: str, fn, observe=None):
        counts = self.counts
        stack = self._stack
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        bucket = self._bucket.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            if stack[-1][0] == layer and bucket is None:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, out)
                return out
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                if stack[-1][0] != layer:
                    self_s[layer] += spent - frame[1]
                    stack[-1][1] += spent
                else:
                    # an inclusive bucket re-entered its own layer: the
                    # enclosing frame of this layer already owns the time
                    stack[-1][1] += frame[1]
                if bucket is not None:
                    inclusive_s[bucket] += spent
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    # -- result observers ------------------------------------------------------

    def _observe_is_conjugate(self, args, kwargs, out):
        G, g, h = args
        query = (G.gid, g, h)
        if query in self._seen_queries:
            self.stats["conjugacy.repeat_queries"] += 1
        else:
            self._seen_queries.add(query)
        if out:
            self.stats["conjugacy.true_answers"] += 1

    def _observe_ball_check(self, args, kwargs, out):
        G = args[0]
        radius = args[2] if len(args) > 2 else kwargs["radius"]
        self.stats["maps.ball_pairs"] += ball_pairs_checked(G, radius, out)
        self.stats["maps.ball_passes"] += bool(out["ok"])

    def _observe_verify_sd(self, args, kwargs, out):
        methods = list(out["methods"].values())
        self.stats["semidirect.slice_pairs"] += len(methods)
        self.stats["semidirect.ball_slices"] += sum(1 for m in methods if m == "ball")

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in place, in every loaded wct module."""
        import importlib
        import sys

        observers = {
            "conjugacy.is_conjugate_calls": self._observe_is_conjugate,
            "maps.ball_checks": self._observe_ball_check,
            "semidirect.verify_calls": self._observe_verify_sd,
        }
        wrappers = {}   # id(original function) -> (original, wrapper)
        for layer, targets in TARGETS.items():
            module = importlib.import_module(f"wct.{layer}")
            for path, count in targets:
                key = f"{layer}.{count}"
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
                wrapper = self.wrap(layer, key, original, observers.get(key))
                setattr(owner, attr, wrapper)
                if not owner_name:
                    wrappers[id(original)] = (original, wrapper)
        lattice = sys.modules["wct.lattice"]
        helpers = {}
        for name in VEC_HELPERS:
            original = getattr(lattice, name)
            helpers[id(original)] = (original, self.wrap(
                "lattice", "lattice.vec_helper_calls", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "wct" and not mod_name.startswith("wct."):
                continue
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is None and module is not lattice:
                    hit = helpers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

    # -- report ------------------------------------------------------------------

    def report(self) -> dict:
        out: dict = {}
        for key, n in self.counts.items():
            out[key] = n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        for name in INCLUSIVE:
            out[name] = self.inclusive_s.get(name, 0.0)
        out.update(self.stats)
        return out

    def slowest_jobs(self, n: int = 5) -> list:
        return sorted(([name, end - start] for name, start, end in self.jobs),
                      key=lambda job: -job[1])[:n]


@functools.lru_cache(maxsize=None)
def _cell_index(radius: int) -> dict:
    cells = sorted(
        ((i, j) for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)),
        key=lambda v: (max(abs(v[0]), abs(v[1])), v),
    )
    return {v: i for i, v in enumerate(cells)}


def ball_pairs_checked(G, radius: int, result: dict) -> int:
    """Pairs is_wct_on_ball examined: all of ball x ball, or up to its witness.

    The position of the witness follows GroupTable.ball's documented order
    (cells by max-norm, then lexicographically; parts in G.F order), so the
    count needs no further call into the package.
    """
    cell_index = _cell_index(radius)
    size = len(cell_index) * len(G.F)
    if result["ok"]:
        return size * size
    part_index = {f: i for i, f in enumerate(G.F)}

    def position(w):
        return cell_index[tuple(w["a"])] * len(G.F) + part_index[w["f"]]

    g1, g2 = result["witness"]
    return position(g1) * size + position(g2) + 1
