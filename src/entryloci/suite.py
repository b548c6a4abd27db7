"""Verification suite: one check per acceptance contract, runnable standalone
or through the CLI.

Every check is a pure function of (field, master seed, Groebner limits).
Its ``CHECKS`` entry takes (field, seed, budget) and sets ``budget`` as the
limits for that check and seed; the runner passes ``RunConfig.budget()``,
so every check runs under the same limits.  They hold per Groebner run and
key the two process-wide stores of results: Groebner bases
(``ideals.groebner_basis``) and catalog varieties
(``catalog.build_catalog_variety``).  A classification is kept on the
variety it classifies (``classified``), so it is keyed as that variety
is.  The runner executes each check on 5 consecutive master seeds and
requires at least 4 passes (all expected values are exact, so a failure
means a wrong value, a degenerate random instance, or a blown budget).
Reports record, per seed: claim, expected, computed, status, timing, field
and seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import lru_cache

from . import __version__
from .catalog import build_catalog_variety, catalog_entry_meta
from .entry_locus import classify_entry_locus
from .geometry import (
    ProjectivePoint,
    ProjectiveVariety,
    ambient_ring,
    apply_linear_substitution,
    random_invertible_matrix,
    random_point,
    slice_by_span,
)
from .kernel.errors import BudgetExceededError, CoefficientError, DegenerateInputError, KernelError
from .kernel.factor import absolute_factor_count, absolute_factor_degrees
from .kernel.fields import PrimeField, field_from_descriptor, next_prime
from .kernel.groebner import Budget, limits
from .kernel.hilbert import hilbert_invariants
from .kernel.ideals import (
    Ideal,
    eliminate,
    groebner_basis,
    ideal_contains,
    irrelevant_saturate,
    radical_membership,
    same_ideal,
    saturate,
    verify_groebner_basis,
)
from .kernel.linalg import rank
from .kernel.orders import GREVLEX
from .kernel.poly import RingContext
from .kernel.rng import random_coords, random_scalar, seeded_rng
from .rank_secant import secant_dims, two_decompositions
from .segre import pair_segre_test, segre_count_elliptic_quartic


@dataclass
class RunConfig:
    field_desc: str = "fp:auto"
    seed: int = 1
    max_pairs: int = 200_000
    max_seconds: float | None = None  # wall clock per Groebner run

    def budget(self) -> Budget:
        return Budget(max_pairs=self.max_pairs, max_seconds=self.max_seconds)


# each seeded random choice (base point, chart, projection, slice) is
# degenerate with probability <= deg/p: smaller primes give wrong invariants
MIN_PRIME = 2**16


@lru_cache(maxsize=256)
def resolve_field(field_desc: str, seed: int):
    """Q, a fixed prime field (p >= MIN_PRIME), or a seeded random prime near 2^31 (fp:auto).

    A pure function of its arguments, memoized: each (descriptor, seed)
    runs ``next_prime`` once.  A descriptor that raises is not kept."""
    desc = field_desc.strip().lower()
    if desc == "fp:auto":
        rng = seeded_rng(("fp-auto", seed))
        return PrimeField(next_prime(2**31 + rng.randrange(2**22)))
    field = field_from_descriptor(field_desc)
    if isinstance(field, PrimeField) and field.p < MIN_PRIME:
        raise CoefficientError(f"prime {field.p} is below the minimum 2^16 = {MIN_PRIME}")
    return field


@dataclass
class CheckRecord:
    check_id: str
    claim: str
    seed: int
    field: str
    status: str  # pass | fail | budget-exceeded | error
    expected: object
    computed: object
    timing_s: float
    note: str = ""


@dataclass
class SuiteReport:
    config: dict
    records: list  # CheckRecord
    summary: dict
    version: str = __version__

    def as_dict(self):
        return asdict(self)


# -- shared helpers -------------------------------------------------------------


def classified(key: str, seed: int, field, ab_trials: int = 3):
    """The catalog variety (key, seed, field) under the current limits, and
    its entry-locus report; the report is kept on that variety, keyed by
    ``ab_trials``, so it lives exactly as long as the kept variety.  A
    classification that raises keeps nothing."""
    var = build_catalog_variety(key, seed, field)
    rep = var.reports.get(ab_trials)
    if rep is None:
        rep = var.reports[ab_trials] = classify_entry_locus(var, seed, ab_trials=ab_trials)
    return var, rep


def is_cone_with_vertex(ideal: Ideal, i: int) -> bool:
    """Whether V(I) is a cone with vertex e_i, as a set.

    g(p + t e_i) = sum_k t^k / k! * (d/dx_i)^k g (p), so V(I) is a union of
    lines through e_i exactly when every x_i-derivative of every generator
    vanishes on V(I), that is, lies in rad(I).
    """
    for g in ideal.gens:
        d = g.derivative(i)
        while not d.is_zero():
            if not radical_membership(d, ideal):
                return False
            d = d.derivative(i)
    return True


def is_hyperplane_section(X: ProjectiveVariety, locus: Ideal, row) -> bool:
    """Whether the saturated ``locus`` is the scheme X cut by the hyperplane
    sum_i row[i] * x_i = 0: both ideals saturated, so compared as ideals."""
    section = Ideal.of(X.ring, list(X.ideal.gens) + [X.ring.linear_form(row)])
    return same_ideal(irrelevant_saturate(section), locus)


def report_fields(rep, keys):
    d = rep.as_dict()
    return {k: d[k] for k in keys}


# -- individual checks -----------------------------------------------------------


def check_scroll(field, seed: int):
    expected = {
        "gamma": 1,
        "ell": 2,
        "reduced_degree": 2,
        "component_count": 1,
        "type_irreducibility": "I",
        "type_ab": "A",
    }
    _, rep = classified("scroll12", seed, field)
    computed = report_fields(rep, expected.keys())
    return expected, computed, computed == expected


def check_cone(field, seed: int):
    expected = {
        "reduced_degree": 2,
        "component_count": 2,
        "type_irreducibility": "II",
        "vertex_on_all_components": True,
    }
    _, rep = classified("cone_twisted_cubic", seed, field)
    computed = report_fields(rep, ("reduced_degree", "component_count", "type_irreducibility"))
    # the catalog cone has its vertex at e_4; each component of a cone is a cone
    computed["vertex_on_all_components"] = is_cone_with_vertex(rep.locus, 4)
    return expected, computed, computed == expected


def check_veronese_projection(field, seed: int):
    expected = {
        "reduced_degree": 6,
        "component_count": 3,
        "type_irreducibility": "II",
        "component_degrees": [2, 2, 2],
    }
    var, rep = classified("veronese_proj4", seed, field)
    computed = report_fields(rep, ("reduced_degree", "component_count", "type_irreducibility"))
    model = rep.plane_model
    rng = seeded_rng(("veronese-degrees", seed))
    computed["component_degrees"] = None if model is None else absolute_factor_degrees(model, rng)
    return expected, computed, computed == expected


def check_delpezzo(field, seed: int):
    expected = {
        "reduced_degree": 4,
        "component_count": 1,
        "ell": 3,
        "slice_matches_hyperplane_section": True,
        "segre_count": 4,
        "vertices_verified": True,
    }
    var, rep = classified("delpezzo4", seed, field)
    computed = report_fields(rep, ("reduced_degree", "component_count", "ell"))
    locus = rep.locus
    span_rows = rep.span_rows
    computed["slice_matches_hyperplane_section"] = len(span_rows) == 1 and is_hyperplane_section(
        var, locus, span_rows[0]
    )

    # the entry-locus curve in its own hyperplane carries a quadric pencil
    abstract = slice_by_span(locus, span_rows) if len(span_rows) == 1 else None
    seg_count = None
    if abstract is not None:
        curve = ProjectiveVariety(3, abstract, None, {"name": "entry_locus_curve", "key": "entry_locus_curve", "d": 4})
        try:
            seg_count, _ = segre_count_elliptic_quartic(curve, seed, want_vertices=False)
        except DegenerateInputError:
            seg_count = None
    computed["segre_count"] = seg_count

    # explicit vertices, on an elliptic quartic whose pencil splits
    computed["vertices_verified"] = _vertices_roundtrip(field, seed)
    return expected, computed, computed == expected


def split_elliptic_quartic(field, seed: int):
    """An elliptic quartic in P^3 whose quadric pencil splits over ``field``,
    and the matrix that moved it there.

    Over F_p a smooth pencil with four rational singular members is diagonal
    in the frame of its vertices, so a split quartic is cut out by
    sum x_i^2 and sum l_i * x_i^2 (four distinct l_i) in some frame.  The
    member sum (l_i - l_j) * x_i^2 has vertex e_j; substituting x = M y moves
    the vertices to the columns of M^-1.
    """
    rng = seeded_rng(("split-quartic", seed))
    lams = []
    while len(lams) < 4:
        lam = field.coerce(random_scalar(field, rng))
        if lam not in lams:
            lams.append(lam)
    ring = ambient_ring(3, field)

    def diagonal(coeffs):
        return ring.from_dict({tuple(2 * (j == i) for j in range(4)): c for i, c in enumerate(coeffs)})

    pencil = Ideal.of(ring, [diagonal([field.one] * 4), diagonal(lams)])
    move = random_invertible_matrix(field, rng, 4)
    meta = catalog_entry_meta("elliptic4")
    return ProjectiveVariety(3, apply_linear_substitution(pencil, move), None, meta), move


def _vertices_roundtrip(field, seed: int) -> bool:
    """The split quartic's Segre count finds its 4 vertices, and each vertex
    has a positive-dimensional family of decompositions."""
    curve, _ = split_elliptic_quartic(field, seed)
    count, vertices = segre_count_elliptic_quartic(curve, seed)
    if count != 4 or vertices is None or len({v.coords for v in vertices}) != 4:
        return False
    return all(
        two_decompositions(curve, v, seed=seed).positive_dimensional for v in vertices
    )


def check_degree_formula(field, seed: int):
    targets = {"scroll12": 2, "cone_twisted_cubic": 2, "veronese_proj4": 6, "delpezzo4": 4}
    expected = {k: {"degree": v, "formula_pass": True} for k, v in targets.items()}
    computed = {}
    for key in targets:
        _, rep = classified(key, seed, field)
        computed[key] = {
            "degree": rep.reduced_degree,
            "formula_pass": bool(rep.degree_formula.get("pass")),
        }
    return expected, computed, computed == expected


def check_degree_formula_k3(field, seed: int):
    expected = {"reduced_degree": 12, "component_count": 1, "formula_pass": True}
    _, rep = classified("k3_23", seed, field, ab_trials=1)
    computed = {
        "reduced_degree": rep.reduced_degree,
        "component_count": rep.component_count,
        "formula_pass": bool(rep.degree_formula.get("pass")),
    }
    return expected, computed, computed == expected


def check_dimension_formula(field, seed: int):
    expected = {
        "scroll12": 1,
        "cone_twisted_cubic": 1,
        "veronese_proj4": 1,
        "delpezzo4": 1,
        "rnc3_finite": True,
    }
    computed = {}
    for key in ("scroll12", "cone_twisted_cubic", "veronese_proj4", "delpezzo4"):
        _, rep = classified(key, seed, field)
        computed[key] = rep.gamma if rep.dimension_formula.get("pass") else None
    rnc3 = build_catalog_variety("rnc3", seed, field)
    rng = seeded_rng(("dimform-q", seed))
    q = random_point(field, rng, 4, off_coordinate_hyperplanes=True)
    ds = two_decompositions(rnc3, q, seed=seed)
    computed["rnc3_finite"] = not ds.positive_dimensional
    return expected, computed, computed == expected


def check_rnc3_identifiability(field, seed: int):
    """q = a + l*b on the secant line of two seeded points a, b of the
    twisted cubic has the one decomposition {a, b}, and so has every other
    point of that line off the curve.  Explicit pairs need F_p points, so
    over Q the check runs on the seed's fp:auto field."""
    expected = {
        "unique_pair": True,
        "line_points_same_decomposition": 10,
        "line_points_segre_true": 10,
        "off_line_segre_false": 10,
    }
    f2 = field if isinstance(field, PrimeField) else resolve_field("fp:auto", seed)
    var = build_catalog_variety("rnc3", seed, f2)
    rng = seeded_rng(("rnc3-pair", seed))
    a, b = (ProjectivePoint.make(f2, var.param.evaluate(random_coords(f2, rng, 2))) for _ in range(2))

    def on_line(alpha, beta):
        return [f2.add(f2.mul(alpha, ac), f2.mul(beta, bc)) for ac, bc in zip(a.coords, b.coords)]

    def decomposes_as_ab(o):
        ds = two_decompositions(var, o, seed=seed)
        return ds.count == 1 and bool(ds.pairs) and {p.coords for p in ds.pairs[0]} == {a.coords, b.coords}

    def collinear(o):
        # a point other than a and b is a Segre point of the pair {a, b}
        # exactly when it lies on their line
        return rank([a.coords, b.coords, o.coords], f2) == 2

    lam = f2.coerce(random_scalar(f2, rng)) or f2.one  # l = 0 would put q on the curve
    computed = {"unique_pair": decomposes_as_ab(ProjectivePoint.make(f2, on_line(f2.one, lam)))}
    rng = seeded_rng(("rnc3-line", seed))
    n_on = off_line = same_decomp = seg_true = seg_false = 0
    while n_on < 10:
        vec = on_line(f2.coerce(random_scalar(f2, rng)), f2.coerce(random_scalar(f2, rng)))
        if all(v == f2.zero for v in vec):
            continue
        o = ProjectivePoint.make(f2, vec)
        if o.coords in (a.coords, b.coords) or var.contains_point(o):
            continue
        n_on += 1
        same_decomp += decomposes_as_ab(o)
        seg_true += collinear(o)
    while off_line < 10:
        o = random_point(f2, rng, 4)
        if rank([a.coords, b.coords, o.coords], f2) != 3:
            continue
        off_line += 1
        seg_false += not collinear(o)
    computed["line_points_same_decomposition"] = same_decomp
    computed["line_points_segre_true"] = seg_true
    computed["off_line_segre_false"] = seg_false
    return expected, computed, computed == expected


def check_defectivity(field, seed: int):
    expected = {"veronese5": {"dim2": 4, "defective": True}}
    computed = {}
    prof = secant_dims(build_catalog_variety("veronese5", seed, field), 2, seed=seed)
    computed["veronese5"] = {"dim2": prof.dim(2), "defective": prof.steps[1].defective}
    for d in range(3, 7):
        smax = (d + 2) // 2
        prof = secant_dims(build_catalog_variety(f"rnc{d}", seed, field), smax, seed=seed)
        expected[f"rnc{d}"] = [min(2 * s - 1, d) for s in range(1, smax + 1)]
        computed[f"rnc{d}"] = [prof.dim(s) for s in range(1, smax + 1)]
    prof = secant_dims(build_catalog_variety("scroll12", seed, field), 2, seed=seed)
    expected["scroll12"] = {"dim2": 4, "r_gen": 2}
    computed["scroll12"] = {"dim2": prof.dim(2), "r_gen": prof.r_gen}
    return expected, computed, computed == expected


def check_kernel_properties(field, seed: int):
    expected = {
        "spoly_closure": True,
        "elimination_membership": True,
        "saturation_idempotent": True,
        "hilbert_invariant": True,
        "factor_counts": [2, 2, 1],
        "factor_invariance": True,
    }
    computed = {}
    rng = seeded_rng(("kernel-props", seed))

    # S-polynomial closure on emitted bases
    closure_ok = True
    r4 = ambient_ring(3, field)
    x0, x1, x2, x3 = r4.gens()
    samples = [
        Ideal.of(r4, [x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3]),
        Ideal.of(r4, [x0 * x0 + x1 * x1 - x2 * x2, x0 - x1 + x3]),
    ]
    var = build_catalog_variety("scroll12", seed, field)
    samples.append(var.ideal)
    for ideal in samples:
        gb = groebner_basis(ideal, GREVLEX)
        if len(gb.basis) <= 30 and not verify_groebner_basis(gb):
            closure_ok = False
    computed["spoly_closure"] = closure_ok

    # elimination membership: twisted-cubic-style parameter elimination
    r3 = RingContext(("t", "x", "y"), field)
    ideal = Ideal.of(r3, [r3.from_string("x - t^2"), r3.from_string("y - t^3")])
    elim = eliminate(ideal, 1)
    gb_full = groebner_basis(ideal, GREVLEX)
    lift = Ideal.of(r3, [r3.from_dict({(0,) + m: c for m, c in g.terms}) for g in elim.gens])
    computed["elimination_membership"] = ideal_contains(gb_full, lift)

    # saturation idempotence
    rz = RingContext(("x", "y", "z"), field)
    ii = Ideal.of(rz, [rz.from_string("x*z"), rz.from_string("y*z"), rz.from_string("x^2*y")])
    jj = Ideal.of(rz, [rz.from_string("z"), rz.from_string("x")])
    s1 = saturate(ii, jj)
    s2 = saturate(s1, jj)
    gb1 = groebner_basis(s1, GREVLEX)
    gb2 = groebner_basis(s2, GREVLEX)
    computed["saturation_idempotent"] = ideal_contains(gb1, s2) and ideal_contains(gb2, s1)

    # hilbert invariance under 3 random coordinate changes
    ok_h = True
    base = samples[0]
    inv0 = hilbert_invariants(base)
    for _ in range(3):
        m = random_invertible_matrix(field, rng, 4)
        moved = apply_linear_substitution(base, m)
        inv1 = hilbert_invariants(moved)
        if (inv1.dimension, inv1.degree, inv1.hilbert_polynomial) != (
            inv0.dimension,
            inv0.degree,
            inv0.hilbert_polynomial,
        ):
            ok_h = False
    computed["hilbert_invariant"] = ok_h

    # the fixed factor-count triple, plus invariance under affine substitution
    plane = RingContext(("x", "y"), field)
    triple = [plane.from_string("x^2 - y^2"), plane.from_string("x^2 + y^2"), plane.from_string("y^2 - x^3 + x")]
    computed["factor_counts"] = [absolute_factor_count(f, rng) for f in triple]
    ok_inv = True
    for f in triple:
        base_count = absolute_factor_count(f, rng)
        for _ in range(2):
            while True:
                a, b, c, d, e, g = (field.coerce(random_scalar(field, rng)) for _ in range(6))
                if field.sub(field.mul(a, e), field.mul(b, d)) != field.zero:
                    break
            x_img = plane.from_dict({(1, 0): a, (0, 1): b, (0, 0): c})
            y_img = plane.from_dict({(1, 0): d, (0, 1): e, (0, 0): g})
            moved = f.substitute([x_img, y_img], plane)
            scl = field.coerce(random_scalar(field, rng))
            if scl == field.zero:
                scl = field.one
            if absolute_factor_count(moved.scale(scl), rng) != base_count:
                ok_inv = False
    computed["factor_invariance"] = ok_inv
    return expected, computed, computed == expected


def check_pair_segre(field, seed: int):
    expected = {"skew_false": 10, "constructed_true": True, "span_deficient_false": 10}
    computed = {"skew_false": 0, "constructed_true": None, "span_deficient_false": 0}
    rng = seeded_rng(("pair-segre", seed))

    r3 = ambient_ring(3, field)
    x0, x1, x2, x3 = r3.gens()
    line1 = ProjectiveVariety(3, Ideal.of(r3, [x2, x3]), None, {"name": "line1", "key": "line1", "d": 1, "n": 1})
    line2 = ProjectiveVariety(3, Ideal.of(r3, [x0, x1]), None, {"name": "line2", "key": "line2", "d": 1, "n": 1})
    good = 0
    tried = 0
    while tried < 10:
        o = random_point(field, rng, 4)
        if line1.contains_point(o) or line2.contains_point(o):
            continue
        tried += 1
        if not pair_segre_test(line1, line2, o):
            good += 1
    computed["skew_false"] = good

    # conic and the section of its cone: projections from the vertex agree
    conic_y = ProjectiveVariety(
        3,
        Ideal.of(r3, [x3 - x0, x0 * x2 - x1 * x1]),
        None,
        {"name": "conic_y", "key": "conic_y", "d": 2, "n": 1},
    )
    conic_t = ProjectiveVariety(
        3,
        Ideal.of(r3, [x3 - x0 - x1, x0 * x2 - x1 * x1]),
        None,
        {"name": "conic_t", "key": "conic_t", "d": 2, "n": 1},
    )
    vertex = ProjectivePoint.make(field, [field.zero, field.zero, field.zero, field.one])
    computed["constructed_true"] = pair_segre_test(conic_y, conic_t, vertex)

    # a plane conic in P^4 against a spanning quartic curve
    r4 = ambient_ring(4, field)
    y0, y1, y2, y3, y4 = r4.gens()
    conic5 = ProjectiveVariety(
        4,
        Ideal.of(r4, [y3, y4, y0 * y2 - y1 * y1]),
        None,
        {"name": "plane_conic", "key": "plane_conic", "d": 2, "n": 1},
    )
    rnc4 = build_catalog_variety("rnc4", seed, field)
    good = 0
    tried = 0
    while tried < 10:
        o = random_point(field, rng, 5)
        if conic5.contains_point(o) or rnc4.contains_point(o):
            continue
        tried += 1
        if not pair_segre_test(conic5, rnc4, o):
            good += 1
    computed["span_deficient_false"] = good
    return expected, computed, computed == expected


def _limited(check):
    """``check(field, seed)`` as a CHECKS callable ``(field, seed, budget)``,
    which runs it under ``budget``'s Groebner limits."""

    def limited_check(field, seed, budget):
        with limits(budget):
            return check(field, seed)

    return limited_check


CHECKS = [(cid, claim, _limited(check)) for cid, claim, check in [
    ("01_scroll_minimal_degree",
     "minimal-degree scroll: entry locus is an irreducible conic, type I A", check_scroll),
    ("02_cone_two_vertex_lines",
     "cone over twisted cubic: entry locus is two lines through the vertex, type II", check_cone),
    ("03_veronese_projection_three_conics",
     "projected Veronese surface: entry locus is a union of three conics (degree 6, type II)",
     check_veronese_projection),
    ("04_delpezzo_section_and_quadric_cones",
     "degree-4 genus-1 surface: entry locus is a hyperplane section lying on exactly 4 quadric "
     "cones with rank-2 vertices", check_delpezzo),
    ("05_degree_formula_sweep",
     "entry-locus degree equals (d-1)(d-2)-2g across the surface catalog", check_degree_formula),
    ("05s_degree_formula_k3",
     "K3 (2,3) complete intersection: irreducible entry locus of degree 12", check_degree_formula_k3),
    ("06_dimension_formula",
     "entry-locus dimension matches dim(sigma_1) + dim X + 1 - r", check_dimension_formula),
    ("07_rnc3_identifiability",
     "twisted cubic: unique decomposition; punctured secant line behavior", check_rnc3_identifiability),
    ("08_secant_defectivity",
     "secant dimension profiles: Veronese defect, non-defective curves, scroll rank 2", check_defectivity),
    ("09_kernel_property_suite", "kernel algebra property suite", check_kernel_properties),
    ("10_pair_segre_properties",
     "pair-projection properties: skew lines, constructed cone section, span-deficient case",
     check_pair_segre),
]]

MASTER_SEED_COUNT = 5
PASS_THRESHOLD = 4


def run_check(check_id: str, claim: str, fn, cfg: RunConfig):
    records = []
    budget = cfg.budget()
    for offset in range(MASTER_SEED_COUNT):
        seed = cfg.seed + offset
        field = resolve_field(cfg.field_desc, seed)
        t0 = time.monotonic()
        try:
            expected, computed, ok = fn(field, seed, budget)
            status = "pass" if ok else "fail"
            note = ""
        except BudgetExceededError as err:
            expected, computed, status, note = None, None, "budget-exceeded", str(err)
        except KernelError as err:
            expected, computed, status, note = None, None, "error", str(err)
        elapsed = round(time.monotonic() - t0, 3)
        records.append(
            CheckRecord(check_id, claim, seed, field.describe(), status, expected, computed, elapsed, note)
        )
    return records


def run_suite(cfg: RunConfig) -> SuiteReport:
    t0 = time.monotonic()
    all_records = []
    for cid, claim, fn in CHECKS:
        all_records.extend(run_check(cid, claim, fn, cfg))
    all_records.sort(key=lambda r: (r.check_id, r.seed))
    per_check = {}
    for rec in all_records:
        per_check.setdefault(rec.check_id, []).append(rec.status)
    agg = {cid: "pass" if sts.count("pass") >= PASS_THRESHOLD else "fail" for cid, sts in per_check.items()}
    summary = {
        "checks": agg,
        "passed": sum(1 for v in agg.values() if v == "pass"),
        "failed": sum(1 for v in agg.values() if v == "fail"),
        "budget_exceeded": any(r.status == "budget-exceeded" for r in all_records),
        "total_time_s": round(time.monotonic() - t0, 3),
    }
    config = {"field": cfg.field_desc, "seed": cfg.seed, "max_pairs": cfg.max_pairs}
    return SuiteReport(config, all_records, summary)
