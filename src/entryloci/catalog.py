"""The variety catalog: rational normal curves, the cubic scroll, cones,
Veronese surfaces and projections, and seeded random complete intersections.

One table maps each key to its (dimension, degree, genus) and its builder.
Seeded instances are sanity-checked (dimension, degree, genus, parametrization
consistency) and automatically reseeded up to 5 attempts before failing.
"""

from __future__ import annotations

import random
from functools import partial

from .geometry import (
    Parametrization,
    ProjectiveVariety,
    ambient_ring,
    cone_over,
    implicitize,
    project_image,
)
from .kernel.errors import DegenerateInputError
from .kernel.fields import QQ
from .kernel.groebner import Budget, current_budget, limits
from .kernel.hilbert import hilbert_invariants
from .kernel.ideals import Ideal
from .kernel.linalg import det
from .kernel.poly import RingContext, monomials_of_degree
from .kernel.rng import random_scalar, seeded_rng
from .kernel.zerodim import random_linear_combination
from .segre import pencil_det_distinct_roots, quadric_pencil


def _random_form(ring: RingContext, degree: int, rng: random.Random):
    field = ring.field
    while True:
        data = {m: field.coerce(random_scalar(field, rng)) for m in monomials_of_degree(ring.nvars, degree)}
        f = ring.from_dict(data)
        if not f.is_zero() and f.total_degree() == degree:
            return f


def _check_param_consistency(var: ProjectiveVariety):
    if var.param is None:
        return True
    images = list(var.param.forms)
    pring = var.param.ring
    return all(g.substitute(images, pring).is_zero() for g in var.ideal.gens)


def _rnc(d: int, field, rng=None) -> ProjectiveVariety:
    ring = ambient_ring(d, field)
    xs = ring.gens()
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            gens.append(xs[i] * xs[j + 1] - xs[i + 1] * xs[j])
    pring = RingContext(("s0", "s1"), field)
    s, t = pring.gens()
    forms = tuple(s ** (d - i) * t**i for i in range(d + 1))
    return ProjectiveVariety(d, Ideal.of(ring, gens), Parametrization(pring, forms), {})


def _scroll12(field, rng=None) -> ProjectiveVariety:
    # 2x2 minors of [[x0, x2, x3], [x1, x3, x4]]: the cubic scroll S(1,2),
    # parametrized by the conics through one point of the plane
    ring = ambient_ring(4, field)
    x0, x1, x2, x3, x4 = ring.gens()
    gens = [x0 * x3 - x1 * x2, x0 * x4 - x1 * x3, x2 * x4 - x3 * x3]
    pring = RingContext(("s0", "s1", "s2"), field)
    z0, z1, z2 = pring.gens()
    forms = (z0 * z1, z0 * z2, z1 * z1, z1 * z2, z2 * z2)
    return ProjectiveVariety(4, Ideal.of(ring, gens), Parametrization(pring, forms), {})


def _veronese5(field, rng=None) -> ProjectiveVariety:
    ring = ambient_ring(5, field)
    x = ring.gens()
    cat = [[x[0], x[1], x[2]], [x[1], x[3], x[4]], [x[2], x[4], x[5]]]
    gens = []
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            for c1 in range(3):
                for c2 in range(c1 + 1, 3):
                    g = cat[r1][c1] * cat[r2][c2] - cat[r1][c2] * cat[r2][c1]
                    if not g.is_zero() and g not in gens:
                        gens.append(g)
    pring = RingContext(("s0", "s1", "s2"), field)
    z0, z1, z2 = pring.gens()
    forms = (z0 * z0, z0 * z1, z0 * z2, z1 * z1, z1 * z2, z2 * z2)
    return ProjectiveVariety(5, Ideal.of(ring, gens), Parametrization(pring, forms), {})


def _catalecticant_det(field, coords):
    a0, a1, a2, a3, a4, a5 = coords
    m = [[a0, a1, a2], [a1, a3, a4], [a2, a4, a5]]
    return det(m, field)


def _veronese_proj4(field, rng: random.Random) -> ProjectiveVariety:
    v5 = _veronese5(field)
    for _ in range(30):
        coords = [field.coerce(random_scalar(field, rng)) for _ in range(6)]
        if any(c != field.zero for c in coords) and _catalecticant_det(field, coords) != field.zero:
            break
    else:
        raise DegenerateInputError("no center off the secant cubic found")
    return project_image(v5, [coords])


def _rational_quartic3(field, rng=None) -> ProjectiveVariety:
    pring = RingContext(("s0", "s1"), field)
    s, t = pring.gens()
    forms = (s**4, s**3 * t, s * t**3, t**4)
    param = Parametrization(pring, forms)
    return ProjectiveVariety(3, implicitize(param), param, {})


def _complete_intersection(ambient, degrees, field, rng) -> ProjectiveVariety:
    ring = ambient_ring(ambient, field)
    gens = [_random_form(ring, d, rng) for d in degrees]
    return ProjectiveVariety(ambient, Ideal.of(ring, gens), None, {})


# key -> ((dimension, degree, genus), builder(field, rng)); the builders
# leave ``meta`` empty and ``_build`` fills it
_CATALOG = {
    "rnc3": ((1, 3, 0), partial(_rnc, 3)),
    "rnc4": ((1, 4, 0), partial(_rnc, 4)),
    "rnc5": ((1, 5, 0), partial(_rnc, 5)),
    "rnc6": ((1, 6, 0), partial(_rnc, 6)),
    "rational_quartic3": ((1, 4, 0), _rational_quartic3),
    "elliptic4": ((1, 4, 1), partial(_complete_intersection, 3, (2, 2))),
    "scroll12": ((2, 3, 0), _scroll12),
    "cone_twisted_cubic": ((2, 3, 0), lambda field, rng: cone_over(_rnc(3, field))),
    "veronese5": ((2, 4, 0), _veronese5),
    "veronese_proj4": ((2, 4, 0), _veronese_proj4),
    "delpezzo4": ((2, 4, 1), partial(_complete_intersection, 4, (2, 2))),
    "k3_23": ((2, 6, 4), partial(_complete_intersection, 4, (2, 3))),
}


def catalog_keys():
    return list(_CATALOG)


def catalog_metadata(key: str):
    n, d, g = _CATALOG[key][0]
    return {"n": n, "d": d, "g": g}


def catalog_entry_meta(key: str):
    """The leading ``meta`` items of a catalog entry: name, key, n, d, g."""
    return {"name": key, "key": key, **catalog_metadata(key)}


def normalize_key(key: str) -> str:
    k = key.strip().lower().replace("(", "").replace(")", "")
    if k in _CATALOG:
        return k
    raise KeyError(f"unknown catalog key {key!r}")


_VARIETY_CACHE: dict = {}
_VARIETY_CACHE_LIMIT = 64


def build_catalog_variety(key: str, seed: int, field=None, budget: Budget | None = None) -> ProjectiveVariety:
    """Construct a catalog entry; seeded instances are reseeded on sanity
    failure.  ``budget``, when given, sets the Groebner limits of the build;
    otherwise the current ones apply.

    Each successful build is kept for the process under (key, seed, field,
    limits), as ``ideals.groebner_basis`` keeps bases: a build is a function
    of these alone, so a hit is exactly a rebuild, and a budget exit is never
    kept.  Every caller of one key shares the variety and what is derived
    from it and kept on it (span rows, Jacobians, fixed points); no caller
    may change it.
    """
    key = normalize_key(key)
    field = field or QQ
    with limits(budget or current_budget()):
        cache_key = (key, seed, field, current_budget().key())
        var = _VARIETY_CACHE.get(cache_key)
        if var is None:
            var = _build(key, seed, field)
            if len(_VARIETY_CACHE) >= _VARIETY_CACHE_LIMIT:
                _VARIETY_CACHE.clear()
            _VARIETY_CACHE[cache_key] = var
    return var


def _build(key: str, seed: int, field) -> ProjectiveVariety:
    builder = _CATALOG[key][1]
    last = None
    for attempt in range(5):
        rng = seeded_rng(("catalog", key, seed, attempt))
        try:
            var = builder(field, rng)
            var.meta = {**catalog_entry_meta(key), "seed": seed, "field": field.describe()}
            _sanity_check(var, key, rng)
            return var
        except DegenerateInputError as err:
            last = err
    raise DegenerateInputError(f"catalog entry {key} failed sanity checks: {last}")


def _sanity_check(var: ProjectiveVariety, key: str, rng: random.Random):
    n_exp, d_exp, g_exp = _CATALOG[key][0]
    if not _check_param_consistency(var):
        raise DegenerateInputError("parametrization does not satisfy the ideal")
    inv = hilbert_invariants(var.ideal)
    if (inv.dimension, inv.degree) != (n_exp, d_exp):
        raise DegenerateInputError(
            f"{key}: got (dim, deg) = ({inv.dimension}, {inv.degree}), "
            f"expected ({n_exp}, {d_exp})"
        )
    if inv.dimension == 1 and inv.arithmetic_genus != g_exp:
        raise DegenerateInputError(
            f"{key}: arithmetic genus {inv.arithmetic_genus}, expected {g_exp}"
        )
    if key in ("delpezzo4", "k3_23"):
        slice_gens = list(var.ideal.gens) + [random_linear_combination(var.ring, rng)]
        sl = hilbert_invariants(Ideal.of(var.ring, slice_gens))
        if (sl.dimension, sl.degree, sl.arithmetic_genus) != (1, d_exp, g_exp):
            raise DegenerateInputError(f"{key}: hyperplane slice genus check failed")
    if key == "elliptic4":
        if pencil_det_distinct_roots(quadric_pencil(var)) != 4:
            raise DegenerateInputError("elliptic quartic pencil is degenerate")
