"""Helpers that only the tests call: seeded points on a parametrized
variety, scheme equality of two homogeneous ideals, the variety-file writer,
a deterministic stream of large primes, polynomial predicates, the
parametrized entry-locus route, and reference copies of the repeated-trial
routes that the library now ends early, of the factor stage's former
routes, and of the routes that the fast paths of the decomposition count,
the pair test, the span test and quadratic root finding replace."""

from __future__ import annotations

import random

from entryloci import rank_secant
from entryloci.geometry import (
    Parametrization,
    ProjectivePoint,
    ProjectiveVariety,
    affine_chart,
    ambient_ring,
    apply_linear_substitution,
    project_image,
    projection_frame,
    witness_points,
)
from entryloci.kernel import (
    GREVLEX,
    Block,
    CharacteristicError,
    DegenerateInputError,
    Ideal,
    NotSquarefreeError,
    PrimeField,
    RingContext,
    RingMismatchError,
    eliminate,
    groebner_basis,
    homogeneous_generators,
    irrelevant_saturate,
    next_prime,
    radical_membership,
)
from entryloci.kernel import factor
from entryloci.kernel.fields import Rationals
from entryloci.kernel.hilbert import hilbert_invariants
from entryloci.kernel.ideals import same_ideal
from entryloci.kernel.linalg import kernel_basis, mat_inverse, rank, rref
from entryloci.kernel.rng import random_coords, seeded_rng
from entryloci.kernel.univar import (
    u_degree,
    u_divmod,
    u_gcd,
    u_monic,
    u_pow_mod,
    u_rational_root_part,
    u_squarefree_part,
    u_sub,
)
from entryloci.kernel.zerodim import (
    enumerate_points_prime_field,
    is_zero_dimensional,
    minimal_polynomial_of,
    random_linear_combination,
)


def sample_point(X: ProjectiveVariety, rng: random.Random) -> ProjectivePoint:
    """Seeded point on a parametrized variety."""
    if X.param is None:
        raise DegenerateInputError("sample_point needs a parametrization")
    field = X.field
    for _ in range(40):
        values = random_coords(field, rng, X.param.nparams)
        coords = X.param.evaluate(values)
        if any(c != field.zero for c in coords):
            return ProjectivePoint.make(field, coords)
    raise DegenerateInputError("parametrization kept hitting base points")


def same_saturation(a: Ideal, b: Ideal) -> bool:
    """Scheme equality of two homogeneous ideals: their irrelevant-ideal
    saturations are equal."""
    return same_ideal(irrelevant_saturate(a), irrelevant_saturate(b))


def write_variety(var: ProjectiveVariety) -> str:
    """The variety-file text that ``varfile.read_variety`` parses back."""
    lines = [f"ring {' '.join(var.ring.names)} over {var.field.describe()}"]
    if var.param is not None:
        lines.append(f"param {' '.join(var.param.ring.names)}")
    for g in var.ideal.gens:
        lines.append(f"gen: {g.to_string()}")
    if var.param is not None:
        for f in var.param.forms:
            lines.append(f"par: {f.to_string()}")
    meta_bits = []
    for key in ("name", "d", "g", "n"):
        if key in var.meta and var.meta[key] is not None:
            meta_bits.append(f"{key}={var.meta[key]}")
    if meta_bits:
        lines.append("meta: " + " ".join(meta_bits))
    return "\n".join(lines) + "\n"


def prime_stream(seed: int):
    """Deterministic stream of primes above 2^31, for searches over fields."""
    rng = seeded_rng(("prime-stream", seed))
    p = 2**31 + rng.randrange(2**22)
    while True:
        p = next_prime(p)
        yield p


# -- polynomial predicates ----------------------------------------------------


def num_terms(f) -> int:
    return len(f.terms)


def proportional_to(f, g) -> bool:
    """True if f = c * g for a nonzero constant c."""
    if f.ring != g.ring:
        raise RingMismatchError(f"rings differ: {f.ring} vs {g.ring}")
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if len(f.terms) != len(g.terms):
        return False
    field = f.ring.field
    ratio = field.div(f.leading_coeff(), g.leading_coeff())
    for (m1, c1), (m2, c2) in zip(f.terms, g.terms):
        if m1 != m2 or c1 != field.mul(ratio, c2):
            return False
    return True


def reduce_mod(f, target):
    """Image of a Q-polynomial in an F_p ring with the same variables."""
    if f.ring.names != target.names:
        raise RingMismatchError("variable mismatch in modular reduction")
    field = target.field
    out = {}
    for m, c in f.terms:
        if isinstance(f.ring.field, Rationals) and isinstance(field, PrimeField):
            v = field.from_rational(c.numerator, c.denominator)
        else:
            v = field.coerce(c)
        if v != field.zero:
            out[m] = v
    return target.from_dict(out)


# -- reference routes: every trial and every round, as before the early stops --


def _ref_count_distinct_points(gb, rng, trials=2):
    """``count_distinct_points`` computing every trial."""
    best = 0
    for _ in range(trials):
        t = random_linear_combination(gb.ring, rng)
        mp = minimal_polynomial_of(t, gb)[0]
        sf = u_squarefree_part(mp, gb.ring.field)
        best = max(best, u_degree(sf))
    return best


def _ref_secant_dims(X, s_max, seed=0):
    """``secant_dims`` running all ``SECANT_TRIALS`` trials."""
    field = X.field
    r = X.ambient
    n = X.meta.get("n")
    if n is None:
        n = hilbert_invariants(X.ideal).dimension
    best = [0] * s_max
    for trial in range(rank_secant.SECANT_TRIALS):
        rng = seeded_rng(("terracini", X.meta.get("key"), seed, trial))
        if X.param is not None:
            blocks = [rank_secant._param_jacobian_rows(X, rng) for _ in range(s_max)]
        else:
            pts = witness_points(X, rng, want=s_max)
            if len(pts) < s_max:
                raise DegenerateInputError("not enough witness points for the secant profile")
            blocks = [rank_secant._implicit_tangent_rows(X, p) for p in pts]
        stacked = []
        for s in range(1, s_max + 1):
            stacked.extend(blocks[s - 1])
            best[s - 1] = max(best[s - 1], rank(stacked, field) - 1)
    steps = []
    r_gen = None
    for s in range(1, s_max + 1):
        expected = min(s * (n + 1) - 1, r)
        steps.append(rank_secant.SecantStep(s, best[s - 1], expected, best[s - 1] < expected))
        if r_gen is None and best[s - 1] == r:
            r_gen = s
    return rank_secant.SecantProfile(tuple(steps), r_gen)


def _ref_incidence_affine_system(X, q, rng):
    """The decomposition system with its linear generators kept: the chart
    solves only its own form, and every incidence generator is kept."""
    aff, a_imgs, chart, _ = affine_chart(X.ring, rng, ("lam",))
    gens = rank_secant.incidence_generators(X, q, aff, a_imgs, aff.variable(aff.nvars - 1))
    return Ideal.of(aff, gens), chart


def _ref_two_decompositions(X, q, seed=0):
    """``two_decompositions`` as a vote of up to three rounds, with no
    certificate: two that agree end it, else the largest count wins.  It
    keeps the linear generators in the system and enumerates the points
    with a fresh separating form."""
    if X.contains_point(q):
        raise DegenerateInputError("base point lies on the variety")
    field = X.field
    counts = []
    best = None
    for round_idx in range(3):
        rng = seeded_rng(("decomp", X.meta.get("key"), seed, round_idx))
        system, chart = _ref_incidence_affine_system(X, q, rng)
        gb = groebner_basis(system, GREVLEX)
        if gb.is_unit():
            counts.append(0)
            continue
        if not is_zero_dimensional(gb):
            return rank_secant.DecompositionSet(True, None, None)
        c = _ref_count_distinct_points(gb, rng, trials=2)
        counts.append(c)
        if best is None or c > counts[best[0]]:
            best = (round_idx, gb, chart, rng)
        if round_idx == 1 and counts[0] == counts[1]:
            break
    solutions = max(counts)
    if solutions % 2 != 0:
        raise DegenerateInputError(f"odd ordered-solution count {solutions}")
    npairs = solutions // 2
    pairs = None
    if npairs and best is not None and isinstance(field, PrimeField):
        _, gb, chart, rng = best
        raw = enumerate_points_prime_field(gb, rng)
        if raw is not None and len(raw) == solutions:
            seen = {}
            for values in raw:
                coords, lam = chart(values), values[-1]
                a = ProjectivePoint.make(field, coords)
                b_coords = [field.add(field.mul(lam, c), qc) for c, qc in zip(coords, q.coords)]
                b = ProjectivePoint.make(field, b_coords)
                key = tuple(sorted([a.coords, b.coords]))
                seen[key] = (a, b) if a.coords <= b.coords else (b, a)
            if len(seen) == npairs:
                pairs = tuple(seen[k] for k in sorted(seen))
    return rank_secant.DecompositionSet(False, npairs, pairs)


def _ref_pair_segre_test(Y, T, o):
    """``pair_segre_test`` with no point refutation: the forward containment
    by radical membership in I_T of the pulled-back generators of J_Y, then
    the backward one on the two images."""
    if Y.ideal.gens == T.ideal.gens:
        raise DegenerateInputError("pair test needs two distinct curves")
    img_y = project_image(Y, [o.coords])
    field = T.field
    binv = mat_inverse(projection_frame(field, [o.coords], T.ambient + 1), field)
    ys = [T.ring.linear_form(row) for row in binv[1:]]
    pulled = (g.substitute(ys, T.ring) for g in img_y.ideal.gens)
    if not all(radical_membership(f, T.ideal) for f in pulled):
        return False
    img_t = project_image(T, [o.coords])
    return all(radical_membership(g, img_y.ideal) for g in img_t.ideal.gens)


def _ref_slice_by_span(ideal, span_rows):
    """``slice_by_span`` through a full change of coordinates: x = B y with
    B = ``projection_frame`` of a kernel basis of the rows, then every term
    in the trailing c coordinates dropped."""
    ring = ideal.ring
    field = ring.field
    c = len(span_rows)
    if c == 0:
        return ideal
    point_basis = kernel_basis([list(r) for r in span_rows], field)
    B = projection_frame(field, point_basis, ring.nvars)
    moved = apply_linear_substitution(ideal, B)
    keep = ring.nvars - c
    target = ambient_ring(keep - 1, field)
    gens = []
    for g in moved.gens:
        data = {m[:keep]: coeff for m, coeff in g.terms if not any(m[keep:])}
        gg = target.from_dict(data)
        if not gg.is_zero():
            gens.append(gg)
    return Ideal.of(target, gens)


def row_space_intersection(u_rows, v_rows, field):
    """Basis of (row space of U) intersect (row space of V): the reference
    for ``segre.union_span_is_ambient`` and the per-variable span rows."""
    if not u_rows or not v_rows:
        return []
    stacked = [list(r) for r in u_rows] + [[field.neg(x) for x in r] for r in v_rows]
    coeffs = kernel_basis(list(map(list, zip(*stacked))), field)
    out = []
    for c in coeffs:
        vec = [field.zero] * len(u_rows[0])
        for alpha, row in zip(c[: len(u_rows)], u_rows):
            for j, x in enumerate(row):
                vec[j] = field.add(vec[j], field.mul(alpha, x))
        if any(x != field.zero for x in vec):
            out.append(vec)
    red, piv = rref(out, field)
    return [red[i] for i in range(len(piv))]


def _ref_u_roots_prime_field(a, field, rng):
    """``u_roots_prime_field`` by Cantor-Zassenhaus at every degree: the
    rational root part gcd(f, x^p - x), split by gcd(g, (x + delta)^((p-1)/2)
    - 1) for random delta."""
    a = u_monic(u_squarefree_part(a, field), field)
    roots = []
    stack = [u_rational_root_part(a, field)]
    p = field.p
    while stack:
        g = stack.pop()
        if u_degree(g) <= 0:
            continue
        if u_degree(g) == 1:
            roots.append(field.neg(g[0]))
            continue
        while True:
            delta = rng.randrange(p)
            h = u_sub(u_pow_mod([delta, field.one], (p - 1) // 2, g, field), [field.one], field)
            d = u_gcd(g, h, field)
            if 0 < u_degree(d) < u_degree(g):
                stack.append(d)
                stack.append(u_divmod(g, d, field)[0])
                break
    roots.sort()
    return roots


# -- the parametrized entry-locus route ---------------------------------------


def _implicitize_locus(param: Parametrization, locus) -> Ideal:
    """Ideal of the image under the parametrization of the parameter locus
    cut out by the ``locus`` forms: the graph ideal (locus, x_i - P_i(s))
    with the parameters eliminated, as ``geometry.implicitize`` does without
    a locus."""
    pring = param.ring
    m = pring.nvars
    r = len(param.forms) - 1
    big = RingContext(tuple(pring.names) + tuple(f"x{i}" for i in range(r + 1)), pring.field, Block(m))

    def lift(f):
        return big.from_dict({mm + (0,) * (r + 1): c for mm, c in f.terms})

    gens = [lift(g) for g in locus]
    gens += [big.variable(m + i) - lift(f) for i, f in enumerate(param.forms)]
    out = eliminate(Ideal.of(big, gens), m)
    return homogeneous_generators(out.map_ring(ambient_ring(r, pring.field)))


def _parametrized_entry_locus(X: ProjectiveVariety, q: ProjectivePoint) -> Ideal:
    """Entry locus via a = phi(s), b = phi(u) = lam * phi(s) + q: eliminate
    lam and u, then implicitize the resulting parameter locus.  An
    independent route that the tests compare the implicit one against."""
    if X.param is None:
        raise DegenerateInputError("parametrized route needs a parametrization")
    pring = X.param.ring
    field = X.field
    m = pring.nvars
    names = ("lam_",) + tuple(f"u{i}" for i in range(m)) + tuple(pring.names)
    big = RingContext(names, field, Block(1 + m))
    lam = big.variable(0)
    u_vars = [big.variable(1 + i) for i in range(m)]
    s_vars = [big.variable(1 + m + i) for i in range(m)]
    gens = [
        f.substitute(u_vars, big) - lam * f.substitute(s_vars, big) - big.constant(c)
        for f, c in zip(X.param.forms, q.coords)
    ]
    s_locus = eliminate(Ideal.of(big, gens), 1 + m)
    s_ring = RingContext(tuple(pring.names), field)
    s_locus = homogeneous_generators(s_locus.map_ring(s_ring))
    # image of the parameter locus under phi
    return _implicitize_locus(X.param, s_locus.gens)


# -- reference routes of the factor stage: the gcd chain, Gao's kernel over
# the field, and the factor degrees from weight orbits --------------------------


def _ref_is_squarefree(f) -> bool:
    """``is_squarefree`` by the repeated-part gcd chain alone."""
    return factor._repeated_part(f).total_degree() == 0


def _ref_squarefree_part(f):
    """``squarefree_part`` by the gcd chain alone."""
    field = f.ring.field
    if field.char != 0 and field.char <= f.total_degree():
        raise CharacteristicError(f"characteristic {field.char} too small")
    if f.is_zero() or f.total_degree() == 0:
        return f.monic()
    return factor.poly_exact_div(f, factor._repeated_part(f)).monic()


def _ref_pde_matrix(plane):
    """Gao's system over the plane's field as a dense matrix, its columns the
    polynomial products f * d(m)/dy - m * f_y and m * f_x - f * d(m)/dx over
    the g monomials m, then the h monomials, and those monomials."""
    ring = plane.ring
    field = ring.field
    n1 = plane.degree_in(0)
    n2 = plane.degree_in(1)
    fx = plane.derivative(0)
    fy = plane.derivative(1)
    g_monos = [(i, j) for i in range(n1) for j in range(n2 + 1)]
    h_monos = [(i, j) for i in range(n1 + 1) for j in range(n2)]
    columns = []
    for i, j in g_monos:
        mono = ring.monomial((i, j))
        columns.append(plane * mono.derivative(1) - mono * fy)
    for i, j in h_monos:
        mono = ring.monomial((i, j))
        columns.append(mono * fx - plane * mono.derivative(0))
    rows_index = {}
    for col in columns:
        for m, _ in col.terms:
            rows_index.setdefault(m, len(rows_index))
    matrix = [[field.zero] * len(columns) for _ in range(len(rows_index))]
    for cidx, col in enumerate(columns):
        for m, c in col.terms:
            matrix[rows_index[m]][cidx] = c
    return matrix, g_monos, h_monos


def _ref_pde_kernel(plane):
    """Kernel basis of Gao's system over the plane's field, and the g
    monomials its first coordinates belong to."""
    matrix, g_monos, _ = _ref_pde_matrix(plane)
    return kernel_basis(matrix, plane.ring.field), g_monos


def _ref_factor_count(f, rng=None) -> int:
    """``absolute_factor_count``: the chain's squarefreeness check, then the
    size of the kernel basis over the plane's field."""
    if f.total_degree() >= 1 and not _ref_is_squarefree(f):
        raise NotSquarefreeError("absolute factor count requires squarefree input")
    rng = rng or random.Random(0)
    field = f.ring.field
    n = f.total_degree()
    if field.char != 0 and field.char <= n * (n - 1):
        raise CharacteristicError(f"prime {field.char} too small")
    if f.degree_in(0) < 1 or f.degree_in(1) < 1:
        f = factor._random_affine_image(f, rng)
    return len(_ref_pde_kernel(f)[0])


def _ref_factor_squarefree(a, field, rng):
    """Irreducible factors of a squarefree polynomial over F_p: distinct-degree
    splitting by gcd with x^(p^d) - x, then Cantor-Zassenhaus."""
    a = u_monic(a, field)
    p = field.p
    out = []
    x = [field.zero, field.one]
    power = u_pow_mod(x, p, a, field)
    d = 1
    rest = list(a)
    while u_degree(rest) >= 1:
        if 2 * d > u_degree(rest):
            out.append(u_monic(rest, field))
            break
        g = u_gcd(rest, u_sub(power, x, field), field)
        if u_degree(g) >= 1:
            out.extend(_ref_equal_degree_split(g, d, field, rng))
            rest = u_divmod(rest, g, field)[0]
        d += 1
        if u_degree(rest) >= 1:
            power = u_pow_mod(power, p, rest, field)
    out.sort(key=lambda f: (u_degree(f), f))
    return out


def _ref_equal_degree_split(g, d, field, rng):
    if u_degree(g) == d:
        return [u_monic(g, field)]
    p = field.p
    while True:
        h = [field.coerce(rng.randrange(p)) for _ in range(u_degree(g))] + [field.one]
        w = u_sub(u_pow_mod(h, (p**d - 1) // 2, g, field), [field.one], field)
        f1 = u_gcd(g, w, field)
        if 0 < u_degree(f1) < u_degree(g):
            f2 = u_divmod(g, f1, field)[0]
            return _ref_equal_degree_split(f1, d, field, rng) + _ref_equal_degree_split(f2, d, field, rng)


def _ref_absolute_factor_degrees(f, rng=None):
    """``absolute_factor_degrees`` by weight orbits: the z-content of two
    resultants Res_y(f, g - z * f_x), split into irreducible orbits, and for
    each orbit a bivariate gcd whose degree is the product of its factors."""
    field = f.ring.field
    if not isinstance(field, PrimeField):
        raise ValueError("factor degree extraction runs over a prime field")
    rng = rng or random.Random(0)
    n = f.total_degree()
    if n >= 1 and not _ref_is_squarefree(f):
        raise NotSquarefreeError("absolute factor degrees require squarefree input")
    last_err = None
    for _ in range(6):
        try:
            plane = factor._random_affine_image(f, rng)
            kernel, g_monos = _ref_pde_kernel(plane)
            r = len(kernel)
            if r == 1:
                return [n]
            ring = plane.ring
            weights = [rng.randrange(1, field.p) for _ in kernel]
            g_data = {}
            for w, vec in zip(weights, kernel):
                for mono, coeff in zip(g_monos, vec[: len(g_monos)]):
                    g_data[mono] = field.add(g_data.get(mono, field.zero), field.mul(w, coeff))
            g_poly = ring.from_dict(g_data)
            fx = plane.derivative(0)
            resultants = []
            for _ in range(2):
                a = field.coerce(rng.randrange(field.p))
                res_z = factor._resultant_linear_z(
                    factor._eval_x(plane, a, field), factor._eval_x(g_poly, a, field),
                    factor._eval_x(fx, a, field), field,
                )
                if not res_z:
                    raise DegenerateInputError("degenerate x sample in weight extraction")
                resultants.append(res_z)
            content = u_gcd(resultants[0], resultants[1], field)
            if u_degree(content) < 1:
                raise DegenerateInputError("weight content collapsed")
            degs = []
            for orbit in _ref_factor_squarefree(u_squarefree_part(content, field), field, rng):
                e = u_degree(orbit)
                if e == 1:
                    part = factor.bivariate_gcd(plane, g_poly - fx.scale(field.neg(orbit[0])))
                else:
                    combo = ring.zero()
                    for j, qj in enumerate(orbit):
                        if qj != field.zero:
                            combo = combo + (g_poly**j * fx ** (e - j)).scale(qj)
                    part = factor.bivariate_gcd(plane, combo)
                d = part.total_degree()
                if d == 0:
                    continue
                if e > 1 and d % e != 0:
                    raise DegenerateInputError("orbit degree not divisible by orbit size")
                degs.extend([d // e] * e if e > 1 else [d])
            if len(degs) == r and sum(degs) == n and all(dd >= 1 for dd in degs):
                return sorted(degs)
            raise DegenerateInputError("factor extraction inconsistent; retrying")
        except (DegenerateInputError, ArithmeticError, ZeroDivisionError) as err:
            last_err = err
    raise DegenerateInputError(f"factor degree extraction failed: {last_err}")
