"""Workload definitions: task lists, set-up inputs and exact expected values.

A workload turns one benchmark seed into a list of master seeds, and the
master seeds into an ordered task list.  Suite checks run check-major, as
`el verify` orders them; command-line tasks run through `entryloci.cli.main`
exactly as a user would type them.

Task tuples:
  ("check", check_id, field_desc, seed)
  ("cli", argv, expected)   expected maps report keys to exact values; the
                            pseudo keys "<formula>.pass" read nested flags.
"""

from __future__ import annotations

# master seeds per child, chosen so one child runs for several seconds and
# two surfaces children fit in the benchmark's run_seconds
SEEDS_PER_CHILD = {"surfaces": 1, "k3": 1, "curves": 4, "rationals": 2}

WHY = {
    "surfaces": "suite checks 01-06 over fp:auto: the acceptance gate's main cost, Buchberger-bound",
    "k3": "criterion 05s on k3_23: the only large dense rref (Gao PDE systems); about 60 s a seed",
    "curves": "checks 07-10, decomp and segre over fp:auto: many small Groebner runs and rrefs",
    "rationals": "--field Q classifications and checks 07-10: the only Fraction-coefficient path",
}

_SURFACE_CHECKS = (
    "01_scroll_minimal_degree",
    "02_cone_two_vertex_lines",
    "03_veronese_projection_three_conics",
    "04_delpezzo_section_and_quadric_cones",
    "05_degree_formula_sweep",
    "06_dimension_formula",
)
_CURVE_CHECKS = (
    "07_rnc3_identifiability",
    "08_secant_defectivity",
    "09_kernel_property_suite",
    "10_pair_segre_properties",
)

# catalog, README and suite invariants of the entry locus over Q
_Q_CLASSIFY = {
    "scroll12": {"gamma": 1, "ell": 2, "reduced_degree": 2, "component_count": 1,
                 "type_irreducibility": "I", "type_ab": "A",
                 "degree_formula.pass": True, "dimension_formula.pass": True},
    "cone_twisted_cubic": {"gamma": 1, "reduced_degree": 2, "component_count": 2,
                           "type_irreducibility": "II",
                           "degree_formula.pass": True, "dimension_formula.pass": True},
    # a general point lies on (d-1)(d-2)/2 - g secants of a space curve
    "rnc3": {"gamma": 0, "reduced_degree": 2, "component_count": 2,
             "type_irreducibility": "II", "dimension_formula.pass": True},
    "rational_quartic3": {"gamma": 0, "reduced_degree": 6, "component_count": 6,
                          "type_irreducibility": "II", "dimension_formula.pass": True},
}

# Q classifications that stop today with "witness sampling runs over a prime
# field" (ROADMAP item 5).  They are kept out of the measured task list, whose
# operations must all succeed, and are run and reported by sweep.py instead.
Q_GAPS = {
    "delpezzo4": {"gamma": 1, "reduced_degree": 4, "component_count": 1, "ell": 3},
    "elliptic4": {"gamma": 0, "reduced_degree": 4, "component_count": 4},
}


def master_seeds(workload: str, seed: int) -> list:
    n = SEEDS_PER_CHILD[workload]
    return [seed * n + i for i in range(n)]


def _checks(ids, field_desc, seeds):
    return [("check", cid, field_desc, s) for cid in ids for s in seeds]


def _classify_q(key, seed, expected):
    argv = ["entry-locus", "--variety", key, "--seed", str(seed), "--field", "Q"]
    return ("cli", argv, expected)


def tasks(workload: str, seeds, with_gaps: bool = False) -> list:
    if workload == "surfaces":
        return _checks(_SURFACE_CHECKS, "fp:auto", seeds)
    if workload == "k3":
        return _checks(("05s_degree_formula_k3",), "fp:auto", seeds)
    if workload == "curves":
        out = _checks(_CURVE_CHECKS, "fp:auto", seeds)
        for s in seeds:
            # secants through a general point: (d-1)(d-2)/2 - g
            out.append(("cli", ["decomp", "--variety", "rational_quartic3", "--seed", str(s)],
                        {"count": 3, "positive_dimensional": False}))
            out.append(("cli", ["decomp", "--variety", "elliptic4", "--seed", str(s)],
                        {"count": 2, "positive_dimensional": False}))
            out.append(("cli", ["segre", "--curve", "elliptic4", "--seed", str(s)], {"count": 4}))
        return out
    if workload == "rationals":
        out = [_classify_q(k, s, e) for s in seeds for k, e in _Q_CLASSIFY.items()]
        if with_gaps:
            out += [_classify_q(k, s, e) for s in seeds for k, e in Q_GAPS.items()]
        return out + _checks(_CURVE_CHECKS, "Q", seeds)
    raise KeyError(f"unknown workload {workload!r}")


def setup_inputs(workload: str, seeds) -> list:
    """(catalog key, seed, field descriptor) of every variety a run's tasks name."""
    keys, field_desc = {
        "surfaces": (("scroll12", "cone_twisted_cubic", "veronese_proj4", "delpezzo4", "rnc3"), "fp:auto"),
        "k3": (("k3_23",), "fp:auto"),
        "curves": (("rnc3", "rnc4", "rnc5", "rnc6", "veronese5", "scroll12",
                    "rational_quartic3", "elliptic4"), "fp:auto"),
        "rationals": (("scroll12", "cone_twisted_cubic", "rnc3", "rational_quartic3",
                       "rnc4", "rnc5", "rnc6", "veronese5"), "Q"),
    }[workload]
    return [(k, s, field_desc) for s in seeds for k in keys]


def describe(workload: str, seed: int) -> dict:
    """Provenance entry: the master seeds and the task names of one run."""
    seeds = master_seeds(workload, seed)
    return {"master_seeds": seeds, "tasks": [task_name(t) for t in tasks(workload, seeds)]}


def task_name(task) -> str:
    if task[0] == "check":
        _, cid, field_desc, s = task
        return f"{cid}@{s}/{field_desc}"
    return "el " + " ".join(task[1])
