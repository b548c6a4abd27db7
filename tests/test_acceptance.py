"""Acceptance gate: every verification-suite criterion at exact tolerance.

Each criterion runs on 5 consecutive master seeds over fp:auto under the
suite's one budget and must pass on at least 4 of them; expected values are
exact integers/flags, so tolerance is equality.  One PASS/FAIL line is
printed per criterion.
"""

import time

import pytest

from entryloci.suite import (
    CHECKS,
    MASTER_SEED_COUNT,
    PASS_THRESHOLD,
    RunConfig,
    resolve_field,
)

BASE_SEED = 1

# wall-clock ceilings per criterion per seed, in seconds
BUDGETS_S = {
    "01_scroll_minimal_degree": 60,
    "02_cone_two_vertex_lines": 120,
    "03_veronese_projection_three_conics": 600,
    "04_delpezzo_section_and_quadric_cones": 600,
    "05_degree_formula_sweep": 600,
    "05s_degree_formula_k3": 2700,
    "06_dimension_formula": 60,
    "07_rnc3_identifiability": 60,
    "08_secant_defectivity": 30,
    "09_kernel_property_suite": 120,
    "10_pair_segre_properties": 120,
}


@pytest.mark.parametrize(
    "check_id,claim,fn", CHECKS, ids=[c[0] for c in CHECKS]
)
def test_acceptance_criterion(check_id, claim, fn, capsys):
    cfg = RunConfig(seed=BASE_SEED)
    budget = cfg.budget()
    passes = 0
    failures = []
    for offset in range(MASTER_SEED_COUNT):
        seed = BASE_SEED + offset
        field = resolve_field(cfg.field_desc, seed)
        t0 = time.monotonic()
        expected, computed, ok = fn(field, seed, budget)
        elapsed = time.monotonic() - t0
        assert elapsed < BUDGETS_S[check_id], (
            f"{check_id} seed {seed} took {elapsed:.1f}s "
            f"(budget {BUDGETS_S[check_id]}s)"
        )
        if ok:
            passes += 1
        else:
            failures.append((seed, expected, computed))
    status = "PASS" if passes >= PASS_THRESHOLD else "FAIL"
    with capsys.disabled():
        print(f"{check_id}: {status} ({passes}/{MASTER_SEED_COUNT} seeds)")
    assert passes >= PASS_THRESHOLD, failures
