"""Property tests over seeded zoo models, through verify's checks: both condition checks
agree with each other and with the construction; positive models pass every check, so
they reproduce probabilities and final states, and butcher equals the pinching of their
final state.

The variants follow the benchmark zoo: plain and degenerate canonical models, a
redundant (uncoupled) pointer factor, a perturbed isometry and a swapped pointer.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unimeas.branches import verify
from unimeas.collapse import butcher
from unimeas.measurement import premeasure
from unimeas.rand import (
    perturb_model,
    rand_ket,
    rand_model,
    swap_pointer,
    with_redundant_pointer,
)

TOL = 1e-9
POSITIVE = ("plain", "degenerate", "redundant")
NEGATIVE = ("perturbed", "swapped")
MAX_JOINT_DIM = 256


def _model(dim_a: int, variant: str, rng: np.random.Generator):
    if variant == "degenerate":
        k = int(rng.integers(1, dim_a))
        cuts = np.sort(rng.choice(np.arange(1, dim_a), size=k - 1, replace=False))
        multiplicities = np.diff(np.concatenate(([0], cuts, [dim_a]))).tolist()
        return rand_model(dim_a, rng, multiplicities)
    model = rand_model(dim_a, rng)
    if variant == "redundant":
        return with_redundant_pointer(model, 2, rng)
    if variant == "perturbed":
        return perturb_model(model, rng)
    if variant == "swapped":
        return swap_pointer(model)
    return model


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    dim_a=st.integers(2, 16),
    variant=st.sampled_from(POSITIVE + NEGATIVE),
    seed=st.integers(0, 2**32 - 1),
)
def test_zoo_model_verdicts(dim_a, variant, seed):
    from test_range_basis import lifted_pointer  # imported here: test_range_basis imports this module

    # the canonical instrument has one dimension per outcome, doubled by a redundant factor
    assume(dim_a * dim_a * (2 if variant == "redundant" else 1) <= MAX_JOINT_DIM)
    rng = np.random.default_rng(seed)
    model = _model(dim_a, variant, rng)
    positive = variant in POSITIVE
    phi = rand_ket(dim_a, rng)
    rows = list(verify(model, phi, TOL))
    assert [name for name, _ in rows] == ["calibration", "dynamical", "prc", "final-reconstruction"]
    reports = dict(rows)
    cal, dyn = reports["calibration"], reports["dynamical"]
    assert cal.passed == dyn.passed == positive
    if not positive:
        assert cal.witness is not None and dyn.witness is not None
        return
    assert all(report.passed for _, report in rows)
    final = premeasure(model, phi)
    # butchering is the pinching sum_k F_k |Phi_f><Phi_f| F_k
    rho = np.outer(final, final.conj())
    pinched = sum(lifted_pointer(model, k) @ rho @ lifted_pointer(model, k) for k in range(model.outcomes))
    assert np.max(np.abs(butcher(model, phi, TOL) - pinched)) <= TOL
