"""Property tests over seeded zoo models, through verify's checks: both condition checks
agree with each other and with the construction; positive models pass every check, so
they reproduce probabilities; and butcher equals the pinching of the final state of every
model, positive or negative.
"""

from __future__ import annotations

import numpy as np
from hypothesis import seed
from support import (
    DENSE_RESIDUAL_TOL,
    POSITIVE,
    TOL,
    ZOO_EXAMPLES,
    ZOO_SETTINGS,
    hypothesis_zoo_model,
    lifted_pointer,
)

from unimeas.branches import verify
from unimeas.collapse import butcher
from unimeas.measurement import premeasure
from unimeas.rand import rand_ket


@seed(0x29dc084ae195908c8238516f527916bdafd2fa76ec895e9e26f780d6a3aee0151cb0d6d1375bd76413b4a8da1abe1ad6)
@ZOO_SETTINGS
@ZOO_EXAMPLES
def test_zoo_model_verdicts(dim_a, variant, seed):
    model, rng = hypothesis_zoo_model(dim_a, variant, seed)
    positive = variant in POSITIVE
    phi = rand_ket(dim_a, rng)
    rows = list(verify(model, phi, TOL))
    assert [name for name, _ in rows] == ["calibration", "dynamical", "prc"]
    # butchering is the pinching sum_k F_k |Phi_f><Phi_f| F_k
    final = premeasure(model, phi)
    rho = np.outer(final, final.conj())
    pinched = sum(lifted_pointer(model, k) @ rho @ lifted_pointer(model, k) for k in range(model.outcomes))
    assert np.max(np.abs(butcher(model, phi, TOL) - pinched)) <= DENSE_RESIDUAL_TOL
    reports = dict(rows)
    cal, dyn = reports["calibration"], reports["dynamical"]
    assert cal.passed == dyn.passed == positive
    if not positive:
        assert cal.witness is not None and dyn.witness is not None
        return
    assert all(report.passed for _, report in rows)
