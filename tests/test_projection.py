"""The sampler's Jacobi projection against the loop it replaced.

``project_to_jacobi`` gives up early on a projection whose residual
stagnates.  That must never change a sample: the exit may only fire
where running all steps would also have ended above PROJECTION_TOL, and
wherever the full loop reaches the tolerance, the early-exit loop must
return the same bytes.  ``reference_projection`` is the loop without the
exit, kept here as the oracle.
"""

import numpy as np
import pytest

from torsiongeo import random_geometry as rg

STARTS = 40
jacobian = rg._jacobian  # unpatched, for the reference loop


def reference_projection(c0, max_steps, unimodular):
    """The Levenberg-Marquardt loop without the stagnation exit: returns
    (c, residual_sup, Jacobian evaluations)."""
    dim = c0.shape[0]
    vec = rg._c_to_vec(c0)
    nvar = vec.size
    r = rg._residual(rg._vec_to_c(vec, dim), unimodular)
    evaluations = 0
    for _ in range(max_steps):
        sup = np.abs(r).max() if r.size else 0.0
        if sup < rg.PROJECTION_TOL:
            break
        jac_mat = jacobian(rg._vec_to_c(vec, dim), unimodular)
        evaluations += 1
        jtj = jac_mat.T @ jac_mat
        jtr = jac_mat.T @ r
        norm0 = np.linalg.norm(r)
        mu = 1e-3 * max(np.trace(jtj) / nvar, 1e-12)
        accepted = False
        for _ in range(8):
            step = np.linalg.solve(jtj + mu * np.eye(nvar), -jtr)
            trial = vec + step
            r_trial = rg._residual(rg._vec_to_c(trial, dim), unimodular)
            if np.linalg.norm(r_trial) < 0.98 * norm0:
                vec, r = trial, r_trial
                accepted = True
                break
            mu *= 8.0
        if not accepted:
            break
    c = rg._vec_to_c(vec, dim)
    r = rg._residual(c, unimodular)
    return c, float(np.abs(r).max() if r.size else 0.0), evaluations


def noisy_start(seed, dim, unimodular):
    """The candidate random_geometry projects: a conjugated block-sum
    seed plus 0.08 times Gaussian noise, from the same generator."""
    rng = np.random.default_rng(seed)
    c = rg._seed_structure(rng, dim, unimodular)
    return c + 0.08 * rng.standard_normal((dim,) * 3)


@pytest.mark.parametrize("unimodular", [True, False], ids=["unimodular", "general"])
@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_early_exit_keeps_every_projection_outcome(dim, unimodular, monkeypatch):
    """Where the full loop reaches the tolerance the projection returns
    the same (c, sup) bit for bit; where it fails the projection fails
    too; and from dim 5 on, where many projections stall, the exit
    saves Jacobian evaluations."""
    calls = []
    monkeypatch.setattr(rg, "_jacobian",
                        lambda c, uni: calls.append(1) or jacobian(c, uni))
    reference_evaluations = 0
    for seed in range(STARTS):
        c0 = noisy_start(seed, dim, unimodular)
        c_ref, sup_ref, evaluations = reference_projection(c0, 25, unimodular)
        reference_evaluations += evaluations
        c, sup = rg.project_to_jacobi(c0, max_steps=25, unimodular=unimodular)
        if sup_ref <= rg.PROJECTION_TOL:
            assert (c.tobytes(), sup) == (c_ref.tobytes(), sup_ref), seed
        else:
            assert sup > rg.PROJECTION_TOL, seed
    assert len(calls) <= reference_evaluations
    if dim >= 5:
        assert len(calls) < reference_evaluations
