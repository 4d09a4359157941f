import itertools

import numpy as np
import pytest

from torsiongeo.fibration_topology import (
    PrincipalCurvature,
    TopologyData,
    build_su3_fibration,
    chern_topology,
    enumerate_diophantine,
    fit_fiber_rotation,
    frestrict_residual,
    quaternionic_orientation,
    sd_asd_split,
    wedge_trace,
)
from torsiongeo.frame_algebra import (
    FrameTensor,
    antisymmetrize,
    basis_form,
    form_inner,
    top_coefficient,
)
from torsiongeo.invariant_geometry import lie_jacobi_residual
from torsiongeo.special_structures import standard_quaternion_triple

RNG = np.random.default_rng(55)
EPS3 = np.zeros((3, 3, 3))
for (i, j, k), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                     ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
    EPS3[i, j, k] = s


# -------------------------------------------------------------------- split

def test_split_basis_self_dual():
    F = basis_form(4, (0, 1)) + basis_form(4, (2, 3))
    plus, minus = sd_asd_split(F)
    assert minus.sup_norm == 0.0
    assert np.abs(plus.components - F.components).max() == 0.0
    # the opposite orientation swaps the two parts
    plus, minus = sd_asd_split(F, -1)
    assert plus.sup_norm == 0.0


def test_split_basis_anti_self_dual():
    F = basis_form(4, (0, 1)) - basis_form(4, (2, 3))
    plus, minus = sd_asd_split(F)
    assert plus.sup_norm == 0.0


def test_split_recombines_and_orthogonal():
    F = FrameTensor(4, 2, antisymmetrize(RNG.standard_normal((4, 4))))
    plus, minus = sd_asd_split(F)
    assert np.abs((plus + minus).components - F.components).max() < 1e-13
    assert abs(form_inner(plus, minus)) < 1e-13
    again, rest = sd_asd_split(plus)
    assert np.abs(again.components - plus.components).max() < 1e-13
    assert rest.sup_norm < 1e-13


def test_split_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        sd_asd_split(basis_form(5, (0, 1)))


@pytest.mark.parametrize("anti, sign", [(False, 1), (True, -1)])
def test_standard_quaternion_triple(anti, sign):
    """On every ordered choice of four directions in dims 4-8 the triple
    is antisymmetric, squares to minus the projector onto the chosen
    span and satisfies I1 I2 = -I2 I1 = I3 exactly; on a 4-dim frame it
    is self-dual in exactly the orientation ``sign``."""
    for dim in range(4, 9):
        for indices in itertools.permutations(range(dim), 4):
            triple = standard_quaternion_triple(dim, indices, anti)
            span = np.zeros((dim, dim))
            span[indices, indices] = 1.0
            I1, I2, I3 = triple
            assert np.array_equal(triple, -np.swapaxes(triple, 1, 2))
            assert all(np.array_equal(I @ I, -span) for I in triple)
            assert np.array_equal(I1 @ I2, I3)
            assert np.array_equal(I2 @ I1, -I3)
    triple = standard_quaternion_triple(anti=anti)
    assert quaternionic_orientation(triple) == sign
    for J in triple:
        assert sd_asd_split(FrameTensor(4, 2, J), sign)[1].sup_norm == 0.0
    with pytest.raises(ValueError, match="distinct"):
        standard_quaternion_triple(4, (0, 1, 3, -1), anti)


# ---------------------------------------------------------------- frestrict

def test_frestrict_zero_for_one_one_curvature():
    # a (1,1)-form with respect to all three structures is anti-self-dual;
    # with B = 0 both sides vanish
    omegas = standard_quaternion_triple()
    F = (basis_form(4, (0, 1)) - basis_form(4, (2, 3))).components
    pc = PrincipalCurvature(4, 1, F[None], np.eye(1), np.zeros((1, 1, 1)))
    assert frestrict_residual(pc, np.zeros((1, 3, 3)), omegas) < 1e-13


def test_frestrict_substitution_model():
    """Substituting the self-dual ansatz F^r = -(h/2) omega^r together
    with the epsilon rotation representation solves the constraint."""
    omegas = standard_quaternion_triple()
    h = 1.7
    F = np.stack([-0.5 * h * om for om in omegas])
    B = np.zeros((3, 3, 3))
    for r in range(3):
        B[r] = h * EPS3[r]
    pc = PrincipalCurvature(4, 3, F, np.eye(3), np.zeros((3, 3, 3)))
    assert frestrict_residual(pc, B, omegas) < 1e-12


def test_frestrict_generic_violation():
    omegas = standard_quaternion_triple()
    F = antisymmetrize(RNG.standard_normal((4, 4)))[None]
    pc = PrincipalCurvature(4, 1, F, np.eye(1), np.zeros((1, 1, 1)))
    assert frestrict_residual(pc, np.zeros((1, 3, 3)), omegas) > 0.05


def test_frestrict_shape_checks():
    omegas = standard_quaternion_triple()
    F = np.zeros((1, 4, 4))
    pc = PrincipalCurvature(4, 1, F, np.eye(1), np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        frestrict_residual(pc, np.zeros((2, 3, 3)), omegas)
    with pytest.raises(ValueError):
        frestrict_residual(pc, np.zeros((1, 3, 3)), omegas[:2])


# ------------------------------------------------------------ su3 fibration

@pytest.fixture(scope="module")
def fibration_built():
    return build_su3_fibration()


@pytest.fixture(scope="module")
def fibration(fibration_built):
    return fibration_built[0]


@pytest.fixture(scope="module")
def base_triple(fibration_built):
    return fibration_built[1]


def test_fibration_fiber_metric(fibration):
    assert np.abs(fibration.fiber_metric - np.diag([6.0, 2, 2, 2])).max() < 1e-12


def test_fibration_fiber_algebra(fibration):
    cs = fibration.fiber_structure
    assert lie_jacobi_residual(cs) < 1e-12
    # the long Cartan direction spans the commuting line
    assert np.abs(cs[:, 0, :]).max() < 1e-13
    assert np.abs(cs[0, :, :]).max() < 1e-13


def test_fibration_u1_component_anti_self_dual(fibration, base_triple):
    sign = quaternionic_orientation(base_triple)
    plus, minus = sd_asd_split(fibration.component(0), sign)
    assert plus.sup_norm < 1e-13
    assert minus.sup_norm > 0.1


def test_fibration_su2_self_dual_parts_span_quaternionic_forms(fibration, base_triple):
    sign = quaternionic_orientation(base_triple)
    for r in (1, 2, 3):
        plus, _ = sd_asd_split(fibration.component(r), sign)
        # frozen from the construction: F^r_+ = -(1/2) omega_r
        expect = -0.5 * base_triple[r - 1]
        assert np.abs(plus.components - expect).max() < 1e-12


def test_fibration_epsilon_representation(fibration, base_triple):
    B = fit_fiber_rotation(fibration, base_triple)
    assert np.abs(B[0]).max() < 1e-12
    # frozen scale: h = 1 in this fiber normalization
    expect = np.stack([EPS3[r] for r in range(3)])
    assert np.abs(B[1:] - expect).max() < 1e-12
    assert frestrict_residual(fibration, B, base_triple) < 1e-12


def test_fibration_wedge_trace_vanishes(fibration):
    assert wedge_trace(fibration).sup_norm < 1e-12


def test_fibration_wedge_trace_invariance(fibration):
    from torsiongeo.random_geometry import random_orthogonal
    O = random_orthogonal(np.random.default_rng(2), 4)
    F_rot = np.einsum("xab,ap,bq->xpq", fibration.F, O, O)
    pc = PrincipalCurvature(4, 4, F_rot, fibration.fiber_metric,
                            fibration.fiber_structure)
    assert wedge_trace(pc).sup_norm < 1e-12
    # fiber basis change with consistent metric transformation
    A = np.random.default_rng(3).standard_normal((4, 4)) + 2 * np.eye(4)
    F_new = np.einsum("yx,xab->yab", np.linalg.inv(A).T, fibration.F)
    h_new = A @ fibration.fiber_metric @ A.T
    h_new = 0.5 * (h_new + h_new.T)
    pc2 = PrincipalCurvature(4, 4, F_new, h_new, fibration.fiber_structure)
    assert wedge_trace(pc2).sup_norm < 1e-10


def test_abelian_wedge_trace_nonzero():
    F = (basis_form(4, (0, 1)) - basis_form(4, (2, 3))).components
    pc = PrincipalCurvature(4, 1, F[None], np.eye(1), np.zeros((1, 1, 1)))
    coeff = top_coefficient(wedge_trace(pc))
    assert coeff == pytest.approx(-2.0)


def test_zero_curvature_wedge_trace():
    pc = PrincipalCurvature(4, 2, np.zeros((2, 4, 4)), np.eye(2),
                            np.zeros((2, 2, 2)))
    assert wedge_trace(pc).sup_norm == 0.0


# ----------------------------------------------------------------- topology

def test_chern_reversed_projective_plane():
    table = chern_topology(TopologyData(1, (1,), 3, -1))
    assert table["c1_sq"] == -1
    assert table["p1_adj"] == 3
    assert table["obstruction"] == 0
    assert table["c2E"] == -1
    assert table["admits_hkt_fibration"]


def test_chern_sphere_rejected():
    table = chern_topology(TopologyData(0, (), 2, 0))
    assert table["obstruction"] == 4
    assert not table["admits_hkt_fibration"]


def test_chern_four_fold_sum_trivial_class():
    table = chern_topology(TopologyData(4, (0, 0, 0, 0), 6, -4))
    assert table["obstruction"] == 0
    assert table["c2E"] == 0


def test_chern_u2_mode_same_arithmetic():
    table = chern_topology(TopologyData(1, (1,), 3, -1), fiber="u2")
    assert table["obstruction"] == 0 and table["fiber"] == "u2"
    with pytest.raises(ValueError):
        chern_topology(TopologyData(1, (1,), 3, -1), fiber="so5")


def test_topology_data_invariants():
    with pytest.raises(ValueError):
        TopologyData(1, (1,), 4, -1)     # chi must be 2 + k
    with pytest.raises(ValueError):
        TopologyData(0, (), 2, 1)        # sphere has tau = 0
    with pytest.raises(ValueError):
        TopologyData(2, (1,), 4, -2)     # n must have length k


def test_diophantine_enumeration():
    assert enumerate_diophantine(12) == [(1, (1,)), (4, (0, 0, 0, 0))]
    assert enumerate_diophantine(1) == [(1, (1,))]
    sols = enumerate_diophantine(3)
    assert all(k != 2 and k != 3 for k, _ in sols)


def test_diophantine_cross_check_with_obstruction():
    # obstruction == 0 on k summands with class n iff 3 sum n^2 = 4 - k
    solutions = set(enumerate_diophantine(12))
    for k in range(1, 13):
        chi, tau = 2 + k, -k
        for trial in range(3):
            rng = np.random.default_rng(10 * k + trial)
            n = tuple(int(x) for x in rng.integers(-2, 3, size=k))
            table = chern_topology(TopologyData(k, n, chi, tau))
            canonical = tuple(sorted((abs(x) for x in n), reverse=True))
            assert table["obstruction_vanishes"] \
                == ((k, canonical) in solutions)
