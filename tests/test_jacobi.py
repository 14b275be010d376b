import numpy as np
import pytest

from orthoflow import (
    DomainViolation,
    FlowFamily,
    FlowSettings,
    JacobiParams,
    PotentialKind,
    companion_roots,
    equispaced_start,
    gradient,
    jacobi_kappa,
    measure_decay,
    monic_jacobi,
    solve_roots,
    electrostatic_rhs,
)
from orthoflow import flow, potentials, rates

from test_flow_kernel import draw_config, draw_kind


def test_rhs_single_particle_legendre():
    # n = 1, alpha = beta = 0: rhs is -2x, vanishing at the root x = 0
    p = JacobiParams(0.0, 0.0)
    assert electrostatic_rhs(p, [0.25]) == pytest.approx([-0.5])
    assert electrostatic_rhs(p, [0.0]) == pytest.approx([0.0])


def test_rhs_vanishes_at_companion_roots():
    for alpha, beta in [(0.0, 0.0), (1.0, 2.0), (-0.5, -0.5)]:
        p = JacobiParams(alpha, beta)
        roots = companion_roots(monic_jacobi(7, p))
        assert np.max(np.abs(electrostatic_rhs(p, roots))) < 1e-10


def test_rhs_rejects_disordered_or_boundary_points():
    p = JacobiParams(0.0, 0.0)
    with pytest.raises(DomainViolation):
        electrostatic_rhs(p, [0.5, 0.2])
    with pytest.raises(DomainViolation):
        electrostatic_rhs(p, [-1.0, 0.2])


def test_rhs_empty():
    assert electrostatic_rhs(JacobiParams(1.0, 1.0), []).size == 0


@pytest.mark.parametrize("seed", range(5))
def test_rhs_is_mobility_weighted_gradient(seed):
    # rhs_j equals 2 (x_j^2 - 1) times the gradient of the electrostatic
    # potential, coordinate by coordinate
    rng = np.random.default_rng(seed)
    p = JacobiParams(rng.uniform(-0.9, 3.0), rng.uniform(-0.9, 3.0))
    kind = PotentialKind(FlowFamily.JACOBI, p)
    for _ in range(4):
        x = np.sort(rng.uniform(-0.95, 0.95, 6))
        while np.min(np.diff(x)) < 0.02:
            x = np.sort(rng.uniform(-0.95, 0.95, 6))
        rhs = electrostatic_rhs(p, x)
        expect = 2.0 * (x * x - 1.0) * gradient(kind, x)
        assert np.max(np.abs(rhs - expect)) < 1e-8 * (1.0 + np.max(np.abs(expect)))


def test_kappa_values():
    assert jacobi_kappa(JacobiParams(0.0, 0.0), 1) == pytest.approx(2.0)
    assert jacobi_kappa(JacobiParams(1.0, 2.0), 10) == pytest.approx(23.0)
    with pytest.raises(ValueError):
        jacobi_kappa(JacobiParams(0.0, 0.0), 0)


def test_equispaced_start_ordering():
    x = equispaced_start(9)
    assert x[0] == pytest.approx(-0.8)
    assert x[-1] == pytest.approx(0.8)
    assert np.all(np.diff(x) > 0)
    assert np.allclose(x, -x[::-1])


def test_flow_converges_to_jacobi_roots():
    p = JacobiParams(1.0, 2.0)
    n = 8
    kind = PotentialKind(FlowFamily.JACOBI, p)
    kappa = jacobi_kappa(p, n)
    settings = FlowSettings(
        step=min(0.05, 1.0 / (2 * n * n + 10)), t_max=30.0 / kappa, grad_tol=1e-13
    )
    traj, eq = solve_roots(kind, n, settings=settings, newton_tol=1e-12)
    roots = companion_roots(monic_jacobi(n, p))
    assert np.max(np.abs(np.sort(eq) - roots)) < 1e-10

    t_end = traj.times[-1]
    report = measure_decay(traj, eq, window=(0.4 * t_end, 0.9 * t_end))
    assert np.min(report.measured_slopes) >= kappa - 1e-2


# -- the Jacobi flow in the homes of the other families ---------------------------
# references: verbatim copies of the module that kept the Jacobi flow apart

def ref_in_domain(x: np.ndarray) -> bool:
    """Whether x is strictly increasing inside (-1, 1); NaN never is."""
    return x.size == 0 or bool((x[1:] > x[:-1]).all() and x[0] > -1 and x[-1] < 1)


def ref_differences(x: np.ndarray) -> np.ndarray:
    """Matrix of x_j - x_k with an infinite diagonal, for x in the domain."""
    if not ref_in_domain(x):
        raise DomainViolation(
            "Jacobi configurations must be strictly increasing inside (-1, 1)"
        )
    d = x[:, None] - x[None, :]
    d.reshape(-1)[:: x.size + 1] = np.inf
    return d


def ref_electrostatic_drift(p: JacobiParams, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``electrostatic_rhs`` from the matrix ``differences(x)``."""
    a_mob = x * x - 1.0
    b_drift = (p.alpha + 1) * (x + 1.0) + (p.beta + 1) * (x - 1.0)
    return -b_drift - a_mob * (2.0 / d).sum(axis=1)


def ref_electrostatic_rhs(p: JacobiParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return ref_electrostatic_drift(p, x, ref_differences(x))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
def test_rhs_is_bitwise_the_reference(n):
    rng = np.random.default_rng([n, 9])
    for _ in range(4):
        kind = draw_kind(FlowFamily.JACOBI, rng)
        x = draw_config(kind, n, rng)
        ref = ref_electrostatic_rhs(kind.params, x)
        ev = potentials.evaluator(kind, n)
        for got in (electrostatic_rhs(kind.params, x), electrostatic_rhs(kind.params, list(x)),
                    ev.rhs(x)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("x", [
    [0.5, 0.2], [0.2, 0.2], [-1.0, 0.2], [0.2, 1.0], [-2.0], [1.5],
    [float("nan")], [0.1, float("nan")], [-float("inf"), 0.0], [0.0, float("inf")],
], ids=str)
def test_the_same_configurations_leave_the_domain(x):
    p = JacobiParams(0.5, -0.25)
    x = np.array(x)
    assert not potentials.in_domain(x) and not ref_in_domain(x)
    with pytest.raises(DomainViolation):
        ref_electrostatic_rhs(p, x)
    ev = potentials.evaluator(PotentialKind(FlowFamily.JACOBI, p), x.size)
    for call in (lambda: electrostatic_rhs(p, x), lambda: ev.rhs(x), lambda: ev.gradient(x),
                 lambda: ev.value(x), lambda: ev.hessian(x)):
        with pytest.raises(DomainViolation):
            call()


def test_the_moved_names_import_from_their_homes_and_the_package():
    assert electrostatic_rhs is potentials.electrostatic_rhs
    assert jacobi_kappa is rates.jacobi_kappa
    assert equispaced_start is flow.equispaced_start
    kind = PotentialKind(FlowFamily.JACOBI, JacobiParams(0.0, 0.0))
    assert flow.default_start(kind, 5).tobytes() == equispaced_start(5).tobytes()
