"""Finite-difference oracles for jets and the closed-form third-order data.

``finite_difference_jet`` estimates a jet's derivative slots from central
differences of plain evaluations, independently of the jet arithmetic.

The structural residuals are computed in closed form from third-order jets.
The other oracles re-estimate them the independent way, the way
``finite_difference_jet`` checks jets: whole frames are evaluated at
neighbouring chart points with ``point_geometry``, matched to the reference
frame column by column, and central-differenced.  The third-order jets
themselves are re-estimated from exact second-order jets at neighbouring
points.
"""

import math
from collections.abc import Callable, Sequence

import numpy as np

from gcrkit.gcr import (
    DegeneratePointError,
    StructuralResiduals,
    g_complement_basis,
    position_angles,
)
from gcrkit import geometry
from gcrkit.geometry import evaluate_jets, point_geometry, principal_data
from gcrkit.jet import Jet

_EPS = float(np.finfo(float).eps)


class FiniteDifferenceError(RuntimeError):
    """The finite-difference stencil could not be evaluated."""


def _fd_steps(p: np.ndarray, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    scale = np.maximum(1.0, np.abs(p))
    if h is not None:
        base = np.broadcast_to(np.asarray(h, dtype=float), p.shape).copy()
        return base, base, base
    # Truncation/round-off balance differs per derivative order: the classic
    # cbrt(eps) step is right for first derivatives, but second and third
    # derivatives divide by h^2 and h^3, so they need wider stencils.
    return (
        _EPS ** (1.0 / 3.0) * scale,
        _EPS ** (1.0 / 4.0) * scale,
        _EPS ** (1.0 / 5.0) * scale,
    )


def finite_difference_jet(
    f: Callable[[np.ndarray], float],
    p: Sequence[float],
    h: float | Sequence[float] | None = None,
    order: int = 3,
) -> Jet:
    """Estimate a jet of ``f`` at ``p`` from central differences.

    O(h^2) truncation error per slot, far too slow and too noisy for
    anything but a check.  ``f`` must be evaluable on the full stencil
    (radius two steps along every axis).
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    if order not in (1, 2, 3):
        raise ValueError(f"finite-difference order must be 1, 2 or 3, got {order}")
    h1, h2, h3 = _fd_steps(p, h)

    def ev(*shifts: tuple[int, float]) -> float:
        q = p.copy()
        for axis, delta in shifts:
            q[axis] += delta
        try:
            return float(f(q))
        except Exception as exc:  # noqa: BLE001 - oracle boundary
            raise FiniteDifferenceError(
                f"stencil evaluation failed at {q.tolist()}"
            ) from exc

    f0 = ev()
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    third = np.zeros((n, n, n))

    for i in range(n):
        grad[i] = (ev((i, h1[i])) - ev((i, -h1[i]))) / (2.0 * h1[i])

    if order >= 2:
        for i in range(n):
            hess[i, i] = (ev((i, h2[i])) - 2.0 * f0 + ev((i, -h2[i]))) / h2[i] ** 2
            for j in range(i + 1, n):
                val = (
                    ev((i, h2[i]), (j, h2[j]))
                    - ev((i, h2[i]), (j, -h2[j]))
                    - ev((i, -h2[i]), (j, h2[j]))
                    + ev((i, -h2[i]), (j, -h2[j]))
                ) / (4.0 * h2[i] * h2[j])
                hess[i, j] = hess[j, i] = val

    if order >= 3:
        for i in range(n):
            third[i, i, i] = (
                ev((i, 2.0 * h3[i]))
                - 2.0 * ev((i, h3[i]))
                + 2.0 * ev((i, -h3[i]))
                - ev((i, -2.0 * h3[i]))
            ) / (2.0 * h3[i] ** 3)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # d^2/di^2 d/dj stencil for the iij slot
                val = (
                    ev((i, h3[i]), (j, h3[j]))
                    - 2.0 * ev((j, h3[j]))
                    + ev((i, -h3[i]), (j, h3[j]))
                    - ev((i, h3[i]), (j, -h3[j]))
                    + 2.0 * ev((j, -h3[j]))
                    - ev((i, -h3[i]), (j, -h3[j]))
                ) / (2.0 * h3[i] ** 2 * h3[j])
                third[i, i, j] = third[i, j, i] = third[j, i, i] = val
        if n == 3:
            val = 0.0
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    for sk in (1.0, -1.0):
                        val += si * sj * sk * ev(
                            (0, si * h3[0]), (1, sj * h3[1]), (2, sk * h3[2])
                        )
            third[0, 1, 2] = third[0, 2, 1] = third[1, 0, 2] = third[1, 2, 0] = third[
                2, 0, 1
            ] = third[2, 1, 0] = val / (8.0 * h3[0] * h3[1] * h3[2])

    return Jet(n, order, f0, grad, hess, third)


def default_step(m):
    return 1e-4 * max(hi - lo for lo, hi in m.domain)


def complete_third_order_fd(m, p):
    """Order-3 jets of the components of ``m`` at ``p``, with the third
    slots central-differenced from exact Hessians at six shifted points and
    symmetrized; with steps near cbrt(eps) they are accurate to about 1e-10.
    """
    q = np.asarray(p, dtype=float)
    n = m.n
    base = evaluate_jets(m, q, order=2, check_domain=False)
    steps = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(q))
    dhess = np.zeros((m.ambient_dim, n, n, n))
    for axis in range(n):
        shift = np.zeros(n)
        shift[axis] = steps[axis]
        plus = evaluate_jets(m, q + shift, order=2, check_domain=False)
        minus = evaluate_jets(m, q - shift, order=2, check_domain=False)
        for c in range(m.ambient_dim):
            dhess[c, axis] = (plus[c].hess - minus[c].hess) / (2.0 * steps[axis])
    out = []
    for c, jet2 in enumerate(base):
        d = dhess[c]
        third = (d + d.transpose(1, 0, 2) + d.transpose(2, 1, 0)) / 3.0
        out.append(Jet(n, 3, jet2.value, jet2.grad, jet2.hess, third))
    return out


def match_frames(g, ref, cand, values):
    """Permute and sign-align candidate frame columns against a reference.

    Matching maximizes |<ref_i, cand_j>_g| greedily, which tracks smooth
    eigenvector fields across nearby points when eigenvalue gaps are open.
    """
    n = ref.shape[1]
    overlap = ref.T @ g @ cand
    taken = set()
    perm = np.empty(n, dtype=int)
    for i in range(n):
        best, best_j = -1.0, -1
        for j in range(n):
            if j not in taken and abs(overlap[i, j]) > best:
                best, best_j = abs(overlap[i, j]), j
        perm[i] = best_j
        taken.add(best_j)
    cols = cand[:, perm].copy()
    vals = values[perm].copy()
    for i in range(n):
        if overlap[i, perm[i]] < 0:
            cols[:, i] = -cols[:, i]
    return cols, vals


class _Sample:
    """Position-adapted frame at one chart point: e1 along the tangential
    position, then the complement eigenvectors, ascending."""

    def __init__(self, m, q):
        self.pg = pg = point_geometry(m, q, check_domain=False)
        self.pa = pa = position_angles(pg)
        if pa.degenerate:
            raise DegeneratePointError(f"degenerate probe at {q.tolist()}")
        g = pg.metric
        comp = g_complement_basis(g, pa.e1)
        restricted = comp.T @ g @ pg.shape @ comp
        self.lams, vecs = np.linalg.eigh(0.5 * (restricted + restricted.T))
        self.frame = np.column_stack([pa.e1, comp @ vecs])
        self.k1 = float(pa.e1 @ pg.second_form @ pa.e1)


def structural_residuals_fd(m, p, tol_gap=1e-4, step=None):
    """``gcr.structural_residuals`` by sign-matched central differencing of
    the position-adapted frame, with the same keys and skip rules."""
    q = np.asarray(p, dtype=float)
    base = _Sample(m, q)
    pg, pa, frame = base.pg, base.pa, base.frame
    pd = principal_data(pg, tol_gap)
    if step is None:
        step = default_step(m)
    n = pg.n
    g = pg.metric
    gamma = geometry._christoffel(point_geometry(m, q, check_domain=False, order=3))[1]
    mu, cos_t = pa.mu, pa.cos_theta
    sin_t = pa.xT_norm / mu

    def gnorm(v):
        return float(math.sqrt(max(v @ g @ v, 0.0)))

    def probes(direction):
        disp = step * direction
        return _Sample(m, q + disp), _Sample(m, q - disp)

    k1_index = int(np.argmax(np.abs(frame[:, 0] @ g @ pd.directions)))
    k1 = float(pd.curvatures[k1_index])
    r_k1 = abs(k1 - frame[:, 0] @ pa.theta_grad + cos_t / mu)
    r_theta_flat = max(
        max(abs(float(frame[:, i] @ pa.theta_grad)), abs(float(frame[:, i] @ pa.mu_grad)))
        for i in range(1, n)
    )

    samples = [probes(frame[:, l]) for l in range(n)]
    cov_e1 = np.empty((n, n))
    for l, (plus, minus) in enumerate(samples):
        diff = (plus.frame[:, 0] - minus.frame[:, 0]) / (2.0 * step)
        cov_e1[l] = diff + np.einsum("kab,a,b->k", gamma, frame[:, l], frame[:, 0])

    r_geodesic = gnorm(cov_e1[0])
    r_shape_coeff = 0.0
    for i in range(1, n):
        coeff = (1.0 + mu * cos_t * base.lams[i - 1]) / (mu * sin_t)
        r_shape_coeff = max(r_shape_coeff, gnorm(cov_e1[i] - coeff * frame[:, i]))

    if n == 2:
        return StructuralResiduals(
            r_geodesic, float(r_k1), r_theta_flat, r_shape_coeff, 0.0, 0.0, {},
            ("curvature transport system (3-dimensional charts only)",),
        )

    r_omega = max(
        abs(float(cov_e1[2] @ g @ frame[:, 1])),
        abs(float(cov_e1[1] @ g @ frame[:, 2])),
    )
    details = {
        "k1-flat-2": abs(samples[1][0].k1 - samples[1][1].k1) / (2.0 * step),
        "k1-flat-3": abs(samples[2][0].k1 - samples[2][1].k1) / (2.0 * step),
    }
    skipped = []
    lam2, lam3 = float(base.lams[0]), float(base.lams[1])
    if abs(lam3 - lam2) < tol_gap:
        skipped = [
            f"{name} (complement curvatures coincide)"
            for name in (
                "k2-transport", "k3-transport", "frame-twist", "k3-cross", "k2-cross"
            )
        ]
    else:
        dvals = np.empty((n, 2))
        cov_e2 = np.empty((n, n))
        for l, (plus, minus) in enumerate(samples):
            cols_p, vals_p = match_frames(g, frame[:, 1:], plus.frame[:, 1:], plus.lams)
            cols_m, vals_m = match_frames(g, frame[:, 1:], minus.frame[:, 1:], minus.lams)
            dvals[l] = (vals_p - vals_m) / (2.0 * step)
            diff = (cols_p[:, 0] - cols_m[:, 0]) / (2.0 * step)
            cov_e2[l] = diff + np.einsum("kab,a,b->k", gamma, frame[:, l], frame[:, 1])
        omega23 = cov_e2 @ g @ frame[:, 2]
        coeff2 = (1.0 + mu * cos_t * lam2) / (mu * sin_t)
        coeff3 = (1.0 + mu * cos_t * lam3) / (mu * sin_t)
        details["k2-transport"] = abs(dvals[0, 0] - coeff2 * (k1 - lam2))
        details["k3-transport"] = abs(dvals[0, 1] - coeff3 * (k1 - lam3))
        details["frame-twist"] = abs(omega23[0] * (lam2 - lam3))
        details["k3-cross"] = abs(dvals[1, 1] - omega23[2] * (lam2 - lam3))
        details["k2-cross"] = abs(dvals[2, 0] - omega23[1] * (lam2 - lam3))

    return StructuralResiduals(
        r_geodesic=r_geodesic,
        r_k1=float(r_k1),
        r_theta_flat=r_theta_flat,
        r_shape_coeff=r_shape_coeff,
        r_omega=r_omega,
        r_codazzi_system=max(details.values()),
        details=details,
        skipped=tuple(skipped),
    )
