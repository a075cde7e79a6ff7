"""Position-vector analysis and surface classification.

Splits the position vector of a hypersurface point into tangential and
normal parts, tests whether the tangential part is a principal direction
(the defining property of a position-principal, or "generalized constant
ratio", surface), evaluates the first-order structural identities such
surfaces must satisfy in closed form from third-order jets (Weingarten's
equation and first-order eigen-perturbation; no finite differences), and
aggregates grid sweeps into a classification report (position-principal /
isoparametric / constant mean curvature / spectral-split / vanishing top
curvature).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from collections.abc import Sequence

import numpy as np

from .expr import ExprError
from .geometry import (
    EPS_REG,
    GeometryError,
    Immersion,
    PointGeometry,
    PrincipalData,
    SingularPointError,
    _fix_direction_signs,
    _nabla_second_form,
    curvature_invariants,
    point_geometry,
    principal_data,
)

__all__ = [
    "DegeneratePointError",
    "EmptyReportError",
    "PositionAngles",
    "position_angles",
    "GcrResidual",
    "gcr_residual",
    "StructuralResiduals",
    "structural_residuals",
    "delta2_ideal_test",
    "GridSpec",
    "Tolerances",
    "PointRecord",
    "SurfaceReport",
    "classify_surface",
]


class DegeneratePointError(ValueError):
    """The tangential position part (or the position itself) vanishes."""


class EmptyReportError(RuntimeError):
    """Every grid point was singular; no geometry could be computed."""


# -- position decomposition ------------------------------------------------------------


@dataclass
class PositionAngles:
    """Length/angle split of the position vector at one surface point.

    mu is the distance to the origin, theta in [0, pi] the angle between the
    position and the unit normal (so the normal part is mu*cos(theta) and the
    tangential part has length mu*sin(theta)).  Chart gradients of theta and
    mu are exact and are None at degenerate points.
    """

    mu: float
    cos_theta: float
    theta: float
    xT: np.ndarray
    xT_norm: float
    degenerate: bool
    e1: np.ndarray | None
    theta_grad: np.ndarray | None
    mu_grad: np.ndarray | None


def position_angles(pg: PointGeometry, eps_tan_rel: float = 1e-8) -> PositionAngles:
    """Tangential/normal split of the position vector at a regular point.

    Everything comes from ``pg``.  With b = J^T x, the gradients are
    d mu = b / mu and, by Weingarten's d<x, N> = -S^T b,
    d theta = (S^T b + cos(theta) d mu) / (mu sin(theta)).
    """
    pos = pg.position
    mu = float(np.linalg.norm(pos))
    b = pg.jac.T @ pos
    xT = np.linalg.solve(pg.metric, b)
    xT_norm = float(math.sqrt(max(xT @ pg.metric @ xT, 0.0)))
    eps_tan = eps_tan_rel * max(1.0, mu)
    degenerate = xT_norm < eps_tan or mu < eps_tan

    if mu < eps_tan:
        # surface passes (numerically) through the origin: angles undefined
        return PositionAngles(mu, 1.0, 0.0, xT, xT_norm, True, None, None, None)

    cos_theta = float(np.clip(pos @ pg.normal / mu, -1.0, 1.0))
    theta = math.acos(cos_theta)
    if degenerate:
        return PositionAngles(mu, cos_theta, theta, xT, xT_norm, True, None, None, None)

    mu_grad = b / mu
    return PositionAngles(
        mu=mu,
        cos_theta=cos_theta,
        theta=theta,
        xT=xT,
        xT_norm=xT_norm,
        degenerate=False,
        e1=xT / xT_norm,
        theta_grad=(pg.shape.T @ b + cos_theta * mu_grad) / xT_norm,
        mu_grad=mu_grad,
    )


# -- the position-principal test --------------------------------------------------------


@dataclass(frozen=True)
class GcrResidual:
    """Primary: g-norm of the part of S e1 orthogonal to e1 (e1 = unit
    tangential position).  Secondary: largest angle derivative |Y(theta)|
    over unit tangents Y orthogonal to e1 — an equivalent criterion computed
    along an independent route."""

    primary: float
    secondary: float


def g_complement_basis(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns: a g-orthonormal basis of the g-orthogonal complement of v."""
    n = g.shape[0]
    vn = v / math.sqrt(v @ g @ v)
    # seed with the chart axes least aligned with v, for determinism
    overlaps = np.abs(g @ vn)
    order = np.argsort(overlaps, kind="stable")
    cols = [vn]
    for axis in order:
        cand = np.zeros(n)
        cand[axis] = 1.0
        for c in cols:
            cand = cand - (cand @ g @ c) * c
        norm = math.sqrt(max(cand @ g @ cand, 0.0))
        if norm > 1e-10:
            cols.append(cand / norm)
        if len(cols) == n:
            break
    if len(cols) < n:
        raise DegeneratePointError("metric too degenerate for a complement basis")
    return np.column_stack(cols[1:])


def gcr_residual(pa: PositionAngles, pd: PrincipalData, pg: PointGeometry) -> GcrResidual:
    """Both position-principal residuals at a nondegenerate point."""
    if pa.degenerate:
        raise DegeneratePointError(
            "tangential position vanishes; the position-principal test is vacuous here"
        )
    g = pg.metric
    e1 = pa.e1
    se1 = pg.shape @ e1
    tail = se1 - (se1 @ g @ e1) * e1
    primary = float(math.sqrt(max(tail @ g @ tail, 0.0)))
    comp = g_complement_basis(g, e1)
    secondary = float(np.max(np.abs(comp.T @ pa.theta_grad)))
    return GcrResidual(primary=primary, secondary=secondary)


def delta2_ideal_test(k: Sequence[float], tol: float) -> bool:
    """True when one curvature equals the sum of the other two within tol.

    This is the spectral form of the ideal split {a, b, a + b} that the
    classification flags report as is_delta2_ideal.
    """
    k = np.asarray(k, dtype=float)
    if k.size < 3:
        raise ValueError("spectral split test needs at least three curvatures")
    total = float(k.sum())
    # k_i = k_j + k_l  <=>  2 k_i = k_1 + k_2 + k_3
    return bool(np.min(np.abs(2.0 * k - total)) <= tol)


# -- structural identities ---------------------------------------------------------------


@dataclass
class StructuralResiduals:
    """Residuals of the first-order identities of position-principal surfaces.

    r_geodesic:   acceleration of the e1 field along itself
    r_k1:         k1 - e1(theta) + cos(theta)/mu
    r_theta_flat: largest |e_i(theta)|, |e_i(mu)| over complement directions
    r_shape_coeff: nabla_{e_i} e1 minus its predicted multiple of e_i
    r_omega:      connection forms omega_12(e3), omega_13(e2)
    r_codazzi_system: worst residual of the curvature-transport system
    details:      per-identity breakdown of the transport system
    skipped:      transport checks not evaluated here, with reasons
    """

    r_geodesic: float
    r_k1: float
    r_theta_flat: float
    r_shape_coeff: float
    r_omega: float
    r_codazzi_system: float
    details: dict[str, float] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()


# the scalar residuals of StructuralResiduals, in report order
STRUCTURAL_KEYS = (
    "r_geodesic", "r_k1", "r_theta_flat", "r_shape_coeff", "r_omega", "r_codazzi_system",
)


def _structural_frame(
    pg: PointGeometry, pa: PositionAngles
) -> tuple[np.ndarray, np.ndarray]:
    """Position-adapted frame and its complement curvatures: columns e1 along
    the tangential position, then the g-orthonormal eigenvectors, ascending
    by eigenvalue, of the shape operator restricted to the g-complement of
    e1."""
    g = pg.metric
    e1 = pa.e1
    comp = g_complement_basis(g, e1)
    restricted = comp.T @ g @ pg.shape @ comp
    restricted = 0.5 * (restricted + restricted.T)
    vals, vecs = np.linalg.eigh(restricted)
    return np.column_stack([e1, _fix_direction_signs(comp @ vecs)]), vals


def structural_residuals(
    m: Immersion,
    p: Sequence[float],
    pg: PointGeometry | None = None,
    pd: PrincipalData | None = None,
    pa: PositionAngles | None = None,
    tol_gap: float = 1e-4,
    eps_reg: float = EPS_REG,
) -> StructuralResiduals:
    """Residuals of the identities that hold along a position-principal
    surface, in closed form from one order-3 jet evaluation at ``p``.

    In the position-adapted frame {e1, e2, e3}:

    - Weingarten's equation gives nabla_Y x^T = Y + <x, N> S Y, so with
      W_l = e_l + <x, N> S e_l, nabla_{e_l} e1 = (W_l - <W_l, e1> e1) / |x^T|
      (geodesic, shape-coefficient and connection-form residuals);
    - e_l(k1) = (nabla_{e_l} h)(e1, e1) + 2 h(nabla_{e_l} e1, e1) for the
      Rayleigh curvature k1 = h(e1, e1);
    - first-order perturbation of the complement eigenpairs gives
      e_l(k_i) = (nabla_{e_l} h)(e_i, e_i) - 2 <e_i, nabla_{e_l} e1> h(e1, e_i)
      and (k2 - k3) omega_23(e_l) = (nabla_{e_l} h)(e2, e3)
      - <e2, nabla_{e_l} e1> h(e1, e3) - <e3, nabla_{e_l} e1> h(e1, e2).

    The e1 field is smooth wherever the point is nondegenerate, so the
    geodesic/shape/connection checks need no eigenvalue gap; the transport
    checks, which follow the complement eigenvectors, are skipped when the
    two complement curvatures are closer than tol_gap.
    """
    q = np.asarray(p, dtype=float)
    if pg is None or pg.third is None:
        # order-3 geometry repeats order-2 figures bit for bit: pd, pa stay valid
        pg = point_geometry(m, q, eps_reg, check_domain=False, order=3)
    if pa is None:
        pa = position_angles(pg)
    if pa.degenerate:
        raise DegeneratePointError("structural identities are vacuous at this point")
    if pd is None:
        pd = principal_data(pg, tol_gap)

    n = pg.n
    g = pg.metric
    h = pg.second_form
    frame, lams = _structural_frame(pg, pa)
    mu, cos_t = pa.mu, pa.cos_theta
    sin_t = pa.xT_norm / mu

    def gnorm(v: np.ndarray) -> float:
        return float(math.sqrt(max(v @ g @ v, 0.0)))

    # identities that only need exact gradients of theta and mu
    k1_index = int(np.argmax(np.abs(frame[:, 0] @ g @ pd.directions)))
    k1 = float(pd.curvatures[k1_index])
    r_k1 = abs(k1 - frame[:, 0] @ pa.theta_grad + cos_t / mu)
    r_theta_flat = 0.0
    for i in range(1, n):
        r_theta_flat = max(
            r_theta_flat,
            abs(float(frame[:, i] @ pa.theta_grad)),
            abs(float(frame[:, i] @ pa.mu_grad)),
        )

    # cov_e1[l] = nabla_{e_l} e1, from second-order data
    w = frame + mu * cos_t * (pg.shape @ frame)
    w = w - np.outer(frame[:, 0], frame[:, 0] @ g @ w)
    cov_e1 = (w / pa.xT_norm).T

    r_geodesic = gnorm(cov_e1[0])
    r_shape_coeff = 0.0
    for i in range(1, n):
        coeff = (1.0 + mu * cos_t * lams[i - 1]) / (mu * sin_t)
        r_shape_coeff = max(r_shape_coeff, gnorm(cov_e1[i] - coeff * frame[:, i]))

    if n == 2:
        return StructuralResiduals(
            r_geodesic=r_geodesic,
            r_k1=float(r_k1),
            r_theta_flat=r_theta_flat,
            r_shape_coeff=r_shape_coeff,
            r_omega=0.0,
            r_codazzi_system=0.0,
            details={},
            skipped=("curvature transport system (3-dimensional charts only)",),
        )

    r_omega = max(
        abs(float(cov_e1[2] @ g @ frame[:, 1])),   # omega_12(e3)
        abs(float(cov_e1[1] @ g @ frame[:, 2])),   # omega_13(e2)
    )

    # dh_frame[l, a, b] = (nabla_{e_l} h)(e_a, e_b); cov_g[l, i] = <nabla_{e_l} e1, e_i>
    dh_frame = np.einsum(
        "xab,xl,ai,bj->lij", _nabla_second_form(pg), frame, frame, frame
    )
    cov_g = cov_e1 @ g @ frame
    h1 = frame[:, 0] @ h @ frame

    details: dict[str, float] = {}
    skipped: list[str] = []
    dk1 = dh_frame[:, 0, 0] + 2.0 * cov_g @ h1
    details["k1-flat-2"] = abs(float(dk1[1]))
    details["k1-flat-3"] = abs(float(dk1[2]))

    gap23 = abs(lams[1] - lams[0])
    if gap23 < tol_gap:
        skipped.extend(
            [
                "k2-transport (complement curvatures coincide)",
                "k3-transport (complement curvatures coincide)",
                "frame-twist (complement curvatures coincide)",
                "k3-cross (complement curvatures coincide)",
                "k2-cross (complement curvatures coincide)",
            ]
        )
    else:
        lam2, lam3 = float(lams[0]), float(lams[1])
        # dvals[l, i] = e_l(k_{i+2}); twist[l] = (k2 - k3) omega_23(e_l)
        dvals = dh_frame[:, [1, 2], [1, 2]] - 2.0 * cov_g[:, 1:] * h1[1:]
        twist = dh_frame[:, 1, 2] - cov_g[:, 1] * h1[2] - cov_g[:, 2] * h1[1]
        coeff2 = (1.0 + mu * cos_t * lam2) / (mu * sin_t)
        coeff3 = (1.0 + mu * cos_t * lam3) / (mu * sin_t)
        details["k2-transport"] = abs(float(dvals[0, 0] - coeff2 * (k1 - lam2)))
        details["k3-transport"] = abs(float(dvals[0, 1] - coeff3 * (k1 - lam3)))
        details["frame-twist"] = abs(float(twist[0]))
        details["k3-cross"] = abs(float(dvals[1, 1] - twist[2]))
        details["k2-cross"] = abs(float(dvals[2, 0] - twist[1]))

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


# -- grid classification ---------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Inclusive uniform grid: counts[i] samples along domain axis i."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 1 for c in self.counts):
            raise ValueError("grid counts must be at least 1")

    def axes(self, domain: Sequence[Sequence[float]]) -> list[np.ndarray]:
        if len(self.counts) != len(domain):
            raise ValueError("grid rank does not match the domain")
        out = []
        for count, (lo, hi) in zip(self.counts, domain):
            if count == 1:
                out.append(np.array([(lo + hi) / 2.0]))
            else:
                out.append(np.linspace(lo, hi, count))
        return out

    def points(self, domain: Sequence[Sequence[float]]) -> np.ndarray:
        axes = self.axes(domain)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for classification flags."""

    tol_gcr: float = 1e-7
    tol_const_rel: float = 1e-6
    tol_gap: float = 1e-4
    eps_reg: float = EPS_REG
    eps_tan_rel: float = 1e-8

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PointRecord:
    point: tuple[float, ...]
    mu: float
    theta: float
    curvatures: tuple[float, ...]
    means: tuple[float, ...]
    distinct_count: int
    degenerate: bool
    gcr_primary: float | None
    gcr_secondary: float | None
    delta2: bool | None
    structural: StructuralResiduals | None = None
    structural_note: str | None = None


@dataclass
class SurfaceReport:
    name: str
    n: int
    grid: GridSpec
    tolerances: Tolerances
    records: list[PointRecord]
    skipped: list[tuple[tuple[float, ...], str]]
    is_gcr: bool
    is_isoparametric: bool
    is_cmc: bool
    is_3_minimal: bool | None
    is_delta2_ideal: bool | None
    distinct_curvature_count: int
    max_gcr_primary: float | None
    max_gcr_secondary: float | None
    fraction_degenerate: float
    structural_max: dict[str, float]
    jet_order: int  # highest jet order evaluated


def _classify_point(
    m: Immersion, p: np.ndarray, tols: Tolerances, include_structural: bool
):
    try:
        # 3-D transport checks read third partials: one order-3 evaluation serves both
        order = 3 if include_structural and m.n == 3 else 2
        pg = point_geometry(m, p, tols.eps_reg, check_domain=False, order=order)
        pd = principal_data(pg, tols.tol_gap)
        pa = position_angles(pg, eps_tan_rel=tols.eps_tan_rel)
    except SingularPointError as exc:
        return ("skip", tuple(p), f"singular metric (det g = {exc.det_g:.3e})")
    except (GeometryError, ExprError) as exc:
        return ("skip", tuple(p), f"evaluation failed: {exc}")
    ci = curvature_invariants(pd.curvatures)
    n = pg.n

    gcr_primary = gcr_secondary = None
    if not pa.degenerate:
        res = gcr_residual(pa, pd, pg)
        gcr_primary, gcr_secondary = res.primary, res.secondary

    delta2 = None
    if n >= 3:
        tol_d2 = tols.tol_const_rel * (1.0 + float(np.max(np.abs(pd.curvatures))))
        delta2 = delta2_ideal_test(pd.curvatures, tol_d2)

    structural = None
    note = None
    if include_structural:
        if pa.degenerate:
            note = "degenerate point: no tangential direction to adapt a frame to"
        elif gcr_primary is not None and gcr_primary >= tols.tol_gcr:
            note = "not position-principal here: structural identities not expected"
        else:
            try:
                structural = structural_residuals(
                    m, p, pg=pg, pd=pd, pa=pa,
                    tol_gap=tols.tol_gap, eps_reg=tols.eps_reg,
                )
            except (GeometryError, DegeneratePointError, ExprError) as exc:
                note = f"structural probe failed: {exc}"

    record = PointRecord(
        point=tuple(p),
        mu=pa.mu,
        theta=pa.theta,
        curvatures=tuple(float(k) for k in pd.curvatures),
        means=tuple(float(h) for h in ci.mean),
        distinct_count=pd.distinct_count,
        degenerate=pa.degenerate,
        gcr_primary=gcr_primary,
        gcr_secondary=gcr_secondary,
        delta2=delta2,
        structural=structural,
        structural_note=note,
    )
    return ("ok", record, None)


def classify_surface(
    m: Immersion,
    grid: GridSpec,
    tols: Tolerances = Tolerances(),
    include_structural: bool = False,
) -> SurfaceReport:
    """Sweep a grid, in grid order, and aggregate per-point geometry into
    classification flags."""
    points = grid.points(m.domain)
    if points.size == 0:
        raise EmptyReportError("empty grid")

    records: list[PointRecord] = []
    skipped: list[tuple[tuple[float, ...], str]] = []
    # numpy overflow or NaN in a point's figures, or a metric too degenerate
    # for its complement basis, skips the point like a failed evaluation;
    # assembly itself refuses non-finite jets and geometry
    with np.errstate(all="raise", under="ignore"):
        for p in points:
            try:
                kind, payload, reason = _classify_point(m, p, tols, include_structural)
            except (FloatingPointError, DegeneratePointError) as exc:
                kind, payload, reason = "skip", tuple(p), f"evaluation failed: {exc}"
            if kind == "ok":
                records.append(payload)
            else:
                skipped.append((payload, reason))

    if not records:
        first = skipped[0] if skipped else (tuple(points[0]), "no points")
        where = [float(v) for v in first[0]]
        raise EmptyReportError(
            f"no regular grid point: first failure at {where} ({first[1]})"
        )

    n = m.n
    nondeg = [r for r in records if not r.degenerate]
    primaries = [r.gcr_primary for r in nondeg]
    secondaries = [r.gcr_secondary for r in nondeg]
    is_gcr = bool(nondeg) and all(v < tols.tol_gcr for v in primaries)

    k_matrix = np.array([r.curvatures for r in records])
    h_matrix = np.array([r.means for r in records])

    def nearly_constant(column: np.ndarray) -> bool:
        tol = tols.tol_const_rel * (1.0 + abs(float(np.mean(column))))
        return float(np.ptp(column)) < tol

    is_isoparametric = all(nearly_constant(k_matrix[:, i]) for i in range(n))
    is_cmc = nearly_constant(h_matrix[:, 0])
    is_3_minimal = None
    is_delta2 = None
    if n >= 3:
        is_3_minimal = bool(np.max(np.abs(h_matrix[:, 2])) < tols.tol_gcr)
        is_delta2 = all(r.delta2 for r in records)

    counts = np.bincount([r.distinct_count for r in records])
    distinct_modal = int(np.argmax(counts))

    structural_max: dict[str, float] = {}
    for r in records:
        if r.structural is None:
            continue
        for key in STRUCTURAL_KEYS:
            value = getattr(r.structural, key)
            structural_max[key] = max(structural_max.get(key, 0.0), value)

    return SurfaceReport(
        name=m.name,
        n=n,
        grid=grid,
        tolerances=tols,
        records=records,
        skipped=skipped,
        is_gcr=is_gcr,
        is_isoparametric=is_isoparametric,
        is_cmc=is_cmc,
        is_3_minimal=is_3_minimal,
        is_delta2_ideal=is_delta2,
        distinct_curvature_count=distinct_modal,
        max_gcr_primary=max(primaries) if primaries else None,
        max_gcr_secondary=max(secondaries) if secondaries else None,
        fraction_degenerate=1.0 - len(nondeg) / len(records),
        structural_max=structural_max,
        jet_order=3 if include_structural and n == 3 else 2,
    )
