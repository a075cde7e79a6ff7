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
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral
from collections.abc import Sequence

import numpy as np

from .expr import ExprError
from .geometry import (
    EPS_REG,
    GeometryError,
    Immersion,
    PointGeometry,
    SingularPointError,
    _assemble,
    _fix_direction_signs,
    _jet_rows,
    _mm,
    _mv,
    _nabla_second_form,
    _principal_rows,
    _row,
    _stack,
    _sum,
    curvature_invariants,
    point_geometry,
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


def _gnorm(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g-norms of the vectors v (..., n) over a point axis of metrics g."""
    return np.sqrt(np.maximum(_sum(v * _mv(g, v)), 0.0))


def _position_rows(pg: PointGeometry, eps_tan_rel: float) -> PositionAngles:
    """position_angles over the point axis of a geometry block.  Rows at the
    origin read cos(theta) = 1, degenerate rows zero e1 and gradients: neither
    divides by 0."""
    x, g = pg.position, pg.metric
    # an ulp of cos(theta) moves theta by 1e-8 near 0 and pi, so mu, x.N and theta
    # keep np.linalg.norm's and x @ N's BLAS dot (one call per row) and math.acos
    mu = np.sqrt((x[:, None] @ x[..., None])[:, 0, 0])
    b = _mv(np.swapaxes(pg.jac, -1, -2), x)
    xT = np.linalg.solve(g, b[..., None])[..., 0]
    xT_norm = _gnorm(g, xT)
    eps_tan = eps_tan_rel * np.maximum(1.0, mu)
    at_origin = mu < eps_tan
    degenerate = at_origin | (xT_norm < eps_tan)
    x_n = (x[:, None] @ pg.normal[..., None])[:, 0, 0]
    cos_theta = np.clip(x_n / np.where(at_origin, 1.0, mu), -1.0, 1.0)
    cos_theta[at_origin] = 1.0
    theta = np.array([math.acos(c) for c in cos_theta.tolist()])
    ok = ~degenerate
    e1, theta_grad, mu_grad = np.zeros((3,) + b.shape)
    mu_grad[ok] = b[ok] / mu[ok, None]
    e1[ok] = xT[ok] / xT_norm[ok, None]
    st_b = _mv(np.swapaxes(pg.shape[ok], -1, -2), b[ok])
    theta_grad[ok] = (st_b + cos_theta[ok, None] * mu_grad[ok]) / xT_norm[ok, None]
    return PositionAngles(mu, cos_theta, theta, xT, xT_norm, degenerate, e1, theta_grad, mu_grad)


# this and the other one-row functions run under the sweep's error state
@np.errstate(all="raise", under="ignore")
def position_angles(pg: PointGeometry, eps_tan_rel: float = 1e-8) -> PositionAngles:
    """Tangential/normal split of the position vector at a regular point.

    Everything comes from ``pg``.  With b = J^T x, the gradients are
    d mu = b / mu and, by Weingarten's d<x, N> = -S^T b,
    d theta = (S^T b + cos(theta) d mu) / (mu sin(theta)).
    """
    pa = _row(_position_rows(_stack([pg]), eps_tan_rel), 0)
    return replace(pa, e1=None, theta_grad=None, mu_grad=None) if pa.degenerate else pa


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
    """Columns: a g-orthonormal basis of the g-orthogonal complement of v, row
    by row over a point axis of g (P, n, n) and v (P, n) if they have one.
    Gram-Schmidt seeds each row with the chart axes in its own stable order;
    every row walks the same steps, and a slot not yet filled subtracts 0."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return g_complement_basis(g[None], v[None])[0]
    rows, n = np.arange(v.shape[0]), v.shape[-1]
    vn = v / np.sqrt(_sum(v * _mv(g, v)))[:, None]
    # seed with the chart axes least aligned with v, for determinism
    order = np.argsort(np.abs(_mv(g, vn)), axis=-1, kind="stable")
    basis = np.zeros(v.shape[:1] + (n, n))  # basis[:, j]: the j-th accepted vector
    basis[:, 0] = vn
    filled = np.ones(v.shape[0], dtype=int)
    for step in range(n):
        if (filled == n).all():
            break
        cand = (order[:, step, None] == np.arange(n)).astype(float)
        for j in range(min(step + 1, n)):
            c = basis[:, j]
            cand = cand - _sum(cand * _mv(g, c))[:, None] * c
        norm = _gnorm(g, cand)
        take = (norm > 1e-10) & (filled < n)
        basis[rows[take], filled[take]] = cand[take] / norm[take, None]
        filled += take
    if (filled < n).any():
        raise DegeneratePointError("metric too degenerate for a complement basis")
    return np.swapaxes(basis[:, 1:], -1, -2)


def _gcr_rows(g, shape, e1, theta_grad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primary and secondary residuals over a point axis of nondegenerate rows,
    and the complement basis of e1 that the secondary one reads."""
    se1 = _mv(shape, e1)
    tail = se1 - _sum(se1 * _mv(g, e1))[:, None] * e1
    primary = _gnorm(g, tail)
    comp = g_complement_basis(g, e1)
    secondary = np.abs(_mv(np.swapaxes(comp, -1, -2), theta_grad)).max(axis=-1)
    return primary, secondary, comp


@np.errstate(all="raise", under="ignore")
def gcr_residual(pa: PositionAngles, pg: PointGeometry) -> GcrResidual:
    """Both position-principal residuals at a nondegenerate point."""
    if pa.degenerate:
        raise DegeneratePointError(
            "tangential position vanishes; the position-principal test is vacuous here"
        )
    rows = _gcr_rows(pg.metric[None], pg.shape[None], pa.e1[None], pa.theta_grad[None])
    return GcrResidual(rows[0].item(), rows[1].item())


def delta2_ideal_test(k: Sequence[float], tol: float) -> bool | np.ndarray:
    """True when one curvature equals the sum of the other two within tol;
    one flag per row for curvatures (P, n) and tolerances (P,).

    This is the spectral form of the ideal split {a, b, a + b} that the
    classification flags report as is_delta2_ideal.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim == 0 or k.shape[-1] < 3:
        raise ValueError("spectral split test needs at least three curvatures")
    # k_i = k_j + k_l  <=>  2 k_i = k_1 + k_2 + k_3
    split = np.abs(2.0 * k - _sum(k)[..., None]).min(axis=-1) <= tol
    return split if split.ndim else bool(split)


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


# the transport checks that follow the complement eigenvectors, then every detail, in report order
_TRANSPORT_KEYS = ("k2-transport", "k3-transport", "frame-twist", "k3-cross", "k2-cross")
_DETAIL_KEYS = ("k1-flat-2", "k1-flat-3", *_TRANSPORT_KEYS)
# why a report row has no structural residuals, by whether it is degenerate
_NOTES = ("not position-principal here: structural identities not expected",
          "degenerate point: no tangential direction to adapt a frame to")


def _structural_rows(pg: PointGeometry, pd, pa, comp, tol_gap: float) -> np.ndarray:
    """structural_residuals over the point axis of a block of nondegenerate
    rows (of order-3 geometry on 3-dimensional charts), from the block, its
    principal and position data and the complement basis of e1: (P, 13)
    floats, STRUCTURAL_KEYS then _DETAIL_KEYS, NaN for a check not made."""
    g, h, shape = pg.metric, pg.second_form, pg.shape
    n = g.shape[-1]
    e1, mu, cos_t = pa.e1, pa.mu, pa.cos_theta
    sin_t = pa.xT_norm / mu
    # the position-adapted frame: e1, then the g-orthonormal eigenvectors,
    # ascending by eigenvalue lams, of S restricted to the g-complement of e1
    restricted = _mm(_mm(_mm(np.swapaxes(comp, -1, -2), g), shape), comp)
    lams, vecs = np.linalg.eigh(0.5 * (restricted + np.swapaxes(restricted, -1, -2)))
    frame = np.concatenate([e1[..., None], _fix_direction_signs(_mm(comp, vecs))], axis=-1)
    ft = np.swapaxes(frame, -1, -2)  # ft[:, i] is frame column i

    # identities that only need exact gradients of theta and mu
    ge1 = _mv(g, e1)
    k1_index = np.abs(_mv(np.swapaxes(pd.directions, -1, -2), ge1)).argmax(axis=-1)
    k1 = np.take_along_axis(pd.curvatures, k1_index[:, None], axis=-1)[:, 0]
    r_k1 = np.abs(k1 - _sum(e1 * pa.theta_grad) + cos_t / mu)
    flat = np.concatenate([_mv(ft[:, 1:], pa.theta_grad), _mv(ft[:, 1:], pa.mu_grad)], axis=-1)

    # cov[:, l] = nabla_{e_l} e1, from second-order data
    w = frame + (mu * cos_t)[:, None, None] * _mm(shape, frame)
    w = w - e1[..., None] * _mv(np.swapaxes(w, -1, -2), ge1)[:, None, :]
    cov = np.swapaxes(w, -1, -2) / pa.xT_norm[:, None, None]
    coeff = (1.0 + (mu * cos_t)[:, None] * lams) / (mu * sin_t)[:, None]
    out = np.full((len(g), len(STRUCTURAL_KEYS) + len(_DETAIL_KEYS)), np.nan)
    out[:, :4] = np.stack([_gnorm(g, cov[:, 0]), r_k1, np.abs(flat).max(axis=-1), _gnorm(
        g[:, None], cov[:, 1:] - coeff[..., None] * ft[:, 1:]).max(axis=-1)], axis=-1)
    if n == 2:
        out[:, 4:6] = 0.0
        return out

    cov_g = _mm(_mm(cov, g), frame)  # cov_g[:, l, i] = <nabla_{e_l} e1, e_i>
    # omega_12(e3) and omega_13(e2)
    out[:, 4] = np.maximum(np.abs(cov_g[:, 2, 1]), np.abs(cov_g[:, 1, 2]))
    # dh[:, l, a, b] = (nabla_{e_l} h)(e_a, e_b); h1[:, i] = h(e1, e_i)
    dh = _mm(ft, _nabla_second_form(pg).reshape(-1, n, n * n)).reshape(-1, n, n, n)
    dh = _mm(_mm(ft[:, None], dh), frame[:, None])
    h1 = _mv(ft, _mv(h, e1))
    dk1 = dh[:, :, 0, 0] + 2.0 * _mv(cov_g, h1)
    # dvals[:, l, i] = e_l(k_{i+2}); twist[:, l] = (k2 - k3) omega_23(e_l)
    dvals = dh[:, :, [1, 2], [1, 2]] - 2.0 * cov_g[:, :, 1:] * h1[:, None, 1:]
    twist = dh[:, :, 1, 2] - cov_g[:, :, 1] * h1[:, 2, None] - cov_g[:, :, 2] * h1[:, 1, None]
    out[:, 6:8] = np.abs(dk1[:, 1:])
    coincide = np.abs(lams[:, 1] - lams[:, 0]) < tol_gap
    out[~coincide, 8:] = np.abs(np.stack([
        dvals[:, 0, 0] - coeff[:, 0] * (k1 - lams[:, 0]),
        dvals[:, 0, 1] - coeff[:, 1] * (k1 - lams[:, 1]),
        twist[:, 0],
        dvals[:, 1, 1] - twist[:, 2],
        dvals[:, 2, 0] - twist[:, 1],
    ], axis=-1))[~coincide]
    out[:, 5] = np.fmax.reduce(out[:, 6:], axis=-1)
    return out


def _structural(row: list[float], n: int) -> StructuralResiduals:
    """The StructuralResiduals of one row of _structural_rows on an
    n-dimensional chart: its checks made, and why the others were not."""
    details = {k: v for k, v in zip(_DETAIL_KEYS, row[6:]) if v == v}
    skipped = ("curvature transport system (3-dimensional charts only)",) if n == 2 else tuple(
        f"{key} (complement curvatures coincide)" for key in _TRANSPORT_KEYS if key not in details)
    return StructuralResiduals(*row[:6], details, skipped)


@np.errstate(all="raise", under="ignore")
def structural_residuals(
    m: Immersion,
    p: Sequence[float],
    tol_gap: float = 1e-4,
    eps_reg: float = EPS_REG,
) -> StructuralResiduals:
    """Residuals of the identities that hold along a position-principal
    surface, in closed form from one jet evaluation at ``p`` (order 3 on a
    3-dimensional chart): the one-row call of the kernel that
    classify_surface runs over grid blocks when it includes them, its row
    decoded as the report's records decode theirs.

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
    two complement curvatures are closer than tol_gap.  A point outside the
    chart box raises OutOfDomainError.
    """
    pg = _stack([point_geometry(m, p, eps_reg, order=3 if m.n == 3 else 2)])
    pa = _position_rows(pg, Tolerances.eps_tan_rel)
    if pa.degenerate[0]:
        raise DegeneratePointError("structural identities are vacuous at this point")
    pd = _principal_rows(pg.metric, pg.second_form, tol_gap)
    row = _structural_rows(pg, pd, pa, g_complement_basis(pg.metric, pa.e1), tol_gap)[0]
    return _structural(row.tolist(), m.n)


# -- grid classification ---------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Inclusive uniform grid: counts[i] samples along domain axis i."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = self.counts
        if not isinstance(counts, tuple | list) or not all(
            isinstance(c, Integral) and not isinstance(c, bool) and c >= 1 for c in counts
        ):
            raise ValueError(f"grid counts must be integers of at least 1, got {counts!r}")
        # a tuple of Python ints, so that equal grids hash and compare equal
        object.__setattr__(self, "counts", tuple(map(int, counts)))

    def axes(self, domain: Sequence[Sequence[float]]) -> list[np.ndarray]:
        if len(self.counts) != len(domain):
            raise ValueError("grid rank does not match the domain")
        return [np.linspace(lo, hi, count) if count > 1 else np.array([(lo + hi) / 2.0])
                for count, (lo, hi) in zip(self.counts, domain)]

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

    def __post_init__(self):
        # each field a finite int or float >= 0, not a bool or a numeric
        # string; compared as it is, so an int beyond float range fails too
        for f in fields(self):
            x = getattr(self, f.name)
            if isinstance(x, bool) or not (
                isinstance(x, (int, float)) and 0 <= x <= sys.float_info.max
            ):
                raise ValueError(f"tolerance {f.name!r} must be a finite number >= 0, got {x!r}")
            object.__setattr__(self, f.name, float(x))

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
    # by PointRecord field but structural_note, one array over the classified
    # points in grid order (residuals NaN where degenerate; structural rows as
    # _structural_rows gives them, NaN where unchecked), or None where every
    # record holds None: delta2 on 2-D charts, and structural unless included
    columns: dict[str, np.ndarray | None]
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

    @staticmethod
    def _rows(columns: dict):
        """Per row of the PointRecord ``columns``, its fields as Python values
        in field order: lists for the point, curvatures and means, and the
        structural row decoded, its note derived."""
        size = len(columns["mu"])
        out = {name: [None] * size if column is None else column.tolist()
               for name, column in columns.items()}
        for name in ("gcr_primary", "gcr_secondary"):
            out[name] = [None if d else v for d, v in zip(out["degenerate"], out[name])]
        out["structural_note"] = [None] * size
        if columns["structural"] is not None:
            n = columns["point"].shape[1]
            out["structural"] = [None if math.isnan(r[0]) else _structural(r, n)
                                 for r in out["structural"]]
            out["structural_note"] = [_NOTES[d] if s is None else None
                                      for s, d in zip(out["structural"], out["degenerate"])]
        return zip(*(out[f.name] for f in fields(PointRecord)))

    @property
    def records(self) -> list[PointRecord]:
        """One PointRecord per classified point, built from the columns on
        each access."""
        return [PointRecord(tuple(p), mu, th, tuple(k), tuple(h), *rest)
                for p, mu, th, k, h, *rest in self._rows(self.columns)]


# grid points classified together once their geometry is assembled: enough
# rows that numpy's per-call cost fades, few enough to stay in cache
_BLOCK = 1024


def _concat(parts: list[dict | None]) -> dict | None:
    """The columns of consecutive rows as one, None parts left out (None if
    every part is); a None column stays None."""
    parts = [p for p in parts if p is not None]
    return {name: None if column is None else np.concatenate([p[name] for p in parts])
            for name, column in parts[0].items()} if parts else None


def _skip_reason(exc: Exception, det_g: float | None = None) -> str:
    """Why a point is skipped: a singular metric, whose det g a SingularPointError
    carries and a LinAlgError is given, or else the text of the failed evaluation."""
    if isinstance(exc, SingularPointError):
        det_g = exc.det_g
    elif not isinstance(exc, np.linalg.LinAlgError):
        return f"evaluation failed: {exc}"
    return f"singular metric (det g = {det_g:.3e})"


def _classify_rows(pg: PointGeometry, tols: Tolerances,
                   include_structural: bool = False) -> tuple[dict | None, list]:
    """The PointRecord columns of the rows of the geometry block ``pg`` (order
    3 if include_structural on a 3-dimensional chart) that classify, None if
    none does, and per row None or why it is skipped.  With include_structural,
    rows that pass the primary test get structural residuals, the others a
    row of NaN.  If the block raises, its rows rerun one at a time and keep their
    own reasons."""
    g, h, shape = pg.metric, pg.second_form, pg.shape
    rows = len(g)
    try:
        pd = _principal_rows(g, h, tols.tol_gap)
        pa = _position_rows(pg, tols.eps_tan_rel)
        k = pd.curvatures
        means = curvature_invariants(k).mean
        ok = ~pa.degenerate
        primary, secondary = np.full((2, rows), np.nan)
        primary[ok], secondary[ok], comp = _gcr_rows(
            g[ok], shape[ok], pa.e1[ok], pa.theta_grad[ok]
        )
        tol_d2 = tols.tol_const_rel * (1.0 + np.abs(k).max(axis=-1))
        columns = dict(
            point=pg.point, mu=pa.mu, theta=pa.theta, curvatures=k, means=means,
            distinct_count=pd.distinct_count, degenerate=pa.degenerate,
            gcr_primary=primary, gcr_secondary=secondary,
            delta2=delta2_ideal_test(k, tol_d2) if k.shape[-1] >= 3 else None, structural=None,
        )
        if include_structural:
            passed = primary[ok] < tols.tol_gcr
            sel = np.flatnonzero(ok)[passed]
            found = _structural_rows(_row(pg, sel), _row(pd, sel), _row(pa, sel),
                                     comp[passed], tols.tol_gap)
            columns["structural"] = np.full((rows, found.shape[1]), np.nan)
            columns["structural"][sel] = found
    except (FloatingPointError, np.linalg.LinAlgError, DegeneratePointError) as exc:
        if rows > 1:
            outs = [_classify_rows(_row(pg, [i]), tols, include_structural) for i in range(rows)]
            return _concat([c for c, _ in outs]), [why for _, (why,) in outs]
        return None, [_skip_reason(exc, pg.det_metric[0])]
    return columns, [None] * rows


def _classify_block(m: Immersion, block: np.ndarray, order: int, tols: Tolerances,
                    include_structural: bool) -> tuple[PointGeometry | None, dict | None, list]:
    """Classify the points of ``block`` (P, n): their geometry as one block
    (None if no point assembles), the PointRecord columns of the points that
    classify (None if none does), and per point None or why it is skipped.
    The jets come from one stacked evaluation.  With include_structural the
    block is assembled from it at once; if that raises, or without,
    point_geometry assembles each point from its row (``_rows``), or from its
    own evaluation if the stacked one raised or the row is not finite, so that
    a division by zero the stack carried on as inf or NaN fails with its own
    text.  Evaluation and assembly share one errstate(all="ignore"), and the
    assembled rows are classified by _classify_rows under the caller's."""
    pg = rows = None
    reasons = [None] * len(block)
    with np.errstate(all="ignore"):
        try:
            rows = _jet_rows(m, block, order, False)
            # the plain sweep still assembles each point from its row, as bench/run.py
            # asserts one point_geometry call per point there; once it counts
            # evaluated rows, this condition goes and every block is assembled at once
            if include_structural:
                pg = _assemble(block, rows, tols.eps_reg)
        # an evaluation error in any row fails the stacked evaluation, and a singular
        # or overflowing row the stacked assembly
        except GeometryError:
            pass
        if pg is None:
            finite = [False] * len(block) if rows is None else np.isfinite(rows).all(axis=(1, 2))
            found = []
            for i, p in enumerate(block):
                try:
                    found.append(point_geometry(m, p, tols.eps_reg, check_domain=False,
                                                order=order, _rows=rows[i] if finite[i] else None))
                except (GeometryError, ExprError) as exc:
                    reasons[i] = _skip_reason(exc)
            pg = _stack(found) if found else None
    columns, why = (None, []) if pg is None else _classify_rows(pg, tols, include_structural)
    why = iter(why)
    return pg, columns, [r or next(why) for r in reasons]


def classify_surface(
    m: Immersion,
    grid: GridSpec,
    tols: Tolerances = Tolerances(),
    include_structural: bool = False,
) -> SurfaceReport:
    """Sweep a grid, in grid order, one block at a time (_classify_block), and
    aggregate per-point geometry into classification flags.  Every row has the
    bits of the per-point functions."""
    points = grid.points(m.domain)
    # 3-D transport checks read third partials: one order-3 evaluation serves both
    order = 3 if include_structural and m.n == 3 else 2

    parts: list[dict | None] = []
    skipped: list[tuple[tuple[float, ...], str]] = []
    # numpy overflow or NaN in a point's figures, or a metric too degenerate
    # for its complement basis, skips the point like a failed evaluation;
    # assembly itself refuses non-finite jets and geometry
    with np.errstate(all="raise", under="ignore"):
        for start in range(0, len(points), _BLOCK):
            block = points[start : start + _BLOCK]
            _, columns, reasons = _classify_block(m, block, order, tols, include_structural)
            parts.append(columns)
            skipped += [(tuple(block[i].tolist()), r) for i, r in enumerate(reasons) if r]

    columns = _concat(parts)
    if columns is None:
        where, reason = skipped[0]
        raise EmptyReportError(f"no regular grid point: first failure at {list(where)} ({reason})")

    n = m.n
    k, means = columns["curvatures"], columns["means"]
    nondeg = ~columns["degenerate"]
    primaries, secondaries = columns["gcr_primary"][nondeg], columns["gcr_secondary"][nondeg]
    structural = columns["structural"]
    checked = structural[~np.isnan(structural[:, 0]), :6] if include_structural else []

    def nearly_constant(column: np.ndarray) -> bool:
        tol = tols.tol_const_rel * (1.0 + abs(float(np.mean(column))))
        return float(np.ptp(column)) < tol

    def largest(column: np.ndarray) -> float | None:
        # the first of equal maxima, as max() takes it: -0.0 and 0.0 keep their order
        return column[np.argmax(column)].item() if column.size else None

    return SurfaceReport(
        name=m.name,
        n=n,
        grid=grid,
        tolerances=tols,
        columns=columns,
        skipped=skipped,
        is_gcr=bool(primaries.size) and bool((primaries < tols.tol_gcr).all()),
        is_isoparametric=all(nearly_constant(k[:, i]) for i in range(n)),
        is_cmc=nearly_constant(means[:, 0]),
        is_3_minimal=bool(np.max(np.abs(means[:, 2])) < tols.tol_gcr) if n >= 3 else None,
        is_delta2_ideal=bool(columns["delta2"].all()) if n >= 3 else None,
        distinct_curvature_count=int(np.argmax(np.bincount(columns["distinct_count"]))),
        max_gcr_primary=largest(primaries),
        max_gcr_secondary=largest(secondaries),
        fraction_degenerate=1.0 - primaries.size / len(k),
        structural_max=dict(zip(STRUCTURAL_KEYS, np.maximum(checked.max(axis=0), 0.0).tolist()))
        if len(checked) else {},
        jet_order=order,
    )
