"""Differential geometry of parametrized hypersurfaces, at a point or over a
stack of points.

An :class:`Immersion` maps an n-dimensional chart (n = 2 or 3) into
Euclidean (n+1)-space.  Everything here comes from the chart's exact
partials (``evaluate_jets``: one program of derivative trees, run on floats
at a point, or on float arrays at a stack of points, whose rows each carry
the bits of their point alone): first fundamental form, oriented unit
normal, second fundamental form, shape operator, principal
curvatures/directions, mean-curvature ladder, and the residuals of the Gauss and Codazzi equations
(which hold for every immersion and therefore double as an end-to-end
self-test of the derivative pipeline).  ``PointGeometry`` holds no
Christoffel symbols: at order 3 it carries d_k g_ij, from which
``_christoffel`` computes them for the two callers that read them, the
covariant derivative of h and the self-test.  That covariant derivative of
the second fundamental form, from which ``gcr.structural_residuals`` takes
the principal frame's derivatives in closed form, comes from order-3
geometry (``point_geometry(order=3)``), so no frame is ever differenced
across neighbouring points.  A point whose jets
or geometry overflow the float range raises GeometryError instead of
returning infinities: order 2 checks the figures its callers read, and
order 3 adds d_k g_ij and the third partials.  The assembly calls numpy's
LAPACK gufuncs for det, solve and inv directly, without np.linalg's argument
checks, under one errstate(all="ignore") that its caller enters (once per
block for a grid sweep): a singular or overflowing metric becomes NaN or inf,
which that finiteness check reports.  One generalized cross product
kernel, a few products of stacked rows, gives the normal; the self-test takes
its derivative from second partials alone, all its Leibniz factors in one
gather, and d_k Gamma^l_ij from the chart partials, by Gamma_m,ij = <x_ij,
x_m>.  Its Riemann tensor and both residuals are each one antisymmetrization
in the first two indices, under errstate(all="raise", under="ignore") as the
sweep's one-row functions run: an overflow raises instead of passing as a
NaN residual.  A grid sweep assembles a block, or each point, from
the partial rows of one stacked evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from collections.abc import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .jet import derivative_tensor
from .expr import Expr, ExprError, Program, _partials, parse_expr

__all__ = [
    "EPS_REG",
    "GeometryError",
    "OutOfDomainError",
    "SingularPointError",
    "EvaluationError",
    "Immersion",
    "evaluate_jets",
    "PointGeometry",
    "point_geometry",
    "PrincipalData",
    "principal_data",
    "CurvatureInvariants",
    "curvature_invariants",
    "DerivativeBundle",
    "derivative_bundle",
]

EPS_REG = 1e-10

# The LAPACK gufuncs (xGETRF, xGESV) behind np.linalg.det, solve and inv, whose
# argument checks and error state cost more per call than LAPACK on a 3x3
# metric.  The assembly's metrics are float64 and square, and it runs under
# errstate(all="ignore"), where a singular factorization yields NaNs that its
# finiteness check reports.  The block kernels keep np.linalg: its LinAlgError
# drives their per-row reruns.
_det = functools.partial(_umath_linalg.det, signature="d->d")
_solve = functools.partial(_umath_linalg.solve, signature="dd->d")
_inv = functools.partial(_umath_linalg.inv, signature="d->d")


class GeometryError(Exception):
    """Base class for geometry failures."""


class OutOfDomainError(GeometryError):
    def __init__(self, point, domain):
        where = [float(v) for v in point]
        super().__init__(f"point {where} outside domain box {domain}")
        self.point = tuple(where)


class SingularPointError(GeometryError):
    """The first fundamental form is numerically degenerate."""

    def __init__(self, point, det_g: float):
        where = [float(v) for v in point]
        super().__init__(f"metric is singular at {where} (det g = {det_g:.3e})")
        self.point = tuple(where)
        self.det_g = det_g


class EvaluationError(GeometryError):
    """A component expression failed to evaluate at a chart point."""

    def __init__(self, point, cause: Exception):
        where = np.asarray(point, dtype=float).tolist()  # one point or a stack
        super().__init__(f"component evaluation failed at {where}: {cause}")
        self.point = tuple(where)


# -- immersion ---------------------------------------------------------------------

# a chart point this far outside its box, relative to the box's bounds, is inside
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class Immersion:
    """Parametrized hypersurface patch x: chart box -> E^(n+1).

    Its components are expression trees over the chart variables; a catalog
    frame with no closed form enters them as interpolant nodes
    (``expr._CurveAt``).  Their partials up to each order come from
    derivative trees, compiled into one program per order on first use
    (``_program``), so that building a chart derives nothing.
    """

    name: str
    var_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    components: tuple[Expr, ...]
    # order -> its program, and the derivative memo the orders share
    _programs: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        n = len(self.var_names)
        if n not in (2, 3):
            raise ValueError(f"chart dimension must be 2 or 3, got {n}")
        if len(self.domain) != n:
            raise ValueError("domain box must have one interval per chart variable")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError(f"empty domain interval [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ValueError(f"domain interval [{lo}, {hi}] needs finite bounds and width")
        if len(self.components) != n + 1:
            raise ValueError(
                f"need {n + 1} ambient components, got {len(self.components)}"
            )

    @property
    def n(self) -> int:
        return len(self.var_names)

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @classmethod
    def from_exprs(
        cls,
        name: str,
        components: Sequence[str | Expr],
        var_names: Sequence[str],
        domain: Sequence[Sequence[float]],
    ) -> "Immersion":
        names = tuple(var_names)
        parsed = tuple(
            parse_expr(c, names) if isinstance(c, str) else c for c in components
        )
        box = tuple((float(lo), float(hi)) for lo, hi in domain)
        return cls(name, names, box, components=parsed)

    def _program(self, order: int) -> Program:
        """The program of every component's partials up to ``order``, in
        the layout of ``gcrkit.jet``, component after component."""
        program = self._programs.get(order)
        if program is None:
            rows = _partials(self.components, self.var_names, order, self._memo)
            program = self._programs[order] = Program(rows)
        return program

    def contains(self, p: Sequence[float]) -> bool:
        if len(p) != self.n:
            raise ValueError(f"expected a chart point with {self.n} coordinates, got {len(p)}")
        for value, (lo, hi) in zip(p, self.domain):
            pad = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
            if not lo - pad <= value <= hi + pad:
                return False
        return True


def evaluate_jets(
    m: Immersion, p: Sequence[float], order: int = 3, check_domain: bool = True
) -> np.ndarray:
    """The partial rows of all ambient components of ``m`` at chart point
    ``p``, (n+1, D) in the layout of ``gcrkit.jet``, from one run of its
    order-``order`` program on floats, or (P, n+1, D) at the rows of a stack
    ``p`` (P, n), from one run on float arrays: C-contiguous and read-only."""
    if order not in (1, 2, 3):
        raise ValueError(f"evaluation order must be 1, 2 or 3, got {order}")
    q = np.asarray(p, dtype=float)
    if q.shape[-1:] != (m.n,) or q.ndim > 2:
        raise ValueError(f"expected a chart point with {m.n} coordinates, or a stack of them")
    if check_domain:
        for row in q.reshape(-1, m.n):
            if not m.contains(row):
                raise OutOfDomainError(row, m.domain)
    at = q.tolist() if q.ndim == 1 else np.ascontiguousarray(q.T)
    try:
        rows = m._program(order)(dict(zip(m.var_names, at)))
    except ExprError as exc:
        raise EvaluationError(q, exc) from exc
    c = np.array(rows) if q.ndim == 1 else np.stack(rows, axis=-1)  # a row per point
    c = c.reshape(*q.shape[:-1], m.n + 1, -1)
    c.flags.writeable = False
    return c


# -- generalized cross product -------------------------------------------------------


@functools.cache
def _cross_terms(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leibniz terms v_a = sum of sgn(s) prod_c M[s(c), c] over permutations
    s with s(k) = a: factor positions in the flat (k+1, k) matrix, signs."""
    perms = sorted(itertools.permutations(range(k + 1)), key=lambda s: s[k])
    gather = np.array([[s[c] * k + c for s in perms] for c in range(k)])
    inversions = [sum(x > y for x, y in itertools.combinations(s, 2)) for s in perms]
    sign = np.array([(-1.0) ** i for i in inversions]).reshape(k + 1, -1, 1)
    return gather, sign


def _cross_rows(matrix: np.ndarray) -> np.ndarray:
    """Generalized cross product of the k columns of ``matrix`` (k+1, k, ...,
    D) over any point axes, the points on the last axis: the (k+1)·k!
    Leibniz terms take k - 1 products.  Entry a of the result is v_a, with
    <v, w> = det[columns | w], so (columns..., v) is positively oriented."""
    amb, k, *points, size = matrix.shape
    gather, sign = _cross_terms(k)
    factors = matrix.reshape(amb * k, -1)[gather].reshape(k, -1, size)
    terms = factors[0]
    for f in factors[1:]:
        terms = terms * f
    terms = terms.reshape(amb, sign.shape[1], -1) * sign  # points and D share the last axis
    return terms.sum(axis=1).reshape(amb, *points, size)


@functools.cache
def _normal_derivative_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions (n, T, n*n + 1) of the Leibniz factors of _normal_derivative's
    n*n + 1 cross products in a point's flat (jac, sec): _cross_terms's gather,
    with x_j replaced by x_ji in product i*n + j; then the signs (n+1, T) that
    sum the terms into components, and the 0/1 rows that sum products i*n + j
    over j into d_i v, then pick v, the last product's."""
    gather, sign = _cross_terms(n)
    row, col = gather[..., None] // n, gather[..., None] % n  # factor c of a term is M[row, c]
    ij = np.arange(n * n + 1)
    replaced = (col == ij % n) & (ij < n * n)
    index = np.where(replaced, (n + 1) * n + row * n * n + col * n + ij // n, gather[..., None])
    signs = (np.eye(n + 1)[:, :, None] * sign[..., 0]).reshape(n + 1, -1)
    return index, signs, (ij // n == np.arange(n + 1)[:, None]).astype(float)


def _normal_derivative(jac: np.ndarray, sec: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """dn[i, c] = d_i N_c at one point, from the tangents ``jac`` (n+1, n),
    the second partials ``sec`` and the unit normal N = v/|v|, v the cross
    product of the tangents: d_i v = sum_j cross(x_1, ..., x_ji, ..., x_n)
    and d_i N = (d_i v - N <N, d_i v>)/|v|.  The Leibniz factors of all
    n*n + 1 cross products come from one gather.  It reads no shape
    operator, so Codazzi checks it independently of Weingarten's equation."""
    n = jac.shape[1]
    index, signs, sums = _normal_derivative_terms(n)
    factors = np.concatenate((jac.ravel(), sec.ravel()))[index]
    dv = sums @ (signs @ factors.prod(axis=0)).T  # rows d_1 v, ..., d_n v, then v
    dv, v = dv[:-1], dv[-1]
    return (dv - (dv @ normal)[:, None] * normal) / math.sqrt(v @ v)


# -- first/second order data ----------------------------------------------------------


@dataclass
class PointGeometry:
    """First- and second-order surface data at one chart point, or at each
    of a stack of points along every field's leading axis."""

    point: np.ndarray
    position: np.ndarray       # ambient position x
    jac: np.ndarray            # (n+1, n) tangent vectors x_i as columns
    second: np.ndarray         # (n+1, n, n) second partials of x
    metric: np.ndarray         # g_ij
    det_metric: float | np.ndarray  # det g, (P,) over a stack
    normal: np.ndarray         # oriented unit normal
    second_form: np.ndarray    # h_ij = <x_ij, N>
    shape: np.ndarray          # S = g^{-1} h
    third: np.ndarray | None = None    # third partials of x, from order-3 jets
    dmetric: np.ndarray | None = None  # [k, i, j] -> d_k g_ij, with third

    @property
    def n(self) -> int:
        return self.metric.shape[-1]


def _dmetric(jac: np.ndarray, sec: np.ndarray) -> np.ndarray:
    """dg[..., k, i, j] = d_k g_ij = <x_ki, x_j> + <x_i, x_kj>."""
    dg = np.einsum("...cki,...cj->...kij", sec, jac)
    return dg + dg.swapaxes(-1, -2)


def _christoffel(pg: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """g^-1 and gamma[l, i, j] = Gamma^l_ij of order-3 geometry ``pg``, from
    its d_k g_ij, over any leading point axes: only the covariant derivative
    of h and the self-test read them.  Every metric here has passed the
    assembly's det and finiteness checks, so its inverse needs no singularity
    check."""
    dg = pg.dmetric
    ginv = _inv(pg.metric)
    # A[m,i,j] = dg[i,m,j] + dg[j,m,i] - dg[m,i,j]
    a = np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg) - dg
    return ginv, 0.5 * np.einsum("...lm,...mij->...lij", ginv, a)


def _assemble(q: np.ndarray, rows: np.ndarray, eps_reg: float) -> PointGeometry:
    """Geometry at ``q`` from the partial rows of one evaluation there
    (``evaluate_jets``), of order 2, or of order 3, read from their width, with
    ``third`` and ``dmetric`` filled.  A stack ``q`` (P, n) gives every field
    a leading point axis, and each row the bits of its point alone.  It runs
    under the caller's errstate(all="ignore"): overflow and its NaNs, and a
    singular factorization's NaNs, are caught once, here, instead of as numpy
    warnings or errors.  A point whose rows or assembled geometry are not
    finite raises GeometryError, as does a stack with one such row.  Order 2
    checks what its callers read (the rows, g, N and S); order 3 adds d_k g_ij
    and the third partials, which only its callers read."""
    n = q.shape[-1]
    pos = rows[..., 0].copy()  # a strided view would round differently in products
    jac, sec = (derivative_tensor(rows, n, rank) for rank in (1, 2))
    g = jac.swapaxes(-1, -2) @ jac
    det_g = _det(g)
    singular = det_g <= eps_reg  # a NaN goes on to the finiteness check
    if singular.any() if q.ndim == 2 else singular:
        i = np.argmax(singular)
        raise SingularPointError(q.reshape(-1, n)[i], float(np.ravel(det_g)[i]))
    # the points go on the cross product's last axis, and the normals come
    # out contiguous: the length is np.linalg.norm's BLAS dot, row by row,
    # which a strided row would round differently
    v = _cross_rows(jac.reshape(-1, n + 1, n).transpose(1, 2, 0))
    v = np.ascontiguousarray(v.T).reshape(pos.shape)
    normal = v / np.sqrt(v[..., None, :] @ v[..., None])[..., 0]
    h = np.einsum("...cij,...c->...ij", sec, normal)
    h = 0.5 * (h + h.swapaxes(-1, -2))
    shape = _solve(g, h)
    checked = [rows, g, normal, shape]
    dg = third = None
    if rows.shape[-1] > math.comb(n + 2, 2):  # wider than the order-2 layout
        dg, third = _dmetric(jac, sec), derivative_tensor(rows, n, 3)
        checked += [dg, third]
    if not np.isfinite(np.concatenate([x.ravel() for x in checked])).all():
        raise GeometryError(f"jets or geometry not finite at {q.tolist()}")
    return PointGeometry(
        point=q.copy(),
        position=pos,
        jac=jac,
        second=sec,
        metric=g,
        det_metric=det_g if q.ndim == 2 else float(det_g),
        normal=normal,
        second_form=h,
        shape=shape,
        third=third,
        dmetric=dg,
    )


def point_geometry(
    m: Immersion,
    p: Sequence[float],
    eps_reg: float = EPS_REG,
    check_domain: bool = True,
    order: int = 2,
    *,
    _rows: np.ndarray | None = None,
) -> PointGeometry:
    """Fundamental forms, normal and shape operator from one evaluation at
    jet order 2, or at order 3 with ``third`` and ``dmetric`` filled.  The
    Christoffel symbols are left to the callers that read them
    (``_christoffel``).  ``_rows``, a point's rows (n+1, D) of a block's
    stacked evaluation, which equal its own bit for bit, stands in for its
    evaluation and gives the order; the block caller that passes it has
    checked the domain, and has entered errstate(all="ignore") once for the
    whole block."""
    if order not in (2, 3):
        raise ValueError(f"geometry order must be 2 or 3, got {order}")
    q = np.asarray(p, dtype=float)
    if _rows is not None:
        return _assemble(q, _rows, eps_reg)
    with np.errstate(all="ignore"):
        return _assemble(q, evaluate_jets(m, q, order, check_domain), eps_reg)


# -- principal curvatures ---------------------------------------------------------------


@dataclass
class PrincipalData:
    """Sorted principal curvatures with g-orthonormal direction columns."""

    curvatures: np.ndarray     # ascending
    directions: np.ndarray     # column i is the direction for curvatures[i]
    gaps: float                # smallest pairwise eigenvalue separation
    distinct_count: int


def _sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right.  Unlike np.sum or BLAS, it gives
    each row of a point axis the same bits whatever rows sit beside it, so the
    per-point functions are one-row calls of the kernels over grid blocks."""
    out = a[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i]
    return out


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:  # a @ v over leading axes
    return _sum(a * v[..., None, :])


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # a @ b over leading axes
    return _sum(a[..., :, None, :] * np.swapaxes(b, -1, -2)[..., None, :, :])


def _row(stack, i):
    """Row i of a dataclass of stacked fields, numpy scalars as Python numbers;
    an index array ``i`` takes the stack of those rows.  A None field stays None."""
    values = (getattr(stack, f.name) for f in fields(stack))
    rows = (v if v is None else v[i] for v in values)
    return type(stack)(*(v.item() if isinstance(v, np.generic) else v for v in rows))


def _stack(rows: Sequence):
    """The dataclasses ``rows`` as one of stacked fields, the inverse of _row;
    a field that is None in the first row stays None."""
    names = [f.name for f in fields(rows[0])]
    values = ([getattr(r, name) for r in rows] for name in names)
    return type(rows[0])(*(None if v[0] is None else np.array(v) for v in values))


def _fix_direction_signs(directions: np.ndarray) -> np.ndarray:
    """Flip each column so that its first largest entry is positive."""
    lead = np.argmax(np.abs(directions), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(directions, lead, axis=-2) < 0, -directions, directions)


def _principal_rows(g: np.ndarray, h: np.ndarray, tol_gap: float) -> PrincipalData:
    """principal_data over a point axis; a metric with no Cholesky factor
    raises LinAlgError."""
    li = np.linalg.inv(np.linalg.cholesky(g))
    a = _mm(_mm(li, h), np.swapaxes(li, -1, -2))
    w, y = np.linalg.eigh(0.5 * (a + np.swapaxes(a, -1, -2)))
    vecs = _fix_direction_signs(_mm(np.swapaxes(li, -1, -2), y))
    i, j = np.triu_indices(w.shape[-1], 1)
    gaps = np.abs(w[:, i] - w[:, j]).min(axis=-1)
    distinct = 1 + np.count_nonzero(np.diff(w, axis=-1) > tol_gap, axis=-1)
    return PrincipalData(curvatures=w, directions=vecs, gaps=gaps, distinct_count=distinct)


@np.errstate(all="raise", under="ignore")  # as the sweep runs it
def principal_data(pg: PointGeometry, tol_gap: float = 1e-4) -> PrincipalData:
    """Solve h v = k g v via Cholesky reduction plus a symmetric eigensolver."""
    try:
        return _row(_principal_rows(pg.metric[None], pg.second_form[None], tol_gap), 0)
    except np.linalg.LinAlgError as exc:
        raise SingularPointError(pg.point, pg.det_metric) from exc


@dataclass
class CurvatureInvariants:
    """Elementary symmetric functions s_k and normalized means H_k (1-based)."""

    sym: np.ndarray   # sym[k-1] = s_k
    mean: np.ndarray  # mean[k-1] = H_k = s_k / C(n, k)

    @property
    def gauss_kronecker(self) -> float:
        return float(self.mean[-1])


def curvature_invariants(curvatures: Sequence[float]) -> CurvatureInvariants:
    """Invariants of the curvatures (..., n), over any leading point axes."""
    k = np.asarray(curvatures, dtype=float)
    n = k.shape[-1]
    # Vieta: expanding prod (x + k_i) yields the elementary symmetric functions
    # (plain products, unlike np.convolve, honour np.errstate on overflow)
    coeffs = np.zeros(k.shape[:-1] + (n + 1,))
    coeffs[..., 0] = 1.0
    for i in range(1, n + 1):
        coeffs[..., 1 : i + 1] = coeffs[..., 1 : i + 1] + k[..., i - 1 : i] * coeffs[..., :i]
    sym = coeffs[..., 1:]
    binom = np.array([math.comb(n, j) for j in range(1, n + 1)], dtype=float)
    return CurvatureInvariants(sym=sym, mean=sym / binom)


# -- third-order data and identity residuals ------------------------------------------------


@dataclass
class DerivativeBundle:
    """Everything needed for the Gauss/Codazzi identities at one point."""

    pg: PointGeometry
    christoffel: np.ndarray    # [l, i, j] -> Gamma^l_ij
    dnormal: np.ndarray        # [i, c] -> d_i N_c
    dsecond_form: np.ndarray   # [i, j, k] -> d_i h_jk
    dchristoffel: np.ndarray   # [k, l, i, j] -> d_k Gamma^l_ij
    riemann: np.ndarray        # [i, j, k, l] -> <R(d_i, d_j) d_k, d_l>

    def sectional_curvature(self, u: np.ndarray, v: np.ndarray) -> float:
        """<R(u, v) v, u> / (|u|^2 |v|^2 - <u, v>^2) for chart vectors u, v;
        ValueError if that area is not above 1e-12 |u|^2 |v|^2."""
        g = self.pg.metric
        gu, gv, guv = u @ g @ u, v @ g @ v, u @ g @ v
        area = gu * gv - guv * guv
        if not area > 1e-12 * gu * gv:
            raise ValueError(f"u = {u} and v = {v} span no plane")
        return float(np.einsum("ijkl,i,j,k,l->", self.riemann, u, v, v, u)) / area


def _nabla_second_form(pg: PointGeometry) -> np.ndarray:
    """[..., l, a, b] -> (nabla_l h)_ab = d_l h_ab - Gamma^m_la h_mb - Gamma^m_lb h_am
    over the leading point axes of order-3 geometry ``pg``.  Unlike
    derivative_bundle's matmuls, its sums give each row the same bits whatever
    rows sit beside it."""
    # d_l h_ab = <x_lab, N> + <x_ab, d_l N> with Weingarten's d_l N = -S^k_l x_k;
    # the self-test takes d_l N from second partials instead
    # (_normal_derivative), so that Codazzi checks the two routes against
    # each other.
    dn = -np.swapaxes(_mm(pg.jac, pg.shape), -1, -2)
    dh = (_sum(np.moveaxis(pg.third, -4, -1) * pg.normal[..., None, None, None, :])
          + _sum(np.moveaxis(pg.second, -3, -1)[..., None, :, :, :] * dn[..., :, None, None, :]))
    # h is symmetric, so the Gamma^m_lb h_am term is the transpose of the other
    gamma_h = _mm(np.moveaxis(_christoffel(pg)[1], -3, -1), pg.second_form[..., None, :, :])
    return dh - gamma_h - np.swapaxes(gamma_h, -1, -2)


@np.errstate(all="raise", under="ignore")  # as the sweep runs it: no quiet inf or NaN
def derivative_bundle(m: Immersion, p: Sequence[float]) -> DerivativeBundle:
    pg = point_geometry(m, p, order=3)
    n, jac, sec, thr, dg = m.n, pg.jac, pg.second, pg.third, pg.dmetric
    dn = _normal_derivative(jac, sec, pg.normal)

    # the tensor algebra below is matmuls over flattened index groups, and
    # antisymmetrizations that swap two axes
    sec2 = sec.reshape(n + 1, -1)
    # dh[i, j, k] = d_i h_jk = <x_ijk, N> + <x_jk, d_i N>
    dh = (pg.normal @ thr.reshape(n + 1, -1) + (dn @ sec2).ravel()).reshape((n,) * 3)
    ginv, gamma = _christoffel(pg)
    # Gamma^l_ij = g^lm Gamma_m,ij with Gamma_m,ij = <x_ij, x_m>, so
    # d_k Gamma^l_ij = g^lm (d_k Gamma_m,ij - d_k g_mp Gamma^p_ij), where
    # d_k Gamma_m,ij = <x_kij, x_m> + <x_ij, x_km>; each [k, m, ij] below
    dlow = ((jac.T @ thr.reshape(n + 1, -1)).reshape(n, n, -1).swapaxes(0, 1)
            + (sec2.T @ sec2).reshape(n, n, -1) - dg @ gamma.reshape(n, -1))
    dgamma = (ginv @ dlow).reshape((n,) * 4)
    # <R(d_i, d_j) d_k, d_l> = (x - x with i, j swapped) lowered by g, where
    # x[i, j, k, l] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk
    gg = (gamma.reshape(n * n, n) @ gamma.reshape(n, -1)).reshape((n,) * 4)
    x = dgamma.transpose(0, 2, 3, 1) + gg.transpose(1, 2, 3, 0)

    return DerivativeBundle(pg=pg, christoffel=gamma, dnormal=dn, dsecond_form=dh,
                            dchristoffel=dgamma, riemann=(x - x.swapaxes(0, 1)) @ pg.metric)


@np.errstate(all="raise", under="ignore")
def codazzi_residual_from_bundle(bundle: DerivativeBundle) -> float:
    """Max norm of the antisymmetrized covariant derivative of h."""
    h = bundle.pg.second_form
    gamma, dh = bundle.christoffel, bundle.dsecond_form
    # y[i, j, k] = d_i h_jk + h_im Gamma^m_jk; the residual is y - y with i, j swapped
    y = dh + (h @ gamma.reshape(len(h), -1)).reshape(dh.shape)
    return float(np.abs(y - y.swapaxes(0, 1)).max())


@np.errstate(all="raise", under="ignore")
def gauss_residual_from_bundle(bundle: DerivativeBundle) -> float:
    h = bundle.pg.second_form
    z = h[None, :, :, None] * h[:, None, None, :]  # z[i, j, k, l] = h_jk h_il
    return float(np.abs(bundle.riemann - (z - z.swapaxes(0, 1))).max())
