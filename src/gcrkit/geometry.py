"""Per-point differential geometry of parametrized hypersurfaces.

An :class:`Immersion` maps an n-dimensional chart (n = 2 or 3) into
Euclidean (n+1)-space.  Everything here is computed pointwise from exact
jet evaluations: first fundamental form, oriented unit normal, second
fundamental form, Christoffel symbols, shape operator, principal
curvatures/directions, mean-curvature ladder, and the residuals of the
Gauss and Codazzi equations (which hold for every immersion and therefore
double as an end-to-end self-test of the derivative pipeline).  The
covariant derivative of the second fundamental form, from which
``gcr.structural_residuals`` takes the principal frame's derivatives in
closed form, comes from order-3 geometry (``point_geometry(order=3)``), so
no frame is ever differenced across neighbouring points.  A point whose jets
or geometry overflow the float range raises GeometryError instead of
returning infinities.  One generalized cross product
kernel, a few products of stacked jet coefficient rows, gives the float
normal, ``cross_jets`` and the unit normal jets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from .jet import Jet, _make, _table, derivative_tensor, jet_variable
from .expr import Expr, ExprError, eval_expr, parse_expr

__all__ = [
    "EPS_REG",
    "GeometryError",
    "OutOfDomainError",
    "SingularPointError",
    "EvaluationError",
    "Immersion",
    "evaluate_jets",
    "cross_jets",
    "normal_jets",
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
        where = [float(v) for v in point]
        super().__init__(f"component evaluation failed at {where}: {cause}")
        self.point = tuple(where)


# -- immersion ---------------------------------------------------------------------


@dataclass(frozen=True)
class Immersion:
    """Parametrized hypersurface patch x: chart box -> E^(n+1).

    Components are either expression trees over the chart variables or an
    opaque jet-to-jet mapping (used by catalog families whose normals or
    frames have no closed form).  Either way, the jets it returns are exact
    at the order of the seeds it is given.
    """

    name: str
    var_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    components: tuple[Expr, ...] | None = None
    mapping: Callable[[tuple[Jet, ...]], Sequence[Jet]] | None = None

    def __post_init__(self):
        n = len(self.var_names)
        if n not in (2, 3):
            raise ValueError(f"chart dimension must be 2 or 3, got {n}")
        if len(self.domain) != n:
            raise ValueError("domain box must have one interval per chart variable")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError(f"empty domain interval [{lo}, {hi}]")
        if (self.components is None) == (self.mapping is None):
            raise ValueError("exactly one of components/mapping must be given")
        if self.components is not None and len(self.components) != n + 1:
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

    @classmethod
    def from_mapping(
        cls,
        name: str,
        mapping: Callable[[tuple[Jet, ...]], Sequence[Jet]],
        var_names: Sequence[str],
        domain: Sequence[Sequence[float]],
    ) -> "Immersion":
        box = tuple((float(lo), float(hi)) for lo, hi in domain)
        return cls(name, tuple(var_names), box, mapping=mapping)

    def contains(self, p: Sequence[float], slack: float = 1e-12) -> bool:
        for value, (lo, hi) in zip(p, self.domain):
            pad = slack * max(1.0, abs(lo), abs(hi))
            if not lo - pad <= value <= hi + pad:
                return False
        return True


def evaluate_jets(
    m: Immersion, p: Sequence[float], order: int = 3, check_domain: bool = True
) -> list[Jet]:
    """Jets of all ambient components of ``m`` at chart point ``p``, from one
    evaluation of its components at seeds of the requested order."""
    if order not in (1, 2, 3):
        raise ValueError(f"evaluation order must be 1, 2 or 3, got {order}")
    q = np.asarray(p, dtype=float)
    if q.shape != (m.n,):
        raise ValueError(f"expected a chart point with {m.n} coordinates")
    if check_domain and not m.contains(q):
        raise OutOfDomainError(q, m.domain)
    seeds = tuple(jet_variable(i, q[i], m.n, order) for i in range(m.n))
    try:
        if m.mapping is not None:
            return list(m.mapping(seeds))
        env = dict(zip(m.var_names, seeds))
        return [eval_expr(c, env) for c in m.components]
    except (ExprError, ArithmeticError, ValueError) as exc:
        raise EvaluationError(q, exc) from exc


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


def _cross_rows(matrix: np.ndarray, product: Callable) -> np.ndarray:
    """Generalized cross product of the k columns of ``matrix`` (k+1, k, D),
    whose entries are coefficient rows multiplied by ``product`` (a jet
    table's, or ``np.multiply`` for plain numbers, D = 1): the (k+1)·k!
    Leibniz terms take k - 1 row products.  Row a of the result is v_a, with
    <v, w> = det[columns | w], so (columns..., v) is positively oriented."""
    amb, k, size = matrix.shape
    gather, sign = _cross_terms(k)
    factors = matrix.reshape(amb * k, size)[gather]
    terms = factors[0]
    for f in factors[1:]:
        terms = product(terms, f)
    return (terms.reshape(amb, -1, size) * sign).sum(axis=1)


def _unit_normal_rows(coeffs: np.ndarray, t) -> tuple:
    """Coefficient rows of the unit normal and their table, one order below
    the position rows ``coeffs`` (n+1, D) of jets with table ``t``."""
    low = _table(t.n, t.order - 1)
    tangents = coeffs[:, t.partial_src] * t.partial_fac  # (n+1, n, D') matrix
    v = _cross_rows(tangents, low.product)
    inv_norm = _make(low, low.product(v, v).sum(axis=0)) ** -0.5
    return low.product(v, inv_norm.c), low


def cross_jets(columns: list[list[Jet]]) -> list[Jet]:
    """Generalized cross product with Jet entries; columns[c] is one vector.

    The result v satisfies <v, w> = det[columns | w], so the frame
    (columns..., v) is always positively oriented.
    """
    k, t = len(columns), columns[0][0]._t
    if {len(col) for col in columns} != {k + 1} or any(
        (x.n, x.order) != (t.n, t.order) for col in columns for x in col
    ):
        raise ValueError(f"need {k} columns of {k + 1} jets of one arity and order")
    matrix = np.array([[x.c for x in col] for col in columns]).transpose(1, 0, 2)
    return [_make(t, row) for row in _cross_rows(matrix, t.product)]


def normal_jets(jets: list[Jet]) -> list[Jet]:
    """Unit normal as jets, one order below the position jets."""
    rows, low = _unit_normal_rows(np.stack([x.c for x in jets]), jets[0]._t)
    return [_make(low, row) for row in rows]


# -- first/second order data ----------------------------------------------------------


@dataclass
class PointGeometry:
    """First- and second-order surface data at one chart point."""

    point: np.ndarray
    position: np.ndarray       # ambient position x
    jac: np.ndarray            # (n+1, n) tangent vectors x_i as columns
    second: np.ndarray         # (n+1, n, n) second partials of x
    metric: np.ndarray         # g_ij
    det_metric: float
    normal: np.ndarray         # oriented unit normal
    second_form: np.ndarray    # h_ij = <x_ij, N>
    christoffel: np.ndarray    # [l, i, j] -> Gamma^l_ij
    shape: np.ndarray          # S = g^{-1} h
    third: np.ndarray | None = None  # third partials of x, from order-3 jets

    @property
    def n(self) -> int:
        return self.metric.shape[0]


def _evaluate_geometry(
    m: Immersion, q: np.ndarray, order: int, eps_reg: float, check_domain: bool
) -> tuple[PointGeometry, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Geometry from one order-``order`` evaluation of ``m`` at ``q``, plus the
    components' coefficient rows (n+1, D), dg[k, i, j] = d_k g_ij, the
    Christoffel numerator and g^-1.  Overflow and its NaNs are caught once,
    here, instead of as numpy warnings: a point whose jets or assembled
    geometry are not finite raises GeometryError."""
    with np.errstate(all="ignore"):
        jets = evaluate_jets(m, q, order=order, check_domain=check_domain)
        coeffs = np.stack([x.c for x in jets])
        n = m.n
        pos = coeffs[:, 0].copy()  # a strided view would round differently in products
        jac = derivative_tensor(coeffs, n, 1)
        sec = derivative_tensor(coeffs, n, 2)
        g = jac.T @ jac
        det_g = float(np.linalg.det(g))
        if det_g <= eps_reg:  # a NaN goes on to the finiteness check
            raise SingularPointError(q, det_g)
        normal = _cross_rows(jac[:, :, None], np.multiply)[:, 0]
        normal = normal / np.linalg.norm(normal)
        h = np.einsum("cij,c->ij", sec, normal)
        h = 0.5 * (h + h.T)
        dg = np.einsum("cki,cj->kij", sec, jac)
        dg = dg + dg.transpose(0, 2, 1)
        ginv = np.linalg.inv(g)
        # A[m,i,j] = dg[i,m,j] + dg[j,m,i] - dg[m,i,j]
        a = np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg) - dg
        gamma = 0.5 * np.einsum("lm,mij->lij", ginv, a)
        shape = np.linalg.solve(g, h)
    checked = (coeffs, g, normal, dg, gamma, shape)
    if not np.isfinite(np.concatenate([x.ravel() for x in checked])).all():
        raise GeometryError(f"jets or geometry not finite at {q.tolist()}")
    pg = PointGeometry(
        point=q.copy(),
        position=pos,
        jac=jac,
        second=sec,
        metric=g,
        det_metric=det_g,
        normal=normal,
        second_form=h,
        christoffel=gamma,
        shape=shape,
        third=derivative_tensor(coeffs, n, 3) if order >= 3 else None,
    )
    return pg, coeffs, dg, a, ginv


def point_geometry(
    m: Immersion,
    p: Sequence[float],
    eps_reg: float = EPS_REG,
    check_domain: bool = True,
    order: int = 2,
) -> PointGeometry:
    """Fundamental forms, normal, Christoffel symbols and shape operator from
    one evaluation at jet order 2, or at order 3 with ``third`` filled."""
    return _evaluate_geometry(m, np.asarray(p, dtype=float), order, eps_reg, check_domain)[0]


# -- principal curvatures ---------------------------------------------------------------


@dataclass
class PrincipalData:
    """Sorted principal curvatures with g-orthonormal direction columns."""

    curvatures: np.ndarray     # ascending
    directions: np.ndarray     # column i is the direction for curvatures[i]
    gaps: float                # smallest pairwise eigenvalue separation
    distinct_count: int

    @property
    def n(self) -> int:
        return self.curvatures.size


def _fix_direction_signs(directions: np.ndarray) -> np.ndarray:
    out = directions.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            out[:, i] = -col
    return out


def principal_data(pg: PointGeometry, tol_gap: float = 1e-4) -> PrincipalData:
    """Solve h v = k g v via Cholesky reduction plus a symmetric eigensolver."""
    try:
        chol = np.linalg.cholesky(pg.metric)
    except np.linalg.LinAlgError as exc:
        raise SingularPointError(pg.point, pg.det_metric) from exc
    li = np.linalg.inv(chol)
    a = li @ pg.second_form @ li.T
    w, y = np.linalg.eigh(0.5 * (a + a.T))
    vecs = _fix_direction_signs(li.T @ y)
    n = w.size
    gaps = float(min(abs(w[i] - w[j]) for i in range(n) for j in range(i + 1, n)))
    distinct = 1 + int(np.sum(np.diff(w) > tol_gap))
    return PrincipalData(
        curvatures=w, directions=vecs, gaps=gaps, distinct_count=distinct
    )


@dataclass
class CurvatureInvariants:
    """Elementary symmetric functions s_k and normalized means H_k (1-based)."""

    sym: np.ndarray   # sym[k-1] = s_k
    mean: np.ndarray  # mean[k-1] = H_k = s_k / C(n, k)

    @property
    def gauss_kronecker(self) -> float:
        return float(self.mean[-1])


def curvature_invariants(curvatures: Sequence[float]) -> CurvatureInvariants:
    k = np.asarray(curvatures, dtype=float)
    n = k.size
    # Vieta: expanding prod (x + k_i) yields the elementary symmetric functions
    # (plain products, unlike np.convolve, honour np.errstate on overflow)
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    for i, ki in enumerate(k, start=1):
        coeffs[1 : i + 1] = coeffs[1 : i + 1] + ki * coeffs[:i]
    sym = coeffs[1:]
    binom = np.array([math.comb(n, j) for j in range(1, n + 1)], dtype=float)
    return CurvatureInvariants(sym=sym, mean=sym / binom)


# -- third-order data and identity residuals ------------------------------------------------


@dataclass
class DerivativeBundle:
    """Everything needed for the Gauss/Codazzi identities at one point."""

    pg: PointGeometry
    dnormal: np.ndarray        # [i, c] -> d_i N_c
    dsecond_form: np.ndarray   # [i, j, k] -> d_i h_jk
    dchristoffel: np.ndarray   # [k, l, i, j] -> d_k Gamma^l_ij
    riemann: np.ndarray        # [i, j, k, l] -> <R(d_i, d_j) d_k, d_l>

    def sectional_curvature(self, u: np.ndarray, v: np.ndarray) -> float:
        g = self.pg.metric
        num = float(np.einsum("ijkl,i,j,k,l->", self.riemann, u, v, v, u))
        gu = u @ g @ u
        gv = v @ g @ v
        guv = u @ g @ v
        return num / (gu * gv - guv * guv)


def _dsecond_form(pg: PointGeometry, normal: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """d_i h_jk at the point of order-3 geometry ``pg``, given the unit normal
    and dn[i] = d_i N."""
    return np.einsum("cijk,c->ijk", pg.third, normal) + np.einsum("cjk,ic->ijk", pg.second, dn)


def _nabla_second_form(pg: PointGeometry) -> np.ndarray:
    """[l, a, b] -> (nabla_l h)_ab = d_l h_ab - Gamma^m_la h_mb - Gamma^m_lb h_am,
    from geometry assembled at order 3."""
    # Weingarten's d_i N = -S^k_i x_k; the self-test's independent normal
    # jets stay in derivative_bundle, where Codazzi checks them.
    dh = _dsecond_form(pg, pg.normal, -(pg.jac @ pg.shape).T)
    gamma, h = pg.christoffel, pg.second_form
    return dh - np.einsum("mla,mb->lab", gamma, h) - np.einsum("mlb,am->lab", gamma, h)


def derivative_bundle(
    m: Immersion,
    p: Sequence[float],
    eps_reg: float = EPS_REG,
    check_domain: bool = True,
) -> DerivativeBundle:
    q = np.asarray(p, dtype=float)
    pg, coeffs, dg, a, ginv = _evaluate_geometry(m, q, 3, eps_reg, check_domain)
    # only N and dN are read: the order-1 normal of the order-2 prefix, which
    # by the prefix rule is the order-1 part of the order-2 normal bit for bit
    order2 = _table(m.n, 2)
    nrows = _unit_normal_rows(coeffs[:, : order2.size], order2)[0]
    dn = derivative_tensor(nrows, m.n, 1).T
    dh = _dsecond_form(pg, nrows[:, 0].copy(), dn)
    jac, sec, thr = pg.jac, pg.second, pg.third
    g, gamma = pg.metric, pg.christoffel

    d2g = (
        np.einsum("ckli,cj->klij", thr, jac)
        + np.einsum("cli,ckj->klij", sec, sec)
        + np.einsum("cki,clj->klij", sec, sec)
        + np.einsum("ci,cklj->klij", jac, thr)
    )
    da = (
        np.einsum("kimj->kmij", d2g)
        + np.einsum("kjmi->kmij", d2g)
        - d2g
    )
    dginv = -np.einsum("la,kab,bm->klm", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("klm,mij->klij", dginv, a) + np.einsum("lm,kmij->klij", ginv, da)
    )

    rup = (
        np.einsum("iljk->ijkl", dgamma)
        - np.einsum("jlik->ijkl", dgamma)
        + np.einsum("mjk,lim->ijkl", gamma, gamma)
        - np.einsum("mik,ljm->ijkl", gamma, gamma)
    )
    riemann = np.einsum("ijkm,ml->ijkl", rup, g)

    return DerivativeBundle(
        pg=pg,
        dnormal=dn,
        dsecond_form=dh,
        dchristoffel=dgamma,
        riemann=riemann,
    )


def codazzi_residual_from_bundle(
    bundle: DerivativeBundle, second_form: np.ndarray | None = None
) -> float:
    """Max norm of the antisymmetrized covariant derivative of h.

    ``second_form`` substitutes for the bundle's h array, which lets tests
    verify the residual reacts to a corrupted second fundamental form.
    """
    h = bundle.pg.second_form if second_form is None else second_form
    gamma = bundle.pg.christoffel
    dh = bundle.dsecond_form
    c = (
        dh
        - np.einsum("jik->ijk", dh)
        - np.einsum("mik,jm->ijk", gamma, h)
        + np.einsum("mjk,im->ijk", gamma, h)
    )
    return float(np.max(np.abs(c)))


def gauss_residual_from_bundle(bundle: DerivativeBundle) -> float:
    h = bundle.pg.second_form
    rhs = np.einsum("jk,il->ijkl", h, h) - np.einsum("ik,jl->ijkl", h, h)
    return float(np.max(np.abs(bundle.riemann - rhs)))
