"""Shared helpers: randomized family instances and domain samplers."""

import numpy as np

from gcrkit.catalog import (
    circular_hypercylinder,
    conical_hypercylinder,
    curve_tube,
    hypercylinder_rotational,
    hyperplane,
    make_family,
    product_cylinder,
    rotational,
    so2_x_so2,
    special_sqrt2,
    spherical_hypercylinder,
    tangent_cone,
    tangent_developable_cylinder,
)

TWO_PI = 2.0 * np.pi

def sample_points(m, rng, count, margin=0.12):
    """Uniform random chart points, shrunk away from the domain edges."""
    lo = np.array([d[0] for d in m.domain])
    hi = np.array([d[1] for d in m.domain])
    span = hi - lo
    pts = lo + span * (margin + (1 - 2 * margin) * rng.random((count, m.n)))
    return [tuple(p) for p in pts]


def random_family(tag, rng):
    """A catalog family with randomized valid parameters and a safe domain."""
    if tag == "hypercylinder_rotational":
        a = 1.6 + 0.8 * rng.random()
        return hypercylinder_rotational(f=f"{a}+cos(s)", g="sin(s)")
    if tag == "conical_hypercylinder":
        return conical_hypercylinder(
            c1=0.3 + 0.6 * rng.random(), c2=0.5 + 0.6 * rng.random()
        )
    if tag == "so2_x_so2":
        a = 1.6 + 0.8 * rng.random()
        b = 1.2 + 0.6 * rng.random()
        c = 0.2 + 0.3 * rng.random()
        return so2_x_so2(
            f=f"{a}+cos(s)", g=f"{b}+{c}*sin(s)",
            domain=((0.1, 2.9), (0.0, TWO_PI), (0.0, TWO_PI)),
        )
    if tag == "rotational":
        a = 0.8 + 0.4 * rng.random()
        b = 1.3 + 0.5 * rng.random()
        c = 0.2 + 0.2 * rng.random()
        return rotational(
            f=f"{a}*sin(s)+0.2*s", g=f"{b}+{c}*cos(s)",
            domain=((-0.7, 0.7), (0.35, 2.79), (0.0, TWO_PI)),
        )
    if tag == "tangent_cone":
        c = 0.1 + 0.3 * rng.random()
        phase = 1.0 + rng.random()
        # flat-torus base: radii (a, b) on the unit 3-sphere
        a = 0.55 + 0.25 * rng.random()
        b = np.sqrt(1.0 - a * a)
        y = (
            f"{a}*cos(v/{a})", f"{a}*sin(v/{a})",
            f"{b}*cos(w/{b}+{phase})", f"{b}*sin(w/{b}+{phase})",
        )
        return tangent_cone(c=c, y=y)
    if tag == "curve_tube":
        c = 0.3 + 0.4 * rng.random()
        d = 0.3 + 0.3 * rng.random()
        cd, sd = np.cos(d), np.sin(d)
        # (1,2) torus knot on the unit 3-sphere
        alpha = (
            f"{cd}*cos(w)", f"{cd}*sin(w)",
            f"{sd}*cos(2*w)", f"{sd}*sin(2*w)",
        )
        return curve_tube(c=c, alpha=alpha)
    if tag == "special_sqrt2":
        shift = 0.3 * rng.random()
        return special_sqrt2(domain=((0.5 + shift, 2.5 + shift), (0.0, TWO_PI), (0.0, TWO_PI)))
    if tag == "product_cylinder":
        a = 1.6 + 0.8 * rng.random()
        base = (f"({a}+cos(s))*cos(t)", f"({a}+cos(s))*sin(t)", "sin(s)")
        return product_cylinder(base=base)
    raise ValueError(f"no randomizer for {tag}")


def gcr_positive_surfaces():
    """Surfaces that are position-principal at every nondegenerate point.

    Returns (label, immersion, interpolated) triples; `interpolated` marks
    surfaces built on ODE-integrated interpolants, which get the relaxed
    structural tolerance.
    """
    rng = np.random.default_rng(20240817)
    out = [
        ("so2_x_so2 default", so2_x_so2(), False),
        ("so2_x_so2 random", random_family("so2_x_so2", rng), False),
        ("rotational generic", random_family("rotational", rng), False),
        ("tangent_cone default", tangent_cone(), False),
        ("tangent_cone flat-torus", random_family("tangent_cone", rng), False),
        ("curve_tube great circle", curve_tube(), True),
        ("curve_tube torus knot", random_family("curve_tube", rng), True),
        ("special_sqrt2", special_sqrt2(), False),
        ("hyperplane", hyperplane(0.7), False),
        ("spherical_hypercylinder", spherical_hypercylinder(1.3,
            domain=((-1.3, 1.3), (0.0, TWO_PI), (0.25, 2.25))), False),
        ("circular_hypercylinder", circular_hypercylinder(0.8,
            domain=((-1.5, 1.5), (0.0, TWO_PI), (0.25, 2.25))), False),
        ("conical_hypercylinder", conical_hypercylinder(0.6, 0.8), False),
        ("tangent_developable_cylinder", tangent_developable_cylinder(), False),
        ("so2_x_so2 ODE profile", make_family(
            "so2_x_so2", kappa="0.4+0.1*s", init=(1.5, 0.4, 0.15),
            domain=((0.0, 1.6), (0.0, TWO_PI), (0.0, TWO_PI))), True),
    ]
    return out
