"""Random generators used by tests, the CLI, and the holonomy prober."""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, Point, point, self_product
from .isometry import _SU_BASIS, Isometry, _expm3, project_to_su
from .triples import _SIGN_PATTERNS, SCoords, triple_from_coords, validate_coords


def default_rng(seed=None) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_vector(rng) -> np.ndarray:
    return rng.standard_normal(3) + 1j * rng.standard_normal(3)


def random_point(rng, sign: int | None = None) -> Point:
    """A random point, rejection-sampled away from the isotropic cone.

    A draw whose |self-product| is at most 1e-2 times its squared euclidean
    norm is rejected, so downstream constructions stay well conditioned.
    """
    while True:
        v = random_vector(rng)
        s = self_product(v)
        if abs(s) <= 1e-2 * float(np.vdot(v, v).real):
            continue
        if sign is not None and (s > 0) != (sign > 0):
            continue
        return point(v, DEFAULT_TOL)


def random_negative_point(rng) -> Point:
    """A point inside the ball: (u1, u2, 1) with |u| < 0.95."""
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    r = 0.95 * np.sqrt(rng.random())
    u *= r / np.linalg.norm(u)
    return point(np.array([u[0], u[1], 1.0]), DEFAULT_TOL)


def random_su_element(rng, scale: float = 1.0) -> np.ndarray:
    c = scale * rng.standard_normal(8)
    return sum(ci * bi for ci, bi in zip(c, _SU_BASIS))


def random_isometry(rng, scale: float = 1.0) -> Isometry:
    return project_to_su(_expm3(random_su_element(rng, scale)))


def random_strongly_regular_coords(rng, sigma=None, real: bool = False):
    """Admissible surface coordinates, bounded away from the ramification.

    Consecutive invariants are drawn in the range forced by the sign
    pattern, t keeps (t - 1)^2 off zero so both sheets stay separated, and
    beta follows from the surface relation; draws violating realizability
    are rejected.  `real` forces alpha = 0 on the all-negative pattern.  A
    `sigma` that no strongly regular triple has raises InadmissibleCoords.
    """
    if real:
        sigma = (-1, -1, -1)
    elif sigma is None:
        sigma = _SIGN_PATTERNS[rng.integers(0, 4)]
    s1, s2, s3 = sigma
    for _ in range(1000):
        t1 = rng.uniform(1.3, 8.0) if s1 * s2 > 0 else -rng.uniform(0.3, 8.0)
        t2 = rng.uniform(1.3, 8.0) if s2 * s3 > 0 else -rng.uniform(0.3, 8.0)
        t = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.5)
        a = 0.0 if real else rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
        t1t2 = t1 * t2
        b = 1.0 - t1 - t2 + t1t2 - t1t2 * (t - 1.0) ** 2 - a**2 / t1t2
        if b * s1 * s2 * s3 >= -0.02:
            continue
        c = SCoords(t=t, t1=t1, t2=t2, sigma=sigma, alpha=a, beta=b)
        # the draw ranges give the signs, and beta the relation
        validate_coords(c)
        return c
    raise RuntimeError("rejection sampling failed to produce coordinates")


def random_strongly_regular_triple(rng, sigma=None, real: bool = False):
    return triple_from_coords(random_strongly_regular_coords(rng, sigma, real))
