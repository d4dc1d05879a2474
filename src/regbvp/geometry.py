"""Direction geometry in the spectral-parameter plane.

Eigenvalue parameters rho of an order-n problem cluster along finitely
many critical rays: the directions phi where some exponent i*eps_k*rho
(eps_k an n-th root of unity) becomes purely imaginary, i.e.
Re(i eps_k e^{i phi}) = 0.  Between those rays, resolvent bounds hold
uniformly.  Every value here is plain: an angle is a float, the rays are
a sorted tuple of angles in [0, 2 pi), a sector is a pair (lo, hi), and
eigenvalue disks are their complex centres with one common radius.  The
test whether a parameter lies in a closed sector is
``spectral.roots_in``.
"""

import cmath
import math

__all__ = [
    "critical_rays",
    "ray_distance",
    "omega_sectors",
    "ray_clearance",
    "is_rare",
]

_TWO_PI = 2.0 * math.pi


def _wrap(angle):
    """Map an angle into [0, 2 pi)."""
    a = math.fmod(angle, _TWO_PI)
    if a < 0:
        a += _TWO_PI
    # guard against 2*pi - epsilon rounding back to 2*pi
    return 0.0 if abs(a - _TWO_PI) < 1e-15 else a


def critical_rays(n):
    """Critical ray directions for order ``n``, sorted, in [0, 2 pi).

    These are the directions where some exponent i*eps_k*rho is purely
    imaginary: phi = +-pi/2 - arg(i eps_k).  There are n of them for
    even n and 2n for odd n.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("order must be a positive integer")
    half = math.pi / 2.0
    angles = set()
    for k in range(n):
        alpha = cmath.phase(1j * cmath.exp(2j * cmath.pi * k / n))
        for sign in (1.0, -1.0):
            angles.add(round(_wrap(sign * half - alpha), 12))
    return tuple(sorted(angles))


def ray_distance(angle, rays):
    """Smallest angular distance from ``angle`` to any of the ``rays``."""
    a = _wrap(angle)
    best = math.inf
    for r in rays:
        d = abs(a - r)
        best = min(best, d, _TWO_PI - d)
    return best


def omega_sectors(n, epsilon):
    """The closed sectors (lo, hi), sorted by lo, left after removing an
    open sector of opening ``epsilon`` bisected by every critical ray."""
    if not 0 < epsilon < math.pi / (2 * n):
        raise ValueError("epsilon must lie in (0, pi/(2n))")
    rays = critical_rays(n)
    half = epsilon / 2.0
    # neighbouring rays lie pi/n or 2 pi/n apart, more than epsilon
    return tuple((lo + half, hi - half)
                 for lo, hi in zip(rays, rays[1:] + (rays[0] + _TWO_PI,)))


def ray_clearance(angle, centers, radius, r_max):
    """Smallest radius beyond which the ray of direction ``angle`` meets no
    disk of the given ``radius`` about the complex ``centers``, or
    ``None`` when intersections persist up to ``r_max``.

    The ray is {t e^{i angle} : t >= 0}.  A disk intersecting it blocks
    the parameter interval up to the far intersection point; clearance is
    the largest such exit point over all blocking disks (0.0 if none).
    A disk that enters the ray only at or beyond ``r_max`` blocks nothing
    below it and is ignored.
    """
    if radius < 0:
        raise ValueError("disk radius must be nonnegative")
    direction = cmath.exp(1j * angle)
    exit_point = 0.0
    for center in map(complex, centers):
        w = center / direction  # coordinates along/across the ray
        t_star = w.real
        dist = abs(w.imag) if t_star >= 0 else abs(center)
        if dist <= radius:
            half_chord = math.sqrt(max(radius * radius - w.imag * w.imag, 0.0))
            if t_star - half_chord < r_max:
                exit_point = max(exit_point, t_star + half_chord)
    if exit_point >= r_max:
        return None
    return exit_point


def is_rare(moduli, l_max):
    """Smallest lag l <= l_max with moduli[j + l] >= 2 * moduli[j] for all
    j, or ``None``.  Short sequences are vacuously rare at l = 1."""
    values = [float(v) for v in moduli]
    if any(v <= 0 for v in values):
        raise ValueError("moduli must be positive")
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("moduli must be nondecreasing")
    for lag in range(1, l_max + 1):
        if all(values[j + lag] >= 2.0 * values[j] for j in range(len(values) - lag)):
            return lag
    return None
