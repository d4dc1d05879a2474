"""Direction geometry in the spectral-parameter plane.

Eigenvalue parameters rho of an order-n problem cluster along finitely
many critical rays: the directions phi where some exponent i*eps_k*rho
(eps_k an n-th root of unity) becomes purely imaginary, i.e.
Re(i eps_k e^{i phi}) = 0.  Between those rays, resolvent bounds hold
uniformly; this module supplies the supporting set operations.
"""

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "RaySet",
    "SectorSet",
    "DiskSet",
    "critical_rays",
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


@dataclass(frozen=True)
class RaySet:
    """Sorted distinct ray directions in [0, 2 pi)."""

    angles: tuple

    def distance(self, angle):
        """Smallest angular distance from ``angle`` to any ray."""
        a = _wrap(angle)
        best = math.inf
        for r in self.angles:
            d = abs(a - r)
            best = min(best, d, _TWO_PI - d)
        return best


@dataclass(frozen=True)
class SectorSet:
    """Closed angular sectors [lo, hi], disjoint, sorted by lo."""

    sectors: tuple
    epsilon: float

    def contains(self, angle):
        a = _wrap(angle)
        return any(lo - 1e-15 <= a <= hi + 1e-15 for lo, hi in self.sectors)


@dataclass(frozen=True)
class DiskSet:
    """Disks of a common radius around a set of complex centers."""

    centers: tuple
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("disk radius must be nonnegative")
        object.__setattr__(self, "centers", tuple(complex(c) for c in self.centers))


def critical_rays(n) -> RaySet:
    """Critical ray directions for order ``n``.

    These are the directions where some exponent i*eps_k*rho is purely
    imaginary: phi = +-pi/2 - arg(i eps_k).  The set has n elements for
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
    return RaySet(tuple(sorted(angles)))


def omega_sectors(n, epsilon) -> SectorSet:
    """Closed sectors left after removing an open sector of opening
    ``epsilon`` bisected by every critical ray."""
    if not 0 < epsilon < math.pi / (2 * n):
        raise ValueError("epsilon must lie in (0, pi/(2n))")
    rays = critical_rays(n).angles
    half = epsilon / 2.0
    sectors = []
    for i, lo_ray in enumerate(rays):
        hi_ray = rays[(i + 1) % len(rays)]
        if i + 1 == len(rays):
            hi_ray += _TWO_PI
        lo, hi = lo_ray + half, hi_ray - half
        if hi > lo:
            sectors.append((lo, hi))
    return SectorSet(tuple(sectors), epsilon)


def ray_clearance(angle, disks: DiskSet, r_max):
    """Smallest radius beyond which the ray of direction ``angle`` meets no
    disk, or ``None`` when intersections persist up to ``r_max``.

    The ray is {t e^{i angle} : t >= 0}.  A disk intersecting it blocks
    the parameter interval up to the far intersection point; clearance is
    the largest such exit point over all blocking disks (0.0 if none).
    """
    direction = cmath.exp(1j * angle)
    delta = disks.radius
    exit_point = 0.0
    for center in disks.centers:
        w = center / direction  # coordinates along/across the ray
        t_star = w.real
        dist = abs(w.imag) if t_star >= 0 else abs(center)
        if dist <= delta:
            half_chord = math.sqrt(max(delta * delta - w.imag * w.imag, 0.0))
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
