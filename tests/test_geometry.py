"""Ray, sector, and disk geometry in the spectral parameter plane."""

import math

import pytest

from regbvp.geometry import (
    critical_rays,
    is_rare,
    omega_sectors,
    ray_clearance,
    ray_distance,
)


# ---------------------------------------------------------------------------
# Critical rays
# ---------------------------------------------------------------------------

def test_critical_rays_low_orders():
    # hand-derived: phi = +-pi/2 - arg(i eps_k) over the n-th roots of unity
    assert critical_rays(1) == (0.0, pytest.approx(math.pi))
    assert critical_rays(2) == (0.0, pytest.approx(math.pi))
    got4 = critical_rays(4)
    want4 = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    assert got4 == pytest.approx(want4)


def test_critical_ray_counts():
    for n in range(1, 8):
        count = len(critical_rays(n))
        assert count == (n if n % 2 == 0 else 2 * n)


def test_critical_rays_reject_bad_order():
    with pytest.raises(ValueError):
        critical_rays(0)


def test_ray_distance():
    rays = (0.0, math.pi)
    assert ray_distance(0.1, rays) == pytest.approx(0.1)
    assert ray_distance(math.pi - 0.2, rays) == pytest.approx(0.2)
    assert ray_distance(2 * math.pi - 0.05, rays) == pytest.approx(0.05)  # wraps


# ---------------------------------------------------------------------------
# Sectors
# ---------------------------------------------------------------------------

def test_omega_sectors_avoid_rays():
    eps = math.pi / 8
    # the closed sectors [eps/2, pi - eps/2] and [pi + eps/2, 2pi - eps/2]
    # start at the rays 0 and pi plus eps/2, which leaves the rays out
    sectors = omega_sectors(2, eps)
    assert len(sectors) == 2
    flat = [bound for sector in sectors for bound in sector]
    assert flat == pytest.approx([eps / 2, math.pi - eps / 2,
                                  math.pi + eps / 2, 2 * math.pi - eps / 2])


def test_omega_sector_epsilon_bounds():
    with pytest.raises(ValueError):
        omega_sectors(2, 0.0)
    with pytest.raises(ValueError):
        omega_sectors(2, math.pi)  # >= pi/(2n)


# ---------------------------------------------------------------------------
# Disk clearance along rays (hand-worked geometry)
# ---------------------------------------------------------------------------

def test_clearance_single_disk_on_axis():
    assert ray_clearance(0.0, (5.0,), 1.0, 100.0) == pytest.approx(6.0)


def test_clearance_miss_is_zero():
    assert ray_clearance(math.pi / 2, (5.0,), 1.0, 100.0) == 0.0
    # sideways offset larger than the radius also misses
    assert ray_clearance(0.0, (5.0 + 2.0j,), 1.0, 100.0) == 0.0


def test_clearance_offset_disk_chord():
    # center 5 + 0.6i, radius 1: the ray x >= 0 cuts a chord of
    # half-length sqrt(1 - 0.36) = 0.8, so the exit point is 5.8
    assert ray_clearance(0.0, (5.0 + 0.6j,), 1.0, 100.0) == pytest.approx(5.8)


def test_clearance_blocked_returns_none():
    assert ray_clearance(0.0, (9.8,), 1.0, 10.0) is None


def test_clearance_ignores_disks_entering_at_or_beyond_r_max():
    # the disk about 6.3 meets the ray on [5.8, 6.8] only, past r_max = 5.5
    centers = (3.0, 6.3)
    assert ray_clearance(0.0, centers, 0.5, 5.5) == pytest.approx(3.5)
    assert ray_clearance(0.0, (6.3,), 0.5, 5.8) == 0.0
    # entering below r_max still blocks
    assert ray_clearance(0.0, centers, 0.5, 5.9) is None


def test_clearance_takes_last_exit():
    assert ray_clearance(0.0, (3.0, 7.0), 1.0, 100.0) == pytest.approx(8.0)


def test_clearance_ignores_backward_disks():
    assert ray_clearance(0.0, (-5.0,), 1.0, 100.0) == 0.0


def test_disk_radius_validation():
    with pytest.raises(ValueError):
        ray_clearance(0.0, (1.0,), -0.5, 100.0)


# ---------------------------------------------------------------------------
# Rarefaction of modulus sequences
# ---------------------------------------------------------------------------

def test_is_rare_geometric():
    assert is_rare([2.0 ** j for j in range(10)], 4) == 1


def test_is_rare_slow_geometric_needs_larger_lag():
    # ratio sqrt(2): doubling needs two steps
    seq = [2.0 ** (j / 2.0) for j in range(12)]
    assert is_rare(seq, 4) == 2


def test_is_rare_arithmetic_is_none():
    assert is_rare([float(j) for j in range(1, 11)], 4) is None


def test_is_rare_vacuous_short_sequence():
    assert is_rare([3.0], 4) == 1
    assert is_rare([], 4) == 1


def test_is_rare_input_validation():
    with pytest.raises(ValueError):
        is_rare([1.0, -2.0], 4)
    with pytest.raises(ValueError):
        is_rare([2.0, 1.0], 4)
