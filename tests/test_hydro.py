"""Lift/drag model, glide-ratio optimization, and crosswind power bound."""

import math

import numpy as np
import pytest

from hydrokite.errors import DegenerateRange
from hydrokite.hydro import (
    DEFAULT_ALPHA_RANGE,
    FlowEnv,
    FoilCoeffs,
    WingPlanform,
    drag_coeff,
    lift_coeff,
    loyd_power,
    max_glide_cubed,
)
from hydrokite.wingstruct import rated_wing_load

FOIL = FoilCoeffs()


def brute_force_glide_cubed(foil, ar, grid_step=1e-5):
    """Independent oracle: dense scan of CL^3/CD^2 on a fixed-step alpha grid."""
    a = np.arange(0.0, math.radians(20.0) + grid_step, grid_step)
    slope = 2.0 * np.pi * foil.gamma / (1.0 + 2.0 * foil.gamma / (foil.e_lift * ar))
    cl = slope * a + foil.cl_zero
    cd = (1.0 / (np.pi * foil.e_drag * ar) + foil.k_visc) * (cl - foil.cl_min_drag) ** 2 + foil.cd_zero
    r = cl**3 / cd**2
    i = int(np.argmax(r))
    return float(r[i]), float(a[i])

# frozen from the oracle above (grid step 1e-5 rad)
ORACLE_G3 = {4.7: 139.11597212967848, 6.0: 176.70634895812492, 6.5: 190.37294530610455}


def test_lift_at_zero_alpha_is_camber_offset():
    assert lift_coeff(FOIL, 4.7, 0.0) == pytest.approx(0.16, abs=1e-15)


def test_drag_floor_at_min_drag_lift():
    assert drag_coeff(FOIL, 4.7, 0.02) == pytest.approx(0.0065, abs=1e-15)


def test_drag_at_moderate_lift():
    # hand value: (1/(pi*0.92*4.7) + 0.03)*0.40^2 + 0.0065
    assert drag_coeff(FOIL, 4.7, 0.42) == pytest.approx(0.0231, abs=5e-5)


def test_lift_is_affine_in_alpha():
    ar = 5.5
    a = np.linspace(-0.1, 0.3, 7)
    cl = np.array([lift_coeff(FOIL, ar, x) for x in a])
    slope_fd = np.diff(cl) / np.diff(a)
    assert np.all(np.abs(slope_fd - FOIL.lift_slope(ar)) < 1e-9 * abs(FOIL.lift_slope(ar)))


def test_drag_is_even_about_min_drag_lift():
    ar = 8.0
    for d in (0.05, 0.3, 0.9):
        lo = drag_coeff(FOIL, ar, 0.02 - d)
        hi = drag_coeff(FOIL, ar, 0.02 + d)
        assert lo == pytest.approx(hi, rel=1e-14)
        assert lo >= 0.0065


def test_drag_factor_decreases_with_aspect_ratio():
    ars = np.linspace(4.0, 12.0, 17)
    factors = [FOIL.drag_factor(ar) for ar in ars]
    assert np.all(np.diff(factors) < 0.0)


def test_glide_cubed_matches_brute_force_oracle():
    for ar, expected in ORACLE_G3.items():
        got, alpha = max_glide_cubed(FOIL, ar)
        assert got == pytest.approx(expected, rel=1e-6)
        assert DEFAULT_ALPHA_RANGE[0] < alpha < DEFAULT_ALPHA_RANGE[1]


def test_glide_cubed_deterministic():
    a = max_glide_cubed(FOIL, 4.7)
    b = max_glide_cubed(FOIL, 4.7)
    assert a == b


def test_glide_cubed_monotone_in_aspect_ratio():
    # induced drag falls with AR, so the achievable peak rises
    vals = [max_glide_cubed(FOIL, ar)[0] for ar in np.linspace(4.0, 12.0, 9)]
    assert np.all(np.diff(vals) > 0.0)


def test_glide_cubed_rejects_liftless_range():
    foil = FoilCoeffs(cl_zero=-2.5)  # lift stays negative below 20 deg
    with pytest.raises(DegenerateRange):
        max_glide_cubed(foil, 6.0, alpha_range=(0.0, 0.05))


def test_loyd_power_reference_planform():
    # s = 9.98 m, AR = 4.7, v = 1.5 m/s, eta = 1:
    # (2/27)*1000*1.5^3 = 250, S = 21.19 m^2, G3 = 139.1 -> 0.737 MW
    p = loyd_power(WingPlanform(9.98, 4.7), FlowEnv(), eta=1.0, foil=FOIL)
    assert p == pytest.approx(0.737e6, rel=2e-3)


def test_loyd_power_and_rated_load_share_one_glide_entry():
    # both look the glide peak up with the same cache key
    pl = WingPlanform(8.0, 6.0)
    max_glide_cubed.cache_clear()
    loyd_power(pl, FlowEnv(), foil=FOIL)
    rated_wing_load(pl, FlowEnv(), FOIL)
    assert max_glide_cubed.cache_info().misses == 1


def test_loyd_power_scalings():
    base = loyd_power(WingPlanform(8.0, 6.0), FlowEnv(1.5, 1000.0), eta=0.5, foil=FOIL)
    double_v = loyd_power(WingPlanform(8.0, 6.0), FlowEnv(3.0, 1000.0), eta=0.5, foil=FOIL)
    double_eta = loyd_power(WingPlanform(8.0, 6.0), FlowEnv(1.5, 1000.0), eta=1.0, foil=FOIL)
    assert double_v == pytest.approx(8.0 * base, rel=1e-12)
    assert double_eta == pytest.approx(2.0 * base, rel=1e-12)
    # halving AR at fixed span doubles area and raises drag; power changes by
    # area ratio times the glide ratio change
    g3_6, _ = max_glide_cubed(FOIL, 6.0)
    g3_3, _ = max_glide_cubed(FOIL, 3.0)
    half_ar = loyd_power(WingPlanform(8.0, 3.0), FlowEnv(1.5, 1000.0), eta=0.5, foil=FOIL)
    assert half_ar == pytest.approx(base * 2.0 * g3_3 / g3_6, rel=1e-12)


def test_planform_chord_and_area():
    w = WingPlanform(8.51, 6.0)
    assert w.chord == pytest.approx(8.51 / 6.0, rel=1e-15)
    assert w.area == pytest.approx(8.51**2 / 6.0, rel=1e-15)
    with pytest.raises(ValueError):
        WingPlanform(-1.0, 6.0)
