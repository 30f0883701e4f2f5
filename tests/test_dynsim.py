"""Flight dynamics tests: path geometry, rigid-body terms, surface forces,
tether mechanics, controllers, and integrator order.

The Coriolis construction and the tether spring chain have exact analytic
references; the integrator order is checked by Richardson step halving.
"""

import math

import numpy as np
import pytest

from hydrokite.dynsim import (
    BasisParams,
    FlightController,
    FlightGains,
    KiteProperties,
    SimParams,
    Simulator,
    SurfaceDef,
    TetherProperties,
    WinchParams,
    build_kite,
    coriolis_matrix,
    interior_angle,
    link_tension,
    nearest_path_position,
    net_force_moment,
    path_angles,
    path_point,
    path_tangent,
    spool_phase,
    surface_force_moment,
    tether_forces,
    winch_command,
)
from hydrokite.dynsim.control import tangent_basis, velocity_angle, wrap_angle
from hydrokite.dynsim.paths import sphere_point
from hydrokite.dynsim.sim import quat_to_rot
from hydrokite.errors import (
    ConfigError, EmptyLap, NotPositiveDefinite, NumericBlowup, PathLost,
)
from hydrokite.fusestruct import FuselageDesign
from hydrokite.hydro import FlowEnv, FoilCoeffs, WingPlanform
from hydrokite.wingstruct import FourDigitFoil

STILL_WATER = FlowEnv(speed=0.0, density=1000.0)


def mid_size_kite(**build_kw):
    planform = WingPlanform(span=8.51, aspect_ratio=6.0)
    fuselage = FuselageDesign(diameter=0.59, length=7.0, thickness_pct=1.8)
    return build_kite(planform, 628.7, fuselage, 387.8, **build_kw)


def point_body(mass=500.0, inertia_scalar=5.0, added=None, density=1000.0):
    """Neutrally buoyant point body with no surfaces: tau must vanish."""
    return KiteProperties(
        mass=mass, volume=mass / density,
        inertia=inertia_scalar * np.eye(3),
        r_cg=np.zeros(3), r_cb=np.zeros(3), r_attach=np.zeros(3),
        added_mass=np.zeros(6) if added is None else np.asarray(added, float),
        surfaces=[], ref_area=1.0,
        planform=WingPlanform(span=1.0, aspect_ratio=1.0))


# -- path geometry ----------------------------------------------------------

def test_path_angles_trivial_points():
    b = BasisParams(b1=0.3, b2=0.2, b3=0.1, b4=0.5)
    phi, theta = path_angles(b, 0.0)
    assert phi == pytest.approx(0.1, abs=1e-15)
    assert theta == pytest.approx(0.5, abs=1e-15)
    # sin = 1, cos = 0 kills the azimuth lobe and maxes the elevation term
    phi, theta = path_angles(b, math.pi / 2.0)
    assert phi == pytest.approx(0.1, abs=1e-12)
    assert theta == pytest.approx(0.3 + 0.5, abs=1e-12)


def test_path_angles_quarter_point():
    # q = (b1/b2)^2 = 1/4; at p = pi/4 both sin and cos are sqrt(2)/2
    b = BasisParams(b1=0.3, b2=0.6, b3=0.0, b4=0.5)
    phi, theta = path_angles(b, math.pi / 4.0)
    denom = 1.0 + 0.25 * 0.5
    assert phi == pytest.approx(0.25 * 0.5 / denom, rel=1e-12)
    assert theta == pytest.approx(0.3 * math.sqrt(2.0) / 2.0 / denom + 0.5, rel=1e-12)


def test_sphere_point_axes():
    assert np.allclose(sphere_point(0.0, 0.0, 2.0), [2.0, 0.0, 0.0])
    assert np.allclose(sphere_point(math.pi / 2.0, 0.0, 2.0), [0.0, 2.0, 0.0], atol=1e-15)
    assert np.allclose(sphere_point(0.3, math.pi / 2.0, 2.0), [0.0, 0.0, 2.0], atol=1e-15)


def test_path_point_radius_and_tangent():
    b = BasisParams()
    rng = np.random.default_rng(20240818)
    for p in rng.uniform(0.0, 2.0 * math.pi, size=20):
        pt = path_point(b, p, 125.0)
        assert np.linalg.norm(pt) == pytest.approx(125.0, rel=1e-12)
        tan = path_tangent(b, p, 125.0)
        assert np.linalg.norm(tan) == pytest.approx(1.0, rel=1e-9)
        # constant radius makes the tangent perpendicular to the radial
        assert abs(tan @ pt) / 125.0 < 1e-6


def test_spool_phase_quarters():
    assert spool_phase(0.0) == "out"
    assert spool_phase(math.pi / 4.0) == "in"          # boundary enters "in"
    assert spool_phase(0.75 * math.pi) == "out"        # half-open on the right
    assert spool_phase(math.pi) == "out"
    assert spool_phase(1.25 * math.pi) == "in"
    assert spool_phase(1.75 * math.pi - 1e-12) == "in"
    assert spool_phase(1.75 * math.pi) == "out"
    assert spool_phase(2.0 * math.pi) == "out"
    # the two spans cover exactly half the lap
    p = np.linspace(0.0, 2.0 * math.pi, 4000, endpoint=False)
    frac = np.mean([spool_phase(v) == "in" for v in p])
    assert frac == pytest.approx(0.5, abs=1e-3)


def test_nearest_path_position_recovers_exact_point():
    b = BasisParams()
    pos = path_point(b, 1.3, 125.0)
    p = nearest_path_position(b, pos, 1.2, window=0.25)
    assert p == pytest.approx(1.3, abs=3e-3)
    assert interior_angle(b, p, pos) < 1e-4
    # off-path position has a positive interior angle
    assert interior_angle(b, 1.3, pos + np.array([0.0, 0.0, 5.0])) > 0.01


# -- rigid-body terms -------------------------------------------------------

def test_mass_matrix_point_mass_block_diagonal():
    props = point_body(mass=100.0, inertia_scalar=1.0)
    props.inertia = np.diag([2.0, 3.0, 4.0])
    m = props.mass_matrix()
    expect = np.diag([100.0, 100.0, 100.0, 2.0, 3.0, 4.0])
    assert np.array_equal(m, expect)


def test_added_mass_raises_eigenvalues():
    plain = point_body(mass=100.0).mass_matrix()
    loaded = point_body(mass=100.0, added=np.full(6, 7.0)).mass_matrix()
    lam_plain = np.linalg.eigvalsh(plain)
    lam_loaded = np.linalg.eigvalsh(loaded)
    assert np.all(lam_loaded >= lam_plain + 7.0 - 1e-9)


def test_indefinite_mass_matrix_rejected():
    bad = point_body(mass=1.0, inertia_scalar=1.0, added=np.full(6, -10.0))
    with pytest.raises(NotPositiveDefinite):
        bad.mass_matrix()


def test_coriolis_skew_and_energy_neutral():
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=(6, 6))
        mass_m = a @ a.T + 6.0 * np.eye(6)
        nu = rng.normal(scale=3.0, size=6)
        c = coriolis_matrix(mass_m, nu)
        assert np.all(c + c.T == 0.0)
        scale = 1.0 + np.linalg.norm(mass_m) * float(nu @ nu)
        worst = max(worst, abs(float(nu @ c @ nu)) / scale)
    assert worst < 1e-9


def test_neutral_body_has_zero_generalized_force():
    props = point_body()
    rng = np.random.default_rng(7)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    angle = 0.8
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    rot = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    tau = net_force_moment(props, rot, np.zeros(6), np.zeros(3), {}, STILL_WATER)
    assert np.allclose(tau, 0.0, atol=1e-9 * props.mass * 9.81)


def test_surface_force_hand_value():
    foil = FoilCoeffs()
    surf = SurfaceDef("s", np.zeros(3), np.array([0.0, 0.0, 1.0]),
                      np.array([0.0, 1.0, 0.0]), foil, 6.0, 1.0)
    nu = np.array([4.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    force, moment = surface_force_moment(surf, nu, 0.0, 2.0, 1000.0)
    q_s = 0.5 * 1000.0 * 2.0 * 16.0
    cl = 0.16
    cd = (1.0 / (math.pi * 0.92 * 6.0) + 0.03) * (0.16 - 0.02) ** 2 + 0.0065
    assert force[2] == pytest.approx(q_s * cl, rel=1e-12)
    assert force[0] == pytest.approx(-q_s * cd, rel=1e-12)
    assert force[1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(moment, 0.0)


def test_surface_force_lift_drag_decomposition():
    # drag projects on -v, lift is what remains, at any orientation
    foil = FoilCoeffs()
    rng = np.random.default_rng(20240820)
    for _ in range(50):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        helper = rng.normal(size=3)
        span = np.cross(normal, helper)
        if np.linalg.norm(span) < 1e-6:
            continue
        span /= np.linalg.norm(span)
        center = rng.normal(size=3)
        surf = SurfaceDef("s", center, normal, span, foil, 8.0, 0.7)
        nu = np.concatenate([rng.normal(scale=3.0, size=3), np.zeros(3)])
        v = nu[:3]
        speed = np.linalg.norm(v)
        force, moment = surface_force_moment(surf, nu, 0.0, 2.5, 1000.0)
        q_s = 0.5 * 1000.0 * 2.5 * 0.7 * speed**2
        u_n = float(v @ normal)
        u_t = float(v @ surf.chordwise)
        alpha = math.atan2(-u_n, u_t)
        cl = foil.lift_slope(8.0) * alpha + foil.cl_zero
        cd = foil.drag_factor(8.0) * (cl - foil.cl_min_drag) ** 2 + foil.cd_zero
        drag_part = float(force @ (v / speed))
        lift_part = np.linalg.norm(force - drag_part * (v / speed))
        assert drag_part == pytest.approx(-q_s * cd, rel=1e-9)
        assert lift_part == pytest.approx(q_s * abs(cl), rel=1e-9)
        assert np.allclose(moment, np.cross(center, force), rtol=1e-9, atol=1e-9)


def test_elevator_adds_tail_lift_and_pitch():
    props = mid_size_kite()
    nu = np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    rot = np.eye(3)
    base = net_force_moment(props, rot, nu, np.zeros(3), {"elevator": 0.0},
                            STILL_WATER)
    up = net_force_moment(props, rot, nu, np.zeros(3), {"elevator": 0.1},
                          STILL_WATER)
    assert up[2] > base[2]          # extra lift at the tail
    assert up[4] > base[4]          # nose-down pitch from an aft lift rise


def test_aileron_rolls_antisymmetrically():
    props = mid_size_kite()
    nu = np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    rot = np.eye(3)
    pos = net_force_moment(props, rot, nu, np.zeros(3), {"aileron": 0.2},
                           STILL_WATER)
    neg = net_force_moment(props, rot, nu, np.zeros(3), {"aileron": -0.2},
                           STILL_WATER)
    zero = net_force_moment(props, rot, nu, np.zeros(3), {}, STILL_WATER)
    assert pos[3] > zero[3] + 1.0
    assert pos[3] - zero[3] == pytest.approx(zero[3] - neg[3], rel=1e-9)
    # differential deflection leaves the net lift unchanged
    assert pos[2] == pytest.approx(zero[2], rel=1e-9)


# -- tether -----------------------------------------------------------------

def test_link_tension_matches_linear_spring():
    props = TetherProperties()
    rest = 10.0
    k = 1e10 * math.pi * 0.05**2 / rest
    for strain in (1e-5, 1e-4, 1e-3, 1e-2):
        span = np.array([rest * (1.0 + strain), 0.0, 0.0])
        stretch = float(span[0]) - rest       # realized, post-rounding
        f = link_tension(span, np.zeros(3), rest, props)
        assert np.linalg.norm(f) == pytest.approx(k * stretch, rel=1e-12)
        assert f[0] < 0.0                     # pulls the outer end back


def test_link_tension_slack_and_compression_floor():
    props = TetherProperties()
    assert np.array_equal(
        link_tension(np.array([9.9, 0.0, 0.0]), np.zeros(3), 10.0, props),
        np.zeros(3))
    # fast shortening overwhelms the elastic term; the rope cannot push
    f = link_tension(np.array([10.0001, 0.0, 0.0]),
                     np.array([-10.0, 0.0, 0.0]), 10.0, props)
    assert np.array_equal(f, np.zeros(3))


def test_straight_neutral_chain_is_force_free():
    props = TetherProperties(density=1000.0)
    rest = 10.0
    n = props.n_nodes
    node_pos = np.arange(1, n + 1)[:, None] * np.array([rest, 0.0, 0.0])
    node_vel = np.zeros((n, 3))
    attach = np.array([(n + 1) * rest, 0.0, 0.0])
    forces, kite_force, tension = tether_forces(
        node_pos, node_vel, attach, np.zeros(3), rest, props, STILL_WATER)
    assert np.allclose(forces, 0.0, atol=1e-12)
    assert np.allclose(kite_force, 0.0, atol=1e-12)
    assert tension == 0.0


def test_winch_tension_fast_path_matches_reference():
    sim = Simulator(mid_size_kite(), TetherProperties(), BasisParams())
    y = sim.initial_state()
    defl = {"aileron": 0.0, "rudder": 0.0, "elevator": 0.0}
    for _ in range(40):
        y = sim.rk4_step(y, defl, -0.3)       # spooling in keeps link 0 taut
    n = sim.n
    pos, quat, nu = y[0:3], y[3:7], y[7:13]
    rot = quat_to_rot(quat)
    attach_pos = pos + rot @ sim.props.r_attach
    attach_vel = (rot @ nu[:3] + np.array([sim.flow.speed, 0.0, 0.0])
                  + rot @ np.cross(nu[3:], sim.props.r_attach))
    _, _, reference = tether_forces(
        y[13:13 + 3 * n].reshape(n, 3),
        y[13 + 3 * n:13 + 6 * n].reshape(n, 3),
        attach_pos, attach_vel, y[13 + 6 * n] / (n + 1), sim.tether, sim.flow)
    assert sim.winch_tension(y) == pytest.approx(reference, rel=1e-9)
    assert sim.winch_tension(y) > 0.0


def test_chain_mode_frequency():
    # lowest axial mode of a fixed-fixed lumped chain:
    # omega_1 = 2 sqrt(k/m) sin(pi / (2 (n+1)))
    props = TetherProperties(density=1000.0, youngs_modulus=1e8,
                             damping_ratio=0.0, drag_coeff=0.0)
    n = props.n_nodes
    rest = 10.0
    k = props.youngs_modulus * math.pi * props.radius**2 / rest
    m = props.density * math.pi * props.radius**2 * rest
    omega_exact = 2.0 * math.sqrt(k / m) * math.sin(math.pi / (2.0 * (n + 1)))

    strain = 1e-3
    base = np.arange(1, n + 1) * rest * (1.0 + strain)
    shape = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
    pos = np.zeros((n, 3))
    pos[:, 0] = base + 5e-3 * shape
    vel = np.zeros((n, 3))
    attach = np.array([(n + 1) * rest * (1.0 + strain), 0.0, 0.0])

    def acc(p, v):
        f, _, _ = tether_forces(p, v, attach, np.zeros(3), rest, props,
                                STILL_WATER)
        return f / m

    dt = 5e-4
    track = []
    for step in range(4000):
        k1v = acc(pos, vel)
        k2p = vel + 0.5 * dt * k1v
        k2v = acc(pos + 0.5 * dt * vel, k2p)
        k3p = vel + 0.5 * dt * k2v
        k3v = acc(pos + 0.5 * dt * k2p, k3p)
        k4p = vel + dt * k3v
        k4v = acc(pos + dt * k3p, k4p)
        pos = pos + dt / 6.0 * (vel + 2.0 * k2p + 2.0 * k3p + k4p)
        vel = vel + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        track.append(pos[(n - 1) // 2, 0] - base[(n - 1) // 2])

    track = np.array(track)
    signs = np.sign(track)
    idx = np.nonzero(signs[1:] != signs[:-1])[0]
    assert len(idx) >= 4
    crossings = []
    for i in idx:
        t0 = (i + 1) * dt
        crossings.append(t0 - dt * track[i + 1] / (track[i + 1] - track[i]))
    omega_measured = math.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])
    assert omega_measured == pytest.approx(omega_exact, rel=5e-3)


# -- integration ------------------------------------------------------------

def rigid_body_rk4(props, y, dt, flow):
    def deriv(state):
        rot = quat_to_rot(state[3:7])
        nu = state[7:13]
        tau = net_force_moment(props, rot, nu, np.zeros(3), {}, flow)
        dnu = np.linalg.solve(props.mass_matrix(),
                              tau - coriolis_matrix(props.mass_matrix(), nu) @ nu)
        w, x, yq, z = state[3:7]
        ox, oy, oz = nu[3:]
        dq = 0.5 * np.array([-x * ox - yq * oy - z * oz,
                             w * ox + yq * oz - z * oy,
                             w * oy + z * ox - x * oz,
                             w * oz + x * oy - yq * ox])
        return np.concatenate([rot @ nu[:3], dq, dnu])

    k1 = deriv(y)
    k2 = deriv(y + 0.5 * dt * k1)
    k3 = deriv(y + 0.5 * dt * k2)
    k4 = deriv(y + dt * k3)
    out = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out[3:7] /= np.linalg.norm(out[3:7])
    return out


def test_free_body_coasts_uniformly():
    props = point_body()
    v_body = np.array([1.0, 2.0, 3.0])
    y = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0, 0.0], v_body, np.zeros(3)])
    dt = 1e-3
    for _ in range(1000):
        y = rigid_body_rk4(props, y, dt, STILL_WATER)
    assert np.allclose(y[0:3], v_body * 1.0, atol=1e-9)
    assert np.allclose(y[7:10], v_body, atol=1e-12)
    assert np.allclose(y[3:7], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_tumbling_body_keeps_inertial_velocity():
    # isotropic inertia: body-frame velocity rotates but R v stays fixed
    props = point_body()
    v_body = np.array([1.0, 2.0, 3.0])
    omega = np.array([0.3, -0.2, 0.5])
    y = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0, 0.0], v_body, omega])
    v_inertial_0 = v_body.copy()
    dt = 1e-3
    for _ in range(1000):
        y = rigid_body_rk4(props, y, dt, STILL_WATER)
    rot = quat_to_rot(y[3:7])
    assert np.allclose(rot @ y[7:10], v_inertial_0, atol=1e-6)
    assert np.linalg.norm(y[10:13]) == pytest.approx(np.linalg.norm(omega), rel=1e-9)


def test_rk4_order_by_step_halving():
    props = mid_size_kite()
    defl = {"aileron": 0.0, "rudder": 0.0, "elevator": -0.1}

    def final_state(dt, horizon=0.08):
        sim = Simulator(props, TetherProperties(), BasisParams(),
                        params=SimParams(dt=dt))
        y = sim.initial_state()
        for _ in range(round(horizon / dt)):
            y = sim.rk4_step(y, defl, 0.2)
        return y

    ref = final_state(1.25e-4)
    err_coarse = np.linalg.norm(final_state(2e-3) - ref)
    err_half = np.linalg.norm(final_state(1e-3) - ref)
    assert err_coarse / err_half >= 15.0


def test_stepper_is_deterministic_and_keeps_quat_norm():
    props = mid_size_kite()
    finals = []
    for _ in range(2):
        sim = Simulator(props, TetherProperties(), BasisParams())
        y = sim.initial_state()
        for _ in range(200):
            y = sim.rk4_step(y, {"elevator": -0.05}, 0.5)
        finals.append(y)
    assert np.array_equal(finals[0], finals[1])
    assert abs(np.linalg.norm(finals[0][3:7]) - 1.0) < 1e-12


def test_initial_state_sits_on_path():
    sim = Simulator(mid_size_kite(), TetherProperties(), BasisParams())
    y = sim.initial_state()
    rot = quat_to_rot(y[3:7])
    attach = y[0:3] + rot @ sim.props.r_attach
    radius = sim.tether.length * (1.0 + sim.params.pre_strain)
    p0 = sim.params.init_path_pos
    assert np.allclose(attach, path_point(sim.basis, p0, radius), atol=1e-9)
    assert np.linalg.norm(y[3:7]) == pytest.approx(1.0, abs=1e-12)
    n = sim.n
    nodes = y[13:13 + 3 * n].reshape(n, 3)
    for i, node in enumerate(nodes, start=1):
        assert np.allclose(node, attach * i / (n + 1), atol=1e-9)


def test_run_guards_raise():
    props = mid_size_kite()
    with pytest.raises(NumericBlowup):
        Simulator(props, TetherProperties(), BasisParams(),
                  params=SimParams(blowup_speed=1e-3)).run(1)
    with pytest.raises(EmptyLap):
        Simulator(props, TetherProperties(), BasisParams(),
                  params=SimParams(max_time=0.05)).run(1)
    with pytest.raises(PathLost):
        Simulator(props, TetherProperties(), BasisParams(),
                  params=SimParams(abort_angle=1e-9, grace_time=0.0)).run(1)


# -- controllers ------------------------------------------------------------

def test_wrap_angle_range_and_periodicity():
    rng = np.random.default_rng(11)
    for a in rng.uniform(-20.0, 20.0, size=200):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        assert wrap_angle(a + 2.0 * math.pi) == pytest.approx(w, abs=1e-9)


def test_tangent_basis_orthonormal():
    rng = np.random.default_rng(12)
    for _ in range(50):
        pos = rng.normal(size=3) * 50.0
        if np.linalg.norm(pos) < 1.0:
            continue
        radial, east, north = tangent_basis(pos)
        for u in (radial, east, north):
            assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
        assert abs(radial @ east) < 1e-12
        assert abs(radial @ north) < 1e-12
        assert np.allclose(np.cross(radial, east), north, atol=1e-12)
    # pole fallback
    _, east, _ = tangent_basis(np.array([0.0, 0.0, 9.0]))
    assert np.allclose(east, [0.0, 1.0, 0.0])


def test_velocity_angle_axes():
    pos = np.array([10.0, 0.0, 0.0])
    assert velocity_angle(pos, np.array([0.0, 2.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert velocity_angle(pos, np.array([0.0, 0.0, 2.0])) == pytest.approx(math.pi / 2.0, abs=1e-12)


def carrot_chase(basis, gains, position, p_now):
    radial, east, north = tangent_basis(position)
    phi, theta = path_angles(basis, p_now + gains.lookahead)
    target = np.linalg.norm(position) * np.array(
        [math.cos(theta) * math.cos(phi),
         math.cos(theta) * math.sin(phi), math.sin(theta)])
    chase = target - position
    return chase - (chase @ radial) * radial, radial, east, north


def test_controller_zero_error_zero_output():
    basis = BasisParams()
    gains = FlightGains()
    ctl = FlightController(gains, basis, dt=2e-3, aileron_gain=1.5)
    position = path_point(basis, 0.3, 125.0)
    chase_t, radial, east, north = carrot_chase(basis, gains, position, 0.3)
    aileron, rudder, diag = ctl.update(position, chase_t, east, 0.3)
    assert abs(aileron) < 1e-12
    assert abs(rudder) < 1e-12
    assert abs(diag["roll"]) < 1e-12


def test_controller_sign_and_saturation():
    basis = BasisParams()
    gains = FlightGains()
    position = path_point(basis, 0.3, 125.0)
    chase_t, radial, east, north = carrot_chase(basis, gains, position, 0.3)
    e_hat = chase_t / np.linalg.norm(chase_t)
    perp = np.cross(radial, e_hat)

    # positive roll turns the track clockwise, so the command carries the
    # opposite sign of the heading error
    ctl = FlightController(gains, basis, dt=2e-3, aileron_gain=1.5)
    clockwise = math.cos(-0.3) * e_hat + math.sin(-0.3) * perp
    a_neg, r_neg, _ = ctl.update(position, clockwise, east, 0.3)
    assert a_neg < 0.0
    assert r_neg == pytest.approx(gains.rudder_share * a_neg, rel=1e-12)

    ctl.reset()
    counter = math.cos(0.3) * e_hat + math.sin(0.3) * perp
    a_pos, _, _ = ctl.update(position, counter, east, 0.3)
    assert a_pos > 0.0

    # opposed velocity saturates the whole cascade; the clipped command is
    # exact and the integrators must not wind up while clipped
    ctl.reset()
    first = ctl.update(position, -chase_t, east, 0.3)
    second = ctl.update(position, -chase_t, east, 0.3)
    assert abs(first[0]) == pytest.approx(gains.aileron_limit, abs=1e-12)
    assert abs(first[1]) == pytest.approx(gains.rudder_share * gains.aileron_limit, abs=1e-12)
    assert first[:2] == second[:2]


def test_controller_takes_aileron_gain_from_kite():
    basis = BasisParams()
    position = path_point(basis, 0.3, 125.0)
    chase_t, radial, east, _ = carrot_chase(basis, FlightGains(), position, 0.3)
    e_hat = chase_t / np.linalg.norm(chase_t)
    velocity = math.cos(0.02) * e_hat + math.sin(0.02) * np.cross(radial, e_hat)

    commands = []
    for gain in (1.5, 3.0):
        sim = Simulator(mid_size_kite(aileron_gain=gain), TetherProperties(),
                        basis)
        commands.append(sim.controller.update(position, velocity, east, 0.3)[0])
    assert 0.0 < abs(commands[0]) < FlightGains().aileron_limit
    assert commands[1] == pytest.approx(0.5 * commands[0], rel=1e-12)

    with pytest.raises(ConfigError, match="aileron"):
        Simulator(point_body(), TetherProperties(), basis)


def test_winch_command_phase_switch():
    flow = FlowEnv(speed=1.5, density=1000.0)
    params = WinchParams()
    speed, elevator = winch_command(0.0, params, flow)
    assert speed == pytest.approx(0.5, rel=1e-12)
    assert elevator == params.elevator_out
    speed, elevator = winch_command(math.pi / 2.0, params, flow)
    assert speed == pytest.approx(-0.5, rel=1e-12)
    assert elevator == params.elevator_in
    speed, _ = winch_command(0.0, params, FlowEnv(speed=0.0, density=1000.0))
    assert speed == 0.0
