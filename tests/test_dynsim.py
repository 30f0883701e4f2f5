"""Flight dynamics tests: path geometry, rigid-body terms, surface forces,
tether mechanics, controllers, and integrator order.

The Coriolis term and the tether spring chain have exact analytic
references; the integrator order is checked by Richardson step halving.
The tether chain, the surface force sum, the Coriolis term, the whole
state derivative and the winch tension must also equal, bit for bit,
straightforward reference forms kept in this file.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import hydrokite.dynsim
from hydrokite.dynsim import (
    BasisParams,
    FlightController,
    FlightGains,
    ForceTable,
    KiteProperties,
    LumpedLine,
    SimParams,
    Simulator,
    TetherProperties,
    WinchParams,
    build_kite,
    coriolis_force,
    interior_angle,
    nearest_path_position,
    net_force_moment,
    path_angles,
    path_direction,
    spool_phase,
    surface,
    tether_forces,
    winch_command,
)
from hydrokite.dynsim.control import tangent_basis, velocity_angle, wrap_angle
from hydrokite.dynsim.kite import GRAVITY
from hydrokite.dynsim.paths import _scan_points
from hydrokite.dynsim.sim import quat_from_rot, quat_to_rot
from hydrokite.errors import (
    ConfigError, EmptyLap, NotPositiveDefinite, NumericBlowup, PathLost,
)
from hydrokite.fusestruct import FuselageDesign
from hydrokite.hydro import FlowEnv, FoilCoeffs, WingPlanform

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
        surfaces=[], ref_area=1.0)


def tau(props, rot, nu, deflections, flow=STILL_WATER):
    """Generalized force with no tether pull."""
    return np.array(net_force_moment(ForceTable.of(props, flow), rot, nu,
                                     (0.0, 0.0, 0.0), deflections))


def surface_alone(row, q_ref, nu):
    """Force and moment of one surface row: net_force_moment with no
    weight, buoyancy or tether force, at identity rotation."""
    zero = (0.0, 0.0, 0.0)
    table = ForceTable(0.0, 0.0, zero, zero, zero, q_ref, (row,))
    out = net_force_moment(table, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                   (0.0, 0.0, 1.0)), nu, zero, {})
    return np.array(out[:3]), np.array(out[3:])


def rotation(state):
    return np.array(quat_to_rot(state[3:7]))


def skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


# -- path geometry ----------------------------------------------------------

def reference_path_point(b, p, radius):
    """The lemniscate in NumPy, vectorized over p: inertial points at the
    given radius, the reference for path_direction and the path scan."""
    q = (b.b1 / b.b2) ** 2
    s, c = np.sin(p), np.cos(p)
    denom = 1.0 + q * (c * c)
    phi = q * s * c / denom + b.b3
    theta = b.b1 * s / denom + b.b4
    ct = np.cos(theta)
    return radius * np.stack(
        [ct * np.cos(phi), ct * np.sin(phi), np.sin(theta) * np.ones_like(ct)],
        axis=-1)


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


def test_path_direction_axes():
    # b1 = 0 collapses the figure-8 to the point (azimuth b3, elevation b4)
    def direction(azimuth, elevation):
        return path_direction(BasisParams(0.0, 0.2, azimuth, elevation), 0.7)

    assert np.allclose(direction(0.0, 0.0), [1.0, 0.0, 0.0])
    assert np.allclose(direction(math.pi / 2.0, 0.0), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(direction(0.3, math.pi / 2.0), [0.0, 0.0, 1.0], atol=1e-15)


def test_path_point_radius():
    # the path point at tether radius r is r times path_direction
    b = BasisParams()
    rng = np.random.default_rng(20240818)
    for p in rng.uniform(0.0, 2.0 * math.pi, size=20):
        pt = 125.0 * np.array(path_direction(b, p))
        assert np.linalg.norm(pt) == pytest.approx(125.0, rel=1e-12)


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


def reference_nearest_path_position(b, direction, p_guess, window, n_scan=61):
    """Reference scan: linspace candidates, the NumPy lemniscate at radius
    1, a matrix-vector product and its argmax."""
    candidates = p_guess + np.linspace(0.0, window, n_scan)
    unit = direction / np.linalg.norm(direction)
    dots = reference_path_point(b, candidates, 1.0) @ unit
    return float(candidates[int(np.argmax(dots))])


def test_nearest_path_position_matches_reference_scan():
    window = 0.25
    rng = np.random.default_rng(20261018)
    interior = 0
    for _ in range(10_000):
        b = BasisParams(*(np.array([0.3, 0.2, 0.0, 0.5])
                          + rng.uniform(-0.05, 0.05, 4)))
        p_guess = rng.uniform(0.0, 2.0 * math.pi)
        # a few metres off the path, somewhere around the window
        target = p_guess + rng.uniform(-0.1, window + 0.1)
        direction = (reference_path_point(b, target, 125.0)
                     + rng.normal(scale=2.0, size=3))
        want = reference_nearest_path_position(b, direction, p_guess, window)
        # run hands over the kite position as a list
        got = nearest_path_position(b, direction.tolist(), p_guess)
        assert got == want
        interior += p_guess < got < p_guess + window
    # most draws pick a point inside the window, not one of its ends
    assert interior > 5_000


def test_nearest_path_position_memo_gives_the_cold_result():
    rng = np.random.default_rng(20261019)
    draws = []
    for _ in range(200):
        b = BasisParams(*(np.array([0.3, 0.2, 0.0, 0.5])
                          + rng.uniform(-0.05, 0.05, 4)))
        p_guess = rng.uniform(0.0, 2.0 * math.pi)
        target = p_guess + rng.uniform(0.0, 0.25)
        direction = (reference_path_point(b, target, 125.0)
                     + rng.normal(scale=2.0, size=3)).tolist()
        draws.append((b, direction, p_guess))
    _scan_points.cache_clear()
    cold = [nearest_path_position(b, d, p) for b, d, p in draws]
    assert _scan_points.cache_info().hits == 0
    warm = [nearest_path_position(b, d, p) for b, d, p in draws[-10:]]
    assert _scan_points.cache_info().hits == 10
    assert warm == cold[-10:]


def test_scan_points_are_read_only():
    _, points = _scan_points(BasisParams(), 1.2)
    assert points.shape == (61, 3)
    with pytest.raises(ValueError):
        points[0, 0] = 0.0


def test_nearest_path_position_recovers_exact_point():
    b = BasisParams()
    pos = reference_path_point(b, 1.3, 125.0)
    p = nearest_path_position(b, pos, 1.2)
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
    # the cross-product term is the skew construction
    # C = [[0, -S(p_lin)], [-S(p_lin), -S(p_ang)]], p = M nu, applied to nu
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=(6, 6))
        mass_m = a @ a.T + 6.0 * np.eye(6)
        nu = rng.normal(scale=3.0, size=6)
        term = np.array(coriolis_force(mass_m.tolist(), nu.tolist()))
        p = mass_m @ nu
        c = np.zeros((6, 6))
        c[:3, 3:] = -skew(p[:3])
        c[3:, :3] = -skew(p[:3])
        c[3:, 3:] = -skew(p[3:])
        assert np.all(c + c.T == 0.0)
        scale = 1.0 + np.linalg.norm(mass_m) * float(nu @ nu)
        assert np.allclose(term, c @ nu, rtol=0, atol=1e-12 * scale)
        worst = max(worst, abs(float(nu @ term)) / scale)
    assert worst < 1e-9


def test_neutral_body_has_zero_generalized_force():
    props = point_body()
    rng = np.random.default_rng(7)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    angle = 0.8
    k = skew(v)
    rot = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    assert np.allclose(tau(props, rot, np.zeros(6), {}), 0.0,
                       atol=1e-9 * props.mass * 9.81)


def test_surface_force_hand_value():
    foil = FoilCoeffs()
    surf = surface("s", (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0),
                   foil, 6.0, 1.0)
    nu = np.array([4.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    force, moment = surface_alone(surf, 0.5 * 1000.0 * 2.0, nu)
    q_s = 0.5 * 1000.0 * 2.0 * 16.0
    cl = 0.16
    cd = (1.0 / (math.pi * 0.92 * 6.0) + 0.03) * (0.16 - 0.02) ** 2 + 0.0065
    assert force[2] == pytest.approx(q_s * cl, rel=1e-12)
    assert force[0] == pytest.approx(-q_s * cd, rel=1e-12)
    assert force[1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(moment, 0.0)
    assert np.allclose(moment, np.cross(surf.center, force))


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
        surf = surface("s", center, normal, span, foil, 8.0, 0.7)
        nu = np.concatenate([rng.normal(scale=3.0, size=3), np.zeros(3)])
        v = nu[:3]
        speed = np.linalg.norm(v)
        force, moment = surface_alone(surf, 0.5 * 1000.0 * 2.5, nu)
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
    base = tau(props, rot, nu, {"elevator": 0.0})
    up = tau(props, rot, nu, {"elevator": 0.1})
    assert up[2] > base[2]          # extra lift at the tail
    assert up[4] > base[4]          # nose-down pitch from an aft lift rise


def test_aileron_rolls_antisymmetrically():
    props = mid_size_kite()
    nu = np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    rot = np.eye(3)
    pos = tau(props, rot, nu, {"aileron": 0.2})
    neg = tau(props, rot, nu, {"aileron": -0.2})
    zero = tau(props, rot, nu, {})
    assert pos[3] > zero[3] + 1.0
    assert pos[3] - zero[3] == pytest.approx(zero[3] - neg[3], rel=1e-9)
    # differential deflection leaves the net lift unchanged
    assert pos[2] == pytest.approx(zero[2], rel=1e-9)


def test_aileron_sign_belongs_to_the_surface_not_its_name():
    props = mid_size_kite()
    renamed = dataclasses.replace(props, surfaces=[
        s._replace(name=f"surface_{i}")
        for i, s in enumerate(props.surfaces)])
    nu = np.array([3.0, 0.2, -0.1, 0.05, -0.02, 0.03])
    rot = np.eye(3)
    for aileron in (0.2, -0.2):
        deflections = {"aileron": aileron, "rudder": 0.06, "elevator": -0.1}
        want = tau(props, rot, nu, deflections)
        got = tau(renamed, rot, nu, deflections)
        assert np.array_equal(got, want)


# -- tether -----------------------------------------------------------------

def kite_link_force(outer_span, outer_rate, rest=10.0):
    """Force on the kite from a one-node neutral chain in still water whose
    winch link sits exactly at rest length: the outer link's pull alone."""
    props = TetherProperties(n_nodes=1, density=1000.0)
    node = np.array([rest, 0.0, 0.0])
    forces, kite_force, tension = tether_forces(
        node, np.zeros(3), node + outer_span, outer_rate, rest,
        LumpedLine.of(props, STILL_WATER))
    assert tension == 0.0
    assert np.array_equal(forces, -np.array(kite_force))
    return np.array(kite_force)


def test_link_tension_matches_linear_spring():
    rest = 10.0
    k = 1e10 * math.pi * 0.05**2 / rest
    for strain in (1e-5, 1e-4, 1e-3, 1e-2):
        outer = rest + rest * (1.0 + strain)
        stretch = (outer - rest) - rest       # realized, post-rounding
        f = kite_link_force(np.array([outer - rest, 0.0, 0.0]), np.zeros(3))
        assert np.linalg.norm(f) == pytest.approx(k * stretch, rel=1e-12)
        assert f[0] < 0.0                     # pulls the outer end back


def test_link_tension_slack_and_compression_floor():
    assert np.array_equal(
        kite_link_force(np.array([9.9, 0.0, 0.0]), np.zeros(3)), np.zeros(3))
    # fast shortening overwhelms the elastic term; the rope cannot push
    f = kite_link_force(np.array([10.0001, 0.0, 0.0]),
                        np.array([-10.0, 0.0, 0.0]))
    assert np.array_equal(f, np.zeros(3))


def test_straight_neutral_chain_is_force_free():
    props = TetherProperties(density=1000.0)
    rest = 10.0
    n = props.n_nodes
    node_pos = (np.arange(1, n + 1)[:, None] * np.array([rest, 0.0, 0.0])).ravel()
    node_vel = np.zeros(3 * n)
    attach = np.array([(n + 1) * rest, 0.0, 0.0])
    forces, kite_force, tension = tether_forces(
        node_pos, node_vel, attach, np.zeros(3), rest,
        LumpedLine.of(props, STILL_WATER))
    assert np.allclose(forces, 0.0, atol=1e-12)
    assert np.allclose(kite_force, 0.0, atol=1e-12)
    assert tension == 0.0


def test_winch_tension_fast_path_matches_reference():
    sim = Simulator(mid_size_kite(), TetherProperties(), BasisParams())
    y = sim.initial_state().tolist()
    defl = {"aileron": 0.0, "rudder": 0.0, "elevator": 0.0}
    for _ in range(40):
        y = sim.rk4_step(y, defl, -0.3)       # spooling in keeps link 0 taut
    tension = sim.winch_tension(y)
    y = np.array(y)
    n = sim.tether.n_nodes
    pos, nu = y[0:3], y[7:13]
    rot = rotation(y)
    attach_pos = pos + rot @ sim.props.r_attach
    attach_vel = (rot @ nu[:3] + np.array([sim.flow.speed, 0.0, 0.0])
                  + rot @ np.cross(nu[3:], sim.props.r_attach))
    _, _, reference = tether_forces(
        y[13:13 + 3 * n], y[13 + 3 * n:13 + 6 * n],
        attach_pos, attach_vel, y[13 + 6 * n] / (n + 1),
        LumpedLine.of(sim.tether, sim.flow))
    assert tension == pytest.approx(reference, rel=1e-9)
    assert tension > 0.0


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

    line = LumpedLine.of(props, STILL_WATER)

    def acc(p, v):
        f, _, _ = tether_forces(p.ravel(), v.ravel(), attach, np.zeros(3),
                                rest, line)
        return np.reshape(f, (n, 3)) / m

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


# -- the flight kernels against reference forms -----------------------------
# The references are a two-pass tether chain (all link pulls, then all node
# forces), a force sum that calls one function per surface, and a Coriolis
# term built from a 6x6 matrix-vector product and cross products.  The
# kernels do the same arithmetic in the same order, so they must give the
# same floats, bit for bit.

def reference_tether_forces(node_pos, node_vel, attach_pos, attach_vel,
                            rest_length, props, flow):
    n = props.n_nodes
    chain_pos = [0.0, 0.0, 0.0, *node_pos, *attach_pos]
    chain_vel = [0.0, 0.0, 0.0, *node_vel, *attach_vel]
    area = math.pi * props.radius**2
    k = props.youngs_modulus * area / rest_length
    mass = props.density * area * rest_length
    damp = 2.0 * props.damping_ratio * math.sqrt(k * mass)
    pulls = []
    for i in range(0, 3 * n + 3, 3):
        sx = chain_pos[i + 3] - chain_pos[i]
        sy = chain_pos[i + 4] - chain_pos[i + 1]
        sz = chain_pos[i + 5] - chain_pos[i + 2]
        dist = math.sqrt(sx * sx + sy * sy + sz * sz)
        mag = 0.0
        if dist >= rest_length:
            safe = max(dist, 1e-12)
            stretch_rate = (sx * (chain_vel[i + 3] - chain_vel[i])
                            + sy * (chain_vel[i + 4] - chain_vel[i + 1])
                            + sz * (chain_vel[i + 5] - chain_vel[i + 2])) / safe
            mag = max(k * (dist - rest_length) + damp * stretch_rate, 0.0) / safe
        pulls += (-mag * sx, -mag * sy, -mag * sz)
    lift = ((flow.density - props.density) * area * GRAVITY
            * rest_length)
    drag = 0.5 * flow.density * props.drag_coeff * (2.0 * props.radius * rest_length)
    forces = []
    for i in range(0, 3 * n, 3):
        tx = chain_pos[i + 6] - chain_pos[i]
        ty = chain_pos[i + 7] - chain_pos[i + 1]
        tz = chain_pos[i + 8] - chain_pos[i + 2]
        t_norm = max(math.sqrt(tx * tx + ty * ty + tz * tz), 1e-12)
        tx, ty, tz = tx / t_norm, ty / t_norm, tz / t_norm
        ax = flow.speed - chain_vel[i + 3]
        ay = -chain_vel[i + 4]
        az = -chain_vel[i + 5]
        along = ax * tx + ay * ty + az * tz
        nx, ny, nz = ax - along * tx, ay - along * ty, az - along * tz
        drag_n = drag * math.sqrt(nx * nx + ny * ny + nz * nz)
        forces += (pulls[i] - pulls[i + 3] + drag_n * nx,
                   pulls[i + 1] - pulls[i + 4] + drag_n * ny,
                   pulls[i + 2] - pulls[i + 5] + lift + drag_n * nz)
    px, py, pz = pulls[0:3]
    return forces, tuple(pulls[3 * n:]), math.sqrt(px * px + py * py + pz * pz)


def reference_cross3(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def reference_surface_force_moment(row, q_ref, nu, deflection):
    (_, (cx, cy, cz), (nx, ny, nz), (tx, ty, tz), (sx, sy, sz), incidence,
     lift_slope, cl_zero, drag_factor, cl_min_drag, cd_zero, _, gain,
     area_fraction) = row
    u, v, w, p, q, r = nu
    vx = u + (q * cz - r * cy)
    vy = v + (r * cx - p * cz)
    vz = w + (p * cy - q * cx)
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed < 1e-9:
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    u_n = vx * nx + vy * ny + vz * nz
    u_t = vx * tx + vy * ty + vz * tz
    alpha = math.atan2(-u_n, u_t) + incidence
    cl = lift_slope * alpha + cl_zero
    cl += gain * deflection
    cd = drag_factor * (cl - cl_min_drag) ** 2 + cd_zero
    dx, dy, dz = -vx / speed, -vy / speed, -vz / speed
    lx, ly, lz = sy * dz - sz * dy, sz * dx - sx * dz, sx * dy - sy * dx
    norm = math.sqrt(lx * lx + ly * ly + lz * lz)
    q_s = q_ref * area_fraction * speed**2
    if norm < 1e-9:
        q_d = q_s * cd
        fx, fy, fz = q_d * dx, q_d * dy, q_d * dz
    else:
        fx = q_s * (cl * (lx / norm) + cd * dx)
        fy = q_s * (cl * (ly / norm) + cd * dy)
        fz = q_s * (cl * (lz / norm) + cd * dz)
    return (fx, fy, fz), (cy * fz - cz * fy, cz * fx - cx * fz,
                          cx * fy - cy * fx)


def reference_net_force_moment(table, rotation, nu, tether_force, deflections):
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    w_b = -table.weight
    b_b = table.buoyancy
    weight = (r20 * w_b, r21 * w_b, r22 * w_b)
    buoyancy = (r20 * b_b, r21 * b_b, r22 * b_b)
    tx, ty, tz = tether_force
    f_thr = (r00 * tx + r10 * ty + r20 * tz,
             r01 * tx + r11 * ty + r21 * tz,
             r02 * tx + r12 * ty + r22 * tz)
    fx = weight[0] + buoyancy[0] + f_thr[0]
    fy = weight[1] + buoyancy[1] + f_thr[1]
    fz = weight[2] + buoyancy[2] + f_thr[2]
    m_cg = reference_cross3(table.r_cg, weight)
    m_cb = reference_cross3(table.r_cb, buoyancy)
    m_thr = reference_cross3(table.r_attach, f_thr)
    mx = m_cg[0] + m_cb[0] + m_thr[0]
    my = m_cg[1] + m_cb[1] + m_thr[1]
    mz = m_cg[2] + m_cb[2] + m_thr[2]
    for row in table.surfaces:
        (sfx, sfy, sfz), (smx, smy, smz) = reference_surface_force_moment(
            row, table.q_ref, nu, deflections.get(row.control, 0.0))
        fx += sfx
        fy += sfy
        fz += sfz
        mx += smx
        my += smy
        mz += smz
    return (fx, fy, fz, mx, my, mz)


def reference_coriolis_force(mass_rows, nu):
    v0, v1, v2, v3, v4, v5 = nu
    p = [m0 * v0 + m1 * v1 + m2 * v2 + m3 * v3 + m4 * v4 + m5 * v5
         for m0, m1, m2, m3, m4, m5 in mass_rows]
    p_lin, p_ang = p[:3], p[3:]
    v, omega = nu[:3], nu[3:]
    lin, ang = reference_cross3(v, p_lin), reference_cross3(omega, p_ang)
    return reference_cross3(omega, p_lin) + (lin[0] + ang[0], lin[1] + ang[1],
                                             lin[2] + ang[2])


def bits(values):
    """The floats' exact bit patterns: -0.0 differs from 0.0, NaN equals NaN."""
    return [float(x).hex() for x in values]


def random_chain(rng, case):
    """A seeded tether state near a straight line, some links slack, some
    taut, some shortening fast enough to floor their pull at zero."""
    props = TetherProperties(n_nodes=int(rng.integers(1, 9)),
                             radius=rng.uniform(0.02, 0.08),
                             density=rng.uniform(950.0, 1050.0),
                             damping_ratio=rng.uniform(0.0, 1.0))
    flow = FlowEnv(speed=rng.uniform(0.0, 2.5), density=rng.uniform(990.0, 1030.0))
    n = props.n_nodes
    rest = rng.uniform(1.0, 30.0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    links = axis + rng.normal(scale=0.05, size=(n + 1, 3))
    links *= (rest * (1.0 + rng.uniform(-2e-4, 2e-4, size=(n + 1, 1)))
              / np.linalg.norm(links, axis=1, keepdims=True))
    chain = np.cumsum(links, axis=0)
    vel = rng.normal(scale=0.5, size=(n + 1, 3))
    if case == 0:
        chain[0] = 0.0                    # node at the winch: zero-length link
    elif case == 1 and n >= 2:
        chain[1] = 0.0                    # node 0's neighbours coincide
    elif case == 2 and n >= 3:
        chain[2] = chain[0]               # node 1's neighbours coincide
    elif case == 3:
        rest = 1e-13                      # taut links shorter than the floor
        chain[0] = (3e-13, 0.0, 0.0)
    pos = chain.ravel().tolist()
    flat_vel = vel.ravel().tolist()
    return (pos[:3 * n], flat_vel[:3 * n], pos[3 * n:], flat_vel[3 * n:],
            rest, props, flow)


def bound(args):
    """tether_forces' arguments for reference_tether_forces' arguments."""
    *chain, props, flow = args
    return (*chain, LumpedLine.of(props, flow))


def test_tether_forces_matches_the_two_pass_reference():
    rng = np.random.default_rng(20261019)
    kinds = {"slack": 0, "taut": 0, "floored": 0}
    for draw in range(200):
        args = random_chain(rng, draw % 10)
        forces, kite_force, tension = tether_forces(*bound(args))
        ref_forces, ref_kite, ref_tension = reference_tether_forces(*args)
        assert forces == ref_forces
        assert kite_force == ref_kite
        assert tension == ref_tension
        assert bits([*forces, *kite_force, tension]) == bits(
            [*ref_forces, *ref_kite, ref_tension])
        node_pos, node_vel, attach_pos, attach_vel, rest, props, _ = args
        chain = [0.0, 0.0, 0.0, *node_pos, *attach_pos]
        speeds = [0.0, 0.0, 0.0, *node_vel, *attach_vel]
        area = math.pi * props.radius**2
        k = props.youngs_modulus * area / rest
        mass = props.density * area * rest
        damp = 2.0 * props.damping_ratio * math.sqrt(k * mass)
        for i in range(0, len(chain) - 3, 3):
            s = np.subtract(chain[i + 3:i + 6], chain[i:i + 3])
            dist = float(np.linalg.norm(s))
            if dist < rest:
                kinds["slack"] += 1
            else:
                rate = s @ np.subtract(speeds[i + 3:i + 6], speeds[i:i + 3]) / dist
                kinds["floored" if k * (dist - rest) + damp * rate < 0.0
                      else "taut"] += 1
    assert min(kinds.values()) > 50


def test_tether_forces_floors_keep_nan_like_the_reference():
    rng = np.random.default_rng(5)
    for field in range(4):
        args = list(random_chain(rng, 9))
        args[field] = [math.nan, *args[field][1:]]
        out = tether_forces(*bound(args))
        ref = reference_tether_forces(*args)
        assert bits([*out[0], *out[1], out[2]]) == bits([*ref[0], *ref[1], ref[2]])


def test_net_force_moment_matches_the_per_surface_reference():
    rng = np.random.default_rng(20261020)
    tables = [ForceTable.of(mid_size_kite(), FlowEnv()),
              ForceTable.of(mid_size_kite(aileron_gain=0.7),
                            FlowEnv(speed=1.0, density=1025.0))]
    for draw in range(200):
        table = tables[draw % 2]
        q = rng.normal(size=4)
        rot = quat_to_rot((q / np.linalg.norm(q)).tolist())
        nu = rng.normal(scale=2.0, size=6).tolist()
        if draw % 10 == 0:
            nu = [0.0] * 6                # every surface in still water
        elif draw % 10 == 1:
            nu = [0.0, 3.0, 0.0, 0.0, 0.0, 0.0]   # flow along the wing span
        tether = rng.normal(scale=1e4, size=3).tolist()
        deflections = {"aileron": rng.uniform(-0.3, 0.3),
                       "elevator": rng.uniform(-0.3, 0.3)}
        if draw % 3:
            deflections["rudder"] = rng.uniform(-0.3, 0.3)
        out = net_force_moment(table, rot, nu, tether, deflections)
        ref = reference_net_force_moment(table, rot, nu, tether, deflections)
        assert out == ref
        assert bits(out) == bits(ref)
    # every sum starts at -0.0 and every surface is in still water: the
    # surfaces' zeros are still added, so the sums come back +0.0
    signed = dataclasses.replace(tables[0], weight=0.0, buoyancy=-0.0)
    identity = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    args = (signed, identity, [0.0] * 6, (-0.0, -0.0, -0.0), {})
    out = net_force_moment(*args)
    assert bits(out[:3]) == ["0x0.0p+0"] * 3
    assert bits(out) == bits(reference_net_force_moment(*args))


def test_coriolis_force_matches_the_matvec_reference():
    rng = np.random.default_rng(20261021)
    kite_rows = Simulator(mid_size_kite(), TetherProperties(),
                          BasisParams()).mass_rows
    for draw in range(200):
        rows = kite_rows
        if draw % 2:
            a = rng.normal(size=(6, 6))
            rows = (a @ a.T + 6.0 * np.eye(6)).tolist()
        nu = rng.normal(scale=3.0, size=6).tolist()
        out = coriolis_force(rows, nu)
        ref = reference_coriolis_force(rows, nu)
        assert out == ref
        assert bits(out) == bits(ref)



# The whole flight step against its plain form: reference_derivative and
# reference_winch_tension are Simulator.derivative and winch_tension
# written with one helper call per rotation, cross product and 6x6 product,
# and with every link and line constant derived from the tether and flow at
# each call, on top of the tether, surface and Coriolis references above.
# The simulator binds those constants once and inlines the helpers with
# the same products and sums in the same order, so a flight must come out
# the same, bit for bit.

DERIVATIVE_REFERENCE = Path(__file__).parent / "data" / "derivative_reference.txt"


def reference_quat_to_rot(q):
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def reference_rotate(rot, v):
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    x, y, z = v
    return (r00 * x + r01 * y + r02 * z,
            r10 * x + r11 * y + r12 * z,
            r20 * x + r21 * y + r22 * z)


def reference_matvec6(rows, v):
    v0, v1, v2, v3, v4, v5 = v
    return [m0 * v0 + m1 * v1 + m2 * v2 + m3 * v3 + m4 * v4 + m5 * v5
            for m0, m1, m2, m3, m4, m5 in rows]


def reference_quat_derivative(q, omega_body):
    w, x, y, z = q
    ox, oy, oz = omega_body
    return (
        0.5 * (-x * ox - y * oy - z * oz),
        0.5 * (w * ox + y * oz - z * oy),
        0.5 * (w * oy + z * ox - x * oz),
        0.5 * (w * oz + x * oy - y * ox),
    )


def reference_derivative(sim, y, deflections, spool_speed):
    n = sim.tether.n_nodes
    props, flow = sim.tether, sim.flow
    mass_matrix = sim.props.mass_matrix()
    quat = y[3:7]
    nu = y[7:13]
    omega = y[10:13]
    node_vel = y[13 + 3 * n:13 + 6 * n]

    rot = reference_quat_to_rot(quat)
    vx, vy, vz = reference_rotate(rot, nu[:3])
    v_inertial = (vx + flow.speed, vy, vz)
    r_attach = tuple(sim.props.r_attach.tolist())
    ox, oy, oz = reference_rotate(rot, r_attach)
    attach_pos = (y[0] + ox, y[1] + oy, y[2] + oz)
    wx, wy, wz = reference_rotate(rot, reference_cross3(omega, r_attach))
    attach_vel = (v_inertial[0] + wx, v_inertial[1] + wy,
                  v_inertial[2] + wz)

    rest = y[13 + 6 * n] / (n + 1)
    node_f, kite_f, _ = reference_tether_forces(
        y[13:13 + 3 * n], node_vel, attach_pos, attach_vel, rest, props, flow)
    node_mass = props.density * (math.pi * props.radius**2) * rest

    tau = reference_net_force_moment(ForceTable.of(sim.props, flow), rot, nu,
                                     kite_f, deflections)
    dnu = reference_matvec6(np.linalg.inv(mass_matrix).tolist(), [
        t - c for t, c in zip(tau, reference_coriolis_force(
            mass_matrix.tolist(), nu))])

    return [
        *v_inertial,
        *reference_quat_derivative(quat, omega),
        *dnu,
        *node_vel,
        *[f / node_mass for f in node_f],
        spool_speed,
    ]


def reference_winch_tension(sim, y):
    n = sim.tether.n_nodes
    props = sim.tether
    x, yy, z = y[13:16]
    vx, vy, vz = y[13 + 3 * n:16 + 3 * n]
    rest = y[13 + 6 * n] / (n + 1)
    dist = math.sqrt(x * x + yy * yy + z * z)
    if dist < rest or dist == 0.0:
        return 0.0
    area = math.pi * props.radius**2
    k = props.youngs_modulus * area / rest
    mass = props.density * area * rest
    damp = 2.0 * props.damping_ratio * math.sqrt(k * mass)
    mag = k * (dist - rest) + damp * (x * vx + yy * vy + z * vz) / dist
    return max(mag, 0.0)


def oracle_cases(n):
    """(state, deflections, spool speed) of every derivative-oracle row:
    the golden flight's recorded states and their perturbed copies."""
    size = 14 + 6 * n
    for row in np.loadtxt(DERIVATIVE_REFERENCE).tolist():
        yield (row[:size], dict(zip(("aileron", "rudder", "elevator"),
                                    row[size:size + 3])), row[size + 3])


def flown_cases(sim, rng):
    """States a short flight passes through, each with a jittered copy
    (some links slack, some stretched) under random controls."""
    defl = {"aileron": 0.05, "rudder": -0.02, "elevator": -0.1}
    y = sim.initial_state().tolist()
    n3 = 3 * sim.tether.n_nodes
    for step in range(400):
        y = sim.rk4_step(y, defl, -0.3 if step < 200 else 0.4)
        if step % 25:
            continue
        yield y, defl, 0.4
        jitter = np.array(y)
        jitter[7:13] += rng.normal(scale=0.2, size=6)
        jitter[13:13 + n3] += rng.normal(scale=2e-3, size=n3)
        jitter[13 + n3:13 + 2 * n3] += rng.normal(scale=0.1, size=n3)
        if step % 50 == 0:
            jitter[13:16] *= 0.99         # the winch link goes slack
        yield (jitter.tolist(),
               {"aileron": rng.uniform(-0.25, 0.25),
                "rudder": rng.uniform(-0.4, 0.4),
                "elevator": rng.uniform(-0.3, 0.1)},
               rng.uniform(-0.6, 0.6))


def test_flight_step_matches_the_reference_bit_for_bit():
    from hydrokite.catalog import kite_from_record, load_designs

    record = load_designs()["intermediate"]
    sim = Simulator(kite_from_record(record), TetherProperties(), BasisParams())
    cases = [(sim, case) for case in oracle_cases(sim.tether.n_nodes)]
    assert len(cases) >= 60
    flow = FlowEnv(speed=1.0, density=1025.0)
    rng = np.random.default_rng(20261022)
    for n_nodes in (3, 1, 8):
        other = Simulator(kite_from_record(record, flow=flow),
                          TetherProperties(n_nodes=n_nodes, radius=0.02,
                                           drag_coeff=0.5, damping_ratio=0.2),
                          BasisParams(), flow=flow)
        cases += [(other, case) for case in flown_cases(other, rng)]
    slack = 0
    for model, (y, deflections, spool) in cases:
        got = model.derivative(y, deflections, spool)
        want = reference_derivative(model, y, deflections, spool)
        assert got == want
        assert bits(got) == bits(want)
        tension = model.winch_tension(y)
        assert bits([tension]) == bits([reference_winch_tension(model, y)])
        slack += tension == 0.0
    assert 0 < slack < len(cases)


# -- integration ------------------------------------------------------------

def rigid_body_rk4(props, y, dt, flow):
    mass_m = props.mass_matrix()

    def deriv(state):
        rot = rotation(state)
        nu = state[7:13]
        dnu = np.linalg.solve(mass_m, tau(props, rot, nu, {}, flow)
                              - np.array(coriolis_force(mass_m.tolist(), nu)))
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
    assert np.allclose(rotation(y) @ y[7:10], v_inertial_0, atol=1e-6)
    assert np.linalg.norm(y[10:13]) == pytest.approx(np.linalg.norm(omega), rel=1e-9)


def test_rk4_order_by_step_halving():
    props = mid_size_kite()
    defl = {"aileron": 0.0, "rudder": 0.0, "elevator": -0.1}

    def final_state(dt, horizon=0.08):
        sim = Simulator(props, TetherProperties(), BasisParams(),
                        params=SimParams(dt=dt))
        y = sim.initial_state().tolist()
        for _ in range(round(horizon / dt)):
            y = sim.rk4_step(y, defl, 0.2)
        return np.array(y)

    ref = final_state(1.25e-4)
    err_coarse = np.linalg.norm(final_state(2e-3) - ref)
    err_half = np.linalg.norm(final_state(1e-3) - ref)
    assert err_coarse / err_half >= 15.0


def test_stepper_is_deterministic_and_keeps_quat_norm():
    props = mid_size_kite()
    finals = []
    for _ in range(2):
        sim = Simulator(props, TetherProperties(), BasisParams())
        y = sim.initial_state().tolist()
        for _ in range(200):
            y = sim.rk4_step(y, {"elevator": -0.05}, 0.5)
        finals.append(np.array(y))
    assert np.array_equal(finals[0], finals[1])
    assert abs(np.linalg.norm(finals[0][3:7]) - 1.0) < 1e-12


def test_initial_state_sits_on_path():
    for p0 in (0.25 * math.pi, 2.0, 4.0):
        sim = Simulator(mid_size_kite(), TetherProperties(), BasisParams(),
                        params=SimParams(init_path_pos=p0))
        y = sim.initial_state()
        attach = y[0:3] + rotation(y) @ sim.props.r_attach
        radius = sim.tether.length * (1.0 + sim.params.pre_strain)
        assert np.allclose(attach, reference_path_point(sim.basis, p0, radius),
                           atol=1e-9)
        assert np.linalg.norm(y[3:7]) == pytest.approx(1.0, abs=1e-12)
        # the body x axis is the unit path tangent along increasing p,
        # which the constant radius makes perpendicular to the radial
        x_b = rotation(y)[:, 0]
        chord = (reference_path_point(sim.basis, p0 + 1e-5, radius)
                 - reference_path_point(sim.basis, p0 - 1e-5, radius))
        assert np.allclose(x_b, chord / np.linalg.norm(chord), atol=1e-8)
        assert np.linalg.norm(x_b) == pytest.approx(1.0, abs=1e-12)
        assert abs(x_b @ attach) / radius < 1e-9
        n = sim.tether.n_nodes
        nodes = y[13:13 + 3 * n].reshape(n, 3)
        for i, node in enumerate(nodes, start=1):
            assert np.allclose(node, attach * i / (n + 1), atol=1e-9)


def test_initial_state_makes_no_numpy_linear_algebra(monkeypatch):
    # the release state is float math, like the step, so no BLAS kernel
    # rounds it; NumPy only wraps the result
    sim = Simulator(mid_size_kite(), TetherProperties(), BasisParams())
    want = sim.initial_state()

    def forbidden(*args, **kwargs):
        raise AssertionError("NumPy call in initial_state")

    for module, name in ((np, "cross"), (np.linalg, "norm"),
                         (np, "column_stack"), (np, "concatenate"),
                         (np, "stack"), (np, "arange"), (np, "dot")):
        monkeypatch.setattr(module, name, forbidden)
    got = sim.initial_state()
    monkeypatch.undo()
    assert np.array_equal(got, want)


def test_quat_from_rot_inverts_quat_to_rot():
    rng = np.random.default_rng(20261018)
    checked = 0
    for q in rng.normal(size=(2000, 4)):
        q = q / np.linalg.norm(q)
        q = q if q[0] >= 0.0 else -q
        if q[0] < 0.2:
            continue
        got = quat_from_rot(quat_to_rot(q.tolist()))
        assert all(type(v) is float for v in got)
        np.testing.assert_allclose(got, q, rtol=0, atol=1e-14)
        checked += 1
    assert checked > 1000


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
    # a caller's error, raised before any step: an EmptyLap after max_time
    # would read as a failed flight, which the eta sampler skips
    for n_laps in (0, -1):
        with pytest.raises(ValueError, match="n_laps"):
            Simulator(props, TetherProperties(), BasisParams()).run(n_laps)


def test_lap_closing_before_the_first_trace_row():
    # released 1e-4 rad short of the lap boundary, the lap closes within
    # the first few steps, before the trace_stride-th step records a row
    props = mid_size_kite()
    y0 = Simulator(props, TetherProperties(), BasisParams(),
                   params=SimParams(init_path_pos=2.0)).initial_state()
    params = SimParams(init_path_pos=2.0 + 1e-4)
    res = Simulator(props, TetherProperties(), BasisParams(),
                    params=params).run(1, y0=y0, p_start=2.0)
    assert len(res.laps) == 1
    assert res.laps[0].t_end < params.trace_stride * params.dt
    for column in (res.time, res.power, res.tension, res.angle,
                   res.spool_speed, res.path_pos):
        assert column.shape == (0,)
    assert res.position.shape == (0, 3)
    assert res.final_state.shape == y0.shape


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
        radial, east, north = (np.array(u) for u in tangent_basis(pos))
        for u in (radial, east, north):
            assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
        assert abs(radial @ east) < 1e-12
        assert abs(radial @ north) < 1e-12
        assert np.allclose(np.cross(radial, east), north, atol=1e-12)
    # pole fallback
    _, east, _ = tangent_basis(np.array([0.0, 0.0, 9.0]))
    assert np.allclose(east, [0.0, 1.0, 0.0])


def test_velocity_angle_axes():
    _, east, north = tangent_basis(np.array([10.0, 0.0, 0.0]))
    assert velocity_angle(np.array([0.0, 2.0, 0.0]), east, north) == pytest.approx(0.0, abs=1e-12)
    assert velocity_angle(np.array([0.0, 0.0, 2.0]), east, north) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_path_direction_is_the_unit_path_point():
    basis = BasisParams()
    for p in np.linspace(0.0, 2.0 * math.pi, 13):
        assert np.array_equal(path_direction(basis, p),
                              reference_path_point(basis, p, 1.0))


def carrot_chase(basis, gains, position, p_now):
    radial, east, north = (np.array(u) for u in tangent_basis(position))
    target = np.linalg.norm(position) * np.array(
        path_direction(basis, p_now + gains.lookahead))
    chase = target - position
    return chase - (chase @ radial) * radial, radial, east, north


def test_controller_zero_error_zero_output():
    basis = BasisParams()
    gains = FlightGains()
    ctl = FlightController(gains, basis, dt=2e-3, aileron_gain=1.5)
    position = reference_path_point(basis, 0.3, 125.0)
    chase_t, radial, east, north = carrot_chase(basis, gains, position, 0.3)
    aileron, rudder = ctl.update(position, chase_t, east, 0.3)
    assert abs(aileron) < 1e-12
    assert abs(rudder) < 1e-12


def test_controller_sign_and_saturation():
    basis = BasisParams()
    gains = FlightGains()
    position = reference_path_point(basis, 0.3, 125.0)
    chase_t, radial, east, north = carrot_chase(basis, gains, position, 0.3)
    e_hat = chase_t / np.linalg.norm(chase_t)
    perp = np.cross(radial, e_hat)

    # positive roll turns the track clockwise, so the command carries the
    # opposite sign of the heading error
    ctl = FlightController(gains, basis, dt=2e-3, aileron_gain=1.5)
    clockwise = math.cos(-0.3) * e_hat + math.sin(-0.3) * perp
    a_neg, r_neg = ctl.update(position, clockwise, east, 0.3)
    assert a_neg < 0.0
    assert r_neg == pytest.approx(gains.rudder_share * a_neg, rel=1e-12)

    ctl.reset()
    counter = math.cos(0.3) * e_hat + math.sin(0.3) * perp
    a_pos, _ = ctl.update(position, counter, east, 0.3)
    assert a_pos > 0.0

    # opposed velocity saturates the whole cascade; the clipped command is
    # exact and the integrators must not wind up while clipped
    ctl.reset()
    first = ctl.update(position, -chase_t, east, 0.3)
    second = ctl.update(position, -chase_t, east, 0.3)
    assert abs(first[0]) == pytest.approx(gains.aileron_limit, abs=1e-12)
    assert abs(first[1]) == pytest.approx(gains.rudder_share * gains.aileron_limit, abs=1e-12)
    assert first == second


def test_controller_takes_aileron_gain_from_kite():
    basis = BasisParams()
    position = reference_path_point(basis, 0.3, 125.0)
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


def test_step_functions_work_in_plain_floats():
    # a NumPy call inside the per-step math would hand back NumPy scalars
    sim = Simulator(mid_size_kite(), TetherProperties(), BasisParams())
    s = sim.initial_state().tolist()
    n = sim.tether.n_nodes
    deflections = {"aileron": 0.1, "rudder": 0.05, "elevator": -0.1}
    rot = quat_to_rot(s[3:7])
    node_f, kite_f, tension = tether_forces(
        s[13:13 + 3 * n], s[13 + 3 * n:13 + 6 * n], s[0:3], (0.0, 0.0, 0.0),
        s[-1] / (n + 1), sim.line)
    assert tension > 0.0
    tau = net_force_moment(sim.forces, rot, s[7:13], kite_f, deflections)
    dy = sim.derivative(s, deflections, 0.3)
    stepped = sim.rk4_step(s, deflections, 0.3)
    assert type(dy) is list and type(stepped) is list
    assert len(dy) == len(stepped) == len(s)
    values = [
        *(x for row in rot for x in row), *node_f, *kite_f, tension, *tau,
        *coriolis_force(sim.mass_rows, s[7:13]),
        *sim.controller.update(s[0:3], (1.0, 2.0, 0.5), (0.0, 1.0, 0.0), 0.8),
        interior_angle(sim.basis, 0.8, s[0:3]), sim.winch_tension(s),
        *dy, *stepped,
    ]
    assert all(type(v) is float for v in values)


def test_dynsim_exports_resolve():
    missing = [name for name in hydrokite.dynsim.__all__
               if not hasattr(hydrokite.dynsim, name)]
    assert missing == []
    assert "LumpedLine" in hydrokite.dynsim.__all__
