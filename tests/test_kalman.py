import math

import numpy as np
import pytest

from oracles import Box7, kalman_predict_reference, kalman_update_reference, mc_bev_iou
from sttrack.assign import FORBIDDEN
from sttrack.kalman import (
    KalmanDivergenceError,
    _predict_constants,
    KfParams,
    KfState,
    init_state,
    kf_association_cost,
    predict,
    process_noise,
    transition_matrix,
    update,
)

PRECISE = KfParams(
    process_noise_accel_sigma=1e-3,
    meas_noise_sigma=1e-5,
    initial_velocity_sigma=10.0,
    initial_accel_sigma=10.0,
)


def make_box(cx, cy, w=2.0, l=4.0, heading=0.0):
    return Box7((cx, cy, 0.75), (w, l, 1.5), heading)


def test_predict_static_mean():
    p = KfParams()
    s = KfState(np.zeros(6), np.diag([1.0, 1, 1, 1, 1, 1]))
    out = predict(s, 0.5, p)
    assert out.mean == pytest.approx(np.zeros(6))


def test_predict_constant_velocity_mean():
    p = KfParams()
    s = KfState(np.array([0.0, 0, 1, 0, 0, 0]), np.eye(6))
    out = predict(s, 1.0, p)
    assert out.mean[:2] == pytest.approx([1.0, 0.0])
    assert out.mean[2:] == pytest.approx([1.0, 0, 0, 0])


def test_predict_update_cycle_matches_explicit_matrix_arithmetic():
    # Re-derive one full cycle with matrices written out longhand.
    dt = 0.25
    sigma_j = 0.8
    sigma_m = 0.3
    p = KfParams(process_noise_accel_sigma=sigma_j, meas_noise_sigma=sigma_m)
    mean0 = np.array([1.0, -2.0, 0.5, 0.3, -0.1, 0.2])
    cov0 = np.diag([0.5, 0.5, 2.0, 2.0, 4.0, 4.0])
    z = np.array([1.2, -1.9])

    h = dt * dt / 2
    f = np.array(
        [
            [1, 0, dt, 0, h, 0],
            [0, 1, 0, dt, 0, h],
            [0, 0, 1, 0, dt, 0],
            [0, 0, 0, 1, 0, dt],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    q1 = sigma_j**2 * np.array(
        [
            [dt**5 / 20, dt**4 / 8, dt**3 / 6],
            [dt**4 / 8, dt**3 / 3, dt**2 / 2],
            [dt**3 / 6, dt**2 / 2, dt],
        ]
    )
    q = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            q[2 * i, 2 * j] = q1[i, j]
            q[2 * i + 1, 2 * j + 1] = q1[i, j]
    mean_pred = f @ mean0
    cov_pred = f @ cov0 @ f.T + q

    hm = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]], dtype=float)
    r = sigma_m**2 * np.eye(2)
    s_mat = hm @ cov_pred @ hm.T + r
    k = cov_pred @ hm.T @ np.linalg.inv(s_mat)
    mean_upd = mean_pred + k @ (z - hm @ mean_pred)
    ikh = np.eye(6) - k @ hm
    cov_upd = ikh @ cov_pred @ ikh.T + k @ r @ k.T

    got = update(predict(KfState(mean0, cov0), dt, p), z, p)
    assert got.mean == pytest.approx(mean_upd, abs=1e-12)
    assert got.covariance == pytest.approx(cov_upd, abs=1e-12)


def test_reduces_to_hand_solved_1d_constant_velocity_filter():
    # With negligible jerk noise and no initial acceleration uncertainty the
    # x-row of the filter behaves like a scalar [x, v] constant-velocity KF.
    dt = 0.5
    sigma_m = 0.2
    p = KfParams(process_noise_accel_sigma=1e-9, meas_noise_sigma=sigma_m)
    cov0 = np.diag([1.0, 1.0, 4.0, 4.0, 1e-18, 1e-18])
    s = KfState(np.array([0.0, 0, 1, 0, 0, 0]), cov0)

    # independent 1D filter
    x = np.array([0.0, 1.0])
    pp = np.diag([1.0, 4.0])
    f1 = np.array([[1, dt], [0, 1]])
    h1 = np.array([[1.0, 0.0]])
    measurements = [0.55, 1.02, 1.49]
    for z in measurements:
        x = f1 @ x
        pp = f1 @ pp @ f1.T
        s1 = h1 @ pp @ h1.T + sigma_m**2
        k1 = pp @ h1.T / s1
        x = x + (k1 * (z - h1 @ x)).ravel()
        pp = (np.eye(2) - k1 @ h1) @ pp
        s = update(predict(s, dt, p), np.array([z, 0.0]), p)

    assert s.mean[0] == pytest.approx(x[0], abs=1e-6)
    assert s.mean[2] == pytest.approx(x[1], abs=1e-6)


def test_update_moves_to_measurement_with_tiny_noise():
    p = KfParams(meas_noise_sigma=1e-6)
    s = init_state((0.0, 0.0), p)
    s = predict(s, 0.1, p)
    out = update(s, np.array([3.0, -1.0]), p)
    assert out.mean[:2] == pytest.approx([3.0, -1.0], abs=1e-4)


def test_update_with_huge_noise_is_noninformative():
    p = KfParams(meas_noise_sigma=1e9)
    s = KfState(np.array([1.0, 2, 0.5, -0.5, 0.1, 0.2]), np.eye(6))
    out = update(s, np.array([100.0, 100.0]), p)
    assert out.mean == pytest.approx(s.mean, abs=1e-6)


def test_velocity_recovered_on_noiseless_track():
    v = (2.0, -1.0)
    dt = 0.1
    s = init_state((0.0, 0.0), PRECISE)
    for k in range(1, 11):
        s = predict(s, dt, PRECISE)
        s = update(s, np.array([v[0] * k * dt, v[1] * k * dt]), PRECISE)
    assert s.mean[2] == pytest.approx(v[0], abs=1e-6)
    assert s.mean[3] == pytest.approx(v[1], abs=1e-6)


def test_acceleration_recovered_on_noiseless_track():
    a = (0.5, -0.3)
    v0 = (1.0, 0.5)
    dt = 0.1
    s = init_state((0.0, 0.0), PRECISE)
    for k in range(1, 21):
        t = k * dt
        z = np.array(
            [v0[0] * t + 0.5 * a[0] * t * t, v0[1] * t + 0.5 * a[1] * t * t]
        )
        s = predict(s, dt, PRECISE)
        s = update(s, z, PRECISE)
    assert s.mean[4] == pytest.approx(a[0], abs=1e-3)
    assert s.mean[5] == pytest.approx(a[1], abs=1e-3)


def test_covariance_trace_nonincreasing_on_update():
    rng = np.random.default_rng(3)
    p = KfParams()
    s = init_state((0.0, 0.0), p)
    for _ in range(30):
        s = predict(s, 0.1, p)
        before = float(np.trace(s.covariance))
        s = update(s, rng.normal(0, 1, 2), p)
        after = float(np.trace(s.covariance))
        assert after <= before + 1e-12


def test_covariance_symmetric_positive_definite():
    rng = np.random.default_rng(4)
    p = KfParams()
    s = init_state((0.0, 0.0), p)
    for _ in range(50):
        s = predict(s, 0.1, p)
        s = update(s, rng.normal(0, 0.5, 2), p)
        assert np.abs(s.covariance - s.covariance.T).max() < 1e-9
        assert np.linalg.eigvalsh(s.covariance).min() > 0


def test_translation_equivariance():
    dt = 0.1
    p = KfParams()
    shift = np.array([123.0, -77.0])
    zs = [np.array([0.1 * k + 0.01 * (-1) ** k, 0.05 * k]) for k in range(12)]
    a = init_state((float(zs[0][0]), float(zs[0][1])), p)
    b = init_state((float(zs[0][0] + shift[0]), float(zs[0][1] + shift[1])), p)
    for z in zs[1:]:
        a = update(predict(a, dt, p), z, p)
        b = update(predict(b, dt, p), z + shift, p)
    assert b.mean[:2] == pytest.approx(a.mean[:2] + shift, abs=1e-9)
    assert b.mean[2:] == pytest.approx(a.mean[2:], abs=1e-9)
    assert b.covariance == pytest.approx(a.covariance, abs=1e-9)


def test_nonpositive_definite_covariance_aborts():
    p = KfParams()
    bad = KfState(np.zeros(6), -np.eye(6))
    with pytest.raises(KalmanDivergenceError):
        update(bad, np.array([0.0, 0.0]), p)
    # one non-PD covariance among good ones still aborts the stacked update,
    # and the error reports that row's prior trace
    good = init_state(np.zeros((5, 2)), p)
    cov = good.covariance.copy()
    cov[3] = -2.0 * np.eye(6)
    with pytest.raises(KalmanDivergenceError, match=r"prior trace = -1\.200e\+01$"):
        update(KfState(good.mean, cov), np.zeros((5, 2)), p)
    update(good, np.zeros((5, 2)), p)  # the good rows alone pass


def test_association_cost_perfect_overlap():
    p = KfParams()
    box = make_box(0.0, 0.0).as_row()
    s = KfState(np.zeros(6), np.eye(6))
    assert kf_association_cost(s, box, box, p) == pytest.approx(0.0)


def test_association_cost_disjoint_is_forbidden():
    p = KfParams()
    s = KfState(np.zeros(6), np.eye(6))
    last_box = Box7((0.0, 0.0, 0.75), (2.0, 4.0, 1.5), 0.0)
    cost = kf_association_cost(s, last_box.as_row(), make_box(50.0, 0.0).as_row(), p)
    assert cost is FORBIDDEN


def test_association_cost_half_overlap_matches_monte_carlo():
    p = KfParams()
    box = make_box(1.0, 0.4, heading=0.3)
    s = KfState(np.array([0.5, -0.25, 0.0, 0.0, 0.0, 0.0]), np.eye(6))
    last_box = Box7((3.0, 7.0, 0.75), (2.0, 4.0, 1.5), 0.0)
    cost = kf_association_cost(s, last_box.as_row(), box.as_row(), p)
    predicted = Box7((0.5, -0.25, 0.75), (2.0, 4.0, 1.5), 0.0)  # last_box at the mean's centre
    mc = mc_bev_iou(predicted, box, n_samples=400_000, seed=9)
    assert cost == pytest.approx(1.0 - mc, abs=0.01)


def test_process_noise_scales_quadratically():
    q1 = process_noise(0.1, 1.0)
    q2 = process_noise(0.1, 2.0)
    assert q2 == pytest.approx(4.0 * q1)


def test_transition_matrix_composition():
    f = transition_matrix(0.3) @ transition_matrix(0.2)
    assert f == pytest.approx(transition_matrix(0.5))


def test_params_validation():
    with pytest.raises(ValueError):
        KfParams(meas_noise_sigma=0.0)
    with pytest.raises(ValueError):
        KfParams(iou_gate=1.0)


def assert_bitwise_equal(got: KfState, want: KfState) -> None:
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.covariance.tobytes() == want.covariance.tobytes()


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.25, 1.0])
@pytest.mark.parametrize("p", [KfParams(), PRECISE, KfParams(3.0, 0.4, 2.0, 0.5)])
def test_predict_and_update_bitwise_equal_to_reference(dt, p):
    rng = np.random.default_rng(int(dt * 1000))
    starts = [
        init_state((0.0, 0.0), p),  # fresh covariance, all-zero mean
        init_state((12.5, -3.25), p),  # fresh covariance, zero motion terms
        KfState(np.array([4.0, 0.0, 0.0, -1.5, 0.0, 0.25]), np.eye(6)),
    ]
    for start in starts:
        ours = ref = start
        for _ in range(15):
            z = ours.mean[:2] + rng.normal(0.0, 0.5, 2)
            pred, ref_pred = predict(ours, dt, p), kalman_predict_reference(ref, dt, p)
            assert_bitwise_equal(pred, ref_pred)
            ours, ref = update(pred, z, p), kalman_update_reference(ref_pred, z, p)
            assert_bitwise_equal(ours, ref)
        # update straight after init, with no predict in between
        assert_bitwise_equal(update(start, (1.0, 0.0), p),
                             kalman_update_reference(start, (1.0, 0.0), p))

    # A stack of filters: every row of a stacked predict and update is
    # bitwise the single-filter reference, for empty, one-row and many-row
    # stacks. Rows start at spread-out states and covariances.
    fresh = init_state(rng.uniform(-50.0, 50.0, (40, 2)), p)
    mean = fresh.mean + np.concatenate(
        [np.zeros((40, 2)), rng.normal(0.0, 3.0, (40, 4))], axis=1
    )
    cov = fresh.covariance * rng.uniform(0.2, 5.0, (40, 1, 1))
    for n in (0, 1, 40):
        ours = KfState(mean[:n].copy(), cov[:n].copy())
        refs = [KfState(mean[i].copy(), cov[i].copy()) for i in range(n)]
        for _ in range(6):
            ours = predict(ours, dt, p)
            refs = [kalman_predict_reference(ref, dt, p) for ref in refs]
            assert ours.mean.shape == (n, 6) and ours.covariance.shape == (n, 6, 6)
            for i, ref in enumerate(refs):
                assert_bitwise_equal(KfState(ours.mean[i], ours.covariance[i]), ref)
            z = ours.mean[:, :2] + rng.normal(0.0, 0.5, (n, 2))
            ours = update(ours, z, p)
            refs = [kalman_update_reference(ref, z[i], p) for i, ref in enumerate(refs)]
            assert ours.mean.shape == (n, 6) and ours.covariance.shape == (n, 6, 6)
            for i, ref in enumerate(refs):
                assert_bitwise_equal(KfState(ours.mean[i], ours.covariance[i]), ref)


def test_predict_constants_are_cached_and_read_only():
    f, q = _predict_constants(0.1, 1.5)
    assert _predict_constants(0.1, 1.5)[0] is f
    assert np.array_equal(f, transition_matrix(0.1))
    assert np.array_equal(q, process_noise(0.1, 1.5))
    with pytest.raises(ValueError, match="read-only"):
        f[0, 2] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        q[0, 0] = 1.0
    out = predict(init_state((0.0, 0.0), KfParams()), 0.1, KfParams())
    out.covariance[0, 0] = 1.0  # the returned state is the caller's to change
