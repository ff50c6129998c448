"""Inequality audits on synthetic series with hand-computable outcomes."""

import json
import math

import numpy as np
import pytest

from vpme import verify


def _series(n=11, **cols):
    t = np.linspace(0.0, 1.0, n)
    base = dict(
        t=t,
        m2=np.full(n, 1.0),
        mk_m1=np.full(n, 1.0),
        m3=np.full(n, 1.0),
        q_star=np.zeros(n),
        q_tt=np.zeros(n),
        rho_inf=np.full(n, 2.0),
    )
    base.update(cols)
    return base


def test_moment_bound_free_streaming_ratio():
    # constant moment, q_star = 0: ratio is exactly 2^-k everywhere
    s = _series()
    out = verify.check_moment_bound(s, 2.0, "m2")
    assert out["verdict"] == "pass"
    assert out["max_ratio"] == pytest.approx(0.25, abs=1e-15)
    out3 = verify.check_moment_bound(s, 3.0, "m3")
    assert out3["max_ratio"] == pytest.approx(0.125, abs=1e-15)


def test_moment_bound_detects_violation():
    s = _series(m2=np.array([1.0, 10.0]), q_star=np.array([0.0, 0.1]), t=np.array([0.0, 1.0]))
    out = verify.check_moment_bound(s, 2.0, "m2")
    assert out["verdict"] == "fail"
    assert out["max_ratio"] > 2.0


def test_moment_bound_empty_moment_edge():
    zero = np.zeros(3)
    s = dict(m2=zero, q_star=zero)
    assert verify.check_moment_bound(s, 2.0, "m2")["verdict"] == "pass"
    s_bad = dict(m2=np.array([0.0, 1.0]), q_star=zero[:2])
    assert verify.check_moment_bound(s_bad, 2.0, "m2")["verdict"] == "fail"


def test_moment_bound_missing_column():
    with pytest.raises(KeyError, match="q_star"):
        verify.check_moment_bound({"m2": np.ones(3)}, 2.0, "m2")


def test_q_order_check():
    s = _series(q_star=np.linspace(0.0, 0.5, 11), q_tt=np.linspace(0.0, 0.6, 11))
    assert verify.check_q_order(s)["verdict"] == "pass"
    s_bad = _series(q_star=np.full(11, 0.5), q_tt=np.full(11, 0.4))
    out = verify.check_q_order(s_bad)
    assert out["verdict"] == "fail"
    assert out["max_excess"] == pytest.approx(0.1)


def test_density_bound_check():
    s = _series()
    assert verify.check_density_bound(s)["verdict"] == "pass"
    grows = _series(rho_inf=np.linspace(1.0, 25.0, 11))
    out = verify.check_density_bound(grows)
    assert out["verdict"] == "fail"
    assert out["threshold"] == pytest.approx(10.0)
    assert verify.check_density_bound(grows, applicable=False)["verdict"] == "not-applicable"


def test_density_bound_discounts_spread_in_velocity():
    # rho_inf growing like (1 + q^3) is exactly the allowed envelope
    q = np.linspace(0.0, 2.0, 11)
    s = _series(q_star=q, rho_inf=2.0 * (1.0 + q**3))
    out = verify.check_density_bound(s)
    assert out["verdict"] == "pass"
    assert out["fitted_C"] == pytest.approx(2.0)


def test_time_growth_needs_history():
    with pytest.raises(ValueError, match=">= 10 checkpoints"):
        verify.check_time_growth(_series(n=5), omega=0.25)


def test_time_growth_flat_ratio_passes():
    t = np.linspace(0.0, 1.0, 21)
    shape = np.sqrt(np.maximum(t, 0.0)) + np.maximum(t, 0.0) ** 1.25
    s = _series(n=21, q_tt=0.3 * shape)
    out = verify.check_time_growth(s, omega=0.25)
    assert out["verdict"] == "pass"
    assert out["B"] == pytest.approx(0.3, rel=1e-12)


def test_time_growth_flags_blowup():
    t = np.linspace(0.0, 1.0, 21)
    q = np.sqrt(t) + t**1.25
    q[11:] *= 40.0
    out = verify.check_time_growth(_series(n=21, q_tt=q), omega=0.25)
    assert out["verdict"] == "fail"


def test_fit_main_bound_recovers_planted_exponent():
    omega, t_final = 0.25, 1.0
    shape = math.sqrt(t_final) + t_final ** (1.0 + omega)
    results = [
        {"epsilon": e, "t_final": t_final, "q_final": 0.7 * math.exp(2.0 / e**2) * shape}
        for e in (1.0, 0.7, 0.5)
    ]
    out = verify.fit_main_bound(results, omega)
    assert out["verdict"] == "pass"
    assert out["slope_a"] == pytest.approx(2.0, abs=1e-12)
    assert out["log_A"] == pytest.approx(math.log(0.7), abs=1e-12)
    assert max(out["residuals"]) <= 1e-12


def test_fit_main_bound_constant_q():
    results = [
        {"epsilon": e, "t_final": 1.0, "q_final": 0.4} for e in (1.0, 0.7, 0.5, 0.4)
    ]
    out = verify.fit_main_bound(results, 0.25)
    assert out["verdict"] == "pass"
    assert out["slope_a"] == pytest.approx(0.0, abs=1e-12)


def test_fit_main_bound_envelope_violation():
    omega = 0.25
    results = [
        {"epsilon": e, "t_final": 1.0, "q_final": math.exp(1.0 / e**2)}
        for e in (1.0, 0.8, 0.65, 0.5, 0.4)
    ]
    results[2]["q_final"] *= 2.0  # one point 2x above the planted envelope
    out = verify.fit_main_bound(results, omega)
    assert out["verdict"] == "fail"


def test_fit_main_bound_input_validation():
    two = [{"epsilon": 1.0, "t_final": 1.0, "q_final": 1.0}] * 2
    with pytest.raises(ValueError, match=">= 3 epsilon"):
        verify.fit_main_bound(two, 0.25)
    three = [{"epsilon": e, "t_final": 1.0, "q_final": 1.0} for e in (1.0, 0.7, 0.5)]
    for omega in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="omega"):
            verify.fit_main_bound(three, omega)


def test_ehat_trend_shapes():
    entries = [
        {"epsilon": e, "ehat_sup": 0.3 * math.exp(1.5 / e**2) / e**2}
        for e in (1.0, 0.7, 0.5)
    ]
    out = verify.ehat_trend(entries)
    assert out["verdict"] == "pass"
    assert out["fit"]["c0"] == pytest.approx(1.5, abs=1e-12)
    dead = [{"epsilon": 1.0, "ehat_sup": 0.0}] * 3
    assert verify.ehat_trend(dead)["verdict"] == "insufficient-data"


def test_run_checks_aggregates_verdicts():
    t = np.linspace(0.0, 1.0, 21)
    shape = np.sqrt(t) + t**1.25
    s = _series(n=21, q_tt=0.2 * shape, q_star=0.19 * shape)
    meta = {"m1": 2.5, "omega": 0.25, "init_kind": "maxwellian"}
    out = verify.run_checks(s, meta)
    assert out["verdict"] == "pass"
    assert out["density_bound"]["verdict"] == "not-applicable"

    meta_pl = {"m1": 2.5, "omega": 0.25, "init_kind": "power_law"}
    out_pl = verify.run_checks(s, meta_pl)
    assert out_pl["density_bound"]["verdict"] == "pass"

    s_bad = dict(s)
    s_bad["q_star"] = s["q_tt"] + 1.0
    assert verify.run_checks(s_bad, meta)["verdict"] == "fail"


def test_report_emission_is_canonical(tmp_path):
    report = {"b": [1.0, 2.0], "a": {"nested": "x"}, "verdict": "pass"}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    text1 = verify.emit_report(report, p1)
    text2 = verify.emit_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert text1 == text2 and text1.endswith("\n")
    assert json.loads(p1.read_text()) == report
    with pytest.raises(ValueError):
        verify.emit_report({"x": math.nan}, tmp_path / "bad.json")
