import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import allowable_flow, eta_coefficient
from vslcert.errors import ConfigError, InfeasibleScenarioError
from vslcert.network import (
    DEFAULT_JAM_MARGIN,
    DEFAULT_RADIUS,
    HighwayScenario,
    SegmentParams,
    admissible_speeds,
    critical_density,
    load_scenario,
    wave_ratio,
)

VI_SEGMENT = SegmentParams(f_bar=3.1e4, rho_bar=1050.0, u_bar=140.0,
                           f_U=3.1e4, rho_U=1050.0)
VI_CAPPED = SegmentParams(f_bar=3.1e4, rho_bar=1050.0, u_bar=140.0,
                          f_U=2.7e4, rho_U=1050.0)


def segments(draw_flow=st.floats(0.25, 0.75)):
    """Strategy for non-degenerate segment parameters."""
    return st.builds(
        lambda rho, u, c, fu, ru: SegmentParams(
            f_bar=c * u * rho, rho_bar=rho, u_bar=u,
            f_U=fu * c * u * rho, rho_U=ru * rho),
        st.floats(5.0, 500.0),
        st.floats(0.1, 200.0),
        draw_flow,
        st.floats(0.5, 1.0),
        st.floats(0.5, 1.0),
    )


def test_wave_ratio_highway_segment():
    assert wave_ratio(VI_SEGMENT) == pytest.approx(31000.0 / 116000.0, rel=1e-9)
    assert wave_ratio(VI_SEGMENT) == pytest.approx(0.267241, abs=1e-6)


def test_wave_ratio_unit_case():
    seg = SegmentParams(f_bar=30.0, rho_bar=60.0, u_bar=1.0, f_U=30.0, rho_U=60.0)
    assert wave_ratio(seg) == pytest.approx(1.0)


def test_wave_ratio_reduced_peak_flow():
    seg = SegmentParams(f_bar=2.7e4, rho_bar=1050.0, u_bar=140.0,
                        f_U=2.7e4, rho_U=1050.0)
    assert wave_ratio(seg) == pytest.approx(0.225)


def test_critical_density_at_80():
    assert critical_density(VI_SEGMENT, 80.0) == pytest.approx(335.0, abs=1.0)


def test_critical_density_at_top_speed_is_flow_over_speed():
    assert critical_density(VI_SEGMENT, 140.0) == pytest.approx(31000.0 / 140.0,
                                                                rel=1e-12)


def test_critical_density_at_40():
    assert critical_density(VI_SEGMENT, 40.0) == pytest.approx(507.5, abs=0.1)


def test_critical_density_decreases_across_grid():
    grid = [40.0, 60.0, 80.0, 100.0, 120.0, 140.0]
    values = [critical_density(VI_SEGMENT, u) for u in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


@given(segments(), st.floats(0.01, 1.0))
def test_peak_flow_identity(seg, frac):
    """Peak flow equals f_bar * rho_bar / critical density at any limit."""
    u = frac * seg.u_bar
    lhs = eta_coefficient(seg, u)
    rhs = seg.f_bar * seg.rho_bar / critical_density(seg, u)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(segments(), st.floats(0.01, 1.0))
def test_allowable_flow_continuous_at_critical_density(seg, frac):
    u = frac * seg.u_bar
    rc = critical_density(seg, u)
    below = allowable_flow(seg, rc * (1 - 1e-9), u)
    above = allowable_flow(seg, min(rc * (1 + 1e-9), seg.rho_bar), u)
    at = allowable_flow(seg, rc, u)
    scale = max(1.0, at)
    assert abs(below - at) / scale < 1e-6
    assert abs(above - at) / scale < 1e-6


def test_allowable_flow_endpoints():
    assert allowable_flow(VI_SEGMENT, 0.0, 80.0) == pytest.approx(0.0)
    assert allowable_flow(VI_SEGMENT, 1050.0, 80.0) == pytest.approx(0.0, abs=1e-9)


def test_allowable_flow_rises_then_falls():
    u = 80.0
    rc = critical_density(VI_SEGMENT, u)
    rho_lo = np.linspace(0.0, rc, 50)
    rho_hi = np.linspace(rc, 1050.0, 50)
    free = [allowable_flow(VI_SEGMENT, r, u) for r in rho_lo]
    cong = [allowable_flow(VI_SEGMENT, r, u) for r in rho_hi]
    assert all(a <= b + 1e-9 for a, b in zip(free, free[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(cong, cong[1:]))


def test_allowable_flow_rejects_bad_inputs():
    with pytest.raises(ValueError):
        allowable_flow(VI_SEGMENT, -1.0, 80.0)
    with pytest.raises(ValueError):
        allowable_flow(VI_SEGMENT, 1051.0, 80.0)
    with pytest.raises(ValueError):
        allowable_flow(VI_SEGMENT, 100.0, 0.0)
    with pytest.raises(ValueError):
        allowable_flow(VI_SEGMENT, 100.0, 141.0)


def test_incident_band_drops_fast_limits():
    band = admissible_speeds(VI_CAPPED, (40.0, 60.0, 80.0, 100.0, 120.0), 1.0)
    assert band == (40.0, 60.0, 80.0)


def test_nominal_band_keeps_whole_grid():
    grid = (40.0, 60.0, 80.0, 100.0, 120.0)
    assert admissible_speeds(VI_SEGMENT, grid, 1.0) == grid


def test_band_empty_when_margin_swallows_rho_U():
    with pytest.raises(InfeasibleScenarioError):
        admissible_speeds(VI_CAPPED, (40.0, 60.0, 80.0), 1050.0)


@settings(max_examples=200)
@given(segments(), st.floats(1e-3, 5.0),
       st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8, unique=True))
# The rounded peak flow at 2.9999999999999996 is over f_U and at 3.0 under it.
@example(SegmentParams(f_bar=5.625, rho_bar=5.0, u_bar=3.0, f_U=5.625, rho_U=5.0),
         1.0, [1.0, 0.5, 0.9999999999999999])
def test_band_is_contiguous_slice_of_grid(seg, margin_frac, fracs):
    """Whatever survives the caps is a contiguous run of the grid."""
    margin = margin_frac * seg.rho_U * 0.1
    grid = tuple(sorted(f * seg.u_bar for f in fracs))
    try:
        band = admissible_speeds(seg, grid, margin)
    except InfeasibleScenarioError:
        return
    lo = grid.index(band[0])
    assert band == grid[lo:lo + len(band)]


def vi_scenario_dict():
    seg = {"f_bar": 3.1e4, "rho_bar": 1050, "u_bar": 140,
           "f_U": 3.1e4, "rho_U": 1050}
    seg4 = dict(seg, f_U=2.7e4)
    return {
        "L_km": 10.0, "n": 5, "delta_s": 30.0, "T": 20,
        "gamma": [40, 60, 80, 100, 120],
        "segments": [dict(seg), dict(seg), dict(seg), seg4, dict(seg)],
    }


def test_loader_accepts_highway_config():
    sc = load_scenario(vi_scenario_dict())
    assert sc.h == pytest.approx(1.0 / 240.0, rel=1e-12)
    assert sc.jam_margin == DEFAULT_JAM_MARGIN == 1.0
    assert sc.epsilon == DEFAULT_RADIUS == 1000.0
    assert [len(b) for b in sc.bands] == [5, 5, 5, 3, 5]
    assert sc.bands[3] == (40.0, 60.0, 80.0)


def test_loader_reads_a_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(vi_scenario_dict()))
    sc = load_scenario(path)
    assert sc.n == 5


def test_loader_accepts_the_ignored_beta_key():
    cfg = json.loads((Path(__file__).parent / "data" / "highway5.json").read_text())
    assert "beta" in cfg
    assert load_scenario(cfg).n == 5


def test_loader_accepts_the_ignored_eta_bar_key():
    # A retired knob of the removed MILP search: any value still loads,
    # to the scenario the file gives without it.
    cfg = vi_scenario_dict()
    plain = load_scenario(cfg)
    cfg["eta_bar"] = math.nan
    assert load_scenario(cfg) == plain


def test_loader_reports_missing_key_with_path():
    cfg = vi_scenario_dict()
    del cfg["delta_s"]
    with pytest.raises(ConfigError, match="delta_s"):
        load_scenario(cfg)


def test_loader_reports_bad_segment_field():
    cfg = vi_scenario_dict()
    cfg["segments"][2]["rho_bar"] = "high"
    with pytest.raises(ConfigError, match=r"segments\[2\]"):
        load_scenario(cfg)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("path", ["epsilon", "L_km", "pi",
                                  "segments[3].rho_U", "gamma[4]"])
def test_loader_rejects_non_finite_numbers(path, value):
    cfg = vi_scenario_dict()
    nested = {"segments[3].rho_U": (cfg["segments"][3], "rho_U"),
              "gamma[4]": (cfg["gamma"], 4)}
    target, key = nested.get(path, (cfg, path))
    target[key] = value
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_scenario(cfg)


def test_loader_rejects_wrong_segment_count():
    cfg = vi_scenario_dict()
    cfg["segments"].pop()
    with pytest.raises(ConfigError, match="segments"):
        load_scenario(cfg)


def test_loader_rejects_nonsense_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_scenario_rejects_too_coarse_discretization():
    cfg = vi_scenario_dict()
    cfg["delta_s"] = 3600.0
    with pytest.raises(ConfigError, match="discretization"):
        load_scenario(cfg)


def test_segment_params_validation():
    with pytest.raises(ValueError):
        SegmentParams(f_bar=10.0, rho_bar=10.0, u_bar=1.0, f_U=10.0, rho_U=10.0)
    with pytest.raises(ValueError):
        SegmentParams(f_bar=10.0, rho_bar=60.0, u_bar=1.0, f_U=11.0, rho_U=60.0)
    with pytest.raises(ValueError):
        SegmentParams(f_bar=10.0, rho_bar=60.0, u_bar=1.0, f_U=10.0, rho_U=61.0)


def test_speed_profile_checks_band_membership():
    sc = load_scenario(vi_scenario_dict())
    with pytest.raises(ValueError, match="segment 4"):
        sc.speed_profile([40, 40, 40, 100, 40])
    profile = sc.speed_profile([40, 60, 80, 80, 120])
    assert profile.u == (40.0, 60.0, 80.0, 80.0, 120.0)
    assert profile.as_array().dtype == float


def test_uncontrolled_profile_is_top_speed():
    sc = load_scenario(vi_scenario_dict())
    assert sc.uncontrolled_profile() == (140.0,) * 5


def test_grid_must_increase():
    cfg = vi_scenario_dict()
    cfg["gamma"] = [40, 40, 80]
    with pytest.raises(ConfigError):
        load_scenario(cfg)
