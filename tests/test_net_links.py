"""Tests for the per-hop link models and the PHY calibration."""

import numpy as np
import pytest

from repro.net.links import (
    CALIBRATION_DISTANCES_M,
    DEFAULT_LAKE_CALIBRATION,
    CalibratedLink,
    LinkCalibration,
    PhysicalLink,
    calibrate_from_phy,
)


def _table(per=(0.0, 0.5), bitrate=(1000.0, 500.0)) -> LinkCalibration:
    return LinkCalibration(
        site_name="lake", distances_m=(5.0, 15.0),
        packet_error_rate=per, bitrate_bps=bitrate,
    )


def test_calibration_validation():
    with pytest.raises(ValueError):
        LinkCalibration("lake", (), (), ())
    with pytest.raises(ValueError):
        LinkCalibration("lake", (5.0, 2.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        LinkCalibration("lake", (2.0, 5.0), (0.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        LinkCalibration("lake", (2.0, 5.0), (0.0, 1.5), (1.0, 1.0))


def _per(link, distance_m):
    """The interpolated PER a calibrated link applies at ``distance_m``."""
    return link.deliver(distance_m, np.random.default_rng(0)).packet_error_rate


def test_calibration_interpolates_and_clips():
    link = CalibratedLink(_table())
    assert _per(link, 5.0) == pytest.approx(0.0)
    assert _per(link, 10.0) == pytest.approx(0.25)
    assert _per(link, 100.0) == pytest.approx(0.5)  # clipped at the far end
    assert link.expected_bitrate_bps(10.0) == pytest.approx(750.0)


def test_calibration_dict_roundtrip():
    table = _table()
    rebuilt = LinkCalibration.from_dict(table.to_dict())
    assert rebuilt == table


def test_calibrated_link_respects_the_table():
    rng = np.random.default_rng(0)
    sure = CalibratedLink(_table(per=(0.0, 0.0)))
    assert all(sure.deliver(10.0, rng).delivered for _ in range(50))
    never = CalibratedLink(_table(per=(1.0, 1.0)))
    assert not any(never.deliver(10.0, rng).delivered for _ in range(50))
    outcome = sure.deliver(10.0, rng)
    assert outcome.bitrate_bps == pytest.approx(750.0)
    assert outcome.packet_error_rate == pytest.approx(0.0)


def test_calibrated_link_airtime_grows_with_size_and_distance():
    link = CalibratedLink(_table())
    assert link.airtime_s(160, 5.0) > link.airtime_s(16, 5.0)
    # The far end of the table has half the bitrate: longer airtime.
    assert link.airtime_s(160, 15.0) > link.airtime_s(160, 5.0)


def test_default_calibration_is_plausible():
    table = DEFAULT_LAKE_CALIBRATION
    assert table.site_name == "lake"
    link = CalibratedLink(table)
    assert _per(link, 2.0) == pytest.approx(0.0)
    assert 0.0 < _per(link, 10.0) < 0.5
    # Band adaptation retreats to lower rates as the range grows.
    assert link.expected_bitrate_bps(25.0) < link.expected_bitrate_bps(2.0)


def test_calibrate_from_phy_smoke():
    table = calibrate_from_phy(site="park", packets_per_point=1, seed=1)
    assert table.site_name == "park"
    assert table.distances_m == CALIBRATION_DISTANCES_M
    assert all(0.0 <= per <= 1.0 for per in table.packet_error_rate)
    assert np.all(np.isfinite(table.bitrate_bps))
    with pytest.raises(ValueError):
        calibrate_from_phy(packets_per_point=0)


def test_calibrate_from_phy_stops_at_the_site_range():
    # Bridge, museum and bay end at 20 m; the 25 m row is not measured.
    table = calibrate_from_phy(site="bridge", packets_per_point=1, seed=1)
    assert table.site_name == "bridge"
    assert table.distances_m == (2.0, 5.0, 10.0, 15.0, 20.0)
    assert np.all(np.isfinite(table.bitrate_bps))
    # Beyond the last row the link holds the last row's values.
    link = CalibratedLink(table)
    assert link.expected_bitrate_bps(25.0) == table.bitrate_bps[-1]
    assert _per(link, 25.0) == table.packet_error_rate[-1]


def test_physical_link_delivers_and_caches_sessions():
    link = PhysicalLink(site="bridge", seed=3)
    rng = np.random.default_rng(4)
    outcome = link.deliver(5.0, rng)
    assert outcome.delivered in (True, False)
    assert np.isfinite(outcome.bitrate_bps)
    first = link._session_for(5.0)
    assert link._session_for(5.1) is first       # same 0.5 m quantum
    assert link._session_for(9.0) is not first   # different quantum


def test_calibrate_from_phy_progress_callback():
    from repro.net.links import calibrate_from_phy

    lines = []
    calibration = calibrate_from_phy(
        site="lake", packets_per_point=1, seed=4, progress=lines.append,
    )
    assert len(lines) == len(calibration.distances_m) == 6
    assert "1/6" in lines[0] and "6/6" in lines[-1]
    assert "eta" in lines[0]
