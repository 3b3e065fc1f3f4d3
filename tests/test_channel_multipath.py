"""Tests for the image-method multipath model."""

import numpy as np
import pytest

from repro.channel.multipath import (
    MACKENZIE_SOUND_SPEED_M_S,
    MAX_BOUNCES,
    ImageMethodGeometry,
    MultipathModel,
)


def _model(**kwargs):
    defaults = dict(
        geometry=ImageMethodGeometry(
            water_depth_m=5.0, tx_depth_m=1.0, rx_depth_m=1.0, horizontal_range_m=10.0
        ),
        surface_loss_db=1.0,
        bottom_loss_db=5.0,
    )
    defaults.update(kwargs)
    return MultipathModel(**defaults)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ImageMethodGeometry(water_depth_m=5.0, tx_depth_m=6.0, rx_depth_m=1.0,
                            horizontal_range_m=10.0)
    with pytest.raises(ValueError):
        ImageMethodGeometry(water_depth_m=5.0, tx_depth_m=1.0, rx_depth_m=0.0,
                            horizontal_range_m=10.0)
    with pytest.raises(ValueError):
        ImageMethodGeometry(water_depth_m=-1.0, tx_depth_m=1.0, rx_depth_m=1.0,
                            horizontal_range_m=10.0)


def test_direct_path_is_first_and_strongest():
    paths = _model().paths()
    direct = paths[0]
    assert direct.num_surface_bounces == 0
    assert direct.num_bottom_bounces == 0
    assert direct.length_m == pytest.approx(10.0)
    assert abs(direct.amplitude) == pytest.approx(max(abs(p.amplitude) for p in paths))


def test_surface_bounce_flips_polarity():
    paths = _model().paths()
    surface_paths = [p for p in paths if p.num_surface_bounces % 2 == 1]
    assert surface_paths
    assert all(p.amplitude < 0 for p in surface_paths)


def test_single_bottom_bounce_present():
    paths = _model().paths()
    assert any(p.num_bottom_bounces == 1 and p.num_surface_bounces == 0 for p in paths)


def test_paths_stay_within_the_bounce_budget():
    bounces = [p.num_surface_bounces + p.num_bottom_bounces for p in _model().paths()]
    assert max(bounces) == MAX_BOUNCES


def test_delays_sorted_and_positive():
    paths = _model().paths()
    delays = [p.delay_s for p in paths]
    assert delays == sorted(delays)
    assert all(d > 0 for d in delays)


def test_extra_reflectors_add_late_paths():
    base = _model(seed=3).paths()
    extended = _model(extra_reflectors=4, seed=3).paths()
    assert len(extended) == len(base) + 4


def test_impulse_response_properties():
    response = _model().impulse_response(48000.0)
    assert response.ndim == 1
    assert response.size >= 1
    assert np.argmax(np.abs(response)) <= 1  # delay-normalized: direct path first


def test_frequency_response_has_notches():
    """Multipath must produce frequency-selective fading in the 1-4 kHz band."""
    model = _model()
    freqs = np.arange(1000.0, 4000.0, 25.0)
    response = model.frequency_response_db(freqs)
    assert response.max() - response.min() > 6.0


def test_frequency_response_changes_with_geometry():
    a = _model().frequency_response_db(np.arange(1000, 4000, 50.0))
    b = _model(geometry=ImageMethodGeometry(5.0, 2.0, 1.5, 14.0)).frequency_response_db(
        np.arange(1000, 4000, 50.0))
    assert not np.allclose(a, b, atol=1.0)


def _delay_spread_s(model):
    paths = model.paths()
    return paths[-1].delay_s - paths[0].delay_s


def test_delay_spread_larger_for_deeper_water_with_reflectors():
    shallow = _model()
    reverberant = _model(extra_reflectors=5, seed=2)
    assert _delay_spread_s(reverberant) >= _delay_spread_s(shallow)


def test_direct_path_delay_matches_geometry():
    model = _model()
    expected = 10.0 / MACKENZIE_SOUND_SPEED_M_S
    assert model.paths()[0].delay_s == pytest.approx(expected, rel=1e-3)
