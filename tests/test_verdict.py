import numpy as np

from qsep.config import MARGINAL_BAND
from qsep.verdict import sign_gap


class TestSignGap:
    def test_nan_on_either_side_is_nan(self):
        for numeric, closed in ((np.nan, -1.0), (-1.0, np.nan), (np.nan, np.nan), (np.nan, 0.0)):
            gap = sign_gap(numeric, closed)
            assert np.isnan(gap), (numeric, closed)
            assert not gap <= MARGINAL_BAND

    def test_matching_signs_give_zero(self):
        numeric = np.array([1.0, -2.0, 0.0, 3e-12, -1e-300])
        closed = np.array([0.5, -1e-20, 0.0, 7.0, -4.0])
        assert np.array_equal(sign_gap(numeric, closed), np.zeros(5))

    def test_differing_signs_give_the_smaller_magnitude(self):
        numeric = np.array([0.3, -0.3, 2e-9, 0.0])
        closed = np.array([-0.1, 0.7, -5.0, -0.5])
        assert np.array_equal(sign_gap(numeric, closed), [0.1, 0.3, 2e-9, 0.0])

    def test_signs_match_up_to_the_band_and_not_past_it(self):
        band = MARGINAL_BAND
        above = np.nextafter(band, 1.0)
        for numeric, closed, agree in (
            (band, -1.0, True), (-band, 1.0, True), (1.0, -band, True), (-1.0, band, True),
            (above, -1.0, False), (-above, 1.0, False), (1.0, -above, False), (-1.0, above, False),
            (above, above, True), (-above, -above, True), (0.0, -above, True),
        ):
            assert bool(sign_gap(numeric, closed) <= band) is agree, (numeric, closed)
