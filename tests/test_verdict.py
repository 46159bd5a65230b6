import numpy as np

from qsep.config import MARGINAL_BAND
from qsep.verdict import sign_gap, worst


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


class TestWorst:
    def test_the_first_nan_wins(self):
        dev = np.array([[0.5, np.nan], [9.0, np.nan], [np.nan, 1.0]])
        value, cell = worst(dev)
        assert np.isnan(value) and cell == 0
        value, cell = worst(np.array([1.0, 7.0, np.nan, 7.0, np.nan]))
        assert np.isnan(value) and cell == 2

    def test_cell_of_the_largest_entry(self):
        # one largest entry, at cell 2, in each of the three shapes; a tie names the first cell
        assert worst(np.array([0.1, 0.3, 0.7, 0.2])) == (0.7, 2)
        assert worst(np.array([[0.1, 0.3], [0.2, 0.0], [0.0, 0.7], [0.5, 0.5]])) == (0.7, 2)
        dev = np.zeros((4, 3, 2))
        dev[2, 1, 0] = 0.7
        dev[1, 2, 1] = 0.6
        assert worst(dev) == (0.7, 2)
        assert worst(np.array([[0.0, 0.4], [0.4, 0.0]])) == (0.4, 0)

    def test_one_cell(self):
        assert worst(np.array([0.25])) == (0.25, 0)
        assert worst(np.array([[0.0, 0.25, 0.1]])) == (0.25, 0)
        assert worst(np.full((1, 2, 2), 3e-16)) == (3e-16, 0)
