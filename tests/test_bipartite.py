import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsep import bipartite, criteria, linalg, scan, states
from qsep.config import RANK_TOL
from qsep.exceptions import ConsistencyError
from qsep.states import SimplexPoint
from qsep.verdict import CODE_NAMES, HOLDS, MARGINAL, VIOLATED, codes


def simplex_grid(n=20):
    return [
        SimplexPoint(i / n, j / n)
        for i in range(n + 1)
        for j in range(n + 1 - i)
    ]


def state(margin):
    """The verdict name of a margin's code."""
    return CODE_NAMES[int(codes(margin))]


def verdict_at(cid, p):
    return state(scan.point_margin(cid, p))


def entropy_id(marginal, alpha):
    return f"entropy_{marginal}_a{bipartite.alpha_label(alpha)}"


def descending(p, size):
    return np.sort(np.pad(np.asarray(p, dtype=float), (0, size - len(p))))[::-1]


def q1_terms(g, w):
    """The terms of the PPT quadratic q1 (``bipartite.ppt_closed_margins``), in exact arithmetic."""
    return (-135 * g**2, -15 * w**2, -6 * g * w, -18 * g, 6 * w, F(9))


# (constant, g, w) coefficients of the two k=1 partial-sum rows of the majorization case
# table that share the case boundary g = (2/3) w (``bipartite.majorization_case_margins``)
ROW_BELOW = (F(3, 11), F(-3, 11), F(-1))  # g <= (2/3) w
ROW_ABOVE = (F(3, 19), F(9, 19), F(-1))   # (2/3) w <= g <= w, with the 9/19 correction
ROW_ABOVE_PRINTED = (F(3, 19), F(3, 19), F(-1))


def row_terms(row, g, w):
    c, cg, cw = row
    return (c, cg * g, cw * w)


def within_ulps(value, terms, ulps=4):
    """Whether a float lies within ``ulps`` units in the last place of the largest term
    of the exact sum ``terms``."""
    exact = sum(terms)
    return abs(F(float(value)) - exact) <= ulps * F(math.ulp(float(max(abs(t) for t in terms))))


def partial_sum_slack(p, q):
    """The majorization margin of the grid path: nonnegative iff p is majorized by q."""
    size = max(len(p), len(q))
    spectra = {"rho": descending(p, size), "rho1": descending(q, size), "rho23": descending(q, size)}
    return float(bipartite.majorization_margins_from_spectra(spectra)[0])


PURE = {"rho": (1.0, 0.0, 0.0), "rho1": (1.0, 0.0), "rho23": (1.0, 0.0, 0.0, 0.0)}


def entropy_pass(alphas=bipartite.ALPHA_GRID, **spectra):
    """The entropy pass on one cell whose (9, cells) values array holds ``spectra`` (rho's
    two simple values and its six-fold one, rho^1's two, rho^23's four), pure by default."""
    values = np.array([[x] for key in PURE for x in spectra.get(key, PURE[key])], dtype=float)
    return {alpha: (float(m1[0]), float(m23[0]))
            for alpha, (m1, m23) in bipartite.entropy_margins(values, alphas).items()}


def renyi(p, alpha):
    """S_a(p) of at most four values: minus the rho^23 margin of a pure rho."""
    return -entropy_pass([alpha], rho23=descending(p, 4))[alpha][1]


class TestMajorizes:
    def test_uniform_majorized_by_everything(self):
        rng = np.random.default_rng(0)
        uniform = np.full(8, 1 / 8)
        for _ in range(20):
            q = rng.dirichlet(np.ones(8))
            assert partial_sum_slack(uniform, q) >= -1e-12

    def test_incomparable_pair_from_the_text(self):
        p = [1 / 2, 1 / 8, 1 / 8, 1 / 8, 1 / 8]
        q = [1 / 3, 1 / 3, 1 / 3]
        assert partial_sum_slack(p, q) < -1e-12
        assert partial_sum_slack(q, p) < -1e-12

    def test_reflexive(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = rng.dirichlet(np.ones(6))
            assert partial_sum_slack(p, p) >= -1e-12


class TestCriterionMajorization:
    def test_white_noise_both_hold(self):
        p = SimplexPoint(0.0, 0.0)
        assert verdict_at("maj_rho1", p) == HOLDS and verdict_at("maj_rho23", p) == HOLDS

    def test_pure_ghz_both_violated(self):
        p = SimplexPoint(1.0, 0.0)
        assert verdict_at("maj_rho1", p) == VIOLATED and verdict_at("maj_rho23", p) == VIOLATED

    def test_published_borderline_points_marginal(self):
        for g, w in ((2 / 13, 3 / 13), (1 / 5, 0.0)):
            assert abs(scan.point_margin("maj_rho23", SimplexPoint(g, w))) <= 1e-10

    def test_rho23_implies_rho1_on_grid(self):
        for p in simplex_grid(15):
            if verdict_at("maj_rho23", p) == HOLDS:
                assert verdict_at("maj_rho1", p) != VIOLATED, p


class TestExactRationalPins:
    def test_q1_vanishes_exactly_at_one_fifth(self):
        assert sum(q1_terms(F(1, 5), F(0))) == 0
        q1, _ = bipartite.ppt_closed_margins(0.2, 0.0)
        assert within_ulps(q1, q1_terms(F(1, 5), F(0)))

    def test_case_rows_meet_at_two_thirteenths_three_thirteenths(self):
        # solve the two rows for their common zero by Cramer's rule, exactly
        (a0, ag, aw), (b0, bg, bw) = ROW_BELOW, ROW_ABOVE
        det = ag * bw - aw * bg
        g, w = (aw * b0 - a0 * bw) / det, (a0 * bg - ag * b0) / det
        assert (g, w) == (F(2, 13), F(3, 13))
        assert g == F(2, 3) * w  # on the shared case boundary
        assert sum(row_terms(ROW_BELOW, g, w)) == sum(row_terms(ROW_ABOVE, g, w)) == 0

    def test_printed_row_misses_the_published_point(self):
        # the documented 9/19 correction: the printed 3/19 coefficient does not vanish there
        assert sum(row_terms(ROW_ABOVE_PRINTED, F(2, 13), F(3, 13))) == F(-12, 247)

    def test_nan_weight_stays_nan_in_the_case_margins(self):
        m1, m23 = bipartite.majorization_case_margins([np.nan, 0.1], [0.2, 0.2])
        assert np.isnan(m1[0]) and np.isnan(m23[0])
        assert np.isfinite(m1[1]) and np.isfinite(m23[1])

    def test_boundary_disagreement_names_the_first_cell(self, monkeypatch):
        # (0.25, 0.25) lies on the shared boundary g = w; (0.1, 0.5) on none
        monkeypatch.setattr(bipartite, "sign_gap", lambda a, b: np.ones(np.shape(a)))
        with pytest.raises(ConsistencyError,
                           match=r"adjacent majorization case rows disagree on a shared "
                                 r"boundary at \(g=0\.25, w=0\.25\)$"):
            bipartite.majorization_case_margins([0.1, 0.25, 0.5], [0.5, 0.25, 0.5])

    def test_majorization_float_margin_within_a_few_ulp(self):
        _, m23 = bipartite.majorization_case_margins(2 / 13, 3 / 13)
        for row in (ROW_BELOW, ROW_ABOVE):
            assert within_ulps(m23[0], row_terms(row, F(2, 13), F(3, 13))), row


class TestRenyiEntropy:
    def test_uniform_any_alpha(self):
        # rho's eight values, and rho^23's four, uniform
        margins = entropy_pass(rho=(1 / 8, 1 / 8, 1 / 8))
        for alpha in bipartite.ALPHA_GRID:
            assert abs(margins[alpha][0] - math.log(8)) < 1e-12
            assert abs(margins[alpha][1] - math.log(8)) < 1e-12
            assert abs(renyi(np.full(4, 1 / 4), alpha) - math.log(4)) < 1e-12

    def test_point_distribution(self):
        p = [1.0, 0.0, 0.0]
        for alpha in bipartite.ALPHA_GRID:
            assert abs(renyi(p, alpha)) < 1e-12
        # a pure rho on either of its simple values
        for rho in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)):
            assert all(abs(m) < 1e-12 for pair in entropy_pass(rho=rho).values() for m in pair)

    def test_hartley_counts_support(self):
        assert abs(renyi([0.5, 0.5, 0.0], 0.0) - math.log(2)) < 1e-12

    def test_schur_concavity_spot_check(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 25:
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            if partial_sum_slack(p, q) < -1e-12:
                continue
            checked += 1
            for alpha in (0.5, 1.0, 2.0, 5.0, math.inf):
                assert renyi(p, alpha) >= renyi(q, alpha) - 1e-10


def per_order_margins(closed, alpha):
    """The entropy margins of one order as the per-order map computed them before the
    one-pass form: each clipped, sorted spectrum raised and summed along its last axis."""
    def entropy(p):
        if alpha == 0.0:
            return np.log((p > RANK_TOL).sum(axis=-1).astype(float))
        if alpha == 1.0:
            return np.where(p > 0.0, -p * np.log(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=-1)
        if math.isinf(alpha):
            return -np.log(p.max(axis=-1))
        return np.log((p**alpha).sum(axis=-1)) / (1.0 - alpha)

    hr, h1, h23 = (entropy(np.maximum(closed[key], 0.0)) for key in ("rho", "rho1", "rho23"))
    return hr - h1, hr - h23


# the three vertices, (1e-320, 1), and cells on the edges w = 0, g = 0 and g + w = 1
FIXED_CELLS = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1e-320, 1.0), (0.2, 0.0), (1 / 3, 0.0),
                        (0.0, 0.2), (0.0, 0.75), (0.5, 0.5), (1 / 7, 6 / 7), (0.15, 0.85)])


class TestEntropyPass:
    # 15 cells take every order in one step, 411 two orders per step, 1,211 one
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    @example(seed=0, count=1)
    @example(seed=1, count=100)
    @example(seed=2, count=300)
    def test_every_margin_keeps_the_bits_of_the_per_order_map(self, seed, count):
        rng = np.random.default_rng(seed)
        u, v, x = rng.random((3, count))
        flip = u + v > 1.0
        g = np.concatenate([FIXED_CELLS[:, 0], np.where(flip, 1.0 - u, u), x, 0.0 * x, x])
        w = np.concatenate([FIXED_CELLS[:, 1], np.where(flip, 1.0 - v, v), 0.0 * x, x, 1.0 - x])
        margins = criteria.margins(g, w, criteria.GROUPS["entropy"])
        closed = states.closed_form_spectra_grid(g, w)
        for alpha in bipartite.ALPHA_GRID:
            for cid, reference in zip((entropy_id("rho1", alpha), entropy_id("rho23", alpha)),
                                      per_order_margins(closed, alpha)):
                assert margins[cid].tobytes() == reference.tobytes(), cid

    def test_orders_are_independent(self):
        # a subset of the orders gives each of them the margins of the whole grid
        g, w = FIXED_CELLS.T
        values = bipartite.entropy_values(g, w, states.closed_form_spectra_grid(g, w))
        everything = bipartite.entropy_margins(values, bipartite.ALPHA_GRID)
        for alpha in bipartite.ALPHA_GRID:
            (m1, m23), = bipartite.entropy_margins(values, [alpha]).values()
            assert m1.tobytes() == everything[alpha][0].tobytes()
            assert m23.tobytes() == everything[alpha][1].tobytes()


class TestCriterionEntropy:
    def test_hartley_interior_holds(self):
        for p in (SimplexPoint(0.3, 0.3), SimplexPoint(0.9, 0.05)):
            assert verdict_at(entropy_id("rho1", 0.0), p) == HOLDS
            assert verdict_at(entropy_id("rho23", 0.0), p) == HOLDS

    def test_hartley_on_ghz_w_edge(self):
        # rk rho = 2 = rk rho^1 (equality, so not violated), rk rho^23 = 3
        p = SimplexPoint(0.5, 0.5)
        assert verdict_at(entropy_id("rho1", 0.0), p) != VIOLATED
        assert verdict_at(entropy_id("rho23", 0.0), p) == VIOLATED

    def test_chebyshev_matches_table_columns(self):
        for p in simplex_grid(12):
            # column (iii) is the max-eigenvalue inequality against rho^1
            spectra = states.closed_form_spectra_grid([p.g], [p.w])
            col_i = spectra["rho23"][0, 0] - spectra["rho"][0, 0]
            col_iii = spectra["rho1"][0, 0] - spectra["rho"][0, 0]
            for marginal, closed in (("rho1", col_iii), ("rho23", col_i)):
                verdict = verdict_at(entropy_id(marginal, math.inf), p)
                if verdict == HOLDS:
                    assert closed > -1e-12
                elif verdict == VIOLATED:
                    assert closed < 1e-12

    def test_never_stronger_than_majorization(self):
        for p in simplex_grid(12):
            if verdict_at("maj_rho1", p) == HOLDS and verdict_at("maj_rho23", p) == HOLDS:
                for alpha in bipartite.ALPHA_GRID:
                    for marginal in ("rho1", "rho23"):
                        assert scan.point_margin(entropy_id(marginal, alpha), p) > -1e-9, (p, alpha)


class TestCriterionPPT:
    def test_white_noise(self):
        margin = scan.point_margin("ppt", SimplexPoint(0.0, 0.0))
        assert state(margin) == HOLDS and abs(margin - 1 / 8) < 1e-12

    def test_pure_ghz(self):
        margin = scan.point_margin("ppt", SimplexPoint(1.0, 0.0))
        assert state(margin) == VIOLATED and abs(margin + 0.5) < 1e-12

    def test_published_axis_boundary_marginal(self):
        assert verdict_at("ppt", SimplexPoint(0.2, 0.0)) == MARGINAL

    def test_pptes_point_holds(self):
        assert verdict_at("ppt", SimplexPoint(0.2, 0.2)) == HOLDS


class TestCriterionReduction:
    def test_matches_ppt_on_grid(self):
        for p in simplex_grid(15):
            assert verdict_at("reduction", p) == verdict_at("ppt", p), p

    def test_pure_w_violated_via_linear_inequality(self):
        margin = scan.point_margin("reduction", SimplexPoint(0.0, 1.0))
        assert state(margin) == VIOLATED
        assert abs(margin + math.sqrt(2) / 3) < 1e-12

    def test_white_noise_holds(self):
        assert verdict_at("reduction", SimplexPoint(0.0, 0.0)) == HOLDS


class TestCriterionReshuffling:
    def test_white_noise(self):
        margin = scan.point_margin("resh24", SimplexPoint(0.0, 0.0))
        assert state(margin) == HOLDS
        assert abs((1.0 - margin) - 1 / (2 * math.sqrt(2))) < 1e-12

    def test_pure_ghz(self):
        margin = scan.point_margin("resh24", SimplexPoint(1.0, 0.0))
        assert state(margin) == VIOLATED
        assert abs((1.0 - margin) - 2.0) < 1e-12

    def test_pure_w(self):
        margin = scan.point_margin("resh24", SimplexPoint(0.0, 1.0))
        assert state(margin) == VIOLATED
        assert abs((1.0 - margin) - (1.0 + 2.0 * math.sqrt(2) / 3.0)) < 1e-12

    def test_closed_forms_match_numeric_on_grid(self):
        for p in simplex_grid(12):
            numeric = linalg.singular_values(states.reshuffle_24_matrix(states.build_rho(p)))
            closed = bipartite.reshuffle24_closed_singular_values(p.g, p.w)
            assert np.max(np.abs(numeric - closed)) < 1e-10, p

    def test_alpha2_separable_template_below_one(self):
        # class 2.8 family members are separable under every bipartition
        for a in (0.5, 1.0, 2.0, 4.0):
            rho = states.example_states("class28", a=a)
            tn = linalg.trace_norm(states.reshuffle_24_matrix(rho))
            assert tn <= 1.0 + 1e-10, a
