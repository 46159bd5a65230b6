from itertools import combinations_with_replacement

import numpy as np
import pytest

from qsep import classify, criteria, scan, states, tripartite
from qsep.config import MARGINAL_BAND
from qsep.states import SimplexPoint
from qsep.verdict import CODE_NAMES, HOLDS, VIOLATED, codes, sign_gap


def simplex_grid(n=15):
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


def slocc(p):
    return classify.classify_point(p).slocc


def perm222_block_margins(g, w):
    """1 - trace norm of R'(rho) from its block form, independent of the index maps.

    R'(rho) with rows permuted to (0,3,5 | 1,6 | 2,4,7) and columns to
    (0,3,6 | 2,5 | 1,4,7) is block-diagonal in (d, g, w) = (d/8, g/2, w/3):
    A = [[d+g, d+w, w], [d+w, d, 0], [w, 0, 0]], C = [[w, g], [g, 0]] and
    B = [[w, w, 0], [w, d+w, d], [0, d, d+g]], so the trace norm is
    sqrt(w^2 + 4g^2) + sum|eig A| + sum|eig B|.
    """
    d, g, w = states.renormalized_weights(g, w)
    z = np.zeros_like(d)
    a = np.stack([np.stack(row, -1) for row in ((d + g, d + w, w), (d + w, d, z), (w, z, z))], -2)
    b = np.stack([np.stack(row, -1) for row in ((w, w, z), (w, d + w, d), (z, d, d + g))], -2)
    blocks = sum(np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1) for m in (a, b))
    return 1.0 - (np.sqrt(w**2 + 4.0 * g**2) + blocks)


def _column_sums(multiset) -> tuple[int, int, int]:
    return tuple(sum((m >> k) & 1 for m in multiset) for k in (2, 1, 0))


def gs3_generate_families() -> tuple[list[tuple], list[tuple]]:
    """Enumerate the substitution images of the sixth-order inequality.

    Single-position index swaps between two members conserve the per-qubit
    ones count, which is (3, 3, 3) for the starting multiset {1..6}; a
    breadth-first closure over the swap moves confirms every conserving
    multiset is reachable.  Squaring and regrouping into four third powers
    yields the fourth-order family, whose quadruples conserve (2, 2, 2).
    """
    sixth = [
        ms for ms in combinations_with_replacement(range(8), 6) if _column_sums(ms) == (3, 3, 3)
    ]
    start = (1, 2, 3, 4, 5, 6)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for ms in frontier:
            lst = list(ms)
            for a in range(6):
                for b in range(a + 1, 6):
                    for pos in range(3):
                        bit = 1 << pos
                        xa = (lst[a] & ~bit) | (lst[b] & bit)
                        xb = (lst[b] & ~bit) | (lst[a] & bit)
                        cand = tuple(sorted(lst[:a] + [xa] + lst[a + 1 : b] + [xb] + lst[b + 1 :]))
                        if cand not in seen:
                            seen.add(cand)
                            nxt.append(cand)
        frontier = nxt
    assert seen == set(sixth), "swap closure disagrees with the ones-count enumeration"
    fourth = [
        ms for ms in combinations_with_replacement(range(8), 4) if _column_sums(ms) == (2, 2, 2)
    ]
    return sixth, fourth


def gs3_deduplicated_signatures() -> tuple[set, set]:
    """Distinct (class-a, class-b, class-c) count signatures of the two families."""
    sixth, fourth = gs3_generate_families()
    return (
        {tripartite._class_signature(ms) for ms in sixth},
        {tripartite._class_signature(ms) for ms in fourth},
    )


class TestSpinObservables:
    def test_rejects_non_triad(self):
        bad = (tripartite.PAULI_X, tripartite.PAULI_X, tripartite.PAULI_Z)
        with pytest.raises(ValueError, match="anticommute"):
            tripartite.build_spin_observables(bad, bad, bad)

    def test_setting_one_reduces_to_matrix_elements(self):
        # <X_0>^2 + <Y_0>^2 = 4 |rho_07|^2 for Setting I
        p = SimplexPoint(0.35, 0.2)
        rho = states.build_rho(p)
        obs = tripartite.build_spin_observables(*(tripartite.SETTING_I,) * 3)
        x0 = float(np.trace(obs["X"][0] @ rho).real)
        y0 = float(np.trace(obs["Y"][0] @ rho).real)
        assert abs(x0**2 + y0**2 - 4.0 * abs(rho[0, 7]) ** 2) < 1e-12
        # <I_0>^2 - <Z_0>^2 = 4 rho_00 rho_77 on permutation-invariant states
        i0 = float(np.trace(obs["I"][0] @ rho).real)
        z0 = float(np.trace(obs["Z"][0] @ rho).real)
        assert abs((i0**2 - z0**2) - 4.0 * rho[0, 0].real * rho[7, 7].real) < 1e-12

    def test_permutation_invariant_expectations_equal_for_x123(self):
        p = SimplexPoint(0.3, 0.4)
        rho = states.build_rho(p)
        obs = tripartite.build_spin_observables(*(tripartite.SETTING_I,) * 3)
        for key in ("X", "Y", "Z", "I"):
            sq = [float(np.trace(obs[key][x] @ rho).real) ** 2 for x in range(4)]
            assert abs(sq[1] - sq[2]) < 1e-12 and abs(sq[2] - sq[3]) < 1e-12

    def test_triad_swap_invariance(self):
        # (X,Y,Z) -> (Y,X,Z) and (X,-Y,Z) leave the criterion values unchanged
        sx, sy, sz = tripartite.SETTING_I
        variants = ((sy, sx, sz), (sx, -sy, sz))
        for p in (SimplexPoint(0.5, 0.1), SimplexPoint(0.1, 0.6)):
            for level in tripartite.LEVELS:
                base = tripartite.criterion_su(p, (tripartite.SETTING_I,) * 3, level)
                for variant in variants:
                    other = tripartite.criterion_su(p, (variant,) * 3, level)
                    assert abs(base - other) < 1e-10

    def test_hadamard_conjugate_of_setting1_equals_setting2(self):
        # H sigma_i H = (sigma_z, -sigma_y, sigma_x); equivalent to Setting II
        sx, sy, sz = tripartite.SETTING_I
        conjugated = (sz, -sy, sx)
        for p in (SimplexPoint(0.4, 0.3), SimplexPoint(0.05, 0.7)):
            for level in tripartite.LEVELS:
                a = tripartite.criterion_su(p, (conjugated,) * 3, level)
                b = tripartite.criterion_su(p, (tripartite.SETTING_II,) * 3, level)
                assert abs(a - b) < 1e-10


class TestCriterionSU:
    def test_setting1_2sep_pure_ghz_violated(self):
        v = tripartite.criterion_su(SimplexPoint(1.0, 0.0), (tripartite.SETTING_I,) * 3, "2sep")
        assert codes(v) == -1

    def test_setting2_2sep_g0_boundary(self):
        just_below = tripartite.criterion_su(
            SimplexPoint(0.0, 0.6 - 1e-6), (tripartite.SETTING_II,) * 3, "2sep"
        )
        just_above = tripartite.criterion_su(
            SimplexPoint(0.0, 0.6 + 1e-6), (tripartite.SETTING_II,) * 3, "2sep"
        )
        assert just_below > 0 > just_above

    def test_setting2_28cap3_g0_boundary_at_3_over_11(self):
        w0 = 3.0 / 11.0
        below = tripartite.criterion_su(
            SimplexPoint(0.0, w0 - 1e-6), (tripartite.SETTING_II,) * 3, "28cap3"
        )
        above = tripartite.criterion_su(
            SimplexPoint(0.0, w0 + 1e-6), (tripartite.SETTING_II,) * 3, "28cap3"
        )
        assert below > 0 > above

    def test_closed_forms_agree_in_sign_everywhere(self):
        for p in simplex_grid(12):
            for idx, setting in enumerate(tripartite.PUBLISHED_SETTINGS):
                for level in tripartite.LEVELS:
                    v = tripartite.criterion_su(p, (setting,) * 3, level)
                    closed = float(tripartite.su_closed_margin(p.g, p.w, idx, level))
                    assert sign_gap(v, closed) <= MARGINAL_BAND, (p, idx, level)

    def test_setting3_never_stronger_than_setting2_for_2sep(self):
        for p in simplex_grid(12):
            v2 = tripartite.criterion_su(p, (tripartite.SETTING_II,) * 3, "2sep")
            v3 = tripartite.criterion_su(p, (tripartite.SETTING_III,) * 3, "2sep")
            if codes(v2) == 1:
                assert codes(v3) != -1, p

    def test_setting3_283_identical_to_setting2(self):
        for p in simplex_grid(10):
            v2 = tripartite.criterion_su(p, (tripartite.SETTING_II,) * 3, "28cap3")
            v3 = tripartite.criterion_su(p, (tripartite.SETTING_III,) * 3, "28cap3")
            assert codes(v2) == codes(v3), p

    def test_violation_hierarchy(self):
        # violated(2sep) implies violated(28cap3) implies violated(3sep)
        for p in simplex_grid(10):
            for setting in tripartite.PUBLISHED_SETTINGS:
                m2 = tripartite.criterion_su(p, (setting,) * 3, "2sep")
                m283 = tripartite.criterion_su(p, (setting,) * 3, "28cap3")
                m3 = tripartite.criterion_su(p, (setting,) * 3, "3sep")
                assert m3 <= m283 + 1e-12
                if m2 < -1e-9:
                    assert m283 < 1e-9, p


class TestPermutation222:
    def test_white_noise_holds(self):
        margin = scan.point_margin("perm222", SimplexPoint(0.0, 0.0))
        assert state(margin) == HOLDS and abs(margin - 0.5) < 1e-12

    def test_pure_ghz_violated(self):
        margin = scan.point_margin("perm222", SimplexPoint(1.0, 0.0))
        assert state(margin) == VIOLATED and abs(margin + 1.0) < 1e-12

    def test_w0_boundary_not_inside_ppt_segment(self):
        # the criterion must not cut into the fully separable 0 <= g <= 1/5 segment
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            margin = scan.point_margin("perm222", SimplexPoint(mid, 0.0))
            if margin > 0:
                lo = mid
            else:
                hi = mid
        assert lo >= 0.2 - 1e-9

    def test_block_form_reference_matches_the_grid(self):
        # pins the R'(rho) index convention: 2,000 seeded cells, the three edges, the corners
        rng = np.random.default_rng(222)
        u, v = rng.random(2000), rng.random(2000)
        flip = u + v > 1.0
        t = np.linspace(0.0, 1.0, 101)
        g = np.concatenate([np.where(flip, 1.0 - u, u), t, 0.0 * t, t])
        w = np.concatenate([np.where(flip, 1.0 - v, v), 0.0 * t, t, 1.0 - t])
        grid = criteria.margins(g, w, ("perm222",))["perm222"]
        assert np.max(np.abs(grid - perm222_block_margins(g, w))) <= 1e-13

    def test_pinned_margins_on_the_w0_line(self):
        # 1/2 - 3g/2 on w = 0: zero at g = 1/3
        g, w = np.array([0.0, 1.0 / 3.0, 1.0]), np.zeros(3)
        assert perm222_block_margins(g, w).tolist() == [0.5, 0.0, -1.0]
        assert criteria.margins(g, w, ("perm222",))["perm222"].tolist() == [0.5, 0.0, -1.0]


class TestHuber:
    def test_phi_vectors_are_products(self):
        tripartite._require_product_vector(tripartite.phi_ghz())
        tripartite._require_product_vector(tripartite.phi_w())

    def test_rejects_entangled_detection_vector(self):
        bad = np.zeros(64, dtype=complex)
        bad[0] = bad[63] = 1 / np.sqrt(2)
        with pytest.raises(ValueError, match="product"):
            tripartite.criterion_huber(SimplexPoint(0.0, 0.0), bad, 2)

    def test_white_noise_holds_both_k(self):
        for k in (2, 3):
            for phi in (tripartite.phi_ghz(), tripartite.phi_w()):
                v = tripartite.criterion_huber(SimplexPoint(0.0, 0.0), phi, k)
                assert codes(v) == 1

    def test_phi_ghz_matches_setting1_margins_exactly(self):
        # same matrix-element content: margins should match to rounding
        for p in (SimplexPoint(0.4, 0.1), SimplexPoint(0.7, 0.2), SimplexPoint(0.1, 0.1)):
            hub = tripartite.criterion_huber(p, tripartite.phi_ghz(), 2)
            rho = states.build_rho(p)
            d = rho.real.diagonal()
            expected = (
                np.sqrt(d[3] * d[4]) + np.sqrt(d[2] * d[5]) + np.sqrt(d[1] * d[6])
                - abs(rho[0, 7])
            )
            assert abs(hub - expected) < 1e-12, p

    def test_phi_ghz_k3_matches_setting1_28cap3_verdict(self):
        for p in simplex_grid(10):
            hub = tripartite.criterion_huber(p, tripartite.phi_ghz(), 3)
            su = tripartite.criterion_su(p, (tripartite.SETTING_I,) * 3, "28cap3")
            if codes(hub) != codes(su):
                assert 0 in (codes(hub), codes(su)), p

    def test_phi_w_matches_setting2_verdicts(self):
        for p in simplex_grid(10):
            hub2 = tripartite.criterion_huber(p, tripartite.phi_w(), 2)
            su2 = tripartite.criterion_su(p, (tripartite.SETTING_II,) * 3, "2sep")
            if codes(hub2) != codes(su2):
                assert 0 in (codes(hub2), codes(su2)), p
            hub3 = tripartite.criterion_huber(p, tripartite.phi_w(), 3)
            su3 = tripartite.criterion_su(p, (tripartite.SETTING_II,) * 3, "28cap3")
            if codes(hub3) != codes(su3):
                assert 0 in (codes(hub3), codes(su3)), p


class TestGS:
    def test_gs2_white_noise_holds(self):
        p = SimplexPoint(0.0, 0.0)
        assert verdict_at("gs2_ghz", p) == HOLDS and verdict_at("gs2_w", p) == HOLDS

    def test_gs2_boundaries(self):
        # w axis bound 9/17 for the W-flavoured form, g axis bound 3/7 for the GHZ one
        eps = 1e-7
        below = scan.point_margin("gs2_w", SimplexPoint(0.0, 9 / 17 - eps))
        above = scan.point_margin("gs2_w", SimplexPoint(0.0, 9 / 17 + eps))
        assert below > 0 > above
        below = scan.point_margin("gs2_ghz", SimplexPoint(3 / 7 - eps, 0.0))
        above = scan.point_margin("gs2_ghz", SimplexPoint(3 / 7 + eps, 0.0))
        assert below > 0 > above

    def test_gs3_white_noise_all_margins_positive(self):
        p = SimplexPoint(0.0, 0.0)
        assert verdict_at("gs3", p) == HOLDS
        members = tripartite.gs3_element_margins(states.build_rho(p))
        assert all(m > 0 for m in members.values())

    def test_gs3_pure_ghz_violated(self):
        assert verdict_at("gs3", SimplexPoint(1.0, 0.0)) == VIOLATED

    def test_gs3_11_violated_at_pptes_point(self):
        p = SimplexPoint(0.2, 0.2)
        member = tripartite.gs3_element_margins(states.build_rho(p))["gs3_four_0356"]
        expected = (0.175 * 0.075**3) ** 0.25 - 0.1
        assert abs(member - expected) < 1e-12
        assert member < 0
        assert verdict_at("gs3", p) == VIOLATED

    def test_generator_counts_and_dedup(self):
        sixth, fourth = gs3_generate_families()
        assert len(sixth) == 28
        assert len(fourth) == 12
        six_sigs, four_sigs = gs3_deduplicated_signatures()
        assert six_sigs == {tripartite._class_signature(ms) for ms in tripartite.GS3_SIXTH}
        assert four_sigs == {tripartite._class_signature(ms) for ms in tripartite.GS3_FOURTH}
        assert len(six_sigs) == 8 and len(four_sigs) == 5


class TestWitnesses:
    def test_closed_forms(self):
        for p in simplex_grid(10):
            mixture = states.build_rho_mixture_grid(np.array([p.g]), np.array([p.w]))[0]
            traces = tripartite.witness_traces(mixture)
            for name in criteria.GROUPS["witness"]:
                assert abs(scan.point_margin(name, p) - float(traces[name])) < 1e-12

    def test_real_and_complex_rho_give_the_same_real_traces(self):
        g, w = np.array([0.0, 0.2, 0.1, 0.6]), np.array([0.0, 0.2, 0.7, 0.1])
        real = tripartite.witness_traces(states.build_rho_grid(g, w))
        mixture = tripartite.witness_traces(states.build_rho_mixture_grid(g, w))
        for name, value in real.items():
            assert value.dtype == np.float64, name
            assert np.max(np.abs(value - mixture[name])) <= 1e-15, name

    def test_pure_ghz_detected(self):
        assert abs(scan.point_margin("w_ghz", SimplexPoint(1.0, 0.0)) + 0.25) < 1e-14

    def test_pure_w_detected(self):
        assert abs(scan.point_margin("w_w1", SimplexPoint(0.0, 1.0)) + 1.0 / 3.0) < 1e-14

    def test_white_noise_all_positive(self):
        p = SimplexPoint(0.0, 0.0)
        assert all(scan.point_margin(name, p) > 0 for name in criteria.GROUPS["witness"])


class TestGhzClassBounds:
    def test_pure_ghz(self):
        assert slocc(SimplexPoint(1.0, 0.0)) == classify.GHZ_TYPE

    def test_pure_w(self):
        assert slocc(SimplexPoint(0.0, 1.0)) == classify.W_TYPE_OR_LESS

    def test_white_noise(self):
        assert slocc(SimplexPoint(0.0, 0.0)) == classify.W_TYPE_OR_LESS

    def test_vertex_straddling(self):
        eps = 5e-4
        g0 = tripartite.G0
        assert abs(g0 - 0.626851) < 1e-6
        inside = SimplexPoint(g0 + eps, 1.0 - g0 - eps)
        outside = SimplexPoint(g0 - eps, 1.0 - g0 + eps)
        assert slocc(inside) == classify.SLOCC_UNDETERMINED
        assert slocc(outside) == classify.W_TYPE_OR_LESS


class TestRandomSettingSearch:
    @staticmethod
    def best_sampled_margin(p, samples, seed, level="2sep"):
        """The most violating spin-observable margin at ``p`` over ``samples`` settings whose
        three triads are random orthonormal frames of Pauli operators."""
        rng = np.random.default_rng(seed)

        def triad():
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            axes = (q * np.sign(np.diag(r))[None, :]).T  # rows are orthonormal
            paulis = (tripartite.PAULI_X, tripartite.PAULI_Y, tripartite.PAULI_Z)
            return tuple(sum(axes[k, i] * paulis[i] for i in range(3)) for k in range(3))

        return min(tripartite.criterion_su(p, (triad(), triad(), triad()), level)
                   for _ in range(samples))

    def test_white_noise_all_hold(self):
        assert self.best_sampled_margin(SimplexPoint(0.0, 0.0), 30, seed=3) > 0

    def test_no_sample_beats_setting1_at_pure_ghz(self):
        # the published search found no setting more violating than Setting I on w = 0
        p = SimplexPoint(1.0, 0.0)
        reference = tripartite.criterion_su(p, (tripartite.SETTING_I,) * 3, "2sep")
        assert self.best_sampled_margin(p, 100, seed=11) >= reference - 1e-12
