import dataclasses

import numpy as np
import pytest

from qsep import bipartite, classify, criteria, verdict
from qsep.exceptions import ConsistencyError
from qsep.states import SimplexPoint


class TestExactW0:
    def test_published_split(self):
        assert classify.exact_w0_classification(0.1) == "3"
        assert classify.exact_w0_classification(0.2) == "3"   # boundary inclusive
        assert classify.exact_w0_classification(0.3) == "2.1"
        assert classify.exact_w0_classification(3 / 7) == "2.1"  # boundary inclusive
        assert classify.exact_w0_classification(0.5) == "1"
        assert classify.exact_w0_classification(1.0) == "1"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classify.exact_w0_classification(1.5)


class TestClassifyPoint:
    def test_white_noise_nothing_excluded(self):
        report = classify.classify_point(SimplexPoint(0.0, 0.0))
        assert report.possible_classes == ("3",)  # exact on the w=0 line
        assert report.exact
        assert not report.pptes_certified

    def test_interior_white_noise_like_point(self):
        report = classify.classify_point(SimplexPoint(0.05, 0.05))
        assert report.possible_classes == ("3", "2.8", "2.1", "1")
        assert not report.exact
        assert report.exclusions == ()

    def test_w0_line_exact_split(self):
        assert classify.classify_point(SimplexPoint(0.1, 0.0)).possible_classes == ("3",)
        assert classify.classify_point(SimplexPoint(0.3, 0.0)).possible_classes == ("2.1",)
        assert classify.classify_point(SimplexPoint(0.5, 0.0)).possible_classes == ("1",)

    def test_pure_ghz(self):
        report = classify.classify_point(SimplexPoint(1.0, 0.0))
        assert report.possible_classes == ("1",)
        assert report.slocc == classify.GHZ_TYPE

    def test_pure_w(self):
        report = classify.classify_point(SimplexPoint(0.0, 1.0))
        assert report.possible_classes == ("1",)
        assert report.slocc == classify.W_TYPE_OR_LESS
        assert not report.exact

    def test_pptes_point(self):
        report = classify.classify_point(SimplexPoint(0.2, 0.2))
        assert report.pptes_certified
        assert "3" not in report.possible_classes
        assert "2.8" in report.possible_classes
        assert ("3", "gs3") in report.exclusions

    def test_exclusion_provenance_populated(self):
        report = classify.classify_point(SimplexPoint(0.8, 0.1))
        excluded = {cls for cls in classify.CLASSES if cls not in report.possible_classes}
        recorded = {cls for cls, _ in report.exclusions}
        assert excluded == recorded

    def test_w0_constraint_contains_exact_answer(self):
        for g in (0.0, 0.1, 0.2, 0.3, 3 / 7, 0.5, 0.9, 1.0):
            report = classify.classify_point(SimplexPoint(g, 0.0))
            assert report.possible_classes == (classify.exact_w0_classification(g),)


class TestEvaluatePoint:
    def test_codes_are_the_verdict_codes_of_the_margins(self):
        for g, w in ((0.0, 0.0), (0.2, 0.2), (1 / 3, 0.0), (0.2, 0.0), (0.5, 0.5), (1.0, 0.0)):
            margins, codes, report, batch = classify.evaluate_point(SimplexPoint(g, w))
            assert list(codes) == list(margins) == list(criteria.IDS)
            assert (batch.g.tolist(), batch.w.tolist()) == ([g], [w])
            for cid, margin in margins.items():
                assert codes[cid] == int(verdict.codes(margin)), (cid, g, w)
            assert report.marginal == tuple(cid for cid, code in codes.items() if code == 0)
            assert report == classify.classify_point(SimplexPoint(g, w))


class TestBuckets:
    def test_full_separability_only(self):
        assert criteria.BY_ID["gs3"].excludes == ("3",)
        assert criteria.BY_ID["perm222"].excludes == ("3",)
        assert criteria.BY_ID["huber_w_k3"].excludes == ("3",)

    def test_intersection_bucket(self):
        for cid in ("ppt", "reduction", "maj_rho23", "resh24", "su283_set2", "entropy_rho23_a2"):
            assert criteria.BY_ID[cid].excludes == ("3", "2.8")

    def test_biseparability_bucket(self):
        for cid in ("gs2_w", "su2_set1", "huber_ghz_k2", "w_w1", "w_w2"):
            assert criteria.BY_ID[cid].excludes == ("3", "2.8", "2.1")

    def test_ghz_witness_excludes_nothing(self):
        assert criteria.BY_ID["w_ghz"].excludes == ()

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            criteria.margins(np.array([0.1]), np.array([0.1]), ("bogus",))


class TestFuse:
    def test_rejects_exclusions_that_skip_a_level(self, monkeypatch):
        skipping = dataclasses.replace(criteria.BY_ID["ppt"], excludes=("2.8",))
        monkeypatch.setitem(criteria.BY_ID, "ppt", skipping)
        g, w = np.array([0.1, 0.3]), np.array([0.1, 0.3])
        with pytest.raises(ConsistencyError, match=r"contradictory exclusions at \(g=0\.3"):
            classify.fuse(g, w, {"ppt": np.array([1, -1], dtype=np.int8)})

    def test_rejects_losing_the_exact_class(self):
        # a violated biseparability criterion at g = 0.1 on w = 0, where the exact class is 3
        with pytest.raises(ConsistencyError, match="exact class 3"):
            classify.fuse(np.array([0.1]), np.array([0.0]), {"w_w1": np.array([-1], dtype=np.int8)})


class TestNoiseMonotonicity:
    def test_ppt_quadratics_monotone_along_rays(self):
        # hold sets of the closed-form quadratics are initial segments of rays
        rng = np.random.default_rng(9)
        for _ in range(25):
            angle = rng.uniform(0, np.pi / 2)
            direction = np.array([np.cos(angle), np.sin(angle)])
            direction /= direction.sum()  # stays inside the simplex for t <= 1
            ts = np.linspace(0.0, 1.0, 101)
            q1, q2 = bipartite.ppt_closed_margins(ts * direction[0], ts * direction[1])
            both = np.minimum(q1, q2) >= 0
            flips = np.count_nonzero(both[:-1] != both[1:])
            assert flips <= 1
            if flips == 1:
                assert both[0]
