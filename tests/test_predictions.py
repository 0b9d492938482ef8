"""Limiting-value formulas and their regime-continuity properties."""

import math

import numpy as np
import pytest

from spikedwide import mp, predictions
from spikedwide.errors import DomainError


class TestOutlierLocations:
    def test_above_threshold_is_the_location(self):
        beta = 0.01
        theta = np.array([2.0, 1.5]) * beta ** 0.25
        assert predictions.outlier_locations(theta, beta).tolist() == \
            [predictions.spike_eigenvalue_location(t, beta) for t in theta]

    def test_at_and_below_threshold_is_nan(self):
        beta = 0.01
        got = predictions.outlier_locations([beta ** 0.25, 0.9 * beta ** 0.25], beta)
        assert np.isnan(got).all()

    def test_empty(self):
        assert predictions.outlier_locations([], 0.01).shape == (0,)

    def test_boundary_is_strict_on_the_tau_scale(self):
        # theta > beta^(1/4) is tau > 1 bit for bit, one ulp above 1 included.
        for beta in (1.0, 0.01, 0.005, 1e-4):
            assert not predictions.predict((1.0,), beta)[0].above_threshold
            assert predictions.predict((1.0 + 2 ** -52,), beta)[0].above_threshold


class TestCenteredEigenvalueLimit:
    def test_sqrt2(self):
        assert predictions.centered_eigenvalue_limit(math.sqrt(2)) == pytest.approx(2.5, abs=1e-12)

    def test_boundary_continuity(self):
        assert predictions.centered_eigenvalue_limit(1.0) == 2.0

    def test_two(self):
        assert predictions.centered_eigenvalue_limit(2.0) == pytest.approx(4.25, abs=1e-12)

    def test_subcritical_is_bulk(self):
        assert predictions.centered_eigenvalue_limit(0.5) == 2.0

    def test_strictly_increasing_above_one(self):
        taus = np.linspace(1.0001, 10, 300)
        vals = [predictions.centered_eigenvalue_limit(t) for t in taus]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSpikeEigenvalueLocation:
    def test_known_point(self):
        assert predictions.spike_eigenvalue_location(math.sqrt(0.2), 0.01) == \
            pytest.approx(1.26, abs=1e-12)

    def test_square_case(self):
        assert predictions.spike_eigenvalue_location(1.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_matches_d_transform_inverse(self):
        for beta in (0.5, 0.04, 0.001):
            for tau in (1.1, 1.7, 3.0):
                theta = tau * beta ** 0.25
                lam = predictions.spike_eigenvalue_location(theta, beta)
                assert lam == pytest.approx(
                    mp.d_transform_inverse(theta ** -2, beta), abs=1e-12)

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            predictions.spike_eigenvalue_location(0.99 * 0.01 ** 0.25, 0.01)

    def test_beyond_edge_iff_supercritical(self):
        for beta in (0.25, 0.01):
            _, edge = mp.bulk_edges(beta)
            for tau in (1.01, 1.5, 4.0):
                lam = predictions.spike_eigenvalue_location(tau * beta ** 0.25, beta)
                assert lam > edge
            # approaching the threshold collapses onto the edge
            lam = predictions.spike_eigenvalue_location((1 + 1e-9) * beta ** 0.25, beta)
            assert abs(lam - edge) < 1e-6


class TestLeftCosineLimit:
    def test_boundary(self):
        assert predictions.left_cosine_limit(1.0) == 0.0

    def test_sqrt2(self):
        assert predictions.left_cosine_limit(math.sqrt(2)) == \
            pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_asymptote(self):
        assert predictions.left_cosine_limit(1e9) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_above_one(self):
        taus = np.linspace(1.0001, 10, 300)
        vals = [predictions.left_cosine_limit(t) for t in taus]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for tau in (0.0, 0.5, 1.0, 1.3, 5.0):
            c = predictions.left_cosine_limit(tau)
            assert 0.0 <= c < 1.0
            assert (c == 0.0) == (tau <= 1.0)


class TestProportionalReference:
    def test_strong_square(self):
        lam, u2, v2 = predictions.proportional_reference(2.0, 1.0)
        assert (lam, u2, v2) == pytest.approx((6.25, 0.75, 0.75), abs=1e-12)

    def test_subcritical_bulk(self):
        lam, u2, v2 = predictions.proportional_reference(0.5, 1.0)
        assert (lam, u2, v2) == pytest.approx((4.0, 0.0, 0.0), abs=1e-12)

    def test_matches_location_formula(self):
        lam, _, _ = predictions.proportional_reference(math.sqrt(0.2), 0.01)
        assert lam == pytest.approx(1.26, abs=1e-12)

    def test_left_overlap_continuity_into_disproportional(self):
        # As beta -> 0 at fixed tau, the left overlap^2 approaches 1 - tau^-4.
        beta = 1e-8
        for tau in (1.2, 1.6, 2.5):
            _, u2, _ = predictions.proportional_reference(tau * beta ** 0.25, beta)
            assert abs(u2 - (1 - tau ** -4)) < 1e-3

    def test_right_overlap_scale(self):
        # v_overlap^2 / sqrt(beta) -> (tau^4 - 1) / tau^2.
        beta = 1e-8
        for tau in (1.2, 1.6, 2.5):
            _, _, v2 = predictions.proportional_reference(tau * beta ** 0.25, beta)
            want = (tau ** 4 - 1) / tau ** 2
            assert abs(v2 / math.sqrt(beta) - want) / want < 1e-3


class TestPredict:
    def test_rows(self):
        rows = predictions.predict((1.6, 0.5), 0.005)
        assert [p.above_threshold for p in rows] == [True, False]
        assert rows[0].centered_limit == pytest.approx(2.950625, abs=1e-9)
        assert rows[0].cosine_left == pytest.approx(0.92055, abs=1e-5)
        assert rows[1].cosine_left == 0.0
        assert rows[1].lambda_bar == pytest.approx(mp.bulk_edges(0.005)[1], abs=1e-12)
        assert rows[0].right_overlap_scale == pytest.approx(0.005 ** 0.25, abs=1e-15)

    def test_serializable(self):
        row = predictions.predict((2.0,), 0.01)[0].to_dict()
        assert set(row) == {
            "tau", "beta", "above_threshold", "lambda_bar", "centered_limit",
            "cosine_left", "right_overlap_scale", "bulk_limit_centered",
        }
