"""Catalog generators: geometry, exact masses, diagnostics, function families."""

import math

import numpy as np
import pytest

from sobtrace.canonical import (
    CANONICAL_NAMES,
    CANTOR_DIMENSION,
    CanonicalSpec,
    SampledFunction,
    check_canonical,
    comb_mass_law,
    generate_canonical,
)
from sobtrace.canonical import test_function_family as make_family
from sobtrace.util import ConfigError, chebyshev


def pair_hoelder_ratio(S, values, beta):
    d = chebyshev(S.points[:, None, :], S.points[None, :, :])
    diff = np.abs(values[:, None] - values[None, :])
    mask = d > 0
    return float(np.max(diff[mask] / d[mask] ** beta))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CanonicalSpec("pentagon", 1 / 64)
        with pytest.raises(ConfigError):
            CanonicalSpec("two-points", 1 / 16)

    def test_determinism(self):
        for name in CANONICAL_NAMES:
            S1, mu1 = generate_canonical(CanonicalSpec(name, 1 / 64))
            S2, mu2 = generate_canonical(CanonicalSpec(name, 1 / 64))
            assert np.array_equal(S1.points, S2.points)
            assert np.array_equal(mu1.weights, mu2.weights)


class TestGeometry:
    def test_two_points(self):
        S, mu = generate_canonical(CanonicalSpec("two-points", 1 / 64))
        assert np.array_equal(S.points, [[0.0], [1.0]])
        assert np.array_equal(mu.weights, [1.0, 1.0])

    def test_segment(self):
        S, mu = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 128))
        assert len(S.points) == 129
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(S.points[:, 1] == 0)

    def test_cantor_structure(self):
        S, mu = generate_canonical(CanonicalSpec("cantor-1d", 1 / 64))
        x = S.points[:, 0]
        assert len(x) == 32  # 2^(level+1) endpoints at level 4
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
        for landmark in (0.0, 1.0, 1 / 3, 2 / 3):
            assert np.min(np.abs(x - landmark)) < 1e-12
        gap = (x > 1 / 3 + 1e-9) & (x < 2 / 3 - 1e-9)
        assert not gap.any()

    def test_cantor_thirds_mass(self):
        _, mu = generate_canonical(CanonicalSpec("cantor-1d", 1 / 64))
        assert mu.ball_mass(np.array([[1 / 6]]), 1 / 6)[0] == pytest.approx(0.5, abs=1e-12)
        assert mu.ball_mass(np.array([[0.0]]), 1 / 9)[0] == pytest.approx(0.25, abs=1e-12)

    def test_comb_stems(self):
        S, mu = generate_canonical(CanonicalSpec("example-726", 1 / 256))
        x1 = np.unique(S.points[:, 0])
        # resolved segments at 2^-0..2^-4, point stubs at 2^-5..2^-8, origin
        assert set(np.round(x1, 10)) == {round(2.0 ** -i, 10) for i in range(9)} | {0.0}
        assert mu.weights.sum() == pytest.approx(4 / 3, abs=1e-12)
        for i in range(5):
            on_stem = np.abs(S.points[:, 0] - 2.0 ** -i) < 1e-12
            assert mu.weights[on_stem].sum() == pytest.approx(4.0 ** -i, abs=1e-12)
            assert S.points[on_stem, 1].max() == pytest.approx(4.0 ** -i)

    def test_comb_origin_mass_law(self):
        # cube at the origin swallows whole stems: mass is a clean geometric sum
        _, mu = generate_canonical(CanonicalSpec("example-726", 1 / 256))
        origin = np.zeros((1, 2))
        for k in range(1, 6):
            got = mu.ball_mass(origin, 2.0 ** -k)[0]
            assert got == pytest.approx(4 / 3 * 4.0 ** -k, abs=1e-12), k

    def test_disk_area(self):
        S, mu = generate_canonical(CanonicalSpec("solid-disk", 1 / 128))
        assert mu.weights.sum() == pytest.approx(math.pi * 0.45 ** 2, abs=0.01)

    def test_axis_line_is_fat(self):
        S, mu = generate_canonical(CanonicalSpec("axis-line", 1 / 64))
        assert S.dim == 1
        assert S.interior_mask().any()
        assert len(S.boundary().points) == 2
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestLaw:
    def test_regimes(self):
        assert comb_mass_law([0.0, 0.0], 0.1) == pytest.approx(0.01)
        assert comb_mass_law([0.25, 0.0], 0.1) == pytest.approx(0.0625)
        assert comb_mass_law([0.25, 0.0], 0.01) == pytest.approx(0.01)

    def test_factor_bracket(self):
        S, mu = generate_canonical(CanonicalSpec("example-726", 1 / 128))
        rng = np.random.default_rng(3)
        idx = rng.choice(len(mu.points), size=50)
        radii = np.exp(rng.uniform(np.log(4 / 128), np.log(0.5), size=50))
        for i, r in zip(idx, radii):
            got = mu.ball_mass(mu.points[i][None], r)[0]
            want = comb_mass_law(mu.points[i], r)
            assert want / 8 <= got <= want * 8


class TestDiagnostics:
    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_declared_checks_pass(self, name):
        S, mu = generate_canonical(CanonicalSpec(name, 1 / 64))
        rep = check_canonical(S, mu, name)
        assert rep["pass"], rep["checks"]

    def test_segment_dimension_tight(self):
        S, mu = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 256))
        rep = check_canonical(S, mu, "segment-1d-in-2d")
        ok, value = rep["checks"]["dset-1"]
        assert ok and abs(value - 1.0) <= 0.05

    def test_cantor_dimension(self):
        S, mu = generate_canonical(CanonicalSpec("cantor-1d", 1 / 256))
        _, value = check_canonical(S, mu, "cantor-1d")["checks"]["dset-cantor"]
        assert abs(value - CANTOR_DIMENSION) <= 0.05


class TestFamilies:
    def setup_method(self):
        self.S, _ = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 64))

    def test_smooth_family(self):
        fam = make_family("restrictions-of-smooth", self.S)
        assert len(fam) == 8
        for f in fam:
            assert np.allclose(f.source(self.S.points), f.values)
            assert np.ptp(f.values) > 0

    def test_smooth_nonconstant_everywhere(self):
        for name in CANONICAL_NAMES:
            S, _ = generate_canonical(CanonicalSpec(name, 1 / 64))
            for f in make_family("restrictions-of-smooth", S):
                assert np.ptp(f.values) > 0, (name, f.name)

    def test_hoelder_seminorm(self):
        fam = make_family("hoelder(0.6)", self.S)
        assert len(fam) == 3
        assert pair_hoelder_ratio(self.S, fam[0].values, 0.6) == pytest.approx(
            1.0, abs=1e-9
        )
        assert pair_hoelder_ratio(self.S, fam[1].values, 0.6) <= 1 + 1e-9
        rough = pair_hoelder_ratio(self.S, fam[2].values, 0.6)
        assert 2.0 <= rough <= 30.0

    def test_lacunary_rough_at_every_scale(self):
        # the divergence dichotomy needs oscillation in every dyadic band,
        # not just at one cusp
        beta = 0.55
        f = make_family(f"hoelder({beta})", self.S)[2]
        d = chebyshev(self.S.points[:, None, :], self.S.points[None, :, :])
        diff = np.abs(f.values[:, None] - f.values[None, :])
        h = self.S.h
        for scale in (4 * h, 16 * h, 64 * h):
            band = (d >= scale) & (d < 2 * scale)
            assert band.any()
            assert np.max(diff[band] / d[band] ** beta) >= 0.1, scale

    def test_linear_family(self):
        fam = make_family("linear", self.S)
        assert np.allclose(fam[0].values, self.S.points @ np.array([1.0, 2.0]))

    def test_bump_family(self):
        fam = make_family("bump", self.S)
        for f in fam:
            assert f.values.min() >= 0
            assert f.values.max() <= 1.0
        assert (fam[0].values == 0).any()  # smallest bump misses the ends

    def test_random_lipschitz(self):
        a = make_family("random-lipschitz(7)", self.S)
        b = make_family("random-lipschitz(7)", self.S)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)
        ratio = pair_hoelder_ratio(self.S, a[0].values, 1.0)
        assert ratio <= 1 + 1e-12

    def test_bad_names(self):
        for bad in ("frobnicate", "hoelder", "hoelder(1.5)", "random-lipschitz"):
            with pytest.raises(ConfigError):
                make_family(bad, self.S)

    def test_sampled_function_validation(self):
        with pytest.raises(ConfigError):
            SampledFunction(self.S, np.ones(3), "short")
        with pytest.raises(ConfigError):
            SampledFunction(self.S, np.full(len(self.S.points), np.nan), "bad")
