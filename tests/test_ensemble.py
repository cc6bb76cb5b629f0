import math

import numpy as np
import pytest

from ginibre_overlaps import ensemble as ens
from ginibre_overlaps.errors import DegenerateSampleError, DomainError
from reference import (COMPLEX_PLANE, REAL_LINE, classify_eigenvalues,
                       overlap_matrix_full, overlaps_biorthogonal)


def _reference_matrix(spec, index):
    """The sampling contract written out per matrix: one Generator over
    Philox with key seed | (index+1) << 64, Box-Muller on uniform pairs."""
    gen = np.random.Generator(np.random.Philox(key=spec.seed | ((index + 1) << 64)))
    n, count = spec.n, spec.beta * spec.n * spec.n
    pairs = (count + 1) // 2
    u = gen.random(2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    z = z[:count]
    if spec.beta == 1:
        return z.reshape(n, n)
    return ((z[: n * n] + 1j * z[n * n:]) / math.sqrt(2.0)).reshape(n, n)


def _reference_batch(spec, start, count):
    return np.stack([_reference_matrix(spec, start + i) for i in range(count)])


class TestSampling:
    def test_determinism(self):
        spec = ens.EnsembleSpec(n=5, beta=1, seed=123)
        a = ens.sample_ginibre(spec, 7)
        b = ens.sample_ginibre(spec, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, ens.sample_ginibre(spec, 8))
        assert not np.array_equal(a, ens.sample_ginibre(
            ens.EnsembleSpec(n=5, beta=1, seed=124), 7))

    def test_batch_equals_loop(self):
        spec = ens.EnsembleSpec(n=4, beta=2, seed=9)
        batch = ens.sample_ginibre_batch(spec, 3, 6)
        for i in range(6):
            assert np.array_equal(batch[i], ens.sample_ginibre(spec, 3 + i))

    # (beta, n) by Philox words per matrix: 2, 16, 32, 36, 50 and 64 (the
    # threshold) on the numpy grid; 72, 256, 288 and 1800 on C Philox
    KNOWN_ANSWER = [(1, 1), (2, 1), (1, 4), (2, 4), (1, 6), (2, 5), (1, 8),
                    (2, 6), (1, 16), (2, 12), (2, 30)]

    @pytest.mark.parametrize("beta,n", KNOWN_ANSWER)
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 10**6])
    def test_known_answer(self, beta, n, seed, start):
        spec = ens.EnsembleSpec(n=n, beta=beta, seed=seed)
        batch = ens.sample_ginibre_batch(spec, start, 5)
        assert batch.tobytes() == _reference_batch(spec, start, 5).tobytes()

    @pytest.mark.parametrize("beta,n", [(1, 4), (2, 4), (2, 30)])
    def test_known_answer_across_slices(self, beta, n):
        spec = ens.EnsembleSpec(n=n, beta=beta, seed=41)
        count = ens.SLICE_WORDS // ens._words_per_matrix(spec) + 3
        batch = ens.sample_ginibre_batch(spec, 7, count)
        assert batch.tobytes() == _reference_batch(spec, 7, count).tobytes()

    def test_complex_assembly_is_the_old_division(self):
        # a beta = 2 stack is written as re and im times fl(1/sqrt(2)); numpy's
        # (re + 1j im) / sqrt(2) divides by sqrt(2) + 0j, which gives the same
        # bits for every finite nonzero part
        rng = np.random.default_rng(11)
        re = np.concatenate([rng.standard_normal(4000),
                             [5e-324, -2.2e-308, 1e-160, -3.7, 1e300, -1.7e308]])
        im = rng.permutation(re)
        new = np.empty(re.shape, dtype=complex)
        np.multiply(re, ens._INV_SQRT2, out=new.real)
        np.multiply(im, ens._INV_SQRT2, out=new.imag)
        assert new.tobytes() == ((re + 1j * im) / math.sqrt(2.0)).tobytes()
        for n, count in ((4, 1500), (30, 40)):   # numpy grid and C Philox, several slices
            spec = ens.EnsembleSpec(n=n, beta=2, seed=3)
            z = ens._normals(ens._stream(spec, 5, count), 2 * n * n)
            old = (z[:, :n * n] + 1j * z[:, n * n:]) / math.sqrt(2.0)
            assert ens.sample_ginibre_batch(spec, 5, count).tobytes() == old.tobytes()

    @pytest.mark.parametrize("words", [2, 16, 32, 36, 64, 66, 256, 258, 1800])
    @pytest.mark.parametrize("philox", [ens._philox_grid, ens._philox_c])
    def test_philox_words(self, philox, words):
        for seed, start in ((0, 0), (2**64 - 1, 10**6)):
            expected = [np.random.Philox(key=seed | ((start + i + 1) << 64)).random_raw(words)
                        for i in range(3)]
            assert np.array_equal(philox(seed, start, 3, words), np.stack(expected))

    @pytest.mark.parametrize("beta,n", [(1, 4), (2, 30)])
    def test_index_bound(self, beta, n):
        spec = ens.EnsembleSpec(n=n, beta=beta, seed=2**64 - 1)
        last = ens.MAX_INDEX
        assert last == 2**64 - 2
        assert ens.sample_ginibre(spec, last).tobytes() == _reference_matrix(spec, last).tobytes()
        with pytest.raises(DomainError):
            ens.sample_ginibre(spec, last + 1)
        with pytest.raises(DomainError):
            ens.sample_ginibre_batch(spec, last, 2)

    def test_real_entry_law(self):
        spec = ens.EnsembleSpec(n=10, beta=1, seed=2)
        entries = ens.sample_ginibre_batch(spec, 0, 1000).ravel()
        assert entries.size == 100_000
        assert abs(entries.mean()) < 3.0 * 10**-2.5
        assert entries.var() == pytest.approx(1.0, rel=0.02, abs=0)

    def test_complex_entry_law(self):
        spec = ens.EnsembleSpec(n=10, beta=2, seed=2)
        entries = ens.sample_ginibre_batch(spec, 0, 500).ravel()
        assert (np.abs(entries) ** 2).mean() == pytest.approx(1.0, rel=0.02, abs=0)
        assert abs(entries.real.mean()) < 0.01 and abs(entries.imag.mean()) < 0.01

    def test_validation(self):
        with pytest.raises(DomainError):
            ens.EnsembleSpec(n=0, beta=1)
        with pytest.raises(DomainError):
            ens.EnsembleSpec(n=3, beta=4)
        with pytest.raises(DomainError):
            ens.sample_ginibre(ens.EnsembleSpec(n=2, beta=1), -1)

    def test_integral_values_stored_as_int(self):
        for n, beta, seed in ((2.0, 1, 5.0), (np.int64(2), np.int64(1), np.int64(5)),
                              (np.float64(2.0), 1.0, np.uint64(5))):
            spec = ens.EnsembleSpec(n=n, beta=beta, seed=seed)
            assert spec == ens.EnsembleSpec(n=2, beta=1, seed=5)
            assert all(type(v) is int for v in (spec.n, spec.beta, spec.seed))
            assert np.array_equal(ens.sample_ginibre_batch(spec, 0, 3),
                                  ens.sample_ginibre_batch(ens.EnsembleSpec(2, 1, 5), 0, 3))

    @pytest.mark.parametrize("field,value", [("n", 2.5), ("n", math.nan), ("n", math.inf),
                                             ("n", "3"), ("seed", 1.5), ("seed", math.nan),
                                             ("seed", -1), ("seed", 2**64), ("seed", None)])
    def test_non_integral_n_or_seed_rejected(self, field, value):
        kwargs = {"n": 3, "beta": 1, "seed": 0, field: value}
        with pytest.raises(DomainError):
            ens.EnsembleSpec(**kwargs)


class TestBiorthogonalOverlaps:
    def test_triangular_closed_form(self):
        lam, mu, w = 1.3, -0.4, 0.8
        g = np.array([[lam, w], [0.0, mu]])
        samples = overlaps_biorthogonal(g)
        by_eig = {round(s.eigenvalue.real, 6): s.t for s in samples}
        expected = w**2 / (lam - mu) ** 2
        assert by_eig[1.3] == pytest.approx(expected, rel=1e-10, abs=0)
        assert by_eig[-0.4] == pytest.approx(expected, rel=1e-10, abs=0)

    def test_normal_matrix_zero_overlap(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        sym = 0.5 * (a + a.T)
        for s in overlaps_biorthogonal(sym):
            assert s.t <= 1e-10

    def test_row_sum_rule(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 10, 25, 50):
            g = rng.standard_normal((n, n))
            _, o = overlap_matrix_full(g)
            assert np.abs(o.sum(axis=1) - 1.0).max() < 1e-8

    def test_residuals_and_nonnegative_t(self):
        spec = ens.EnsembleSpec(n=12, beta=2, seed=5)
        for i in range(10):
            samples = overlaps_biorthogonal(ens.sample_ginibre(spec, i))
            for s in samples:
                assert s.t >= 0.0
                assert s.residual <= 1e-8

    def test_conjugate_pairs_share_overlap(self):
        spec = ens.EnsembleSpec(n=9, beta=1, seed=6)
        for i in range(5):
            samples = overlaps_biorthogonal(ens.sample_ginibre(spec, i))
            cplx = [s for s in samples if s.kind == COMPLEX_PLANE]
            used = set()
            for s in cplx:
                if id(s) in used:
                    continue
                partner = min(
                    (q for q in cplx if q is not s and id(q) not in used),
                    key=lambda q: abs(q.eigenvalue - s.eigenvalue.conjugate()))
                assert abs(partner.eigenvalue - s.eigenvalue.conjugate()) < 1e-8
                assert partner.t == pytest.approx(s.t, rel=1e-6, abs=0)
                used.update((id(s), id(partner)))

    def test_defective_matrix_rejected(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-14]])
        with pytest.raises(DegenerateSampleError):
            overlaps_biorthogonal(g)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            overlaps_biorthogonal(np.zeros((2, 3)))


class TestSchurRoute:
    def test_triangular_closed_form(self):
        lam, mu, w = 1.3, -0.4, 0.8
        g = np.array([[lam, w], [0.0, mu]])
        assert ens.overlap_schur_real(g, lam) == pytest.approx(
            w**2 / (lam - mu) ** 2, rel=1e-10, abs=0)

    def test_single_site(self):
        assert ens.overlap_schur_real(np.array([[2.5]]), 2.5) == 0.0

    def test_route_equivalence(self):
        checked = 0
        for n in range(2, 21):
            spec = ens.EnsembleSpec(n=n, beta=1, seed=100 + n)
            g = ens.sample_ginibre(spec, 0)
            for s in overlaps_biorthogonal(g):
                if s.kind != REAL_LINE:
                    continue
                t_schur = ens.overlap_schur_real(g, s.eigenvalue.real)
                assert t_schur == pytest.approx(s.t, rel=1e-8, abs=1e-12)
                checked += 1
        assert checked > 10

    def test_not_an_eigenvalue(self):
        g = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            ens.overlap_schur_real(g, 10.0)

    def test_repeated_eigenvalue(self):
        # lam = 1 twice: the bordered system is singular
        with pytest.raises(DegenerateSampleError, match="singular"):
            ens.overlap_schur_real(np.eye(2), 1.0)

    @pytest.mark.parametrize("g", [np.zeros((2, 3)), np.zeros(3)], ids=["2x3", "vector"])
    def test_not_a_square_matrix(self, g):
        with pytest.raises(DomainError, match="square"):
            ens.overlap_schur_real(g, 0.0)


def _rotated_triangular(n, beta, rng):
    """Q T Q^H: well-separated diagonal, off-diagonal entries of size 1e-4,
    so every t is ~1e-8 or smaller."""
    diag = np.linspace(-1.0, 1.0, n)
    off = 1e-4 * rng.standard_normal((n, n))
    a = rng.standard_normal((n, n))
    if beta == 2:
        diag = diag + 0.5j * rng.standard_normal(n)
        off = off + 1e-4j * rng.standard_normal((n, n))
        a = a + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q @ (np.triu(off, 1) + np.diag(diag)) @ q.conj().T


def _mpmath_t(g):
    """(eigenvalue, t) pairs of g from 40-digit left and right eigenvectors."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e, el, er = mpmath.eig(mpmath.matrix(g.tolist()), left=True, right=True)
        n = g.shape[0]
        out = []
        for k in range(n):
            ll = mpmath.fsum(abs(el[k, j]) ** 2 for j in range(n))
            rr = mpmath.fsum(abs(er[j, k]) ** 2 for j in range(n))
            lr = abs(mpmath.fsum(el[k, j] * er[j, k] for j in range(n))) ** 2
            out.append((complex(e[k]), float(ll * rr / lr - 1)))
    return out


class TestBorderedKernel:
    """ensemble._overlaps_bordered: t as the partial-Schur |b|^2."""

    @pytest.mark.parametrize("beta", [1, 2])
    def test_small_t_against_mpmath(self, beta):
        rng = np.random.default_rng(40 + beta)
        worst, smallest = 0.0, math.inf
        for n in (2, 5):
            for _ in range(8):
                g = _rotated_triangular(n, beta, rng)
                w = np.linalg.eigvals(g)
                t, ok = ens._overlaps_bordered(g[None], np.zeros(n, dtype=int), w)
                assert ok.all()
                ref = _mpmath_t(g)
                for k in range(n):
                    t_ref = min(ref, key=lambda pair: abs(pair[0] - w[k]))[1]
                    worst = max(worst, abs(t[k] - t_ref) / t_ref)
                    smallest = min(smallest, t_ref)
        assert smallest < 1e-9
        assert worst <= 1e-9

    @pytest.mark.parametrize("beta", [1, 2])
    def test_hermitian_t_vanishes(self, beta):
        rng = np.random.default_rng(50 + beta)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            if beta == 2:
                a = a + 1j * rng.standard_normal((6, 6))
            h = a + a.conj().T
            w = np.linalg.eigvals(h)
            t, ok = ens._overlaps_bordered(h[None], np.zeros(6, dtype=int), w)
            assert ok.all()
            assert (t >= 0.0).all() and t.max() <= 1e-24


class TestClassification:
    def test_rotation_matrix_pure_imaginary(self):
        g = np.array([[0.0, 1.0], [-1.0, 0.0]])
        samples = overlaps_biorthogonal(g)
        out = classify_eigenvalues(samples, tol_real=1e-9, beta=1)
        assert len(out.real_line) == 0 and len(out.complex_plane) == 2
        eigs = sorted(s.eigenvalue.imag for s in out.complex_plane)
        assert eigs == pytest.approx([-1.0, 1.0])

    def test_beta2_all_complex(self):
        spec = ens.EnsembleSpec(n=8, beta=2, seed=1)
        samples = overlaps_biorthogonal(ens.sample_ginibre(spec, 0))
        out = classify_eigenvalues(samples, tol_real=1e-9, beta=2)
        assert len(out.real_line) == 0
        assert len(out.complex_plane) == 8

    def test_beta2_near_real_flagged_not_moved(self):
        spec = ens.EnsembleSpec(n=8, beta=2, seed=1)
        samples = overlaps_biorthogonal(ens.sample_ginibre(spec, 0))
        # tolerance wide enough to catch some eigenvalues near the axis
        wide = max(abs(s.eigenvalue.imag) for s in samples) * 0.5
        out = classify_eigenvalues(samples, tol_real=wide, beta=2)
        assert len(out.complex_plane) == 8
        assert out.n_near_real_flagged >= 1

    def test_expected_real_count_n2(self):
        # E[#real] = sqrt(2) at n = 2; binomial variance 4 p (1-p)
        spec = ens.EnsembleSpec(n=2, beta=1, seed=77)
        n_mat = 40_000
        mats = ens.sample_ginibre_batch(spec, 0, n_mat)
        w = np.linalg.eigvals(mats)
        tol = ens.default_real_tolerance(2)
        count = (np.abs(w.imag) <= tol).sum() / n_mat
        p = 1.0 / math.sqrt(2.0)
        sigma = math.sqrt(4.0 * p * (1.0 - p) / n_mat)
        assert abs(count - math.sqrt(2.0)) <= 3.0 * sigma

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            classify_eigenvalues([], tol_real=0.0)
