"""Operator kernel: eigendecomposition, norms, resolvents, calculus."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectral_limits import (
    NumericError,
    SingularityError,
    ValidationError,
    commutator,
    eigh,
    operator_norm,
    resolvent,
)
from spectral_limits import linalg
from spectral_limits.linalg import (
    GRAM_SCALE_EXP,
    adjoint_matvec,
    as_matrix,
    check_hermitian,
    dagger,
    exactly_hermitian,
    exactly_real,
    frobenius,
    function_from_decomposition,
    lanczos_operator_norm,
    lanczos_start,
    matvec,
    scale_exponent,
    times_pow2,
    unscaled,
)

# Jacobi oracle: off-diagonal convergence threshold, relative to ||H||_F.
JACOBI_OFF_TOL = 1e-12
# Jacobi oracle: hard cap before declaring non-convergence.
JACOBI_MAX_SWEEPS = 60


def _jacobi_eigh(h: np.ndarray, off_tol: float, max_sweeps: int):
    """Cyclic Jacobi rotations for a complex Hermitian matrix.

    An independent pure-Python eigensolver, kept as the oracle for LAPACK.
    Sweeps the strict upper triangle, zeroing each entry with a unitary
    2x2 rotation, until the off-diagonal Frobenius mass drops below
    ``off_tol * ||H||_F``.
    """
    n = h.shape[0]
    a = h.astype(complex).copy()
    v = np.eye(n, dtype=complex)
    scale = frobenius(h)
    if scale == 0.0 or n == 1:
        return np.real(np.diag(a)).copy(), v
    target = off_tol * scale
    skip = target / (4.0 * n)

    for sweep in range(1, max_sweeps + 1):
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a[p, q]
                babs = abs(b)
                if babs <= skip:
                    continue
                phase = b / babs
                theta = 0.5 * np.arctan2(2.0 * babs, (a[p, p] - a[q, q]).real)
                c = np.cos(theta)
                s = np.sin(theta)
                # U = [[c, -s*phase], [s*conj(phase), c]]; apply A <- U+ A U.
                row_p = c * a[p, :] + s * phase * a[q, :]
                row_q = -s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                col_p = c * a[:, p] + s * np.conj(phase) * a[:, q]
                col_q = -s * phase * a[:, p] + c * a[:, q]
                a[:, p] = col_p
                a[:, q] = col_q
                vcol_p = c * v[:, p] + s * np.conj(phase) * v[:, q]
                vcol_q = -s * phase * v[:, p] + c * v[:, q]
                v[:, p] = vcol_p
                v[:, q] = vcol_q
        a = 0.5 * (a + dagger(a))
        off = float(np.linalg.norm(a[~np.eye(n, dtype=bool)]))
        if off <= target:
            vals = np.real(np.diag(a)).copy()
            order = np.argsort(vals, kind="stable")
            return vals[order], v[:, order]
    raise NumericError(f"Jacobi eigensolver did not converge after {max_sweeps} sweeps")


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


hermitian_strategy = arrays(
    np.float64, (6, 6), elements=st.floats(-10, 10, allow_nan=False)
).map(lambda a: 0.5 * (a + a.T) + 0j)


class TestEigh:
    def test_identity_single_group(self):
        dec = eigh(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])

    def test_antidiagonal_pair_block(self):
        # Characteristic polynomial of [[0, w], [w, 0]] is x^2 - w^2, so the
        # eigenvalues are -w, +w; with w = 1/l and l = 1/3 this is -3, 3.
        dec = eigh(np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-3.0, 3.0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_small(self):
        rng = np.random.default_rng(3)
        for n in [1, 2, 7, 33]:
            h = random_hermitian(rng, n)
            dec = eigh(h)
            rebuilt = (dec.vectors * dec.eigenvalues) @ dagger(dec.vectors)
            assert operator_norm(rebuilt - h) <= 1e-10 * max(1, operator_norm(h))

    def test_reconstruction_moderate_dim(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 256)
        dec = eigh(h)
        rebuilt = (dec.vectors * dec.eigenvalues) @ dagger(dec.vectors)
        assert operator_norm(rebuilt - h) <= 1e-10 * max(1, operator_norm(h))
        assert operator_norm(dagger(dec.vectors) @ dec.vectors - np.eye(256)) <= 1e-12

    def test_reconstruction_top_acceptance_dim(self):
        rng = np.random.default_rng(14)
        h = random_hermitian(rng, 1024)
        dec = eigh(h)
        rebuilt = (dec.vectors * dec.eigenvalues) @ dagger(dec.vectors)
        assert operator_norm(rebuilt - h) <= 1e-10 * max(1, operator_norm(h))


class TestJacobiBackend:
    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        for n in [1, 2, 3, 8, 24]:
            h = random_hermitian(rng, n)
            a = eigh(h)
            vals, vecs = _jacobi_eigh(h, JACOBI_OFF_TOL, JACOBI_MAX_SWEEPS)
            assert np.allclose(a.eigenvalues, vals, atol=1e-10 * max(1, abs(h).max()))
            assert operator_norm((vecs * vals) @ dagger(vecs) - h) <= 1e-10 * max(1, operator_norm(h))
            assert operator_norm(dagger(vecs) @ vecs - np.eye(n)) <= 1e-10

    def test_nonconvergence_reports_sweeps(self):
        h = random_hermitian(np.random.default_rng(0), 12)
        with pytest.raises(NumericError, match="sweeps"):
            _jacobi_eigh(h, off_tol=1e-12, max_sweeps=0)


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_cantor_pair_block(self):
        # ||[[0, 1/l], [1/l, 0]]|| = 1/l with l = 1/3.
        ell = 1.0 / 3.0
        assert operator_norm(np.array([[0, 1 / ell], [1 / ell, 0]])) == pytest.approx(3.0, abs=1e-12)

    def test_rank_one_column(self):
        # Gram of the column (1, 1)^T is the 1x1 matrix [2]: norm sqrt(2).
        assert operator_norm(np.array([[1.0], [1.0]])) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_wide_matrix(self):
        m = np.array([[1.0, 1.0]])
        assert operator_norm(m) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_hermitian_equals_max_abs_eigenvalue(self):
        rng = np.random.default_rng(5)
        for n in [2, 9, 40]:
            h = random_hermitian(rng, n)
            dec = eigh(h)
            assert operator_norm(h) == pytest.approx(
                float(np.max(np.abs(dec.eigenvalues))), abs=1e-10 * max(1, abs(h).max())
            )


def lanczos_gram_norm(m):
    """Top singular value of m by ``lanczos_operator_norm`` on the Gram
    closure q -> A*(A q) of its short side A, from ``lanczos_start``.

    A is first scaled by a power of two, as the direct ST1 route scales its
    probe values.
    """
    a = as_matrix(m)
    if a.shape[1] > a.shape[0]:
        a = dagger(a)
    e = scale_exponent(float(abs(a).max()))
    a = times_pow2(a, -e)
    return unscaled(lanczos_operator_norm(lambda q: adjoint_matvec(a, matvec(a, q)), lanczos_start(a.shape[1])), e)


class TestLanczosNorm:
    """The Krylov estimate on a Gram closure against the dense oracle ``operator_norm``."""

    @staticmethod
    def assert_matches_oracle(m):
        want = operator_norm(m)
        got = lanczos_gram_norm(m)
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (7, 3), (3, 7), (40, 40), (65, 50)])
    def test_seeded_random(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            self.assert_matches_oracle(rng.normal(size=shape) + 1j * rng.normal(size=shape))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (7, 3), (3, 7), (40, 40), (65, 50)])
    def test_seeded_random_full_space(self, shape, monkeypatch):
        # With no early stop the basis fills the space: the Ritz matrix of
        # the last step is as large as the Gram operator's side.
        ritz_sizes = []
        monkeypatch.setattr(linalg, "LANCZOS_TOL", 0.0)
        monkeypatch.setattr(np.linalg, "eigh", lambda a, eigh=np.linalg.eigh: ritz_sizes.append(len(a)) or eigh(a))
        self.test_seeded_random(shape)
        assert max(ritz_sizes) == min(shape)

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_rank_deficient(self, rank):
        rng = np.random.default_rng(rank)
        left = rng.normal(size=(30, rank)) + 1j * rng.normal(size=(30, rank))
        right = rng.normal(size=(rank, 24)) + 1j * rng.normal(size=(rank, 24))
        self.assert_matches_oracle(left @ right)

    def test_one_by_one(self):
        assert lanczos_gram_norm([[-3.0 + 4.0j]]) == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 6)])
    def test_zero_is_exactly_zero(self, shape):
        assert lanczos_gram_norm(np.zeros(shape)) == 0.0

    def test_hermitian_with_repeated_top_eigenvalue(self):
        h = np.diag([2.0, -2.0, 2.0, 1.0, 0.5, 0.0])
        assert lanczos_gram_norm(h) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_tridiagonal_is_real(self, kind, monkeypatch):
        # The Ritz matrix is real symmetric whatever the operator's dtype.
        seen = []
        solver = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        rng = np.random.default_rng(8)
        m = rng.normal(size=(12, 9))
        if kind == "complex":
            m = m + 1j * rng.normal(size=(12, 9))
        self.assert_matches_oracle(m)
        assert len(seen) > 1 and set(seen) == {np.dtype(np.float64)}


class TestScaleSafeNorms:
    """Both Gram norms rescale huge or tiny matrices by a power of two first."""

    @pytest.mark.parametrize("scale", [1e-30, 1e60, 1e77, 1e150, 1e300])
    @pytest.mark.parametrize("norm", [operator_norm, lanczos_gram_norm], ids=["dense", "lanczos"])
    def test_scaled_matrix_scales_the_norm(self, norm, scale):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        assert norm(scale * m) == pytest.approx(scale * operator_norm(m), rel=1e-13)

    @pytest.mark.parametrize("norm", [operator_norm, lanczos_gram_norm], ids=["dense", "lanczos"])
    def test_norm_beyond_float_range_is_inf(self, norm):
        assert norm(np.full((3, 2), 1.5e308 - 1.5e308j)) == np.inf

    @staticmethod
    def scaled(m):
        """(A 2^-e, e) with e the scale exponent of the largest entry modulus."""
        e = scale_exponent(float(abs(m).max()))
        return times_pow2(m, -e), e

    def test_only_huge_entries_rescaled(self):
        edge = np.array([[2.0**GRAM_SCALE_EXP, -1.0], [0.5j, 0.0]])
        a, e = self.scaled(edge)
        assert e == 0 and np.array_equal(a, edge)
        a, e = self.scaled(3.0 * edge)
        assert e == GRAM_SCALE_EXP + 2
        assert np.array_equal(a * 2.0**e, 3.0 * edge)

    def test_tiny_entries_rescaled(self):
        edge = np.array([[2.0**-GRAM_SCALE_EXP, -(2.0**-GRAM_SCALE_EXP)], [0.5j * 2.0**-GRAM_SCALE_EXP, 0.0]])
        a, e = self.scaled(edge)
        assert e == 0 and np.array_equal(a, edge)
        a, e = self.scaled(0.75 * edge)
        assert e == -GRAM_SCALE_EXP
        assert np.array_equal(a * 2.0**e, 0.75 * edge)
        assert self.scaled(np.zeros((2, 2)))[1] == 0

    @pytest.mark.parametrize("scale", [1e-80, 1e-100, 1e-300])
    def test_tiny_matrix_lanczos_matches_dense(self, scale):
        # Unscaled, the Lanczos residual of a 1e-100 matrix underflows and the
        # estimate stops on the start vector's Rayleigh quotient.
        rng = np.random.default_rng(20)
        m = scale * (rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20)))
        want = operator_norm(m)
        assert want == pytest.approx(scale * operator_norm(m / scale), rel=1e-13, abs=0.0)
        assert abs(lanczos_gram_norm(m) - want) <= 1e-13 * want


class TestResolvent:
    def test_scalar_zero_at_i(self):
        # (0 - i)^(-1) = i.
        r = resolvent(np.zeros((1, 1)), 1j)
        assert r[0, 0] == pytest.approx(1j, abs=1e-14)

    def test_diagonal(self):
        r = resolvent(np.diag([1.0, 2.0]), 1j)
        assert np.allclose(np.diag(r), [1 / (1 - 1j), 1 / (2 - 1j)], atol=1e-14)
        assert abs(r[0, 1]) < 1e-14

    def test_cantor_level1_norm(self):
        # Middle-thirds D_1 has eigenvalues -3, -1, 1, 3; the resolvent norm
        # at i is max over them of 1/|x - i| = 1/sqrt(2).
        d1 = np.zeros((4, 4))
        d1[0, 1] = d1[1, 0] = 1.0
        d1[2, 3] = d1[3, 2] = 3.0
        oracle = max(1.0 / abs(x - 1j) for x in (-3.0, -1.0, 1.0, 3.0))
        assert oracle == pytest.approx(1 / np.sqrt(2))
        assert operator_norm(resolvent(d1, 1j)) == pytest.approx(oracle, abs=1e-12)

    def test_residual_and_identity(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 12)
        n = h.shape[0]
        for lam in (1j, 2j, 1 + 1j):
            r = resolvent(h, lam)
            assert operator_norm((h - lam * np.eye(n)) @ r - np.eye(n)) <= 1e-10
        # First resolvent identity, used to pass between probe points.
        r1, r2 = resolvent(h, 1j), resolvent(h, 2j)
        assert operator_norm(r1 - r2 - (1j - 2j) * r1 @ r2) <= 1e-9

    def test_real_point_near_spectrum_rejected(self):
        with pytest.raises(SingularityError):
            resolvent(np.diag([1.0, 2.0]), 1.0 + 1e-12)

    @pytest.mark.parametrize("lam", [1e-13j, 1 + 1e-13j, 2 - 1e-300j])
    def test_point_within_eigenvalue_rounding_rejected(self, lam):
        # Within EIGENVALUE_ROUNDING * max(1, max |lambda_n|) = 2e-12 of the spectrum.
        with pytest.raises(ValidationError, match="rounding margin 2.0e-12"):
            resolvent(np.diag([0.0, 1.0, 2.0]), lam)

    def test_nonreal_point_beyond_rounding_margin(self):
        r = resolvent(np.diag([0.0, 1.0, 2.0]), 1 + 3e-12j)
        assert r[1, 1] == pytest.approx(1 / (-3e-12j), rel=1e-12)

    def test_real_point_far_from_spectrum(self):
        r = resolvent(np.diag([1.0, 2.0]), 5.0)
        assert np.allclose(np.diag(r), [1 / (1 - 5), 1 / (2 - 5)], atol=1e-14)


class TestApplyFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 9)
        assert operator_norm(function_from_decomposition(eigh(h), lambda x: x) - h) <= 1e-10 * max(1, operator_norm(h))

    def test_diagonal_evaluation(self):
        out = function_from_decomposition(eigh(np.diag([0.0, 3.0])), lambda x: 1 / (1 + x * x))
        assert np.allclose(np.diag(out), [1.0, 0.1], atol=1e-14)

    def test_nonfinite_value_names_eigenvalue(self):
        with pytest.raises(NumericError, match="eigenvalue 1"):
            function_from_decomposition(
                eigh(np.diag([0.0, 1.0])), lambda x: 1.0 / (x - 1.0) if x != 1.0 else float("inf")
            )

    def test_complex_valued_function_rejected(self):
        # Resolvent-type functions with non-real poles belong to resolvent().
        with pytest.raises(ValidationError, match="real-valued"):
            function_from_decomposition(eigh(np.diag([0.0, 1.0])), lambda x: 1.0 / (x - 1j))


class TestCommutator:
    def test_commuting_diagonals(self):
        a, b = np.diag([1.0, 2.0]), np.diag([5.0, -1.0])
        assert operator_norm(commutator(a, b)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            commutator(np.eye(2), np.eye(3))


class TestValidationHelpers:
    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(ValidationError):
            as_matrix(np.arange(3.0))

    def test_check_hermitian_symmetrizes(self):
        h = np.array([[1.0, 1e-14], [0.0, 2.0]])
        out = check_hermitian(h)
        assert np.allclose(out, dagger(out))
        assert np.array_equal(out, 0.5 * (h + dagger(h)))

    def test_check_hermitian_rejects_drift(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            check_hermitian(np.array([[1.0, 1e-3], [0.0, 2.0]]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exactly_hermitian_input_returned_without_temporaries(self, dtype):
        # At most the adjoint of a complex input and one boolean mask; the
        # drift check and the symmetrization take two more n x n matrices.
        rng = np.random.default_rng(512)
        a = rng.normal(size=(512, 512)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=(512, 512))
        h = a + dagger(a)
        tracemalloc.start()
        try:
            out = check_hermitian(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is h
        assert peak <= (h.nbytes if dtype is complex else 0) + 2 * h.size

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_exactly_hermitian_is_array_equal(self, n, kind):
        # The tiled check answers as np.array_equal(a, a*) does: with +-0.0
        # mirror entries, and one ulp off in a corner tile, an inner tile and
        # (complex only) on the diagonal.
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        if kind == "complex":
            a = a + 1j * rng.normal(size=(n, n))
        h = a + dagger(a)
        signed = h.copy()
        signed[0, n - 1], signed[n - 1, 0] = complex(0.0, -0.0) if kind == "complex" else 0.0, -0.0
        cases = [(h, True), (signed, True)]
        for i, k in {(0, n - 1), (n - 1, 0), (n // 2, n // 3)} - {(0, 0)}:
            off = h.copy()
            off[i, k] = np.nextafter(off[i, k].real, np.inf) + (1j * off[i, k].imag if kind == "complex" else 0)
            cases.append((off, False))
        if kind == "complex":
            diagonal = h.copy()
            diagonal[n - 1, n - 1] += 1j * np.nextafter(0.0, 1.0)
            cases.append((diagonal, False))
        for m, want in cases:
            assert np.array_equal(m, dagger(m)) is want
            assert exactly_hermitian(m) is want


class TestDtypeRule:
    def test_as_matrix_keeps_float64_and_widens_the_rest(self):
        assert as_matrix(np.eye(2)).dtype == np.float64
        assert as_matrix([[1.0, 2.0]]).dtype == np.float64
        for m in (np.eye(2, dtype=int), np.eye(2, dtype=np.float32), [[1, 0]], [[1j]], np.eye(2, dtype=complex)):
            assert as_matrix(m).dtype == np.complex128

    def test_exactly_real(self):
        z = np.array([[1.0, 2.0], [3.0, -4.0]], dtype=complex)
        r = exactly_real(z)
        assert r.dtype == np.float64 and r.flags.c_contiguous and np.array_equal(r, z.real)
        real = np.eye(2)
        assert exactly_real(real) is real
        for imag in (-0.0, 5e-324, 1.0):
            w = z.copy()
            w[1, 0] = complex(3.0, imag)
            assert exactly_real(w) is w

    def test_eigenvectors_follow_the_operator(self):
        assert eigh(np.array([[2.0, 1.0], [1.0, 2.0]])).vectors.dtype == np.float64
        assert eigh(np.array([[2.0, 1j], [-1j, 2.0]])).vectors.dtype == np.complex128

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (7, 3), (3, 7), (130, 70)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matvec_matches_dense(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        m = rng.normal(size=shape)
        if kind == "complex":
            m = m + 1j * rng.normal(size=shape)
        x = rng.normal(size=shape[1]) + 1j * rng.normal(size=shape[1])
        y = rng.normal(size=shape[0]) + 1j * rng.normal(size=shape[0])
        scale = operator_norm(m)
        assert np.max(np.abs(matvec(m, x) - m @ x)) <= 1e-14 * scale * np.linalg.norm(x)
        assert np.max(np.abs(adjoint_matvec(m, y) - dagger(m) @ y)) <= 1e-14 * scale * np.linalg.norm(y)


@settings(max_examples=40, deadline=None)
@given(hermitian_strategy)
def test_property_reconstruction(h):
    dec = eigh(h)
    rebuilt = (dec.vectors * dec.eigenvalues) @ dagger(dec.vectors)
    assert operator_norm(rebuilt - h) <= 1e-10 * max(1, operator_norm(h))


@settings(max_examples=40, deadline=None)
@given(hermitian_strategy)
def test_property_norm_is_spectral_radius(h):
    dec = eigh(h)
    top = float(np.max(np.abs(dec.eigenvalues)))
    assert abs(operator_norm(h) - top) <= 1e-10 * max(1.0, top)


@settings(max_examples=25, deadline=None)
@given(hermitian_strategy)
def test_property_resolvent_residual(h):
    n = h.shape[0]
    for lam in (1j, 2j, 1 + 1j):
        r = resolvent(h, lam)
        assert operator_norm((h - lam * np.eye(n)) @ r - np.eye(n)) <= 1e-10
