import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh

from droplet_lattice import (
    BasisMismatch,
    BracketError,
    ConfigError,
    ConvergenceError,
    DegeneracyWarning,
    Pipeline,
    SizeError,
    blas,
    default_params,
    eigensolve,
    first_order_perturbation,
    initial_state,
    minimize_variational,
    propagate,
    solver,
    variational_energy,
)
from droplet_lattice.hamiltonians import FullOperator, HamiltonianMatrix
from droplet_lattice.observables import WavepacketState, pair_correlation
from droplet_lattice.params import PairBasis
from droplet_lattice.solver import _canonicalize_signs, golden_section, variational_vector


LAPACK_RECORD = {"method": "lapack", "driver": "evr"}


def _toy_spin_matrix(matrix, offset=0.0):
    n = matrix.shape[0]
    # smallest pair basis with size >= n is irrelevant here; tests using this
    # helper only exercise generic solver behavior on pair-basis payloads
    return HamiltonianMatrix(
        payload=matrix,
        energy_offset=offset,
        dims={"pairs": n},
        pair_basis=None,
    )


def test_two_level_crossing():
    w = 0.37
    h = _toy_spin_matrix(np.array([[0.0, w], [w, 0.0]]))
    d = eigensolve(h)
    np.testing.assert_allclose(d.energies, [-w, w], atol=1e-14)


def test_orthonormal_eigenvectors(small_stack):
    d = small_stack.spectrum("spin")
    gram = d.vectors.T @ d.vectors
    np.testing.assert_allclose(gram, np.eye(d.dim), atol=1e-10)
    assert d.residual_norms.max() <= 1e-10 * max(1.0, np.abs(d.energies).max())


def test_eigensolve_subset_matches_full(small_stack):
    full = small_stack.spectrum("spin")
    partial = eigensolve(small_stack.model("spin"), k_lowest=7)
    np.testing.assert_allclose(partial.energies, full.energies[:7], atol=1e-11)


def test_iterative_matches_dense_on_explicit_photon_model(tiny_stack):
    dense = np.linalg.eigvalsh(tiny_stack.model("full").payload.to_sparse().toarray())
    iterative = eigensolve(tiny_stack.model("full"), k_lowest=8)
    np.testing.assert_allclose(
        iterative.energies - tiny_stack.params.delta, dense[:8], atol=1e-9
    )


def test_iterative_matches_dense_beyond_two_thousand_dimensions():
    """Lowest ten of a dim-2029 operator agree with a dense solve to 1e-9."""
    from droplet_lattice import build_full_model, default_params
    from droplet_lattice.bath import solve_bath
    from droplet_lattice.params import PairBasis, qubit_positions

    p = default_params(n_cavities=151, n_qubits=12)
    h = build_full_model(p, qubit_positions(p), PairBasis(12), solve_bath(p))
    assert h.dim == 2029
    dense = np.linalg.eigvalsh(h.payload.to_sparse().toarray())
    iterative = eigensolve(h, k_lowest=10)
    np.testing.assert_allclose(iterative.energies - p.delta, dense[:10], atol=1e-9)


def test_shift_invert_steps_sigma_down_from_inside_the_spectrum(tiny_stack, monkeypatch):
    h = tiny_stack.model("full")
    dense = np.linalg.eigvalsh(h.payload.to_sparse().toarray())
    inside = 0.5 * (dense[2] + dense[3])
    monkeypatch.setattr(FullOperator, "lower_bound", lambda self: inside)
    iterative = eigensolve(h, k_lowest=8)
    assert iterative.solver["sigma"] < dense[0]
    np.testing.assert_allclose(
        iterative.energies - tiny_stack.params.delta, dense[:8], atol=1e-9
    )


def test_full_decomposition_of_the_matrix_free_operator_is_a_config_error(tiny_stack):
    """The shift-invert route solves the lowest ``k_lowest`` levels only; a
    request for all of them is a bad request, not a stalled solve."""
    with pytest.raises(ConfigError, match="pass k_lowest"):
        eigensolve(tiny_stack.model("full"))


def test_sparse_array_payloads_take_the_dense_path():
    d = eigensolve(_toy_spin_matrix(sp.csr_array(np.diag([3.0, 1.0, 2.0]))), k_lowest=2)
    np.testing.assert_allclose(d.energies, [1.0, 2.0], atol=1e-14)
    assert d.solver == LAPACK_RECORD


def test_large_sparse_payloads_take_the_lanczos_path(monkeypatch):
    """Above ``DENSE_FALLBACK_DIM`` a sparse payload is solved by Lanczos and
    agrees with the dense path; the dim-1031 oracle stands in for a large one."""
    from droplet_lattice import build_complete_sector, default_params, solver
    from droplet_lattice.params import PairBasis, qubit_positions

    p = default_params(n_cavities=41, n_qubits=4)
    h = build_complete_sector(p, qubit_positions(p), PairBasis(4))
    dense = eigensolve(h, k_lowest=5)
    monkeypatch.setattr(solver, "DENSE_FALLBACK_DIM", 500)
    lanczos = eigensolve(h, k_lowest=5)
    assert lanczos.solver["method"] == "lanczos" and lanczos.solver["applications"] > 0
    np.testing.assert_allclose(lanczos.energies, dense.energies, atol=1e-9, rtol=0)


@pytest.fixture(scope="module")
def mid_stack():
    """201 cavities, 30 qubits: pair-basis models of dim 435, above
    ``LANCZOS_MIN_DIM``."""
    return Pipeline(default_params(n_cavities=201, n_qubits=30))


@pytest.mark.parametrize("name, k", [("spin", 1), ("single", 4)])
def test_dense_lanczos_matches_the_lapack_subset(mid_stack, name, k):
    """Small k on a large pair-basis payload (dense ``spin``, CSR ``single``)
    goes to Lanczos, which agrees with the LAPACK subset and repeats bit for
    bit."""
    h = mid_stack.model(name)
    assert h.dim == 435
    lanczos = eigensolve(h, k_lowest=k)
    assert lanczos.solver["method"] == "lanczos" and lanczos.solver["applications"] > 0
    dense = h.payload.toarray() if sp.issparse(h.payload) else h.payload
    vals, vecs = eigh(dense, subset_by_index=[0, k - 1])
    np.testing.assert_allclose(lanczos.energies - h.energy_offset, vals, atol=1e-12, rtol=0)
    # every level here is non-degenerate (gaps above 2e-4); the reflection
    # makes mirrored components of an odd state equal in magnitude, so the
    # canonical pivot can differ between solvers by the state's sign alone
    expected = _canonicalize_signs(vecs)
    signs = np.sign(np.sum(expected * lanczos.vectors, axis=0))
    np.testing.assert_allclose(lanczos.vectors * signs, expected, atol=1e-10, rtol=0)
    np.testing.assert_array_equal(eigensolve(h, k_lowest=k).vectors, lanczos.vectors)


@pytest.mark.parametrize("name, k", [("single", 4), ("spin", 8)])
def test_k_lowest_routes_agree_on_the_canonical_signs(mid_stack, monkeypatch, name, k):
    """Lanczos and the LAPACK subset return the same vectors with no sign
    alignment: the pivot orbit's two members tie bit for bit, so rounding in
    either solver cannot move the pivot between them."""
    h = mid_stack.model(name)
    lanczos = eigensolve(h, k_lowest=k)
    monkeypatch.setattr(solver, "LANCZOS_MIN_DIM", h.dim + 1)
    subset = eigensolve(h, k_lowest=k)
    assert lanczos.solver["method"] == "lanczos" and subset.solver == LAPACK_RECORD
    np.testing.assert_allclose(lanczos.vectors, subset.vectors, atol=1e-10, rtol=0)


@pytest.mark.parametrize("triangle", ["upper", "lower"])
def test_dense_lanczos_refuses_a_payload_whose_triangles_differ(
    mid_stack, monkeypatch, capsys, tmp_path, triangle
):
    """Lanczos applies the payload through dsymv, which reads one triangle;
    the residual against the whole payload catches an entry moved in either
    triangle, and the run exits 4 with one line."""
    from dataclasses import replace

    from droplet_lattice import cli, pipeline

    h = mid_stack.model("spin")
    ground = eigensolve(h, k_lowest=1)
    assert ground.solver["method"] == "lanczos"
    col = 1 + np.argmax(np.abs(ground.vectors[1:, 0]))
    broken = h.payload.copy()
    broken[(0, col) if triangle == "upper" else (col, 0)] += 1e-3 * np.abs(broken).max()
    with pytest.raises(ConvergenceError, match="residual"):
        eigensolve(replace(h, payload=broken), k_lowest=1)
    monkeypatch.setitem(pipeline.MODELS, "spin", lambda p: replace(h, payload=broken))
    size = ["--set", "params.n_cavities=201", "--set", "params.n_qubits=30"]
    argv = ["spectrum", "--out", str(tmp_path / "o"), *size, "--set", "options.k_lowest=1"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: residual") and err.count("\n") == 1


def test_a_sparse_pair_payload_takes_the_route_of_its_dense_copy(mid_stack):
    """The CSR ``single`` payload meets the same route conditions as the
    same matrix stored dense.  LAPACK copies it dense first and the parity
    blocks gather their blocks from it, so their energies and vectors are
    bitwise those of the dense copy; Lanczos applies it by its CSR product
    and agrees to rounding."""
    from dataclasses import replace

    small = Pipeline(default_params(n_cavities=81, n_qubits=12))
    cases = [
        (mid_stack, 4, "lanczos"),
        (mid_stack, solver.LANCZOS_MAX_K + 1, "lapack"),
        (small, 1, "lapack"),
        (small, None, "parity-blocks"),
        (mid_stack, None, "parity-blocks"),
    ]
    for pipe, k, method in cases:
        h = pipe.model("single")
        assert sp.issparse(h.payload)
        sparse = eigensolve(h, k_lowest=k)
        dense = eigensolve(replace(h, payload=h.payload.toarray()), k_lowest=k)
        assert sparse.solver["method"] == dense.solver["method"] == method
        if method == "lanczos":
            np.testing.assert_allclose(sparse.energies, dense.energies, atol=1e-13, rtol=0)
            np.testing.assert_allclose(sparse.vectors, dense.vectors, atol=1e-10, rtol=0)
        else:
            np.testing.assert_array_equal(sparse.energies, dense.energies)
            np.testing.assert_array_equal(sparse.vectors, dense.vectors)


def test_parity_blocks_never_copy_a_sparse_payload_dense(monkeypatch):
    """The full decomposition of the CSR ``single`` payload gathers its
    blocks and defect slabs from the CSR form without ``_dense``, and is
    bitwise that of the same payload stored dense."""
    from dataclasses import replace

    h = Pipeline(default_params(n_cavities=101, n_qubits=20)).model("single")
    dense = eigensolve(replace(h, payload=h.payload.toarray()))

    def refuse(h):
        raise AssertionError("the whole payload was copied dense")

    monkeypatch.setattr(solver, "_dense", refuse)
    sparse = eigensolve(h)
    assert sparse.solver["method"] == "parity-blocks"
    for name in ("energies", "vectors", "residual_norms", "parity"):
        np.testing.assert_array_equal(getattr(sparse, name), getattr(dense, name))


def test_dense_lanczos_is_limited_to_small_k_large_pair_payloads(mid_stack):
    """Many levels, a small payload, and the adiabatic models (whose low levels
    crowd against the whole bound band) stay on the LAPACK subset."""
    small = Pipeline(default_params(n_cavities=81, n_qubits=12))
    assert small.model("spin").dim == 66
    cases = [
        (mid_stack.model("spin"), solver.LANCZOS_MAX_K + 1),
        (small.model("spin"), 1),
        (mid_stack.model("adia1"), 4),
    ]
    for h, k in cases:
        d = eigensolve(h, k_lowest=k)
        assert d.solver == LAPACK_RECORD
        vals = eigh(h.payload, eigvals_only=True, subset_by_index=[0, k - 1])
        np.testing.assert_array_equal(d.energies, vals + h.energy_offset)


class _FakePool:
    """An OpenBLAS pool's (name, config, getter, setter) entry, whose setter
    records each count it is called with."""

    def __init__(self, threads, settable=True):
        self.threads, self.calls = threads, []
        self.entry = ("fake", None, lambda: self.threads, self._set if settable else None)

    def _set(self, count):
        self.calls.append(count)
        self.threads = count


def _fake_pools(monkeypatch, *pools):
    monkeypatch.setattr(blas, "_blas_pools", lambda: tuple(pool.entry for pool in pools))
    return pools


def test_a_pool_already_at_the_count_is_not_set(monkeypatch):
    at, off = _fake_pools(monkeypatch, _FakePool(1), _FakePool(4))
    blas.set_blas_threads(1)
    assert at.calls == [] and off.calls == [1]


def test_a_pool_without_a_setter_is_left_alone(monkeypatch):
    pool, bare = _fake_pools(monkeypatch, _FakePool(4), _FakePool(4, settable=False))
    blas.set_blas_threads(1)
    assert pool.calls == [1] and [pool.threads, bare.threads] == [1, 4]


def test_dense_copy_of_a_huge_sparse_payload_is_refused():
    empty = sp.csr_array((50_000, 50_000))
    with pytest.raises(SizeError):
        eigensolve(_toy_spin_matrix(empty), k_lowest=None)


def test_sign_canonicalization_deterministic(small_stack):
    a = eigensolve(small_stack.model("spin"), k_lowest=4)
    b = eigensolve(small_stack.model("spin"), k_lowest=4)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    # the pivot is the lower member of the mirrored orbit of largest weight,
    # a largest component up to the rounding between the two members
    mirror = small_stack.basis.mirror
    magnitude = np.abs(a.vectors)
    lead = np.argmax(magnitude + magnitude[mirror], axis=0)
    cols = np.arange(a.vectors.shape[1])
    assert np.all(lead <= mirror[lead])
    assert np.all(a.vectors[lead, cols] > 0)
    np.testing.assert_allclose(magnitude[lead, cols], magnitude.max(axis=0), atol=1e-14, rtol=0)


# ---------------------------------------------------------------------------
# reflection parity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def parity_stack():
    """41-cavity pipelines by qubit count and spacing, built once each."""
    cache = {}

    def stack(n_qubits, spacing=1):
        if (n_qubits, spacing) not in cache:
            params = default_params(n_cavities=41, n_qubits=n_qubits, spacing=spacing)
            cache[n_qubits, spacing] = Pipeline(params)
        return cache[n_qubits, spacing]

    return stack


@pytest.mark.parametrize(
    "n_qubits, spacing",
    # spacing 0 stacks the qubits in one cavity: its multiplets straddle both
    # parities; N_e = 2 has an empty odd block
    [(6, 0), (6, 1), (7, 1), (7, 3), (2, 1), (3, 1)],
)
def test_parity_blocks_match_the_whole_payload(parity_stack, n_qubits, spacing):
    """A full decomposition of a pair model comes from its even and odd blocks
    and agrees with ``eigh`` of the whole payload: energies to 1e-13 of the
    spectral radius, and the spectral projector of every multiplet (levels
    closer than 1e-6 of it; measured worst 1.4e-11) to 1e-9."""
    pipe = parity_stack(n_qubits, spacing)
    size = pipe.basis.size
    n_even = np.count_nonzero(np.arange(size) <= pipe.basis.mirror)
    for name in ("spin", "single", "tilde-single", "pair"):
        h = pipe.model(name)
        d = eigensolve(h)
        assert d.solver == {"method": "parity-blocks", "blocks": [n_even, size - n_even],
                            "driver": "evd"}
        assert np.count_nonzero(d.parity == 1) == n_even
        vals, vecs = eigh(h.payload.toarray() if sp.issparse(h.payload) else h.payload)
        scale = np.abs(vals).max()
        np.testing.assert_allclose(d.energies - h.energy_offset, vals, atol=1e-13 * scale, rtol=0)
        cuts = np.flatnonzero(np.diff(vals) > 1e-6 * scale) + 1
        for levels in np.split(np.arange(size), cuts):
            split, whole = d.vectors[:, levels], vecs[:, levels]
            np.testing.assert_allclose(split @ split.T, whole @ whole.T, atol=1e-9, rtol=0)


def test_a_payload_that_breaks_the_reflection_fails_the_residual_gate(tiny_stack):
    """The split assumes the symmetry; the residual check against the whole
    payload catches a payload without it."""
    from dataclasses import replace

    h = tiny_stack.model("spin")
    broken = h.payload.copy()
    broken[0, 0] += 1e-3 * np.abs(broken).max()
    with pytest.raises(ConvergenceError, match="residual"):
        eigensolve(replace(h, payload=broken))


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("row", ["representative", "image"])
def test_a_payload_that_breaks_the_reflection_fails_on_one_block(tiny_stack, parity, row):
    """One block read from the representative rows alone has exact block
    residuals whatever the other rows hold; the reflection check of the whole
    payload still catches a payload without the symmetry, wherever it breaks."""
    from dataclasses import replace

    h = tiny_stack.model("spin")
    p = 0 if row == "representative" else tiny_stack.basis.mirror[0]
    broken = h.payload.copy()
    broken[p, p] += 1e-3 * np.abs(broken).max()
    with pytest.raises(ConvergenceError, match="reflection"):
        eigensolve(replace(h, payload=broken), parity=parity)


@pytest.mark.parametrize("parity", [None, 1, -1])
def test_a_small_defect_spread_over_every_entry_fails_the_reflection_check(small_stack, parity):
    """Each entry of H - H[mirror][:, mirror] stays under the residual gate,
    but together they shift a level's residual against the whole payload by
    up to the norm of the defect, so the check fails on every route."""
    from dataclasses import replace

    h = small_stack.model("spin")
    mirror = small_stack.basis.mirror
    gate = 1e-8 * max(np.abs(eigh(h.payload, eigvals_only=True)).max(), 1.0)
    r = np.random.default_rng(3).uniform(-1.0, 1.0, h.payload.shape)
    r += r.T
    odd = r - r[np.ix_(mirror, mirror)]  # symmetric, odd under the reflection
    odd *= 0.25 * gate / np.abs(odd).max()
    broken = h.payload + odd
    defect = broken[np.ix_(mirror, mirror)] - broken
    assert np.abs(defect).max() < gate < np.linalg.norm(defect)
    with pytest.raises(ConvergenceError, match="reflection"):
        eigensolve(replace(h, payload=broken), parity=parity)


@pytest.mark.parametrize("n_qubits, spacing", [(6, 0), (7, 1), (2, 1)])
def test_one_block_is_the_full_decomposition_restricted(parity_stack, n_qubits, spacing):
    """Solving one reflection block gives, bit for bit, the levels of that
    parity of the full decomposition: energies, lifted vectors, residuals."""
    pipe = parity_stack(n_qubits, spacing)
    size = pipe.basis.size
    n_even = np.count_nonzero(np.arange(size) <= pipe.basis.mirror)
    h = pipe.model("spin")
    full = eigensolve(h)
    for parity, name in ((1, "even"), (-1, "odd")):
        block = eigensolve(h, parity=parity)
        assert block.solver == {"method": "parity-blocks", "blocks": [n_even, size - n_even],
                                "driver": "evd", "solved": [name]}
        levels = full.parity == parity
        np.testing.assert_array_equal(block.parity, full.parity[levels])
        np.testing.assert_array_equal(block.energies, full.energies[levels])
        np.testing.assert_array_equal(block.vectors, full.vectors[:, levels])
        np.testing.assert_array_equal(block.residual_norms, full.residual_norms[levels])
        np.testing.assert_array_equal(block.mirror, full.mirror)


def test_parity_needs_a_split_full_spectrum(tiny_stack):
    for model, k, parity in (("spin", 4, 1), ("adia0", None, 1), ("spin", None, 0)):
        with pytest.raises(ConfigError, match="parity"):
            eigensolve(tiny_stack.model(model), k_lowest=k, parity=parity)


def test_full_decomposition_signs_are_canonical_per_parity(parity_stack):
    """Mirrored components of a lifted state are equal (even) or exactly
    opposite (odd), and the largest component is positive at the lower of
    its two mirrored indices, so no rounding picks an odd state's sign."""
    for n_qubits in (6, 7):
        pipe = parity_stack(n_qubits)
        mirror = pipe.basis.mirror
        d = pipe.spectrum("spin")
        odd = d.parity == -1
        assert odd.any() and (~odd).any()
        np.testing.assert_array_equal(d.vectors[mirror][:, odd], -d.vectors[:, odd])
        np.testing.assert_array_equal(d.vectors[mirror][:, ~odd], d.vectors[:, ~odd])
        lead = np.argmax(np.abs(d.vectors), axis=0)
        assert np.all(lead <= mirror[lead]) and np.all(lead[odd] < mirror[lead[odd]])
        assert np.all(d.vectors[lead, np.arange(d.dim)] > 0)


@pytest.mark.parametrize("initial", ["fs", "ps", "random"])
def test_parity_propagation_matches_the_dense_formula(small_stack, initial):
    """Propagating the even and odd parts of psi0 on their own levels equals
    V exp(-iEt) V^T psi0 to 1e-12; a mirror-symmetric psi0 (fs, ps) stays
    symmetric bit for bit, a random one uses both blocks."""
    d = small_stack.spectrum("spin")
    mirror = small_stack.basis.mirror
    if initial == "random":
        rng = np.random.default_rng(5)
        c = rng.standard_normal(d.dim) + 1j * rng.standard_normal(d.dim)
        psi0 = WavepacketState(coefficients=c / np.linalg.norm(c), time=0.0, dims=d.dims)
    else:
        psi0 = initial_state(initial, small_stack.basis)
        np.testing.assert_array_equal(psi0.coefficients[mirror], psi0.coefficients)
    times = [0.0, 137.0, 954.0, 4000.0]
    snapshots = np.stack([s.coefficients for s in propagate(d, psi0, times)], axis=1)
    energies = d.rotating_frame_energies()
    dense = d.vectors @ (
        np.exp(-1j * np.outer(energies, times)) * (d.vectors.T @ psi0.coefficients)[:, None]
    )
    np.testing.assert_allclose(snapshots, dense, atol=1e-12, rtol=0)
    if initial != "random":
        np.testing.assert_array_equal(snapshots[mirror], snapshots)


def test_propagate_refuses_a_state_outside_the_blocks_solved(small_stack):
    """A state with weight in a parity block the decomposition lacks raises
    instead of losing that part, and so does a decomposition not split by
    the reflection (a ``k_lowest`` subset); a state with weight only in the
    block held evolves as under the full decomposition."""
    h = small_stack.model("spin")
    even, odd = eigensolve(h, parity=1), eigensolve(h, parity=-1)
    lowest = eigensolve(h, k_lowest=4)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(even.dim) + 1j * rng.standard_normal(even.dim)
    random = WavepacketState(coefficients=c / np.linalg.norm(c), time=0.0, dims=even.dims)
    fs = initial_state("fs", small_stack.basis)
    for decomp, psi0, lacking in ((even, random, "odd"), (odd, random, "even"),
                                  (odd, fs, "even"), (lowest, fs, "split")):
        with pytest.raises(BasisMismatch, match=lacking):
            propagate(decomp, psi0, [0.0, 10.0])
    times = [0.0, 137.0, 954.0]
    np.testing.assert_array_equal(
        [s.coefficients for s in propagate(even, fs, times)],
        [s.coefficients for s in propagate(small_stack.spectrum("spin"), fs, times)],
    )


def _spy_propagate(monkeypatch):
    """Record the states of every ``solver.propagate`` call, one list per call."""
    calls, real = [], solver.propagate

    def spy(decomp, psi0, times):
        calls.append(real(decomp, psi0, times))
        return calls[-1]

    monkeypatch.setattr(solver, "propagate", spy)
    return calls


def _boundary_rows(chunks) -> list:
    """The first and last row of a grid streamed in ``chunks`` and the rows
    on each side of every boundary between two chunks."""
    ends = np.cumsum([len(chunk) for chunk in chunks])
    return sorted({0, int(ends[-1]) - 1, *(int(e) - 1 for e in ends[:-1]),
                   *(int(e) for e in ends[:-1])})


@pytest.mark.parametrize("initial", ["fs", "ps"])
@pytest.mark.parametrize("n_qubits, spacing", [(6, 0), (6, 1), (7, 1)])
def test_quench_on_the_occupied_block_is_bitwise_the_full_series(
    n_qubits, spacing, initial, monkeypatch
):
    """``Pipeline.quench`` solves only the even block for the even ``fs`` and
    ``ps`` states, and its series equal, bit for bit, those of the states
    propagated over the full decomposition in one call.  So do the states of
    its chunks, concatenated, and the states it keeps at the first and last
    sample and on each side of every chunk boundary."""
    params = default_params(n_cavities=41, n_qubits=n_qubits, spacing=spacing)
    pipe = Pipeline(params)
    times = np.arange(0.0, 2001.0, 2.0)
    alphas = range(1, n_qubits)
    chunks = _spy_propagate(monkeypatch)
    decomp, none_kept, series = pipe.quench("spin", initial, times, alphas)
    assert decomp.solver["solved"] == ["even"] and np.all(decomp.parity == 1)
    assert list(pipe._spectra) == [("spin", None, 1)]
    assert none_kept == [] and len(chunks) > 1

    reference = Pipeline(params)
    full = eigensolve(reference.model("spin"))
    expected = propagate(full, initial_state(initial, reference.basis), times)
    np.testing.assert_array_equal([s.coefficients for chunk in chunks for s in chunk],
                                  [s.coefficients for s in expected])
    for row, state in enumerate(expected):
        probabilities = pair_correlation(state, reference.basis).probabilities
        for a in alphas:
            assert series[a][row] == probabilities[a - 1]

    rows = _boundary_rows(chunks)
    _, kept, _ = pipe.quench("spin", initial, times, alphas, keep=rows)
    assert [s.time for s in kept] == [times[row] for row in rows]
    np.testing.assert_array_equal([s.coefficients for s in kept],
                                  [expected[row].coefficients for row in rows])


@pytest.mark.parametrize("initial", ["fs", "ps"])
def test_quench_streams_its_grid_in_chunks_set_by_the_decomposition(initial, monkeypatch):
    """At 41x6 the chunked series equal, bit for bit, those of one
    ``propagate`` over all 1001 samples on the same decomposition, and so do
    the states kept around every chunk boundary; the longest chunk is the
    same for a grid ten times longer, and each sample's pair correlation is
    taken exactly once."""
    from droplet_lattice import observables

    pipe = Pipeline(default_params(n_cavities=41, n_qubits=6))
    alphas = range(1, 6)
    longest, correlations = {}, []
    real_correlation = observables.pair_correlation

    def counted(state, basis):
        correlations.append(state.time)
        return real_correlation(state, basis)

    monkeypatch.setattr(observables, "pair_correlation", counted)
    for t_max in (2000.0, 20000.0):
        times = np.arange(0.0, t_max + 1, 2.0)
        chunks = _spy_propagate(monkeypatch)
        correlations.clear()
        decomp, _, _ = pipe.quench("spin", initial, times, alphas)
        longest[t_max] = max(len(chunk) for chunk in chunks)
        assert sum(map(len, chunks)) == len(times) and len(chunks) > 1
        assert correlations == list(times)
    assert longest[2000.0] == longest[20000.0] < 1001

    times = np.arange(0.0, 2001.0, 2.0)
    chunks = _spy_propagate(monkeypatch)
    _, _, series = pipe.quench("spin", initial, times, alphas)
    rows = _boundary_rows(chunks)
    _, kept, _ = pipe.quench("spin", initial, times, (), keep=rows)
    whole = propagate(decomp, initial_state(initial, pipe.basis), times)
    for row, state in enumerate(whole):
        probabilities = pair_correlation(state, pipe.basis).probabilities
        for a in alphas:
            assert series[a][row] == probabilities[a - 1]
    np.testing.assert_array_equal([s.coefficients for s in kept],
                                  [whole[row].coefficients for row in rows])


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagation_norm_and_reversibility(small_stack):
    d = small_stack.spectrum("spin")
    psi0 = initial_state("fs", small_stack.basis)
    forward = propagate(d, psi0, [0.0, 137.0, 512.0])
    for st_ in forward:
        assert st_.norm() == pytest.approx(1.0, abs=1e-10)
    back = propagate(d, forward[-1], [-512.0])[0]
    np.testing.assert_allclose(back.coefficients, psi0.coefficients, atol=1e-10)


def test_propagation_conserves_energy(small_stack):
    d = small_stack.spectrum("spin")
    h = small_stack.model("spin").payload
    psi0 = initial_state("ps", small_stack.basis)
    snapshots = propagate(d, psi0, [0.0, 50.0, 900.0, 4000.0])
    values = [np.real(np.vdot(s.coefficients, h @ s.coefficients)) for s in snapshots]
    np.testing.assert_allclose(values, values[0], atol=1e-10)


def test_eigenstate_is_stationary(small_stack):
    d = small_stack.spectrum("spin")
    psi0 = d.state(3)
    out = propagate(d, psi0, [233.0])[0]
    probabilities = np.abs(out.coefficients) ** 2
    np.testing.assert_allclose(probabilities, np.abs(psi0.coefficients) ** 2, atol=1e-10)


def test_propagate_rejects_mismatched_state(small_stack):
    d = small_stack.spectrum("spin")
    other_layout = WavepacketState(coefficients=np.ones(4), time=0.0, dims={})
    other_size = initial_state("fs", PairBasis(9))
    for bad in (other_layout, other_size):
        with pytest.raises(BasisMismatch):
            propagate(d, bad, [0.0])


# ---------------------------------------------------------------------------
# perturbation theory
# ---------------------------------------------------------------------------


def test_first_order_corrections_nonpositive(small_stack):
    single = small_stack.spectrum("single")
    corrected = first_order_perturbation(single, small_stack.couplings.pair_hop)
    assert np.all(corrected <= single.energies + 1e-15)


def test_first_order_improves_toward_exact(small_stack):
    single = small_stack.spectrum("single")
    corrected = first_order_perturbation(
        single, small_stack.couplings.pair_hop, indices=[0]
    )[0]
    exact = small_stack.spectrum("spin").energies[0]
    unperturbed = single.energies[0]
    assert exact <= corrected <= unperturbed


def test_degeneracy_warning(x0_stack):
    decomp = x0_stack.spectrum("single")
    with pytest.warns(DegeneracyWarning):
        first_order_perturbation(decomp, x0_stack.couplings.pair_hop, indices=[5])


# ---------------------------------------------------------------------------
# variational family
# ---------------------------------------------------------------------------


def test_variational_vector_is_product_profile(small_stack):
    vec = variational_vector(small_stack.model("spin"), 4.0, 1)
    basis = small_stack.basis
    assert vec.shape == (basis.size,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    # nodeless ground mode: every amplitude strictly positive
    assert np.all(vec > 0)


def test_variational_energy_above_ground(small_stack):
    e0 = small_stack.spectrum("spin").energies[0]
    for length in (2.0, 5.0, 11.0):
        assert variational_energy(small_stack.model("spin"), length, 1) >= e0 - 1e-12


def test_variational_modes_orthonormal(small_stack, variational_family):
    res = variational_family(small_stack)
    gram = res.coefficients.T @ res.coefficients
    np.testing.assert_allclose(gram, np.eye(res.n_max), atol=1e-10)


def test_variational_minimum_interior_and_scan_unimodal(small_stack, variational_family):
    res = variational_family(small_stack)
    grid = np.linspace(1.5, 29.5, 57)
    h_spin = small_stack.model("spin")
    curve = np.array([variational_energy(h_spin, L, 1) for L in grid])
    interior = np.argmin(curve)
    assert 0 < interior < len(grid) - 1
    assert abs(grid[interior] - res.length) < 1.0
    # single local minimum on the sampled curve
    minima = np.nonzero(
        (curve[1:-1] < curve[:-2]) & (curve[1:-1] < curve[2:])
    )[0]
    assert len(minima) == 1


def test_variational_ground_close_to_exact(small_stack, variational_family):
    res = variational_family(small_stack)
    exact = small_stack.spectrum("spin").energies[0]
    assert res.energies[0] >= exact
    assert res.energies[0] - exact < 5e-3 * abs(exact)


def test_variational_family_tracks_droplet_levels(default_stack, variational_family):
    """Each variational mode reproduces its droplet level to well under a
    percent (measured deviations 5e-4 to 1.9e-3 relative)."""
    from droplet_lattice import classify_droplet_states

    labels = classify_droplet_states(default_stack.spectrum("spin"), variational_family(default_stack))
    assert labels.count == 6
    for idx, mode in zip(labels.indices, labels.mode_numbers):
        exact = default_stack.spectrum("spin").energies[idx - 1]
        approx = variational_family(default_stack).energies[mode - 1]
        assert approx >= exact
        assert abs(approx - exact) < 5e-3 * abs(exact)


def test_spin_levels_pushed_below_hop_levels(default_stack):
    spin = default_stack.spectrum("spin").energies
    single = default_stack.spectrum("single").energies
    assert np.all(spin[:6] < single[:6])


def test_golden_section_on_quadratic():
    x, fx = golden_section(lambda t: (t - 3.7) ** 2 + 1.0, 0.0, 10.0, 1e-6)
    assert x == pytest.approx(3.7, abs=1e-5)
    assert fx == pytest.approx(1.0, abs=1e-9)


@given(
    st.floats(min_value=-20, max_value=20),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_golden_section_finds_quadratic_minimum(center, curvature):
    x, _ = golden_section(
        lambda t: curvature * (t - center) ** 2, center - 25, center + 25, 1e-5
    )
    assert abs(x - center) < 1e-3


def test_bracket_error_on_monotone_objective():
    h = _toy_spin_matrix(np.diag([0.0, 1.0, 2.0]))

    # fabricate a spin container whose variational energy decreases with length
    class FakeBasis:
        n_qubits = 3
        centers = np.array([1.5, 2.0, 2.5])
        separations = np.array([1, 1, 2])

    h.pair_basis = FakeBasis()
    with pytest.raises(BracketError):
        minimize_variational(h, n_max=1)
