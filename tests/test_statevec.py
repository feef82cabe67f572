"""State-vector engine tests against independently computed values."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telegate import statevec as sv
from telegate.gates import HADAMARD, I2, PHASE, SX, SZ

from reference import project, ragged_basis, random_unitary


def ket(num_qubits, *terms):
    return sv.from_ket_expression(num_qubits, list(terms))


def h_pair():
    """(|00> + |01> + |10> - |11>) / 2."""
    return ket(2, (1, "00"), (1, "01"), (1, "10"), (-1, "11"))


def phi_plus():
    return ket(2, (1, "00"), (1, "11"))


class TestBasisStates:
    """Index convention: qubit 0 is the leftmost ket symbol and the most
    significant bit of the amplitude index."""

    def test_single_qubit_zero(self):
        assert np.allclose(ket(1, (1, "0")).amps, [1, 0])

    def test_two_qubit_last_index(self):
        assert np.allclose(ket(2, (1, "11")).amps, [0, 0, 0, 1])

    def test_big_endian_index(self):
        state = ket(3, (1, "101"))
        assert state.amps[5] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(sv.UsageError):
            ket(2, (1, "101"))


class TestKetExpressions:
    def test_h_pair_amplitudes(self):
        assert np.allclose(h_pair().amps, [0.5, 0.5, 0.5, -0.5])

    def test_ghz_renormalized(self):
        state = ket(3, (1, "000"), (1, "111"))
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert np.allclose(state.amps, expected)

    def test_declared_prefactor_ignored(self):
        # A wrong 1/sqrt(3) prefactor must come out as 1/sqrt(2) per component.
        state = ket(3, (1 / np.sqrt(3), "000"), (1 / np.sqrt(3), "111"))
        assert np.allclose(abs(state.amps[0]), 1 / np.sqrt(2))
        assert np.allclose(abs(state.amps[7]), 1 / np.sqrt(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(sv.DegenerateStateError):
            ket(1, (1, "0"), (-1, "0"))

    def test_repeated_terms_accumulate(self):
        state = ket(1, (1, "0"), (1, "0"), (1, "1"))
        assert np.allclose(state.amps, [2 / np.sqrt(5), 1 / np.sqrt(5)])


def _rand_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


class TestProject:
    def test_trivial_projection(self):
        prob, post = project(ket(2, (1, "00")), ket(1, (1, "0")), (0,))
        assert prob == pytest.approx(1.0)
        assert np.allclose(post.amps, [1, 0])

    def test_zero_probability_flagged(self):
        prob, post = project(ket(2, (1, "00")), ket(1, (1, "1")), (0,))
        assert prob == pytest.approx(0.0, abs=1e-15)
        assert post is None

    def test_probability_equals_residual_norm(self):
        rng = np.random.default_rng(11)
        state = sv.StateVector(4, _rand_state(rng, 4))
        vec = sv.StateVector(2, _rand_state(rng, 2))
        prob, post = project(state, vec, (1, 3))
        # Naive reference: <vec| on qubits 1 and 3, summed index by index.
        residual = np.zeros(4, dtype=complex)
        for idx, amp in enumerate(state.amps):
            b = format(idx, "04b")
            residual[int(b[0] + b[2], 2)] += np.conj(vec.amps[int(b[1] + b[3], 2)]) * amp
        assert prob == pytest.approx(float(np.vdot(residual, residual).real), abs=1e-12)
        assert np.allclose(post.amps * np.sqrt(prob), residual)

    def test_double_ghz_projection_keeps_outer_components(self):
        # Bell pair on the linking legs + GHZ-type outcomes on both groups
        # filter a generic two-qubit input down to its |00>/|11> part.
        c = np.array([0.1 + 0.2j, 0.3 - 0.1j, -0.25 + 0.5j, 0.4 + 0.3j])
        c /= np.linalg.norm(c)
        pair = phi_plus().amps
        full = sv.StateVector(8, np.kron(np.kron(np.kron(c, pair), pair), pair))
        ghz = ket(3, (1, "000"), (1, "111"))
        # Register order: a b e e' c c' d d'; group one = (a, e, c'), two = (b, e', d').
        _, mid = project(full, ghz, (0, 2, 5))
        # Remaining qubits: b e' c d d' -> group two measures (b, e', d') = (0, 1, 4).
        _, out = project(mid, ghz, (0, 1, 4))
        expected = np.array([c[0], 0, 0, c[3]])
        expected /= np.linalg.norm(expected)
        fid = abs(np.vdot(expected, out.amps))
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_linking_pair_projection_zeros(self):
        # With a Bell pair on the linking legs, half of the four component
        # projections vanish; with the H-type pair all four survive.
        c = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        pairs = np.kron(phi_plus().amps, phi_plus().amps)

        def branch(bit):
            leg = ket(2, (1, bit * 2))
            return sv.StateVector(8, np.kron(np.kron(c, leg.amps), pairs))

        phi1, phi2 = branch("0"), branch("1")  # |00>_ee' and |11>_ee' components
        probe0 = ket(3, (1, "000"))
        probe1 = ket(3, (1, "111"))
        measured = (1, 3, 7)  # (b, e', d')
        p_00_1, _ = project(phi1, probe0, measured)
        p_00_2, _ = project(phi2, probe0, measured)
        p_11_1, _ = project(phi1, probe1, measured)
        p_11_2, _ = project(phi2, probe1, measured)
        assert p_00_1 > 1e-3 and p_11_2 > 1e-3
        assert p_00_2 == pytest.approx(0.0, abs=1e-15)
        assert p_11_1 == pytest.approx(0.0, abs=1e-15)

        def h_branch(bit, sign):
            leg = ket(2, (1, bit + "0"), (sign, bit + "1"))
            return sv.StateVector(8, np.kron(np.kron(c, leg.amps), pairs))

        h1, h2 = h_branch("0", 1), h_branch("1", -1)  # |0+> and |1-> components
        for phi in (h1, h2):
            for probe in (probe0, probe1):
                p, _ = project(phi, probe, measured)
                assert p > 1e-3


def ghz_like_basis():
    """(sx^i (x) sx^j (x) I)(|000> +- |111>)/sqrt(2) for i,j in {0,1}."""
    # sx^i on qubit 0 and sx^j on qubit 1 flip those bits of both kets.
    states = [
        ket(3, (1, f"{i}{j}0"), (sign, f"{1 - i}{1 - j}1"))
        for i in (0, 1)
        for j in (0, 1)
        for sign in (1, -1)
    ]
    return sv.basis_from_states(states)


class TestValidateBasis:
    def test_ghz_like_basis_passes(self):
        report = sv.validate_basis(ghz_like_basis())
        assert report.passed
        assert report.vector_count == 8

    def test_nonorthogonal_inner_parts_still_orthogonal(self):
        # Branch factors |+> and (|0>-i|1>)/sqrt(2) overlap, yet the joint
        # three-qubit vectors are orthonormal.
        states = []
        s2 = 1 / np.sqrt(2)
        for j in (0, 1):
            for k in (0, 1):
                for sign in (1, -1):
                    state = sv.from_ket_expression(
                        3,
                        [
                            (s2, "000"),
                            (s2, "010"),
                            (sign * s2, "101"),
                            (sign * -1j * s2, "111"),
                        ],
                    )
                    flips = np.kron(np.kron(SX if j else I2, SZ if k else I2), I2)
                    states.append(sv.StateVector(3, flips @ state.amps))
        report = sv.validate_basis(sv.basis_from_states(states))
        assert report.passed

    def test_truncated_basis_fails_completeness(self):
        basis = ghz_like_basis()
        truncated = sv.MeasurementBasis(3, basis.vectors[:7])
        report = sv.validate_basis(truncated)
        assert not report.passed
        assert report.vector_count == 7
        assert report.expected_count == 8


def _dense_gram_report(basis):
    """The report from the full Gram matrix of the basis, every pair of
    vectors formed, the way validate_basis computed it before it summed
    only the pairs sharing a nonzero column."""
    vecs = basis.vectors
    gram = vecs.conj() @ vecs.T
    norms = np.sqrt(np.real(np.diag(gram)))
    off_diag = np.abs(gram - np.diag(np.diag(gram)))
    return sv.BasisReport(
        num_qubits=basis.num_qubits,
        vector_count=vecs.shape[0],
        expected_count=1 << basis.num_qubits,
        max_pairwise_overlap=float(off_diag.max()) if vecs.shape[0] > 1 else 0.0,
        max_norm_deviation=float(np.max(np.abs(norms - 1.0))),
    )


def _reference_bases():
    from telegate import catalog

    bases = {}
    for name in catalog.catalog_entries():
        for gi, group in enumerate(catalog.build_pattern(name).groups):
            bases[f"{name}-{gi}"] = group.basis
    for n in (4, 7):
        bases[f"chain-cz-{n}-0"] = catalog.chain_cz_pattern(n).groups[0].basis
    bases["toffoli-literal-0"] = catalog._toffoli_first_group("literal").basis
    rng = np.random.default_rng(11)
    bases["dense-16"] = sv.MeasurementBasis(4, random_unitary(16, rng))
    # Every row of this one overlaps every other: columns scaled unevenly.
    skewed = random_unitary(8, rng) * np.linspace(0.5, 1.5, 8)
    bases["dense-skewed-8"] = sv.MeasurementBasis(3, skewed)
    bases["truncated"] = sv.MeasurementBasis(3, ghz_like_basis().vectors[:7])
    bases["dense-64"] = sv.MeasurementBasis(6, random_unitary(64, rng))
    bases["dense-256"] = sv.MeasurementBasis(8, random_unitary(256, rng))
    bases["dense-rotated-256"] = sv.MeasurementBasis(8, _rotated(random_unitary(256, rng), 1e-3))
    bases["ragged"] = ragged_basis()
    return bases


def _rotated(vectors, angle):
    """``vectors`` with its first row turned by ``angle`` toward its second,
    which leaves both unit vectors that overlap by about sin(angle)."""
    out = vectors.copy()
    out[0] = np.cos(angle) * vectors[0] + np.sin(angle) * vectors[1]
    return out


REFERENCE_BASES = _reference_bases()


def _assert_agrees_with_the_dense_gram(basis):
    report, dense = sv.validate_basis(basis), _dense_gram_report(basis)
    assert report.passed == dense.passed
    assert report.vector_count == dense.vector_count
    assert report.expected_count == dense.expected_count
    # The sums run in another order, so they agree to rounding only.
    close = {"rel": 1e-12, "abs": 1e-15}
    assert report.max_pairwise_overlap == pytest.approx(dense.max_pairwise_overlap, **close)
    assert report.max_norm_deviation == pytest.approx(dense.max_norm_deviation, **close)


@pytest.mark.parametrize("name", sorted(REFERENCE_BASES))
def test_validate_basis_matches_the_dense_gram(name):
    _assert_agrees_with_the_dense_gram(REFERENCE_BASES[name])


def test_validate_basis_blocks_do_not_change_the_report(monkeypatch):
    # One vector per block (a budget below the vector count), a few, or the
    # whole basis in one block: each pair's overlap sums the same nonzero
    # terms, so the report is the same to the bit.
    basis = REFERENCE_BASES["toffoli-literal-0"]
    whole = sv.validate_basis(basis)
    for budget in (1, 7, 64, 1 << 30):
        monkeypatch.setattr(sv, "_GRAM_ENTRIES", budget)
        assert sv.validate_basis(basis) == whole
    assert not whole.passed and whole.max_pairwise_overlap > 0.99


@st.composite
def random_bases(draw):
    """A random basis of 1 to 6 qubits: a unitary, dense or sparse (random
    unitary blocks on the diagonal, rows and columns shuffled), with its
    first vector turned toward its second by a drawn angle, often 0."""
    k = draw(st.integers(1, 6))
    dim = 1 << k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vectors = random_unitary(dim, rng)
    else:
        vectors = np.zeros((dim, dim), dtype=complex)
        cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1))) if dim > 1 else []
        for lo, hi in zip([0, *cuts], [*cuts, dim]):
            vectors[lo:hi, lo:hi] = random_unitary(hi - lo, rng)
        vectors = vectors[rng.permutation(dim)][:, rng.permutation(dim)]
    angle = draw(st.sampled_from([0.0, 1e-14, 1e-6, 0.3]))
    if angle and dim > 1:
        vectors = _rotated(vectors, angle)
    return sv.MeasurementBasis(k, vectors)


@settings(max_examples=60, deadline=None)
@given(random_bases())
def test_validate_basis_agrees_with_the_dense_gram_on_random_bases(basis):
    _assert_agrees_with_the_dense_gram(basis)


@st.composite
def normalized_states(draw, num_qubits):
    dim = 1 << num_qubits
    re = draw(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim)
    )
    im = draw(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim)
    )
    amps = np.array(re) + 1j * np.array(im)
    nrm = np.linalg.norm(amps)
    if nrm < 1e-3:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        nrm = 1.0
    return sv.StateVector(num_qubits, amps / nrm)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(normalized_states(2), st.integers(0, 3))
    def test_measurement_probabilities_sum_to_one(self, state, seed):
        basis = ghz_like_basis()
        rng = np.random.default_rng(seed)
        big = sv.StateVector(3, np.kron(state.amps, _rand_state(rng, 1)))
        total = sum(
            project(big, sv.StateVector(3, vec), (0, 1, 2))[0] for vec in basis.vectors
        )
        assert total == pytest.approx(1.0, abs=1e-9)

class TestHelpers:
    def test_subset_duplicate_rejected(self):
        with pytest.raises(sv.UsageError):
            sv.check_subset((0, 0), 2)

    def test_subset_out_of_range_rejected(self):
        with pytest.raises(sv.UsageError):
            sv.check_subset((3,), 2)

    def test_is_unitary(self):
        assert sv.is_unitary(HADAMARD)
        assert sv.is_unitary(np.kron(I2, PHASE))
        assert not sv.is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
