"""State-vector engine tests against independently computed values."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telegate import statevec as sv
from telegate.gates import CZ, HADAMARD, I2, PHASE, SX, SZ


def ket(num_qubits, *terms):
    return sv.from_ket_expression(num_qubits, list(terms))


def h_pair():
    """(|00> + |01> + |10> - |11>) / 2."""
    return ket(2, (1, "00"), (1, "01"), (1, "10"), (-1, "11"))


def phi_plus():
    return ket(2, (1, "00"), (1, "11"))


class TestBasisStates:
    def test_single_qubit_zero(self):
        assert np.allclose(sv.make_basis_state(1, "0").amps, [1, 0])

    def test_two_qubit_last_index(self):
        assert np.allclose(sv.make_basis_state(2, "11").amps, [0, 0, 0, 1])

    def test_big_endian_index(self):
        state = sv.make_basis_state(3, "101")
        assert state.amps[5] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(sv.UsageError):
            sv.make_basis_state(2, "101")


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


class TestTensor:
    def test_zero_one(self):
        state = sv.tensor(sv.make_basis_state(1, "0"), sv.make_basis_state(1, "1"))
        assert np.allclose(state.amps, sv.make_basis_state(2, "01").amps)

    def test_h_pair_squared(self):
        state = sv.tensor(h_pair(), h_pair())
        # Direct Kronecker product: all entries +-1/4 with multiplied signs.
        expected = np.kron([0.5, 0.5, 0.5, -0.5], [0.5, 0.5, 0.5, -0.5])
        assert np.allclose(state.amps, expected)
        assert np.allclose(np.abs(state.amps), 0.25)

    def test_eight_qubit_resource_product(self):
        psi = ket(2, (0.5, "00"), (0.5j, "01"), (-0.5, "10"), (0.5j, "11"))
        full = sv.tensor(sv.tensor(sv.tensor(psi, h_pair()), phi_plus()), phi_plus())
        assert full.num_qubits == 8
        assert np.allclose(sv.norm(full), 1.0)
        # Spot-check one amplitude by index arithmetic:
        # |01> (x) |10> (x) |00> (x) |11> -> index 0b01100011.
        idx = int("01100011", 2)
        assert np.allclose(full.amps[idx], 0.5j * 0.5 * (1 / np.sqrt(2)) ** 2)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        a = sv.StateVector(1, _rand_state(rng, 1))
        b = sv.StateVector(2, _rand_state(rng, 2))
        c = sv.StateVector(1, _rand_state(rng, 1))
        left = sv.tensor(sv.tensor(a, b), c)
        right = sv.tensor(a, sv.tensor(b, c))
        assert np.allclose(left.amps, right.amps, atol=1e-12)


def _rand_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


class TestApplyUnitary:
    def test_sx_flips(self):
        out = sv.apply_unitary(sv.make_basis_state(1, "0"), SX, (0,))
        assert np.allclose(out.amps, [0, 1])

    def test_sz_fixes_phase_gate_outcome(self):
        # a|0> - i b|1>  --sz-->  a|0> + i b|1>
        a, b = 0.6, 0.8
        state = sv.StateVector(1, np.array([a, -1j * b]))
        out = sv.apply_unitary(state, SZ, (0,))
        assert np.allclose(out.amps, [a, 1j * b])

    def test_cz_signs_last_component(self):
        out = sv.apply_unitary(sv.make_basis_state(2, "11"), CZ, (0, 1))
        assert np.allclose(out.amps, [0, 0, 0, -1])

    def test_targets_embed_in_register(self):
        # X on qubit 1 of |000> gives |010>.
        out = sv.apply_unitary(sv.make_basis_state(3, "000"), SX, (1,))
        assert np.allclose(out.amps, sv.make_basis_state(3, "010").amps)

    def test_two_qubit_target_order_matters(self):
        # CNOT with control qubit 1, target qubit 0 on |010> -> |110>.
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        out = sv.apply_unitary(sv.make_basis_state(3, "010"), cnot, (1, 0))
        assert np.allclose(out.amps, sv.make_basis_state(3, "110").amps)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(sv.UsageError):
            sv.apply_unitary(sv.make_basis_state(2, "00"), CZ, (0,))

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        state = sv.StateVector(3, _rand_state(rng, 3))
        u = _haar(rng, 4)
        out = sv.apply_unitary(state, u, (2, 0))
        assert abs(sv.norm(out) - 1.0) < 1e-10


def _haar(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestProject:
    def test_trivial_projection(self):
        prob, post = sv.project(
            sv.make_basis_state(2, "00"), sv.make_basis_state(1, "0"), (0,)
        )
        assert prob == pytest.approx(1.0)
        assert np.allclose(post.amps, [1, 0])

    def test_zero_probability_flagged(self):
        prob, post = sv.project(
            sv.make_basis_state(2, "00"), sv.make_basis_state(1, "1"), (0,)
        )
        assert prob == pytest.approx(0.0, abs=1e-15)
        assert post is None

    def test_probability_equals_residual_norm(self):
        rng = np.random.default_rng(11)
        state = sv.StateVector(4, _rand_state(rng, 4))
        vec = sv.StateVector(2, _rand_state(rng, 2))
        prob, post = sv.project(state, vec, (1, 3))
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
        psi = sv.StateVector(2, c)
        full = sv.tensor(sv.tensor(sv.tensor(psi, phi_plus()), phi_plus()), phi_plus())
        ghz = ket(3, (1, "000"), (1, "111"))
        # Register order: a b e e' c c' d d'; group one = (a, e, c'), two = (b, e', d').
        _, mid = sv.project(full, ghz, (0, 2, 5))
        # Remaining qubits: b e' c d d' -> group two measures (b, e', d') = (0, 1, 4).
        _, out = sv.project(mid, ghz, (0, 1, 4))
        expected = np.array([c[0], 0, 0, c[3]])
        expected /= np.linalg.norm(expected)
        fid = abs(np.vdot(expected, out.amps))
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_linking_pair_projection_zeros(self):
        # With a Bell pair on the linking legs, half of the four component
        # projections vanish; with the H-type pair all four survive.
        c = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        psi = sv.StateVector(2, c)
        pairs = sv.tensor(phi_plus(), phi_plus())

        def branch(bit):
            leg = sv.make_basis_state(2, bit * 2)
            return sv.tensor(sv.tensor(psi, leg), pairs)

        phi1, phi2 = branch("0"), branch("1")  # |00>_ee' and |11>_ee' components
        probe0 = sv.make_basis_state(3, "000")
        probe1 = sv.make_basis_state(3, "111")
        measured = (1, 3, 7)  # (b, e', d')
        p_00_1, _ = sv.project(phi1, probe0, measured)
        p_00_2, _ = sv.project(phi2, probe0, measured)
        p_11_1, _ = sv.project(phi1, probe1, measured)
        p_11_2, _ = sv.project(phi2, probe1, measured)
        assert p_00_1 > 1e-3 and p_11_2 > 1e-3
        assert p_00_2 == pytest.approx(0.0, abs=1e-15)
        assert p_11_1 == pytest.approx(0.0, abs=1e-15)

        def h_branch(bit, sign):
            leg = ket(2, (1, bit + "0"), (sign, bit + "1"))
            return sv.tensor(sv.tensor(psi, leg), pairs)

        h1, h2 = h_branch("0", 1), h_branch("1", -1)  # |0+> and |1-> components
        for phi in (h1, h2):
            for probe in (probe0, probe1):
                p, _ = sv.project(phi, probe, measured)
                assert p > 1e-3


class TestFidelity:
    def test_global_phase_invariance(self):
        rng = np.random.default_rng(17)
        state = sv.StateVector(2, _rand_state(rng, 2))
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            rotated = sv.StateVector(2, np.exp(1j * theta) * state.amps)
            assert abs(sv.fidelity_up_to_phase(state, rotated) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        a = sv.make_basis_state(1, "0")
        b = sv.make_basis_state(1, "1")
        assert sv.fidelity_up_to_phase(a, b) == 0.0

    def test_corrected_phase_gate_output(self):
        a, b = 1 / np.sqrt(3), np.sqrt(2 / 3)
        pre = sv.StateVector(1, np.array([a, 1j * b]))  # outcome with recovery I
        target = sv.apply_unitary(sv.StateVector(1, np.array([a, b])), PHASE, (0,))
        assert sv.fidelity_up_to_phase(pre, target) == pytest.approx(1.0, abs=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(sv.UsageError):
            sv.fidelity_up_to_phase(
                sv.make_basis_state(1, "0"), sv.make_basis_state(2, "00")
            )


def ghz_like_basis():
    """(sx^i (x) sx^j (x) I)(|000> +- |111>)/sqrt(2) for i,j in {0,1}."""
    states = []
    base_p = ket(3, (1, "000"), (1, "111"))
    base_m = ket(3, (1, "000"), (-1, "111"))
    for i in (0, 1):
        for j in (0, 1):
            for base in (base_p, base_m):
                out = base
                if i:
                    out = sv.apply_unitary(out, SX, (0,))
                if j:
                    out = sv.apply_unitary(out, SX, (1,))
                states.append(out)
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
                    if k:
                        state = sv.apply_unitary(state, SZ, (1,))
                    if j:
                        state = sv.apply_unitary(state, SX, (0,))
                    states.append(state)
        report = sv.validate_basis(sv.basis_from_states(states))
        assert report.passed

    def test_truncated_basis_fails_completeness(self):
        basis = ghz_like_basis()
        truncated = sv.MeasurementBasis(3, basis.vectors[:7])
        report = sv.validate_basis(truncated)
        assert not report.passed
        assert report.vector_count == 7
        assert report.expected_count == 8


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
        big = sv.tensor(state, sv.StateVector(1, _rand_state(rng, 1)))
        total = sum(
            sv.project(big, sv.StateVector(3, vec), (0, 1, 2))[0] for vec in basis.vectors
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(normalized_states(1), normalized_states(1), normalized_states(1))
    def test_tensor_associativity(self, a, b, c):
        left = sv.tensor(sv.tensor(a, b), c)
        right = sv.tensor(a, sv.tensor(b, c))
        assert np.allclose(left.amps, right.amps, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(normalized_states(2))
    def test_unitary_preserves_norm(self, state):
        out = sv.apply_unitary(state, np.kron(HADAMARD, PHASE), (0, 1))
        assert abs(sv.norm(out) - 1.0) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(normalized_states(2), st.floats(0, 2 * np.pi, allow_nan=False))
    def test_fidelity_phase_invariant(self, state, theta):
        rotated = sv.StateVector(2, np.exp(1j * theta) * state.amps)
        assert abs(sv.fidelity_up_to_phase(state, rotated) - 1.0) < 1e-12


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

    def test_align_phase(self):
        rng = np.random.default_rng(23)
        ref = _rand_state(rng, 2)
        other = np.exp(0.7j) * ref
        aligned = sv.align_phase(ref, other)
        assert np.allclose(aligned, ref, atol=1e-12)
