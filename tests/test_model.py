"""Chain description, speed measure, scale function, generator application."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

import bdhit as b


class TestProcessSpec:
    def test_basic_properties(self, rational_chain):
        assert rational_chain.n_states == 4
        assert rational_chain.is_rational
        assert rational_chain.lam[-1] == 0

    def test_float_chain_not_rational(self, chain_factory):
        assert not chain_factory(5).is_rational

    def test_mixed_exact_and_float_not_rational(self):
        spec = b.ProcessSpec((1, 0.0), (1, 2))
        assert not spec.is_rational

    def test_exact_c_matrix_reads_each_rate_once(self, monkeypatch):
        # is_rational is scanned once per spec; the scale function, built
        # on first read of c.s, also checks the N exact speed-measure weights.
        n = 20
        lam = [Fraction(2 + i % 11, 4) for i in range(n - 1)] + [0]
        mu = [Fraction(2 + (3 * i) % 11, 4) for i in range(n)]
        spec = b.ProcessSpec(lam, mu)
        calls = []
        real = b.model._is_exact_number
        monkeypatch.setattr(b.model, "_is_exact_number", lambda x: calls.append(x) or real(x))
        c = b.build_c_matrix(spec, n)
        assert c.rational
        assert len(calls) == 2 * n
        assert c.s is c.s
        assert len(calls) == 2 * n + n
        # the cached flag is no field: equality and hashing see the rates only
        fresh = b.ProcessSpec(lam, mu)
        assert spec == fresh and hash(spec) == hash(fresh)

    def test_arrays_are_float(self, rational_chain):
        la = rational_chain.lam_array()
        assert la.dtype == np.float64
        assert la[0] == 1.5

    def test_arrays_converted_once_and_read_only(self, rational_chain):
        for get in (rational_chain.lam_array, rational_chain.mu_array):
            assert get() is get()
            assert not get().flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one interior state"):
            b.ProcessSpec((), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mu: expected length 2"):
            b.ProcessSpec((1, 0), (1,))

    def test_rejects_nonzero_top_birth_rate(self):
        with pytest.raises(ValueError, match="top birth rate must be 0"):
            b.ProcessSpec((1, 1), (1, 1))

    def test_rejects_nonpositive_death_rate(self):
        with pytest.raises(ValueError, match=r"mu\[1\]: death rate must be positive"):
            b.ProcessSpec((1, 0), (1, 0))

    def test_rejects_nonpositive_interior_birth_rate(self):
        with pytest.raises(ValueError, match=r"lambda\[0\]: interior birth rate"):
            b.ProcessSpec((0, 1, 0), (1, 1, 1))

    def test_rejects_bool_rate(self):
        with pytest.raises(ValueError, match=r"lambda\[0\]: unsupported rate type bool"):
            b.ProcessSpec((True, 0), (1, 1))

    def test_numpy_rates_stored_as_python_numbers(self):
        spec = b.ProcessSpec(np.array([2, 2, 0]), np.array([1, 1, 1]))
        assert all(type(r) is int for r in spec.lam + spec.mu)
        assert spec == b.ProcessSpec((2, 2, 0), (1, 1, 1))
        spec = b.ProcessSpec(np.array([1.5, 0.0]), np.array([2.0, 1.0]))
        assert all(type(r) is float for r in spec.lam + spec.mu)

    def test_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="finite"):
            b.ProcessSpec((float("nan"), 0.0), (1.0, 1.0))

    def test_single_state_chain(self):
        spec = b.ProcessSpec((0,), (3,))
        assert spec.n_states == 1

    def test_to_dict_rational_strings(self, rational_chain):
        doc = rational_chain.to_dict()
        assert doc["N"] == 4
        assert doc["lambda"][0] == "3/2"
        assert doc["mu"][3] == "5/4"

    def test_to_dict_round_trip(self, rational_chain):
        assert b.spec_from_dict(rational_chain.to_dict()) == rational_chain

    def test_to_dict_float_round_trip(self, chain_factory):
        spec = chain_factory(11)
        assert b.spec_from_dict(spec.to_dict()) == spec


def quarter_rate_chain(n):
    """Exact rates k/4 with k in 2..12, top birth rate 0."""
    lam = [Fraction(2 + (5 * i) % 11, 4) for i in range(n - 1)] + [0]
    mu = [Fraction(2 + (7 * i + 3) % 11, 4) for i in range(n)]
    return b.ProcessSpec(lam, mu)


class TestSpeedAndScale:
    @pytest.mark.parametrize("make", [
        None,
        *(lambda n=n: quarter_rate_chain(n) for n in (1, 2, 30, 300)),
        lambda: b.symmetric_rw_spec(1, 2000),
        # numpy integer rates: pi_60 = 3^59 / 2^59 does not fit an int64
        lambda: b.asymmetric_rw_spec(np.int64(3), np.int64(2), 60),
    ], ids=["rational_chain", "k/4-1", "k/4-2", "k/4-30", "k/4-300", "walk-2000", "int64-60"])
    def test_speed_measure_recursion_exact(self, rational_chain, make):
        # each weight is one Fraction of the integer products; it equals the
        # two-operation product pi_i lambda_i / mu_(i+1), and its float view
        # has the bits of float(Fraction)
        spec = rational_chain if make is None else make()
        pi = b.build_speed_measure(spec)
        assert pi[1] == 1
        want = [Fraction(1)]
        for lam, mu in zip(spec.lam, spec.mu[1:]):
            want.append(want[-1] * lam / mu)
        assert pi.pi == tuple(want)
        assert all(type(p) is Fraction for p in pi.pi)
        want = np.array([float(p) for p in pi.pi])
        assert pi.array().view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("read,i,message", [
        (lambda c: c.pi, 0, "pi[0]: state out of range 1..4"),
        (lambda c: c.pi, 5, "pi[5]: state out of range 1..4"),
        (lambda c: c.pi, -1, "pi[-1]: state out of range 1..4"),
        (lambda c: c.s, -1, "s[-1]: state out of range 0..4"),
        (lambda c: c.s, 5, "s[5]: state out of range 0..4"),
        (lambda c: b.ScaleFunction((0, 1, 3)), 3, "s[3]: state out of range 0..2"),
    ])
    def test_index_outside_the_states_refused(self, read, i, message):
        # pi[0] once read pi_N (8 here) and s[-1] read s(N), by Python's
        # negative indexes
        c = b.build_c_matrix(b.asymmetric_rw_spec(2, 1, 4), 4)
        assert (c.pi[1], c.pi[4], c.s[0], c.s[4]) == (1, 8, 0, Fraction(15, 8))
        with pytest.raises(IndexError, match=re.escape(message)):
            read(c)[i]

    def test_detailed_balance(self, chain_factory):
        spec = chain_factory(7)
        pi = b.build_speed_measure(spec)
        lam, mu = spec.lam_array(), spec.mu_array()
        for i in range(1, spec.n_states):
            assert pi[i] * lam[i - 1] == pytest.approx(pi[i + 1] * mu[i], rel=1e-14)

    def test_speed_measure_array(self, two_state_chain):
        pi = b.build_speed_measure(two_state_chain)
        np.testing.assert_allclose(pi.array(), [1.0, 1.0])

    @pytest.mark.parametrize("rational", [False, True])
    def test_scale_function_array_converted_once(self, rational_chain, chain_factory, rational):
        spec = rational_chain if rational else chain_factory(7)
        s = b.build_scale_function(spec, b.build_speed_measure(spec))
        first = s.array()
        assert s.array() is first
        assert not first.flags.writeable
        assert first.tolist() == [float(v) for v in s.s]

    def test_exact_weight_beyond_float_range_named(self):
        # pi_i = 2^(i-1) exactly: pi_1024 = 2^1023 is a float, pi_1025 is not.
        assert b.build_speed_measure(b.asymmetric_rw_spec(2, 1, 1024)).array()[-1] == 2.0**1023
        # pi_i = 2^(1 - i): pi_1075 = 2^-1074 is the least float, pi_1076
        # rounds to 0.0, which once gave a total mass of 1.0237 at N = 1100
        ev = b.finite_evaluator(b.asymmetric_rw_spec(1, 2, 1075))
        assert ev.pi[-1] == 2.0**-1074
        mass = b.spectral_sum(ev, (np.inf,), 1, transform="cdf")
        assert abs(mass[0] - 1.0) <= 1e-12
        for spec, message in [
            (b.asymmetric_rw_spec(2, 1, 1025), "overflows float range at pi[1025]"),
            (b.asymmetric_rw_spec(1, 2, 1100), "underflows float range at pi[1076]"),
        ]:
            with pytest.raises(OverflowError, match=re.escape(message)):
                b.build_speed_measure(spec).array()
            with pytest.raises(OverflowError, match=re.escape(message)):
                b.finite_evaluator(spec)

    def test_scale_increments(self, rational_chain):
        pi = b.build_speed_measure(rational_chain)
        s = b.build_scale_function(rational_chain, pi)
        assert s[0] == 0
        assert s[1] == Fraction(1, 1)  # 1 / mu_1
        lam = rational_chain.lam
        for i in range(1, 4):
            assert s[i + 1] - s[i] == 1 / (pi[i] * lam[i - 1])

    def test_scale_is_harmonic_interior(self, chain_factory):
        # Q s = 0 at every state with a positive birth rate.
        spec = chain_factory(13)
        pi = b.build_speed_measure(spec)
        s = b.build_scale_function(spec, pi)
        qs = b.apply_Q(spec, [s[i] for i in range(spec.n_states + 1)])
        assert max(abs(v) for v in qs[:-1]) < 1e-12

    def test_overflow_names_index_and_remedy(self):
        # float weights that overflow (pi_i = 10^(i - 1)) or underflow to
        # 0.0 (pi_i = 2^(1 - i), from pi_1076 on)
        for up, down, n, where in [
            (10.0, 1.0, 400, r"overflows at pi\[\d+\]"),
            (1.0, 2.0, 1077, r"underflows to 0 at pi\[1076\]"),
        ]:
            lam = [up] * n
            lam[-1] = 0.0
            spec = b.ProcessSpec(tuple(lam), tuple([down] * n))
            with pytest.raises(OverflowError, match=where + ".*rational"):
                b.build_speed_measure(spec)

    def test_rational_rates_never_overflow(self):
        n = 380
        lam = [Fraction(10)] * n
        lam[-1] = Fraction(0)
        spec = b.ProcessSpec(tuple(lam), tuple([Fraction(1)] * n))
        pi = b.build_speed_measure(spec)
        assert pi[n] == Fraction(10) ** (n - 1)


class TestGeneratorApplication:
    def test_apply_Q_matches_matrix(self, chain_factory):
        spec = chain_factory(17)
        from bdhit.oracles import interior_rate_matrix

        q = interior_rate_matrix(spec)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(spec.n_states + 1)
        f[0] = 0.0
        got = np.array(b.apply_Q(spec, list(f)))
        want = q @ f[1:]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_apply_Q_boundary_term(self):
        # From state 1 the downward jump lands on the absorbing boundary value f(0).
        spec = b.ProcessSpec((2, 0), (3, 1))
        qf = b.apply_Q(spec, [5.0, 1.0, 1.0])
        assert qf[0] == pytest.approx(3 * (5.0 - 1.0))

    def test_generator_factors_through_scale(self, chain_factory):
        # Q = (d/d pi)(d/d s) applied to a random f, exactly the same numbers.
        spec = chain_factory(19)
        pi = b.build_speed_measure(spec)
        s = b.build_scale_function(spec, pi)
        rng = np.random.default_rng(1)
        f = list(rng.standard_normal(spec.n_states + 1))
        direct = b.apply_Q(spec, f)
        factored = b.apply_DpiDs(spec, pi, s, f)
        np.testing.assert_allclose(direct, factored, rtol=0, atol=1e-12)

    def test_generator_factors_exactly_rational(self, rational_chain):
        pi = b.build_speed_measure(rational_chain)
        s = b.build_scale_function(rational_chain, pi)
        f = [Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(5), Fraction(1, 2)]
        assert b.apply_Q(rational_chain, f) == b.apply_DpiDs(rational_chain, pi, s, f)

    def test_apply_Q_length_check(self, two_state_chain):
        with pytest.raises(ValueError, match="expected 3 entries"):
            b.apply_Q(two_state_chain, [0.0, 1.0])


class TestNamedModels:
    def test_symmetric_rw_rates(self):
        spec = b.symmetric_rw_spec(Fraction(3, 2), 5)
        assert spec.is_rational
        assert spec.lam == (Fraction(3, 2),) * 4 + (Fraction(0),)
        assert spec.mu == (Fraction(3, 2),) * 5

    def test_symmetric_rw_float(self):
        spec = b.symmetric_rw_spec(1.7, 4)
        assert not spec.is_rational
        assert spec.lam[-1] == 0.0

    def test_asymmetric_rw_rates(self):
        spec = b.asymmetric_rw_spec(2, 1, 6)
        assert spec.lam == (2,) * 5 + (0,)
        assert spec.mu == (1,) * 6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="kappa: must be positive"):
            b.symmetric_rw_spec(0, 4)
        with pytest.raises(ValueError, match="N: must be a positive integer"):
            b.symmetric_rw_spec(1, 0)
        with pytest.raises(ValueError, match="mu: must be positive"):
            b.asymmetric_rw_spec(1, 0, 4)

    @pytest.mark.parametrize("build,message", [
        # N = 2.5 raised a raw TypeError, N = True built a 1-state chain
        (lambda: b.symmetric_rw_spec(1, 2.5), "N: must be an integer, got 2.5"),
        (lambda: b.asymmetric_rw_spec(2, 1, 2.5), "N: must be an integer, got 2.5"),
        (lambda: b.symmetric_rw_spec(1, True), "N: must be an integer, got True"),
        (lambda: b.symmetric_rw_spec(True, 4), "kappa: unsupported rate type bool"),
        (lambda: b.asymmetric_rw_spec(2, "1", 4), "mu: unsupported rate type str"),
        (lambda: b.symmetric_rw_spec(np.float64("nan"), 4), "kappa: rate must be finite, got nan"),
    ])
    def test_rejects_bad_arguments(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestSpecFromDict:
    def test_explicit_arrays(self):
        doc = {"N": 2, "lambda": [1, 0], "mu": ["1/2", 2]}
        spec = b.spec_from_dict(doc)
        assert spec.mu == (Fraction(1, 2), 2)
        assert spec.is_rational

    def test_symmetric_model_shape(self):
        spec = b.spec_from_dict({"model": "symmetric_rw", "kappa": "3/2", "N": 4})
        assert spec == b.symmetric_rw_spec(Fraction(3, 2), 4)

    def test_asymmetric_model_shape(self):
        spec = b.spec_from_dict({"model": "asymmetric_rw", "lambda": 2, "mu": 1, "N": 5})
        assert spec == b.asymmetric_rw_spec(2, 1, 5)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            b.spec_from_dict({"model": "ou", "N": 3})

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="kappa: required for model symmetric_rw"):
            b.spec_from_dict({"model": "symmetric_rw", "N": 3})
        with pytest.raises(ValueError, match="required field missing"):
            b.spec_from_dict({"N": 3, "lambda": [1, 1, 0]})

    def test_wrong_array_length(self):
        with pytest.raises(ValueError, match="mu: expected an array of length N=2"):
            b.spec_from_dict({"N": 2, "lambda": [1, 0], "mu": [1]})

    def test_bad_rational_string(self):
        with pytest.raises(ValueError, match="cannot parse rational string"):
            b.spec_from_dict({"N": 1, "lambda": [0], "mu": ["one half"]})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            b.spec_from_dict([1, 2, 3])

    def test_load_spec_reads_file(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"model": "symmetric_rw", "kappa": 1, "N": 3}))
        assert b.load_spec(path) == b.symmetric_rw_spec(1, 3)

    def test_load_spec_bad_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            b.load_spec(path)
