import math

import numpy as np
import pytest

from afcmem import (CapacityError, CombConfig, DetuningDistribution, InvalidArgumentError,
                    MemoryModel, PulseSpec, afc_echo_amplitude, afc_efficiency, build_comb,
                    comb_dephasing_factor, dephasing_envelope, echo_trace, memory_efficiency,
                    ModesConfig, memory_timeline, spinwave_excitation)
from afcmem import afc, build_sequence, grid_ensemble, rephasing_fidelity
from afcmem.afc import MAX_COMB_BUILD_WORK, MAX_COMB_GRID_POINTS, MIN_TOOTH_FWHM_HZ
from afcmem.config import EnsembleSection
from oracles import find_echo_peak

GAUSS27 = DetuningDistribution("gaussian", 27e3)

# Default experimental comb: 100 kHz spacing, finesse 4, 2 MHz wide,
# per-pass depth 2.6 in double pass.
DEFAULT_COMB = CombConfig()


def tooth_dephasing_oracle(finesse: float) -> float:
    """Independent quadrature: intensity of the Fourier transform of one
    Gaussian tooth of FWHM 1/finesse (in units of the spacing) at t = 1."""
    fwhm = 1.0 / finesse
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    x = np.linspace(-8.0 * sigma, 8.0 * sigma, 20001)
    dens = np.exp(-0.5 * (x / sigma) ** 2)
    num = np.trapezoid(dens * np.exp(2j * math.pi * x), x)
    return float(abs(num / np.trapezoid(dens, x)) ** 2)


class TestBuildComb:
    def test_tooth_count_is_odd_and_centered(self):
        comb = build_comb(DEFAULT_COMB)
        half = 0.5 * comb.depth.max()
        above = comb.depth > half
        n_teeth = int(np.sum(np.diff(above.astype(int)) == 1))
        assert n_teeth == 21

    def test_peak_depth_is_double_pass(self):
        comb = build_comb(DEFAULT_COMB)
        assert comb.depth.max() == pytest.approx(5.2, abs=1e-12)

    def test_background_adds_pedestal(self):
        comb = build_comb(CombConfig(background_depth=0.3))
        assert comb.depth.min() == pytest.approx(0.3, abs=1e-6)

    def test_invalid_configs(self):
        with pytest.raises(InvalidArgumentError):
            CombConfig(finesse=0.5)
        with pytest.raises(InvalidArgumentError):
            CombConfig(width_hz=250e3)  # fewer than 3 teeth
        with pytest.raises(InvalidArgumentError):
            CombConfig(optical_depth=0.0)
        with pytest.raises(InvalidArgumentError):
            CombConfig(passes=3)
        with pytest.raises(InvalidArgumentError):
            CombConfig(width_hz=math.inf)

    def test_tooth_width_has_a_floor(self):
        # a tooth FWHM that underflows to 0 divided by zero in the grid size
        assert CombConfig(periodicity_hz=4e-3, width_hz=0.012).tooth_fwhm_hz == MIN_TOOTH_FWHM_HZ
        for kwargs in ({"periodicity_hz": 5e-324}, {"periodicity_hz": 1e-24, "finesse": 1e300},
                       {"periodicity_hz": 1e-300}, {"finesse": 1e308},
                       {"periodicity_hz": 3.9e-3, "width_hz": 0.012}):
            with pytest.raises(InvalidArgumentError, match="the tooth FWHM"):
                CombConfig(**kwargs)

    def test_grid_size_is_bounded_before_sampling(self):
        # the finesse-40 comb of the echo oracle and the finesse-1000 limit stay allowed
        assert build_comb(DEFAULT_COMB).freq_hz.size == DEFAULT_COMB.grid_points == 2201
        assert CombConfig(finesse=40.0, width_hz=1.55e6).grid_points == 15_701
        assert CombConfig(finesse=1000.0).grid_points == 500_201 <= MAX_COMB_GRID_POINTS
        with pytest.raises(InvalidArgumentError, match="200000201 grid points"):
            CombConfig(periodicity_hz=1.0)
        with pytest.raises(InvalidArgumentError, match="inf grid points"):
            # the size is compared as a float, never int(inf)
            CombConfig(periodicity_hz=4e-3, width_hz=1.7e308)

    def test_build_work_is_bounded_before_sampling(self):
        # teeth x grid points, the exp evaluations build_comb makes
        big = CombConfig(finesse=1000.0)
        assert big.n_teeth * big.grid_points == 21 * 500_201 <= MAX_COMB_BUILD_WORK
        assert build_comb(DEFAULT_COMB).depth.size * DEFAULT_COMB.n_teeth == 2201 * 21
        with pytest.raises(InvalidArgumentError, match="40001 teeth over 1010201 grid points"):
            CombConfig(periodicity_hz=50.0, finesse=1.01)

    @pytest.mark.parametrize("wrap", [np.float32, np.int64, bool, str])
    @pytest.mark.parametrize("field", ["periodicity_hz", "finesse", "width_hz", "optical_depth",
                                       "passes", "background_depth"])
    def test_numbers_are_python_ints_or_floats(self, field, wrap):
        # np.float32(4.0) == 4.0 and hashes alike, but computes in float32:
        # comb_dephasing_factor's cache would return whichever came first
        with pytest.raises(InvalidArgumentError, match=f"{field} must be an int or a float"):
            CombConfig(**{field: wrap(getattr(DEFAULT_COMB, field))})

    def test_float64_scalars_are_floats(self):
        # np.float64 subclasses float and computes in float64
        comb = CombConfig(finesse=np.float64(4.0))
        assert comb_dephasing_factor(comb) == comb_dephasing_factor(CombConfig(finesse=4.0))

    @pytest.mark.parametrize("field", ["optical_depth", "background_depth"])
    def test_depth_is_bounded(self, field):
        # past 700 the sample is opaque and the sampled comb's sums overflow
        assert 0.0 <= afc_efficiency(CombConfig(**{field: 700.0})) <= 1.0
        for depth in (700.5, 1e308):
            with pytest.raises(InvalidArgumentError, match=field):
                CombConfig(**{field: depth})


class TestEcho:
    def test_amplitude_at_zero_is_one(self):
        comb = build_comb(DEFAULT_COMB)
        assert abs(afc_echo_amplitude(comb, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_sharp_tooth_limit_recovers_full_echo(self):
        comb = build_comb(CombConfig(finesse=1000.0))
        delay = comb.config.afc_delay_s
        assert abs(afc_echo_amplitude(comb, delay)) > 0.999

    @pytest.mark.parametrize("finesse", [2.0, 5.0, 10.0, 40.0])
    def test_echo_peaks_at_afc_delay(self, finesse):
        comb = build_comb(CombConfig(finesse=finesse))
        t_peak, amp = find_echo_peak(comb)
        grid_step = (1.7 - 0.3) * comb.config.afc_delay_s / 800
        assert abs(t_peak - comb.config.afc_delay_s) <= grid_step
        assert amp > 0.0

    def test_true_peak_displacement_is_bounded_at_low_finesse(self):
        # at finesse 2 the baseline lobe shifts the continuous peak slightly;
        # characterize it: under 0.2% of the delay on a fine grid
        comb = build_comb(CombConfig(finesse=2.0))
        delay = comb.config.afc_delay_s
        times = np.linspace(0.3 * delay, 1.7 * delay, 10001)
        t_peak = times[np.argmax(echo_trace(comb, times))]
        assert abs(t_peak - comb.config.afc_delay_s) < 2e-3 * comb.config.afc_delay_s

    def test_finesse_10_dephasing_factor(self):
        factor = comb_dephasing_factor(CombConfig(finesse=10.0))
        assert abs(factor - math.exp(-7.0 / 100.0)) / factor < 0.05
        assert factor == pytest.approx(tooth_dephasing_oracle(10.0), rel=1e-3)

    @pytest.mark.parametrize("finesse", [5.0, 10.0, 20.0])
    def test_dephasing_matches_quadrature_oracle(self, finesse):
        assert comb_dephasing_factor(CombConfig(finesse=finesse)) == pytest.approx(
            tooth_dephasing_oracle(finesse), rel=5e-3)

    def test_negative_time_rejected(self):
        comb = build_comb(DEFAULT_COMB)
        with pytest.raises(InvalidArgumentError):
            afc_echo_amplitude(comb, -1e-6)


EPS = 2.0 ** -53  # float64 unit roundoff


def closed_form_tolerance(comb, t_max: float) -> float:
    """Absolute error budget of echo_trace against the sampled DFT, t <= t_max.

    - Dropped by the closed form: alias images, each at most
      exp(-pi^2 (1/df - t)^2 / c), below e^-1900 for t <= 2/delta at 25 grid
      points per FWHM; and the tails past the grid edge, 4 FWHM beyond the
      outermost tooth, at most 2^-64 of a tooth.  Both are negligible.
    - Phase rounding, in both routes: each phase 2 pi f t is off by up to
      u |2 pi f t| <= u 2 pi t f_max, so each route moves by at most that.
    - Oracle summation: afc_echo_amplitude adds m products in BLAS order and
      divides by numpy's pairwise sum.  Its rounding grows like sqrt(m) u;
      lambda sqrt(m) u with lambda = 7 is Higham and Mary's probabilistic
      bound at a failure probability below 1e-6 per sum.
    - A few ulp from exp, cos, sin and the divisions: 16 u.
    """
    f_max = comb.freq_hz[-1]
    m = comb.freq_hz.size
    return EPS * (2.0 * 2.0 * math.pi * t_max * f_max + 7.0 * math.sqrt(m) + 16.0)


class TestEchoTraceClosedForm:
    @pytest.mark.parametrize("background", [0.0, 0.3])
    @pytest.mark.parametrize("width", [2e6, 1.55e6])
    @pytest.mark.parametrize("finesse", [1.2, 2.0, 4.0, 10.0, 40.0])
    def test_matches_sampled_dft(self, finesse, width, background):
        comb = build_comb(CombConfig(finesse=finesse, width_hz=width,
                                     background_depth=background))
        delay = comb.config.afc_delay_s
        times = np.concatenate([np.linspace(0.0, 2.0 * delay, 161), [0.0, delay, 2.0 * delay]])
        oracle = np.array([abs(afc_echo_amplitude(comb, t)) for t in times])
        trace = echo_trace(comb, times)
        assert np.abs(trace - oracle).max() <= closed_form_tolerance(comb, 2.0 * delay)
        # N(0) = (S - b m) + b m = S: exact up to a few roundings, unlike the oracle
        assert trace[0] == pytest.approx(1.0, abs=4 * EPS)

    @pytest.mark.parametrize("background", [0.0, 0.3])
    @pytest.mark.parametrize("width", [2e6, 1.55e6, 1.9e6])
    @pytest.mark.parametrize("finesse", [1.2, 2.0, 4.0, 7.03, 10.0, 40.0])
    def test_dephasing_factor_matches_sampled_dft(self, finesse, width, background):
        # the factor is the trace's closed form at 1/delta on a comb it never
        # samples, so the trace's budget holds, plus the depth total it computes
        # instead of summing: a sum of n_teeth Gaussians at the sampled maximum,
        # a square root, products and divisions (n_teeth + 16 ulp), which moves
        # the amplitude by at most twice that.  Width 1.9 MHz at finesse 7.03
        # puts the maximum off the centre tooth (an even grid size).
        cfg = CombConfig(finesse=finesse, width_hz=width, background_depth=background)
        comb = build_comb(cfg)
        oracle = abs(afc_echo_amplitude(comb, cfg.afc_delay_s))
        tolerance = (closed_form_tolerance(comb, cfg.afc_delay_s)
                     + 2.0 * EPS * (cfg.n_teeth + 16.0))
        assert abs(math.sqrt(comb_dephasing_factor(cfg)) - oracle) <= tolerance

    def test_times_past_alias_half_period_rejected(self):
        comb = build_comb(DEFAULT_COMB)
        step = comb.freq_hz[1] - comb.freq_hz[0]
        assert echo_trace(comb, np.array([0.49 / step])).shape == (1,)
        with pytest.raises(InvalidArgumentError):
            echo_trace(comb, np.array([0.0, 0.51 / step]))


def chain(model, t_s, kind="xy4", pulse=None, seed=0):
    """memory_efficiency on the default comb and the 27 kHz Gaussian line."""
    return memory_efficiency(model, DEFAULT_COMB, GAUSS27, kind, t_s, pulse=pulse, seed=seed)


class TestMemoryEfficiency:
    def test_zero_conversion_gives_zero(self):
        model = MemoryModel(conversion_efficiency=0.0)
        assert chain(model, 0.5e-3) == 0.0

    def test_no_sequence_uses_envelope(self):
        model = MemoryModel(conversion_efficiency=0.5)
        t_s = 11e-6
        expected = (afc_efficiency(DEFAULT_COMB) * 0.25
                    * dephasing_envelope(GAUSS27, t_s) ** 2)
        assert chain(model, t_s, kind=None) == pytest.approx(expected, rel=1e-12)

    def test_scales_with_conversion_squared(self):
        lo = chain(MemoryModel(conversion_efficiency=0.25), 0.5e-3)
        hi = chain(MemoryModel(conversion_efficiency=0.5), 0.5e-3)
        assert hi == pytest.approx(4.0 * lo, rel=1e-12)

    def test_decay_factor_past_float_range_is_zero(self):
        model = MemoryModel(spin_decay_tau_s=1e-3, spin_decay_exponent=1e308)
        assert model.decay_factor(2e-3) == 0.0  # (t/tau)^exponent overflows
        assert model.decay_factor(0.5e-3) == 1.0

    def test_monotone_in_storage_time_with_decay(self):
        model = MemoryModel(spin_decay_tau_s=0.9e-3, spin_decay_exponent=1.5)
        etas = [chain(model, t) for t in np.linspace(0.1e-3, 2e-3, 8)]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_readout_loss_scales_linearly(self):
        base = chain(MemoryModel(), 0.5e-3)
        lossy = chain(MemoryModel(readout_loss=0.25), 0.5e-3)
        assert lossy == pytest.approx(0.75 * base, rel=1e-12)

    def test_pulse_errors_reduce_efficiency(self):
        model = MemoryModel()
        ideal = chain(model, 0.5e-3)
        erred = chain(model, 0.5e-3, pulse=PulseSpec(systematic_error=0.05))
        assert erred < ideal


def _eta_scale(model: MemoryModel = MemoryModel()) -> float:
    """The chain's factors before the spin amplitude, for the default comb."""
    return afc_efficiency(DEFAULT_COMB) * model.conversion_efficiency ** 2


class TestRephasingMemo:
    """memory_efficiency's per-process memo of jitter-free rephasing fidelities."""

    def test_jittered_pulse_follows_its_seed(self):
        # a jittered pulse skips the memo: each seed draws its own jitter
        pulse = PulseSpec(systematic_error=0.01, jitter_sd=0.02)
        seq = build_sequence("xy4", 0.5e-3, pulse)
        det, w = grid_ensemble(GAUSS27, 4096)
        afc._jitter_free_amplitude.cache_clear()
        etas = [chain(MemoryModel(), 0.5e-3, pulse=pulse, seed=seed) for seed in (1, 2)]
        assert etas[0] != etas[1]
        assert etas == [_eta_scale() * rephasing_fidelity(seq, det, w, seed=seed) ** 2
                        for seed in (1, 2)]
        assert afc._jitter_free_amplitude.cache_info().currsize == 0

    @pytest.mark.parametrize("field", ["t_s", "fwhm_hz"])
    def test_float32_gives_the_same_bits_on_a_hit_and_a_miss(self, field):
        # np.float32 hashes equal to its Python float but computes at its own
        # precision; the memo keys and computes on the Python float
        value = np.float32(0.7e-3 if field == "t_s" else 27.1e3)

        def eta(v):
            t_s, fwhm = (v, 27e3) if field == "t_s" else (0.5e-3, v)
            return memory_efficiency(MemoryModel(), DEFAULT_COMB,
                                     DetuningDistribution("gaussian", fwhm), "xy4", t_s,
                                     pulse=PulseSpec(systematic_error=0.01))

        afc._jitter_free_amplitude.cache_clear()
        miss = eta(value)
        assert eta(value) == miss
        afc._jitter_free_amplitude.cache_clear()
        assert eta(float(value)) == miss  # the Python float's miss
        assert eta(value) == miss  # the float32 hit on that entry

    def test_neither_n_spins_nor_seed_changes_the_value(self):
        pulse = PulseSpec(systematic_error=0.01)
        det, w = grid_ensemble(GAUSS27, 4096)
        expected = _eta_scale() * rephasing_fidelity(build_sequence("xy4", 0.5e-3, pulse),
                                                     det, w) ** 2
        lines_and_seeds = [(EnsembleSection("gaussian", 27e3, n_spins), seed)
                           for n_spins in (1, 10_000) for seed in (0, 7)]
        for line, seed in lines_and_seeds:
            afc._jitter_free_amplitude.cache_clear()
            assert memory_efficiency(MemoryModel(), DEFAULT_COMB, line, "xy4", 0.5e-3,
                                     pulse, seed) == expected
        for line, seed in lines_and_seeds:  # one entry serves them all
            memory_efficiency(MemoryModel(), DEFAULT_COMB, line, "xy4", 0.5e-3, pulse, seed)
        info = afc._jitter_free_amplitude.cache_info()
        assert (info.currsize, info.hits) == (1, len(lines_and_seeds))

    def test_memo_is_bounded(self):
        memo = afc._jitter_free_amplitude
        assert memo.cache_info().maxsize == afc._FIDELITY_MEMO_SIZE
        memo.cache_clear()
        for i in range(afc._FIDELITY_MEMO_SIZE + 2):
            chain(MemoryModel(), 1e-3 + i * 1e-9, kind="xx")
        info = memo.cache_info()
        assert (info.currsize, info.misses) == (afc._FIDELITY_MEMO_SIZE,
                                                afc._FIDELITY_MEMO_SIZE + 2)


class TestSpinwaveExcitation:
    def test_half_conversion(self):
        model = MemoryModel(write_stage=0.5)
        assert spinwave_excitation(2.0, model) == pytest.approx(1.0)
        assert spinwave_excitation(0.0, model) == 0.0
        assert spinwave_excitation(1.1, model) == pytest.approx(0.55)

    def test_linearity(self):
        model = MemoryModel(write_stage=0.37)
        for mu in (0.1, 1.0, 3.7):
            assert spinwave_excitation(mu, model) == pytest.approx(mu * 0.37, rel=1e-12)

    def test_negative_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            spinwave_excitation(-1.0, MemoryModel())


class TestTimeline:
    def test_single_mode_total(self):
        tl = memory_timeline(ModesConfig(1, 1.5e-6), 100e3, 0.5e-3)
        assert tl.afc_delay_s == 1e-5
        assert tl.total_s == tl.afc_delay_s + tl.t_s_s
        assert tl.total_s == pytest.approx(510e-6)

    def test_five_modes_fit_default_window(self):
        tl = memory_timeline(ModesConfig(5, 1.5e-6), 100e3, 0.5e-3)
        assert len(tl.mode_slots) == 5
        for t_in, t_out in tl.mode_slots:
            assert t_out == t_in + tl.total_s  # exact float identity

    def test_sixth_mode_overflows(self):
        with pytest.raises(CapacityError) as exc:
            memory_timeline(ModesConfig(6, 1.5e-6), 100e3, 0.5e-3)
        assert "usable input window" in str(exc.value)

    def test_oversized_single_mode(self):
        with pytest.raises(CapacityError):
            memory_timeline(ModesConfig(1, 9e-6), 100e3, 0.5e-3)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            memory_timeline(ModesConfig(1, 1e-6), 0.0, 1e-3)
        with pytest.raises(InvalidArgumentError):
            memory_timeline(ModesConfig(0, 1e-6), 100e3, 1e-3)
        with pytest.raises(InvalidArgumentError):
            memory_timeline(ModesConfig(1, 1e-6, dead_time_fraction=1.0), 100e3, 1e-3)
