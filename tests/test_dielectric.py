import collections
import math
import random
import warnings

import numpy as np
import pytest

from casfric import dielectric as dl
from casfric.errors import DeltaLineError, DomainError, UnsupportedModelError
from casfric.quadrature import QuadratureSpec, integrate_semi_infinite

GOLD = dl.Drude(plasma_energy_ev=9.0, damping_ev=0.035)
EP = math.sqrt(0.5) * 9.0  # surface resonance energy, e_p = 6.3640 eV
EP2 = 40.5
PLASMA = dl.Drude(plasma_energy_ev=9.0, damping_ev=0.0)  # collisionless


class TestReflectionAndDenseAlpha:
    def test_vacuum_zero(self):
        assert dl.dense_alpha(dl.Vacuum(), 1.0) == 0.0

    def test_conductor_limit(self):
        assert dl.dense_alpha(GOLD, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert dl.dense_alpha(PLASMA, 1e-9) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 1e200,
                                   [1.0, 1.35e154]])
    def test_k_outside_the_float_range_raises(self, k):
        # K**2 must be finite: such K would give nan with RuntimeWarnings
        for model in (GOLD, TABLE):
            with pytest.raises(DomainError, match=r"finite K with K\*\*2 in "
                               r"the float range \(\|K\| <= 1\.34078e\+154"):
                dl.dense_alpha(model, k)
        assert dl.dense_alpha(GOLD, 0.0) == 1.0

    def test_drude_closed_form(self):
        # e_p^2/(K^2 + e_p^2 + sigma K) by hand at K = 1
        assert dl.dense_alpha(GOLD, 1.0) == pytest.approx(
            40.5 / (1.0 + 40.5 + 0.035), rel=1e-14)

    def test_plasma_oscillator_form(self):
        # plasma response equals a single oscillator at the surface
        # resonance: A = e_p^2/(K^2 + e_p^2)
        for k in (0.1, 1.0, 7.0):
            assert dl.dense_alpha(PLASMA, k) == pytest.approx(
                EP2 / (k * k + EP2), rel=1e-14)

    def test_matches_eps_route(self):
        for m in (0.2, 1.0, 6.0):
            eps = dl.eps_retarded(GOLD, m)
            assert dl.dense_alpha_retarded(GOLD, m) == pytest.approx(
                (eps - 1.0) / (eps + 1.0), rel=1e-12)

    def test_drude_zero_damping_equals_plasma(self):
        # A from the collisionless permittivity eps = 1 + (hbar*omega_p/K)**2
        for k in (0.3, 1.0, 5.0, 40.0):
            eps = 1.0 + (9.0 / k) ** 2
            assert dl.dense_alpha(PLASMA, k) == pytest.approx(
                (eps - 1.0) / (eps + 1.0), rel=1e-14)
        assert dl.dense_alpha(PLASMA, 1.0) == pytest.approx(EP2 / 41.5,
                                                            rel=1e-14)

    def test_even_in_k(self):
        rng = np.random.default_rng(5)
        for k in rng.uniform(0.01, 30.0, 50):
            for model in (GOLD, PLASMA, dl.Vacuum()):
                assert dl.dense_alpha(model, k) == dl.dense_alpha(model, -k)

    def test_drude_to_plasma_continuity(self):
        # pointwise convergence, error linear in the damping
        for k in (0.5, 2.0, 11.0):
            vals = [dl.dense_alpha(dl.Drude(9.0, damp), k)
                    for damp in (1e-2, 1e-4, 1e-6)]
            target = dl.dense_alpha(PLASMA, k)
            errs = [abs(v - target) / target for v in vals]
            assert errs[2] < errs[1] < errs[0]
            assert errs[1] == pytest.approx(1e-2 * errs[0], rel=0.05)
            assert errs[2] < 5e-6


class TestRetarded:
    def test_vacuum(self):
        assert dl.eps_retarded(dl.Vacuum(), 2.0) == 1.0 + 0.0j

    def test_imag_sign_convention(self):
        for m in (0.1, 1.0, EP, 20.0):
            assert dl.eps_retarded(GOLD, m).imag <= 0.0

    def test_plasma_surface_pole(self):
        eps = dl.eps_retarded(PLASMA, EP, gamma=1e-10)
        assert eps == pytest.approx(-1.0 + 0.0j, abs=1e-8)

    def test_drude_peak_against_closed_spectrum(self):
        # |Im A| extracted at finite gamma converges to pi * closed-form
        # spectral density as gamma -> 0
        sd = dl.spectral_density(GOLD)
        m = EP
        vals = []
        for gamma in (1e-5 * EP, 1e-6 * EP):
            a = dl.dense_alpha_retarded(GOLD, m, gamma)
            vals.append(-a.imag / math.pi)
        extrap = (10.0 * vals[1] - vals[0]) / 9.0
        assert extrap == pytest.approx(float(sd.value(m)), rel=1e-6)

    def test_gamma_zero_closed_form(self):
        a = dl.dense_alpha_retarded(GOLD, 1.0, 0.0)
        assert a == pytest.approx(40.5 / (40.5 - 1.0 + 0.035j), rel=1e-14)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(DomainError):
            dl.eps_retarded(GOLD, 0.0)


class TestSpectralDensity:
    def test_drude_peak_value(self):
        sd = dl.spectral_density(GOLD)
        assert float(sd.value(EP)) == pytest.approx(EP / (math.pi * 0.035),
                                                    rel=1e-12)

    def test_small_m_linear(self):
        sd = dl.spectral_density(GOLD)
        slope = 0.035 / (math.pi * EP2)
        for m in (1e-6, 1e-4):
            assert float(sd.value(m)) == pytest.approx(slope * m, rel=1e-6)

    def test_zero_at_origin(self):
        for model in (GOLD, dl.Vacuum()):
            sd = dl.spectral_density(model)
            assert float(sd.value(0.0)) == 0.0

    @pytest.mark.parametrize("m", [1e76, 1.2e77, 1e100])
    def test_drude_far_tail_against_mpmath(self, m):
        # past m ~ 1.2e77 eV the denominator overflows; the value does not
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            mm, ep2, sigma = mpmath.mpf(m), mpmath.mpf(EP2), mpmath.mpf(0.035)
            ref = ep2 / mpmath.pi * sigma * mm / ((ep2 - mm * mm) ** 2
                                                 + (sigma * mm) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dl.drude_spectral_value(GOLD, m)
            grid = dl.drude_spectral_value(GOLD, np.array([EP, m]))
        assert abs(got - ref) <= 1e-14 * ref
        assert grid.tolist() == [float(dl.drude_spectral_value(GOLD, EP)), got]

    @pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
    def test_drude_value_on_a_2d_grid(self, far):
        # a meshgrid of m gives the values of the same points passed flat
        m = np.array([[0.0, 1e-3, EP], [3.0, 40.0, 1e77 if far else 1e3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = dl.drude_spectral_value(GOLD, m)
            flat = dl.drude_spectral_value(GOLD, m.ravel())
        assert grid.shape == m.shape
        assert grid.ravel().tolist() == flat.tolist()

    def test_plasma_is_delta_line(self):
        # the whole strength is one line at e_p, named in the error
        with pytest.raises(DeltaLineError, match=r"^Drude\(plasma_energy_ev="
                           r"9\.0, damping_ev=0\.0\) .* line at 6\.36396 eV"):
            dl.spectral_density(PLASMA)

    def test_drude_zero_damping_is_line(self):
        # the line sits at e_p = hbar*omega_p/sqrt(2) whatever omega_p is
        with pytest.raises(DeltaLineError, match=r"line at 2\.12132 eV"):
            dl.spectral_density(dl.Drude(3.0, 0.0))

    def test_sum_rule(self):
        # integral of value(m)/m^2 over d(m^2) equals the static response
        sd = dl.spectral_density(GOLD)

        def integrand(m):
            m = np.asarray(m, dtype=float)
            return 2.0 * sd.value(m) / np.maximum(m, 1e-300)

        res = integrate_semi_infinite(integrand, decay_scale=EP,
                                      spec=QuadratureSpec(1e-12, 1e-10),
                                      split_points=[EP])
        assert res.converged
        assert res.value == pytest.approx(dl.dense_alpha(GOLD, 0.0), rel=1e-6)

    def test_spectral_reconstruction(self):
        # A(K) = integral of value(m) * 2m / (K^2 + m^2) dm at several K
        sd = dl.spectral_density(GOLD)
        for k in (0.1 * EP, EP, 10.0 * EP):
            def integrand(m, _k=k):
                m = np.asarray(m, dtype=float)
                return sd.value(m) * 2.0 * m / (_k * _k + m * m)

            res = integrate_semi_infinite(integrand, decay_scale=EP,
                                          spec=QuadratureSpec(1e-12, 1e-10),
                                          split_points=[EP])
            assert res.value == pytest.approx(dl.dense_alpha(GOLD, k), rel=1e-7)

    def test_surface_plasmon_frequency(self):
        assert dl.surface_plasmon_frequency(PLASMA) == pytest.approx(
            6.364, abs=5e-4)
        assert dl.surface_plasmon_frequency(dl.Drude(math.sqrt(2.0), 0.0)) \
            == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(UnsupportedModelError, match="undamped Drude"):
            dl.surface_plasmon_frequency(GOLD)
        with pytest.raises(DomainError):
            dl.Drude(0.0, 0.0)


class TestTabulated:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# test table\n0.5 0.1\n1.0, 0.3\n2.0 0.2\n")
        model = dl.load_tabulated(path)
        assert list(model.m_ev) == [0.5, 1.0, 2.0]
        sd = dl.spectral_density(model)
        assert float(sd.value(1.0)) == 0.3
        assert float(sd.value(0.75)) == pytest.approx(0.2)
        assert float(sd.value(3.0)) == 0.0  # zero beyond the table
        assert sd.support_max == 2.0
        assert sd.peak_hint == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            dl.Tabulated(np.array([1.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(DomainError):
            dl.Tabulated(np.array([1.0, 2.0]), np.array([-0.1, 0.2]))
        with pytest.raises(DomainError):
            dl.Tabulated(np.array([0.0, 1.0]), np.array([0.5, 0.2]))

    def test_reconstruction_matches_drude(self):
        # table sampled from the closed-form spectrum must reproduce the
        # closed-form response on both axes
        m = np.linspace(1e-4, 400.0, 60000)
        sd = dl.spectral_density(GOLD)
        tab = dl.Tabulated(m, sd.value(m))
        for k in (0.5, 3.0, 12.0):
            assert dl.dense_alpha(tab, k) == pytest.approx(
                dl.dense_alpha(GOLD, k), rel=2e-5)
        a_tab = dl.dense_alpha_retarded(tab, 2.0, 1e-4)
        a_ref = dl.dense_alpha_retarded(GOLD, 2.0, 1e-4)
        assert a_tab.real == pytest.approx(a_ref.real, rel=1e-4)
        assert a_tab.imag == pytest.approx(a_ref.imag, rel=1e-3)

    def test_eps_from_table(self):
        m = np.linspace(1e-4, 400.0, 60000)
        tab = dl.Tabulated(m, dl.spectral_density(GOLD).value(m))
        assert dl.eps_retarded(tab, 2.0, 1e-4) == pytest.approx(
            dl.eps_retarded(GOLD, 2.0, 1e-4), rel=2e-4)

    @pytest.mark.parametrize("m, v", [
        ([0.0, 1.0, np.inf], [0.0, 0.1, 0.2]),
        ([0.0, 1.0, 2.0], [0.0, np.nan, 0.2]),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 0.2])])
    def test_non_finite_entries_rejected(self, m, v):
        with pytest.raises(DomainError, match="finite"):
            dl.Tabulated(np.array(m), np.array(v))

    @pytest.mark.parametrize("row", ["1.0 abc", "nan 0.1", "1.5 inf"])
    def test_bad_number_names_the_line(self, tmp_path, row):
        path = tmp_path / "table.txt"
        path.write_text(f"0.5 0.1\n{row}\n2.0 0.2\n")
        with pytest.raises(DomainError, match=f"table.txt:2: expected two "
                                              "finite numbers"):
            dl.load_tabulated(path)

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("\ufeff# m value\n0.5 0.1\n1.0, 0.3\n",
                        encoding="utf-8")
        model = dl.load_tabulated(path)
        assert list(model.m_ev) == [0.5, 1.0]
        assert list(model.values) == [0.1, 0.3]

    def test_first_fault_in_file_order(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("0.0 0.0\n0.5 0.1\n1.0 nan\n1.5 0.2\n2.0 0.2\n"
                        "2.5 0.1\n3.0 0.1 7\n")
        with pytest.raises(DomainError) as err:
            dl.load_tabulated(path)
        assert str(err.value) == (f"{path}:3: expected two finite numbers, "
                                  "got '1.0 nan\\n'")

    def test_bad_last_line_without_newline(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("0.0 0.0\r\n1.0 0.1\r\n2.0 abc")
        with pytest.raises(DomainError) as err:
            dl.load_tabulated(path)
        assert str(err.value) == (f"{path}:3: expected two finite numbers, "
                                  "got '2.0 abc'")

    @pytest.mark.parametrize("text", ["", "# m value\n\n   # none\n"],
                             ids=["empty", "comments-only"])
    def test_no_data_is_a_table_error(self, tmp_path, text):
        path = tmp_path / "table.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                dl.load_tabulated(path)
        assert str(err.value) == (f"{path}: tabulated model needs two "
                                  "same-length 1-D columns with at least 2 "
                                  "samples")

    def test_well_formed_table_skips_the_row_loop(self, tmp_path, monkeypatch):
        def refuse(path, lines):
            raise AssertionError("row loop entered")

        m = np.linspace(0.0, 4.0, 50)
        v = 0.1 * m * np.exp(-m)
        path = tmp_path / "table.txt"
        path.write_text("# m_eV, value\n" + "".join(
            f"{a:.17g}, {b:.17g}  # row {i}\n" for i, (a, b) in
            enumerate(zip(m, v))))
        monkeypatch.setattr(dl, "_read_rows", refuse)
        model = dl.load_tabulated(path)
        assert model.m_ev.tobytes() == m.tobytes()
        assert model.values.tobytes() == v.tobytes()

    def test_generated_files_match_the_rowwise_reader(self, tmp_path,
                                                      monkeypatch):
        entered = []
        read_rows = dl._read_rows

        def spy(path, lines):
            entered.append(path)
            return read_rows(path, lines)

        monkeypatch.setattr(dl, "_read_rows", spy)
        rng = random.Random(20)
        outcomes = collections.Counter()
        for i in range(800):
            data, malformed = generated_table(rng)
            path = tmp_path / f"t{i}.txt"
            path.write_bytes(data)
            try:
                expected = rowwise_load_tabulated(path)
            except DomainError as exc:
                with pytest.raises(DomainError) as err:
                    dl.load_tabulated(path)
                assert str(err.value) == str(exc), data
                outcomes["error", malformed] += 1
            else:
                got = dl.load_tabulated(path)
                assert got.m_ev.dtype == got.values.dtype == np.float64
                assert got.m_ev.tobytes() == expected.m_ev.tobytes(), data
                assert got.values.tobytes() == expected.values.tobytes(), data
                outcomes["loaded", malformed] += 1
            assert (entered[-1:] == [path]) == malformed, data
        # tables and errors, each by both paths
        assert min(outcomes.values()) >= 50 and len(outcomes) == 4


def rowwise_load_tabulated(path) -> dl.Tabulated:
    """Oracle of ``load_tabulated``: the row-by-row reader it replaced,
    one float() per field; the file read as UTF-8 without a byte-order
    mark."""
    ms, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected two columns, got {raw!r}")
            try:
                m, v = float(parts[0]), float(parts[1])
            except ValueError:
                m = v = math.nan
            if not (math.isfinite(m) and math.isfinite(v)):
                raise DomainError(f"{path}:{lineno}: expected two finite numbers, "
                                  f"got {raw!r}")
            ms.append(m)
            vs.append(v)
    try:
        return dl.Tabulated(np.array(ms), np.array(vs))
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


_SEPARATORS = (" ", "\t", ",", ", ", "\xa0", "\f")
_OTHER_DIGITS = ("\u0660", "\uff10")    # Arabic-Indic and fullwidth zeros
_JUNK = ("nan", "NaN", "inf", "-inf", "Infinity", "1e400", "abc", "1e", "--1",
         "0x10", "1.2.3", "\"1\"", "1\x002", "1j", ".")


def _written(rng, x) -> tuple:
    """x >= 0 in one of the forms float() reads, and whether numpy's
    parser refuses it: 1_000 and non-ASCII digits, each drawn for about
    one number in 40."""
    draw = rng.random()
    if draw < 0.025:
        token = f"{round(x):_}"
        return token, "_" in token
    if draw < 0.05:
        zero = ord(rng.choice(_OTHER_DIGITS))
        return "".join(chr(zero + int(c)) if c.isdigit() else c
                       for c in f"{x:.6g}"), True
    form = rng.randrange(6)
    if form == 0:
        return f"{x:.6g}", False
    if form == 1:
        return str(round(x)), False
    if form == 2:
        return f"+{x:.4f}".replace("+0.", "+."), False
    if form == 3:
        return f"{round(x)}.", False
    if form == 4:
        return f"{x:.5{rng.choice('eE')}}", False
    return f"{x:.17g}", False


def generated_table(rng) -> tuple:
    """A seeded table file as bytes, and whether it is malformed for the
    numpy parse: a row of 1 or 3 fields, a number numpy refuses or that
    is not finite, or no data.  Rows of 0-3 fields, separators of space,
    tab, comma, NBSP and form feed, whole-line and trailing comments,
    blank lines, LF, CRLF and CR line ends, and a final newline or not.
    m rises by more than 1 a row, so that rounding keeps it increasing
    and most well-formed files load."""
    lines, malformed, data_rows = [], False, 0
    m = rng.choice([0.0, rng.uniform(1.0, 2.0)])
    for _ in range(rng.randrange(0, 12)):
        kind = rng.random()
        if kind < 0.08:
            lines.append(rng.choice(["", "  ", "\t", "# m_eV, value",
                                     " # 1 2 3", "#"]))
            continue
        fields = 2
        if kind < 0.1:
            fields = rng.choice([1, 3])
        elif kind < 0.12:
            fields = 0
        tokens = []
        for _ in range(fields):
            if rng.random() < 0.01:
                tokens.append(rng.choice(_JUNK))
                malformed = True
            else:
                value = rng.uniform(0.0, 2000.0) if tokens and m else 0.0
                token, refused = _written(rng, value if tokens else m)
                tokens.append(token)
                malformed |= refused
        m += rng.uniform(1.01, 400.0)
        if not fields and rng.random() < 0.3:
            tokens = [",", ", ,"][rng.randrange(2):]    # a row of no columns
            malformed = True
        row = rng.choice(["", " ", "\t"]) + "".join(
            t + rng.choice(_SEPARATORS) for t in tokens[:-1]) + "".join(tokens[-1:])
        if rng.random() < 0.1:
            row += rng.choice([" ", "\t", ""]) + "# note, 1 2"
        lines.append(row)
        if fields:
            data_rows += 1
            malformed |= fields != 2
    malformed |= data_rows == 0
    text = "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text.encode("utf-8"), malformed

# 24 samples from m = 0; the oracle and broadening tests below use it.
_M = np.linspace(0.0, 4.0, 24)
TABLE = dl.Tabulated(_M, 0.1 * _M * np.exp(-((_M - 1.5) / 0.8) ** 2))


# m = 0 and a geometric grid from 0.02 to 4 eV: segments from 0.008 eV wide
# near the bottom to 1.13 eV at the top.
_MG = np.concatenate(([0.0], np.geomspace(0.02, 4.0, 17)))
UNEVEN = dl.Tabulated(_MG, 0.1 * _MG * np.exp(-((_MG - 1.5) / 0.8) ** 2))


# S does not vanish at either end, and neither end is a power of two, so
# that -m**2 rounds beside them.
_ME = np.linspace(0.37, 3.9, 15)
ENDS = dl.Tabulated(_ME, 0.05 + 0.1 * np.exp(-((_ME - 1.5) / 0.8) ** 2))


def _segments(mpmath, table):
    """Each segment of ``table`` in mpmath numbers: m1, m2, S(m1), slope."""
    for m1, m2, v1, v2 in zip(table.m_ev[:-1], table.m_ev[1:],
                              table.values[:-1], table.values[1:]):
        m1, m2, v1, v2 = map(mpmath.mpf, (m1, m2, v1, v2))
        yield m1, m2, v1, (v2 - v1) / (m2 - m1)


def _quad_oracle(mpmath, table, zeta, split=None):
    """Per-segment quadrature of S(m') * 2 m' / (zeta + m'**2), split at
    the near-pole m' = split."""
    total = 0
    with mpmath.workdps(30):
        for m1, m2, v1, b in _segments(mpmath, table):
            pts = [m1] + ([mpmath.mpf(split)] if split is not None
                          and m1 < split < m2 else []) + [m2]
            total += mpmath.quad(lambda x: (v1 + b * (x - m1)) * 2 * x
                                 / (zeta + x * x), pts)
        return complex(total)


def _antiderivative_oracle(mpmath, table, zeta):
    """The segment antiderivative a*log(zeta + m**2) + b*(2m - 2s*atan(m/s))
    differenced at 40 digits, where its cancellation near the nodes costs
    nothing; a fast oracle for many energies."""
    with mpmath.workdps(40):
        s = mpmath.sqrt(zeta)
        at = {}
        for m in table.m_ev:
            m = mpmath.mpf(m)
            at[m] = (mpmath.log(zeta + m * m), 2 * m - 2 * s * mpmath.atan(m / s))
        total = 0
        for m1, m2, v1, b in _segments(mpmath, table):
            total += ((v1 - b * m1) * (at[m2][0] - at[m1][0])
                      + b * (at[m2][1] - at[m1][1]))
        return complex(total)


class TestSurfaceResponse:
    def test_table_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def oracle(zeta, split=None):
            return _quad_oracle(mpmath, TABLE, zeta, split)

        def retarded(m, gamma):
            return mpmath.mpc(-mpmath.mpf(m) ** 2, gamma)

        for k in (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0):
            ref = oracle(mpmath.mpf(k) ** 2).real
            assert abs(dl.dense_alpha(TABLE, k) - ref) <= 1e-12 * abs(ref)
        for gamma in (1e-3, 0.1):
            for m in (0.05, 1.5, 3.99, 4.0, 6.0, 40.0):
                ref = oracle(retarded(m, gamma), split=m)
                got = dl.dense_alpha_retarded(TABLE, m, gamma)
                assert abs(got - ref) <= 1e-12 * abs(ref)
        # Past the top at the default gamma, where Im A comes from gamma
        # alone: a tenth and a half of the last segment beyond it, and
        # 15.9 eV, where Im A must be exact too.
        h = _M[-1] - _M[-2]
        for m in (4.0 + 0.1 * h, 4.0 + 0.5 * h, 15.9):
            ref = oracle(retarded(m, 4e-6))
            got = dl.dense_alpha_retarded(TABLE, m)
            assert abs(got - ref) <= 1e-12 * abs(ref)
        assert abs(got.imag - ref.imag) <= 1e-12 * abs(ref.imag)
        # On and 1e-9 beside every interior node at the default gamma,
        # where zeta + m**2 cancels, also on a geometric grid; the fast
        # oracle is checked against the quadrature first.
        for table, m in ((TABLE, _M[5]), (UNEVEN, _MG[5] * (1 + 1e-9))):
            zeta = retarded(m, dl.default_gamma(table))
            ref = _quad_oracle(mpmath, table, zeta, split=m)
            assert abs(_antiderivative_oracle(mpmath, table, zeta) - ref) \
                <= 1e-15 * abs(ref)
        for table in (TABLE, UNEVEN):
            gamma = dl.default_gamma(table)
            nodes = table.m_ev[1:-1]
            m = np.concatenate((nodes, nodes * (1 + 1e-9), nodes * (1 - 1e-9)))
            for mi, got in zip(m, dl.dense_alpha_retarded(table, m)):
                ref = _antiderivative_oracle(mpmath, table, retarded(mi, gamma))
                assert abs(got - ref) <= 1e-12 * abs(ref), mi
        # gamma -> 0 at a node: A -> PV integral of S(m') 2m'/(m'**2 - m**2)
        # - i*pi*S(m).  |s - i m|**2 underflows there; A must stay finite.
        with mpmath.workdps(30):
            m0 = mpmath.mpf(_M[5])
            s0 = TABLE.values[5]
            pv = s0 * mpmath.log((mpmath.mpf(_M[-1]) - m0) / m0)
            for m1, m2, v1, b in _segments(mpmath, TABLE):
                pv += mpmath.quad(lambda x: (2 * x * (v1 + b * (x - m1)) / (x + m0)
                                             - s0) / (x - m0), [m1, m2])
            ref = complex(pv) - 1j * math.pi * s0
        for gamma in (1e-300, 1e-200):
            got = dl.dense_alpha_retarded(TABLE, _M[5], gamma)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("model, m, beside", [(GOLD, 6.3, 100.0),
                                                  (TABLE, 1.0, 40.0)])
    def test_value_independent_of_other_energies(self, model, m, beside):
        alone = dl.dense_alpha_retarded(model, m)
        assert dl.dense_alpha_retarded(model, np.array([m, beside]))[0] == alone

    def test_blocks_match_single_points(self):
        # enough energies to span several blocks, near and far from the table
        m = np.linspace(0.01, 20.0, 6000)
        many = dl.dense_alpha_retarded(TABLE, m)
        for i in list(range(0, m.size, 397)) + [m.size - 1]:
            assert many[i] == dl.dense_alpha_retarded(TABLE, m[i])

    def test_no_energies(self):
        for model in (GOLD, TABLE):
            assert dl.dense_alpha_retarded(model, np.array([])).shape == (0,)

    def test_table_needs_positive_gamma(self):
        with pytest.raises(DomainError):
            dl.dense_alpha_retarded(TABLE, 1.0, 0.0)
        with pytest.raises(DomainError):
            dl.eps_retarded(TABLE, 1.0, 0.0)

    @pytest.mark.parametrize("model", [GOLD, PLASMA, TABLE],
                             ids=["drude", "plasma", "table"])
    @pytest.mark.parametrize("m", [math.nan, math.inf, -1.0, 1e200, 1.35e154])
    def test_energy_out_of_range_rejected(self, model, m):
        # these gave nan, or 0 at m = inf, with at most a RuntimeWarning
        for arg in (m, np.array([1.0, m])):
            with pytest.raises(DomainError, match=r"m > 0 with m\*\*2 in the "
                                                  "float range"):
                dl.dense_alpha_retarded(model, arg)
        assert math.isfinite(abs(dl.dense_alpha_retarded(model, 1.34e154)))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1e-3])
    def test_gamma_out_of_range_rejected(self, gamma):
        for model in (GOLD, TABLE):
            with pytest.raises(DomainError, match="gamma must be finite"):
                dl.dense_alpha_retarded(model, 1.0, gamma)

    def test_table_ends_beside_the_pole(self):
        """1-3 ulp from an end where S jumps to 0, at small gamma, y - m_end
        comes from (m - m_end)(m + m_end), not from the rounded
        Re zeta = -m**2 (which moved A by up to 3e-4); the oracle takes
        the exact m**2."""
        mpmath = pytest.importorskip("mpmath")
        for end in (_ME[0], _ME[-1]):
            m = [end]
            for side in (-math.inf, math.inf):
                beside = end
                for _ in range(3):
                    beside = math.nextafter(beside, side)
                    m.append(beside)
            for gamma in (1e-12, 1e-9, 1e-6, 1e-3, 1.0):
                got = dl.dense_alpha_retarded(ENDS, np.array(m), gamma)
                for mi, a in zip(m, got):
                    with mpmath.workdps(40):
                        zeta = mpmath.mpc(-mpmath.mpf(mi) ** 2, gamma)
                    ref = _antiderivative_oracle(mpmath, ENDS, zeta)
                    assert abs(a - ref) <= 1e-12 * abs(ref), (mi, gamma)

    def test_default_gamma_depends_on_model_only(self):
        assert dl.default_gamma(TABLE) == 1e-6 * 4.0
        assert dl.default_gamma(PLASMA) == pytest.approx(1e-6 * EP, rel=1e-15)
        assert dl.default_gamma(GOLD) == 0.0
        assert dl.default_gamma(dl.Vacuum()) == 0.0


def test_medium_spec_density_validation():
    with pytest.raises(DomainError):
        dl.MediumSpec(GOLD, density_per_nm3=0.0)
    with pytest.raises(DomainError):
        dl.MediumSpec(GOLD, density_per_nm3=math.inf)
    assert dl.MediumSpec(GOLD).density_per_nm3 is None


@pytest.mark.parametrize("make", [
    lambda: dl.Drude(math.nan, 0.035), lambda: dl.Drude(math.inf, 0.035),
    lambda: dl.Drude(9.0, math.nan), lambda: dl.Drude(9.0, math.inf),
    lambda: dl.Drude(math.nan, 0.0), lambda: dl.Drude(math.inf, 0.0),
    # past 1e76 eV a spectrum or a closed-form force leaves the float range
    lambda: dl.Drude(1e200, 0.035), lambda: dl.Drude(1.0000000000000002e76, 0.0),
    lambda: dl.Drude(0.5, 1e153), lambda: dl.Drude(9.0, 2e76)])
def test_free_electron_models_reject_non_finite(make):
    with pytest.raises(DomainError, match="finite"):
        make()
