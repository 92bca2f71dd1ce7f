import ast
import gc
import re
import tracemalloc
from dataclasses import MISSING, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from qlvsim import config
from qlvsim.config import parse_config
from qlvsim.constitutive import (ELASTIC_TYPES, ExponentialTensileLaw,
                                 FungUniaxialLaw)
from qlvsim.errors import ConfigError, DomainError
from qlvsim.kernels import KERNEL_TYPES, PronySpectrum
from qlvsim.protocols import SIZE_BUDGET, ProtocolSpec

CONFIGS = Path(__file__).parents[1] / "configs"

MINIMAL = """
model:
  elastic: {kind: exponential, B: 1.0, C: 1.0}
  kernel: {kind: kelvin, E_R: 1.0, tau_eps: 0.5, tau_sigma: 1.5}
protocol:
  kind: relaxation
  hold_strain: 0.1
  duration: 1.0
  dt: 0.1
"""


def errors_of(text, overrides=None):
    with pytest.raises(ConfigError) as exc:
        parse_config(text, overrides)
    return exc.value.errors


class TestParse:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model is not None
        assert cfg.protocol.kind == "relaxation"
        assert cfg.output_precision == 17

    def test_effective_echo_idempotent(self):
        cfg = parse_config(MINIMAL)
        text = cfg.effective_text()
        again = parse_config(text)
        assert again.effective_text() == text

    def test_overrides_set_keys_before_validation(self):
        # only in a section that is a mapping: no network section is made
        cfg = parse_config(MINIMAL, {"protocol": {"dt": 0.5},
                                     "network": {"dt": 0.5}})
        assert cfg.protocol.dt == 0.5 and cfg.network is None
        assert errors_of(MINIMAL, {"protocol": {"dt": -1.0}}) == \
            ["protocol: dt must be > 0, got -1.0"]

    def test_unknown_top_key(self):
        errs = errors_of(MINIMAL + "\nbogus: 1\n")
        assert any("bogus" in e and "unknown key" in e for e in errs)

    def test_q1_ge_q2_keypath(self):
        text = """
model:
  elastic: {kind: exponential, B: 1.0, C: 1.0}
  kernel: {kind: fung, c: 0.5, q1: 2.0, q2: 1.0}
"""
        errs = errors_of(text)
        assert any(e.startswith("model.kernel") for e in errs)

    def test_both_model_and_network(self):
        text = MINIMAL + """
network:
  masses: [1.0]
  stiffness: [[1.0]]
"""
        errs = errors_of(text)
        assert any("exactly one" in e for e in errs)

    def test_neither_specimen(self):
        errs = errors_of("protocol: {kind: creep, duration: 1, dt: 0.1}")
        assert any("exactly one" in e for e in errs)

    def test_all_errors_collected(self):
        text = """
model:
  elastic: {kind: exponential, B: -1.0, C: 0.0}
  kernel: {kind: maxwell, mu: -2.0, eta: 1.0}
protocol: {kind: tensile, duration: -1.0, dt: 0.1}
"""
        errs = errors_of(text)
        assert len(errs) >= 3

    NETWORK = "network:\n  masses: [1.0]\n  stiffness: [[1.0]]\n"

    # a section that is not a mapping is reported alone, none of its keys
    @pytest.mark.parametrize("text, error", [
        ("network: 5\n", "network: must be a mapping, got int"),
        (NETWORK + "  springs: [5]\n",
         "network.springs[0]: must be a mapping, got int"),
        ("model: 5\n", "model: must be a mapping, got int"),
        ("model:\n  kernel: 5\n  elastic: {kind: linear, k: 1.0}\n",
         "model.kernel: must be a mapping, got int"),
        (MINIMAL.split("protocol:")[0] + "protocol: 5\n",
         "protocol: must be a mapping, got int"),
        (NETWORK + "  force: 5\n",
         "network.force: must be a mapping, got int")],
        ids=["network", "spring", "model", "kernel", "protocol", "force"])
    def test_section_that_is_not_a_mapping(self, text, error):
        assert errors_of(text) == [error]

    def test_invalid_yaml(self):
        errs = errors_of("model: [unclosed")
        assert any("invalid YAML" in e for e in errs)

    def test_empty(self):
        errs = errors_of("")
        assert errs == ["empty config"]


class TestConstructorInvariantsReachable:
    """Every module-constructor invariant surfaces as a config message."""

    BAD_CONFIGS = [
        # (snippet, expected key-path fragment)
        ("model:\n  elastic: {kind: exponential, B: 0.0, C: 1.0}\n"
         "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}", "model.elastic"),
        ("model:\n  elastic: {kind: linear, k: -1.0}\n"
         "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}", "model.elastic"),
        ("model:\n  elastic: {kind: fung, c: 1.0, a1: 1.0, a2: 1.0, a4: 2.0}\n"
         "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}", "model.elastic"),
        ("model:\n  elastic: {kind: exponential, B: 1.0, C: 1.0}\n"
         "  kernel: {kind: kelvin, E_R: 1.0, tau_eps: 2.0, tau_sigma: 1.0}",
         "model.kernel"),
        ("model:\n  elastic: {kind: exponential, B: 1.0, C: 1.0}\n"
         "  kernel: {kind: prony, K: 0.0, amplitudes: [1.0, 1.0],"
         " frequencies: [2.0, 1.0]}", "model.kernel"),
        ("model:\n  elastic: {kind: exponential, B: 1.0, C: 1.0}\n"
         "  kernel: {kind: voigt, mu: 1.0, eta: 1.0}", "model.kernel"),
        ("network:\n  masses: [1.0, -1.0]\n"
         "  stiffness: [[1.0, 0.0], [0.0, 1.0]]", "network"),
        ("network:\n  masses: [1.0, 1.0]\n"
         "  stiffness: [[1.0, 0.5], [0.0, 1.0]]", "network"),
        ("network:\n  masses: [1.0]\n  stiffness: [[2.0]]\n"
         "  kernels:\n    - {i: 0, j: 0, K: 1.0, amplitudes: [0.5],"
         " frequencies: [1.0]}", "network"),
        ("network:\n  masses: [1.0]\n  stiffness: [[2.0]]\n"
         "  kernels:\n    - {i: 0, j: 3, K: 2.0, amplitudes: [0.5],"
         " frequencies: [1.0]}", "network.kernels[0].j"),
        ("model:\n  elastic: {kind: exponential, B: 1.0, C: 1.0}\n"
         "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}\n"
         "protocol: {kind: cyclic, amplitude: 0.1, mean: -0.2,"
         " angular_frequency: 1.0, cycles: 3}", "protocol"),
        ("model:\n  elastic: {kind: exponential, B: 1.0, C: 1.0}\n"
         "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}\n"
         "sweep: {start: 1.0, stop: 0.1, count: 5}", "sweep"),
        ("model:\n  elastic: {kind: exponential, B: 1.0, C: 1.0}\n"
         "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}\n"
         "output: {stride: 0}", "output.stride"),
    ]

    @pytest.mark.parametrize("snippet,fragment", BAD_CONFIGS)
    def test_bad_config_reports_keypath(self, snippet, fragment):
        errs = errors_of(snippet)
        assert any(fragment in e for e in errs), errs


class TestNetworkConfig:
    def test_full_network(self):
        text = """
network:
  masses: [1.0, 1.0, 1.0]
  stiffness:
    - [2.0, -1.0, 0.0]
    - [-1.0, 2.0, -1.0]
    - [0.0, -1.0, 1.0]
  kernels:
    - {i: 2, j: 2, K: 1.0, amplitudes: [0.5], frequencies: [2.0]}
  initial:
    q: [0.1, 0.0, 0.0]
    v: [0.0, 0.0, 0.0]
  force: {kind: sinusoid, amplitudes: [0.0, 0.0, 0.1], angular_frequency: 0.8}
  duration: 10.0
  dt: 0.01
"""
        cfg = parse_config(text)
        assert cfg.network is not None
        assert cfg.network.n == 3
        assert cfg.sim_duration == 10.0
        assert np.allclose(cfg.initial_q, [0.1, 0.0, 0.0])
        f = cfg.network.external_force_at(0.0)
        assert np.allclose(f, 0.0)

    @pytest.mark.parametrize("masses, damping, row", [
        ("[1.0]", "[[-200.0]]", 0),
        ("[1.0, 1.0]", "[[-100.0, -100.0], [-100.0, -100.0]]", 1)],
        ids=["diagonal", "dense"])
    def test_singular_damped_update(self, masses, damping, row):
        # damping with an eigenvalue of -2m/dt, under the stability bound
        net = (f"network:\n  masses: {masses}\n  stiffness: "
               f"{np.eye(len(yaml.safe_load(masses))).tolist()}\n"
               f"  damping: {damping}\n  duration: 1.0\n")
        assert errors_of(net + "  dt: 0.01\n") == [
            f"network.dt: M + dt/2 beta is singular: zero pivot in row "
            f"{row}"]
        # checked at the run's dt; inactive once kernels replace damping
        parse_config(net)
        parse_config(net + "  dt: 0.02\n")
        parse_config(net + "  dt: 0.01\n  kernels: [{i: 0, j: 0, K: 1.0, "
                     "amplitudes: [0.5], frequencies: [1.0]}]\n")

    OVERFLOWING = ("network:\n  masses: [1.0]\n  stiffness: [[0.0]]\n"
                   "  damping: [[{}]]\n  duration: 10.0\n  dt: 10.0\n")

    def test_damped_update_that_overflows(self):
        # damping that large fails the stability bound first
        assert errors_of(self.OVERFLOWING.format("1.0e+308")) == [
            "network.dt: dt = 10.0 violates the explicit stability bound "
            "2/lambda_d = 2e-308"]

    def test_negative_damped_update_that_overflows(self):
        # negative damping leaves the bound alone, and dt/2 beta overflows
        assert errors_of(self.OVERFLOWING.format("-1.0e+308")) == [
            "network.dt: M + dt/2 beta must be finite"]

    @pytest.mark.parametrize("q, error", [
        ("0.0, 700.0", "spring (1, ground) at t = 0: overflow encountered "
         "in scalar multiply"),
        ("0.0, -1.5", "spring (1, ground) at t = 0: stretch must be > 0, "
         "got -0.5")], ids=["overflow", "compressed"])
    def test_initial_state_out_of_a_spring_domain(self, q, error):
        # the run's first force evaluation, whatever numpy's error state
        text = ("network:\n  masses: [1.0, 1.0]\n"
                "  stiffness: [[2.0, -1.0], [-1.0, 1.0]]\n"
                "  springs: [{i: 1, B: 1.0, C: 2.0e+4}]\n"
                f"  initial: {{q: [{q}]}}\n")
        with np.errstate(all="ignore"):
            assert errors_of(text) == [f"network.initial.q: {error}"]

    def test_classical_element_without_elastic(self):
        text = """
model:
  kernel: {kind: kelvin, E_R: 1.0, tau_eps: 0.5, tau_sigma: 1.5}
protocol: {kind: relaxation, hold_strain: 1.0, duration: 1.0, dt: 0.1}
"""
        cfg = parse_config(text)
        assert cfg.model is None
        assert cfg.element is not None


FUNG = "{kind: fung, c: 0.5, q1: 0.01, q2: 100.0"
HUGE = "1" + "0" * 400      # an integer too large for a float


class TestSizeBudget:
    """Sizes over SIZE_BUDGET are reported at their key before anything is
    allocated; none of these tests allocates one."""

    def test_budget_holds_the_largest_series_in_use(self):
        # far inside the budget: a 1e5-step relaxation record
        assert SIZE_BUDGET >= 50 * 100_001

    @pytest.mark.parametrize("value, error", [
        (HUGE, f"must be <= {SIZE_BUDGET}, got 1e+400"),
        (str(SIZE_BUDGET + 1),
         f"must be <= {SIZE_BUDGET}, got {SIZE_BUDGET + 1}"),
        ("1", "must be >= 2, got 1"),
        ("0", "must be >= 2, got 0"),
        ("-1" + "0" * 60, "must be >= 2, got -1e+60"),
    ], ids=["401-digits", "budget+1", "one", "zero", "61-digits-below"])
    def test_fung_prony_terms(self, value, error):
        errs = errors_of("model:\n  elastic: {kind: linear, k: 1.0}\n"
                         f"  kernel: {FUNG}, prony_terms: {value}}}\n")
        assert errs == [f"model.kernel.prony_terms: {error}"]

    def test_prony_terms_at_the_budget_is_accepted(self, monkeypatch):
        seen = []
        monkeypatch.setattr(config.QlvModel, "from_kernel",
                            lambda *args, n_prony: seen.append(n_prony))
        parse_config("model:\n  elastic: {kind: linear, k: 1.0}\n"
                     f"  kernel: {FUNG}, prony_terms: {SIZE_BUDGET}}}\n")
        assert seen == [SIZE_BUDGET]

    def test_prony_terms_is_rejected_where_unused(self):
        # only a Fung spectrum is discretized, so only it takes the key
        errs = errors_of("model:\n  elastic: {kind: linear, k: 1.0}\n"
                         "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0,"
                         " prony_terms: 1}\n")
        assert errs == ["model.kernel.prony_terms: unknown key (allowed: "
                        "['eta', 'kind', 'mu'])"]

    @pytest.mark.parametrize("count, got", [
        (HUGE, "1e+400"), (str(SIZE_BUDGET + 1), str(SIZE_BUDGET + 1))],
        ids=["401-digits", "budget+1"])
    def test_sweep_count(self, count, got):
        errs = errors_of(f"model:\n  kernel: {MAXWELL}\n"
                         f"sweep: {{start: 0.1, stop: 10.0, count: {count}}}\n")
        assert errs == [f"sweep.count: must be <= {SIZE_BUDGET}, got {got}"]

    @pytest.mark.parametrize("drive, error", [
        ("{kind: creep, duration: 1.0, dt: 1.0e-300}",
         f"duration/dt must be <= {SIZE_BUDGET}, got 9.999999999999999e+299"),
        ("{kind: relaxation, duration: 1.0e+300, dt: 1.0}",
         f"duration/dt must be <= {SIZE_BUDGET}, got 1e+300"),
        (f"{{kind: cyclic, amplitude: 0.1, angular_frequency: 1.0,"
         f" cycles: {HUGE}}}",
         f"cycles*samples_per_cycle must be <= {SIZE_BUDGET}, got 5.12e+402"),
        (f"{{kind: cyclic, amplitude: 0.1, angular_frequency: 1.0,"
         f" cycles: 1, samples_per_cycle: {SIZE_BUDGET + 1}}}",
         f"cycles*samples_per_cycle must be <= {SIZE_BUDGET}, "
         f"got {SIZE_BUDGET + 1}"),
    ], ids=["tiny-dt", "long-duration", "cycles", "samples_per_cycle"])
    def test_protocol_sample_count(self, drive, error):
        errs = errors_of(f"model:\n  kernel: {MAXWELL}\nprotocol: {drive}\n")
        assert errs == [f"protocol: {error}"]

    def test_cyclic_filter_states(self):
        # one period of 200 000 samples through 64 terms: 1.28e7 states
        errs = errors_of("model:\n  elastic: {kind: linear, k: 1.0}\n"
                         f"  kernel: {FUNG}, prony_terms: 64}}\n"
                         "protocol: {kind: cyclic, amplitude: 0.1, "
                         "angular_frequency: 1.0, cycles: 1, "
                         "samples_per_cycle: 200000}\n")
        assert errs == ["protocol.samples_per_cycle: samples x Prony terms "
                        f"must be <= {SIZE_BUDGET}, got 12800000"]

    def test_a_term_count_that_fails_sizes_nothing(self):
        # no default count of 64 stands in for the rejected one
        errs = errors_of("model:\n  elastic: {kind: linear, k: 1.0}\n"
                         f"  kernel: {FUNG}, prony_terms: 1}}\n"
                         "protocol: {kind: cyclic, amplitude: 0.1, "
                         "angular_frequency: 1.0, cycles: 1, "
                         "samples_per_cycle: 200000}\n")
        assert errs == ["model.kernel.prony_terms: must be >= 2, got 1"]

    def test_network_record_table(self):
        # 1.5e6 steps of one mass, 7 values per record: over the budget at
        # stride 1, within it at stride 2
        text = NET + "  duration: 15000.0\n  dt: 0.01\noutput: {stride: 1}\n"
        assert errors_of(text) == ["output.stride: records x columns must "
                                   f"be <= {SIZE_BUDGET}, got 10500007"]
        cfg = parse_config(text.replace("stride: 1", "stride: 2"))
        assert cfg.output_stride == 2

    def test_sample_count_at_the_budget_is_accepted(self):
        spec = ProtocolSpec(kind="creep", duration=float(SIZE_BUDGET), dt=1.0)
        assert spec.duration / spec.dt == SIZE_BUDGET


class TestProtocolChecks:
    """What a run rejects, validation rejects, at the key to change."""

    @pytest.mark.parametrize("rate", ["0.0", "-0.1"])
    def test_tensile_stretch_rate(self, rate):
        errs = errors_of("model:\n  elastic: {kind: linear, k: 1.0}\n"
                         f"  kernel: {MAXWELL}\nprotocol: {{kind: tensile,"
                         f" stretch_rate: {rate}, duration: 1.0, dt: 0.1}}\n")
        assert errs == [f"protocol: stretch_rate must be > 0, got {rate}"]

    def test_hold_strain_below_a_green_strain(self):
        errs = errors_of(MINIMAL.replace("hold_strain: 0.1",
                                         "hold_strain: -1.0"))
        assert errs == ["protocol.hold_strain: must be >= -0.5 (a Green "
                        "strain) for a model specimen, got -1.0"]

    def test_hold_strain_of_a_bare_element_is_free(self):
        cfg = parse_config(f"model:\n  kernel: {MAXWELL}\nprotocol: "
                           "{kind: relaxation, hold_strain: -1.0, "
                           "duration: 1.0, dt: 0.1}\n")
        assert cfg.protocol.hold_strain == -1.0


class TestReaderLimits:
    """A config key with no library constructor states its bound as a limit
    of its reader, and reports it at the key."""

    SINUSOID = ("network:\n  masses: [1.0]\n  stiffness: [[1.0]]\n"
                "  force: {{kind: sinusoid, amplitudes: [1.0], "
                "angular_frequency: {}}}\n")

    @pytest.mark.parametrize("text, error", [
        (SINUSOID.format(".nan"),
         "network.force.angular_frequency: must be finite, got nan"),
        (SINUSOID.format(".inf"),
         "network.force.angular_frequency: must be finite, got inf"),
        (SINUSOID.format("0"),
         "network.force.angular_frequency: must be > 0, got 0.0"),
        (MINIMAL + "output: {precision: 0}\n",
         "output.precision: must be >= 1, got 0"),
        (MINIMAL + "output: {precision: 18}\n",
         "output.precision: must be <= 17, got 18"),
    ], ids=["w-nan", "w-inf", "w-zero", "precision-low", "precision-high"])
    def test_rejected_at_its_key(self, text, error):
        assert errors_of(text) == [error]

    def test_limits_are_accepted(self):
        cfg = parse_config(self.SINUSOID.format("1.0e-300"))
        assert cfg.network.external_force_at(0.0).tolist() == [0.0]
        cfg = parse_config(MINIMAL + "output: {stride: 1, precision: 17}\n")
        assert (cfg.output_stride, cfg.output_precision) == (1, 17)
        assert parse_config(MINIMAL + "output: {precision: 1}\n"
                            ).output_precision == 1

    @pytest.mark.parametrize("stride, error", [
        ("0", "must be >= 1, got 0"), ("x", "must be an integer, got 'x'")],
        ids=["zero", "text"])
    def test_a_faulty_stride_is_not_sized(self, stride, error):
        # the record table is sized only at a stride that was read, not at
        # the default the reader falls back to (over the budget here)
        text = NET + ("  duration: 15000.0\n  dt: 0.01\n"
                      f"output: {{stride: {stride}}}\n")
        assert errors_of(text) == [f"output.stride: {error}"]


def flow_network_text(n=100, seed=0):
    """A network config with dense flow-style n x n stiffness and damping
    whose entries have both signs."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    K = A @ A.T / n + np.eye(n)
    damping = 0.01 * (A + A.T)

    def matrix(m):
        return "[" + ",\n    ".join(
            "[" + ", ".join(repr(float(x)) for x in row) + "]"
            for row in m) + "]"

    return (f"network:\n  masses: {[1.0] * n}\n  stiffness: {matrix(K)}\n"
            f"  damping: {matrix(damping)}\n  duration: 1.0\n  dt: 0.01\n")


YAML_EDGE_CASES = """
bools: [true, false, yes, no, on, off, True, FALSE]
ints: [0, -7, 0o17, 017, 0x1F, 1_000, 1:30, +12]
floats: [1.5, -0.0, .inf, -.inf, 1e3, 6.02e+23, 1_0.5, 190:20:30.15]
decimals: [+1.5, 1.5E+3, 1., 00.5, 1.0e+999, -1.0e-999, -0.0, 1e5]
unsigned_exponents: [1.0e300, 2.5E3, -1.5e-3]
underscores: [1__0.5, 1_.5, 1._5, _1.5, 1_0.5e+3]
tagged: [!!float 1e5, !!float 2.5, !!str 1.5, "1.5"]
strings: [1e3x, "1.5", '0x1F', ~x]
nulls: [~, null, ]
times: [2001-12-14t21:59:43.10-05:00, 2002-12-14]
anchored: &a {k: [1, 2]}
alias: *a
merged: {<<: *a, extra: 1}
float_anchor: &f 2.5
float_aliases: [*f, 1.5, [*f]]
"""


def same_document(a, b):
    """Equal as documents down to types and float bits: ``==`` takes 1 for
    1.0 and -0.0 for 0.0.  Mappings compare in key order."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        same_document(list(a), list(b))
        for x, y in zip(a.values(), b.values()):
            same_document(x, y)
    elif isinstance(a, list):
        assert len(a) == len(b), (a, b)
        for x, y in zip(a, b):
            same_document(x, y)
    elif isinstance(a, float):
        assert a.hex() == b.hex(), (a, b)
    else:
        assert a == b, (a, b)


CONFIG_KEYS = ["model", "network", "protocol", "output", "kind", "path",
               "masses", "stiffness", "amplitudes", "frequencies", "dt"]
# keys, and long strings, as a valid config has them; short strings of
# any characters
RAW_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126),
            max_size=200),
    st.text(max_size=8))
RAW_DOCS = st.dictionaries(st.sampled_from(CONFIG_KEYS), st.recursive(
    RAW_LEAVES, lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(CONFIG_KEYS), inner, max_size=4),
    max_leaves=30), max_size=5)


# the two loaders _load_yaml may build from
BASES = [pytest.param(yaml.SafeLoader, id="python"),
         pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                      marks=pytest.mark.skipif(
                          not hasattr(yaml, "CSafeLoader"),
                          reason="PyYAML built without libyaml"))]


def reference_load(text, base):
    """yaml.load by ``base``, its errors mapped as _load_yaml maps them."""
    try:
        return yaml.load(text, Loader=base)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"])
    except (ValueError, IndexError, KeyError, AttributeError) as exc:
        raise ConfigError([f"invalid YAML: cannot build a value "
                           f"({type(exc).__name__}: {exc})"])
    except RecursionError:
        raise ConfigError(["invalid YAML: nesting too deep"])


def outcome(load, *args):
    """The document ``load`` builds, or its ConfigError messages as a
    tuple, which no safe loader builds."""
    try:
        return load(*args)
    except ConfigError as exc:
        return tuple(exc.errors)


def same_load(text, base):
    """_load_yaml on ``base`` builds what yaml.load builds, or raises the
    same ConfigError."""
    with mock.patch.object(config, "_LOADER", base):
        same_document(outcome(config._load_yaml, text),
                      outcome(reference_load, text, base))


def loads_calls(text):
    """How many times _load_yaml hands ``text`` to yaml.load."""
    with mock.patch.object(yaml, "load", wraps=yaml.load) as load:
        outcome(config._load_yaml, text)
    return load.call_count


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML built without libyaml")
class TestLibyamlLoader:
    """libyaml's loader builds the same document as the pure-Python one."""

    @pytest.mark.parametrize("text", [
        *[p.read_text() for p in sorted(CONFIGS.glob("*.yaml"))],
        flow_network_text(),
    ], ids=[*[p.stem for p in sorted(CONFIGS.glob("*.yaml"))], "flow100"])
    def test_same_config(self, monkeypatch, text):
        fast = parse_config(text)
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
        reference = parse_config(text)
        same_document(fast.raw, reference.raw)
        same_document(fast.effective_text(), reference.effective_text())

    def test_same_scalars_anchors_and_timestamps(self):
        same_document(yaml.load(YAML_EDGE_CASES, Loader=yaml.CSafeLoader),
                      yaml.load(YAML_EDGE_CASES, Loader=yaml.SafeLoader))

    def test_loader_builds_decimals_with_libyaml(self):
        # the decimal fast path is the event builder's first branch, over
        # libyaml's own loader
        assert config._LOADER is yaml.CSafeLoader
        same_document(config._load_yaml("[1.5, -0.0, 2.5E+3]"),
                      [1.5, -0.0, 2500.0])

    def test_wide_config_gets_the_exact_depth_check(self):
        # more collection-opening characters than the depth limit, which
        # once took a second parse for the depth; the depth is counted
        # inline now, so one loader reads it and yaml.load never runs
        text = flow_network_text()
        assert text.count("-") > config._MAX_DEPTH
        made = []

        class Counted(yaml.CSafeLoader):
            def __init__(self, stream):
                made.append(stream)
                super().__init__(stream)
        with mock.patch.object(config, "_LOADER", Counted):
            assert loads_calls(text) == 0
            assert parse_config(text).network.n == 100
        assert made == [text, text]

    def test_a_dense_network_load_keeps_no_node_tree(self):
        # PyYAML's composer held one ScalarNode with two marks for each of
        # the 2 x 10^4 entries at once: a peak of 8.25 MB
        text = flow_network_text()
        tracemalloc.start()
        try:
            config._load_yaml(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


# short scalars of number characters, YAML's non-finite floats and spaces,
# with an anchor, an alias or an explicit tag in front of some; a few
# anchor names, so that some aliases are undefined and some anchors repeat
SCALARS = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "", "&a ", "&b "]),
        st.sampled_from(["", "", "!!float ", "!!str ", "!!int ", "!!bool ",
                         "!!null ", "!!seq ", "! "]),
        st.one_of(st.text("0123456789.+-eE_: ", min_size=1, max_size=8),
                  st.sampled_from([".inf", "-.inf", ".nan", " 1.5 ", "yes",
                                   "~", "'1.5'", "<<", "="]))),
    st.sampled_from(["*a", "*b", "&a [1.5]", "&b {k: 2.5}", "!!seq [1]",
                     "{1.5: x}", "[]"]))


def shapes(scalars):
    """A flow sequence, a block sequence, a flow mapping keyed by the
    scalars, a mapping that anchors the first scalar and aliases it inside
    sequences, one whose keys are a flow sequence and a flow mapping, and
    one that merges a mapping and has a ``=`` key."""
    items = ", ".join(scalars)
    return ["[" + items + "]\n",
            "".join(f"- {x}\n" for x in scalars),
            "{" + ", ".join(f"{x}: {i}" for i, x in enumerate(scalars))
            + "}\n",
            f"first: &a {scalars[0]}\nitems: [{items}]\n"
            "again: [*a, [*a]]\n",
            f"? [{items}]\n: 1\n? {{{scalars[-1]}: 2}}\n: 3\n",
            f"base: &m {{k: {scalars[0]}}}\nmerged: {{<<: *m, =: "
            f"{scalars[-1]}}}\n"]


@pytest.mark.parametrize("base", BASES)
class TestDecimalFastPath:
    """_load_yaml, built from the loader's events with a decimal fast path
    as its first branch, gives the document yaml.load builds, down to types
    and float bits, or the same ConfigError; it hands over to yaml.load
    only where it must."""

    @pytest.mark.parametrize("text", [
        YAML_EDGE_CASES,
        *[p.read_text() for p in sorted(CONFIGS.glob("*.yaml"))],
        flow_network_text(),
    ], ids=["edge-cases", *[p.stem for p in sorted(CONFIGS.glob("*.yaml"))],
            "flow100"])
    def test_same_document(self, base, text):
        same_load(text, base)

    @pytest.mark.parametrize("text", [
        "[!!float [1.5]]", "[!!float {a: 1.5}]", "!!seq 1.5", "!!seq {a: 1}",
        "[!!float x]", "[!!float ]", "[!!float 1_0.5, !!float 1:30.5]"])
    def test_same_error_or_document_for_odd_tags(self, base, text):
        same_load(text, base)

    @pytest.mark.parametrize("text", [
        "{&a 0: 1, &a :: 1}", "[*a, &a 1]", "{a: !!float x, b: [1\n",
        "[1, 2]\n---\n[", "a: 1\n---\nb: 2\n", "", "---\n", "! 1.5",
        "! '1.5'", "[! 1.5, !!str 2.5, '1.5', \"-0.0\"]", "a: !!int\n",
        "a: 2001-13-45\n", "{[1]: 2}", "{{a: 1}: 2}", "{<<: {a: 1}, b: 2}",
        "{=: 3}", "{a: <<}", "a: 1\nb\n", "{1: a, 1.0: b, true: c, 1: d}"])
    def test_same_error_or_document_for_odd_input(self, base, text):
        same_load(text, base)

    @pytest.mark.parametrize("text", [
        "a: &x 1\n", "a: &x [1.5]\n", "a: &x {b: 1.5}\n", "[*x]",
        "a: !!seq [1.5]\n", "a: !!set {b}\n", "a: ! [1.5]\n",
        "{<<: {a: 1}}", "{=: 1}", "{[1.5]: 2}", "{{a: 1}: 2}",
        "a: 1\n---\nb: 2\n", "a: !!float x\n", "a: !!seq 1.5\n"])
    def test_hands_over_to_yaml_load(self, base, text):
        with mock.patch.object(config, "_LOADER", base):
            assert loads_calls(text) == 1

    @pytest.mark.parametrize("text", [
        "a: [1.5, -2.0e+3, +0.5]\n", "a: {b: c}\n", "a: !!str 1.5\n",
        "a: !!int '3'\n", "a: ! 1.5\n", "a: '1.5'\n", "", "---\n",
        "a: 1\n...\n", "a: [1, 2\n"])
    def test_builds_without_yaml_load(self, base, text):
        with mock.patch.object(config, "_LOADER", base):
            assert loads_calls(text) == 0

    def test_duplicate_anchor_is_reported_first(self, base):
        # the depth pass after a handover meets a parse error later in the
        # text; yaml.load still reports the anchor, which comes first
        with mock.patch.object(config, "_LOADER", base):
            errors = outcome(config._load_yaml, "{&a 0: 1, &a :: 1}")
        assert errors[0].startswith("invalid YAML: found duplicate anchor")

    def test_depth_limit(self, base):
        # an anchor hands the text over; the pure-Python composer hits the
        # interpreter's recursion limit first (TestNesting)
        limit = config._MAX_DEPTH
        for prefix in ["", "&a "][:1 if base is yaml.SafeLoader else 2]:
            with mock.patch.object(config, "_LOADER", base):
                doc = config._load_yaml(prefix + "[" * limit + "]" * limit)
                for _ in range(limit - 1):
                    (doc,) = doc
                assert doc == []
                deeper = prefix + "[" * (limit + 1) + "]" * (limit + 1)
                assert outcome(config._load_yaml, deeper) == (
                    "invalid YAML: nesting too deep",)
                assert loads_calls(deeper) == 0     # not composed at all

    @settings(max_examples=300, deadline=None)
    @given(scalars=st.lists(SCALARS, min_size=1, max_size=4))
    def test_same_document_for_generated_scalars(self, base, scalars):
        for text in shapes(scalars):
            same_load(text, base)

    @settings(max_examples=150, deadline=None)
    @given(raw=st.recursive(RAW_LEAVES, lambda inner: st.lists(
        inner, max_size=4) | st.dictionaries(RAW_LEAVES, inner, max_size=4),
        max_leaves=25), flow=st.booleans())
    def test_same_document_for_generated_documents(self, base, raw, flow):
        same_load(yaml.dump(raw, Dumper=yaml.SafeDumper,
                            default_flow_style=flow), base)


class TestExponentAsText:
    """YAML 1.1 reads a number with an exponent but no dot or no exponent
    sign as text; the message says how to write it."""

    @pytest.mark.parametrize("value, fix", [
        ("1.0e300", "1.0e+300"), ("1e5", "1.0e+5"), ("2.5E3", "2.5e+3"),
        (".5e3", "0.5e+3"), ("+5.e3", "+5.0e+3"), ("1e+5", "1.0e+5"),
        ("1e-3", "1.0e-3"), ("+2E+7", "+2.0e+7")])
    def test_message_names_the_number_to_write(self, value, fix):
        assert errors_of(MINIMAL.replace("C: 1.0", f"C: {value}")) == [
            f"model.elastic.C: must be a number, got '{value}' (YAML reads "
            f"an exponent with no dot or no sign as text; write {fix})"]
        cfg = parse_config(MINIMAL.replace("C: 1.0", f"C: {fix}"))
        assert cfg.model.elastic.C == float(value)

    @pytest.mark.parametrize("key, value, error", [
        ("masses", "[1.0, 1e-3]", "entry [1] must be a number, got '1e-3' "
         "(YAML reads an exponent with no dot or no sign as text; write "
         "1.0e-3)"),
        ("stiffness", "[[2.0, 1e+5], [-1.0, 2.0]]", "entry [0][1] must be a "
         "number, got '1e+5' (YAML reads an exponent with no dot or no sign "
         "as text; write 1.0e+5)"),
        ("stiffness", "[[2.0, -1.0], [x, 2.0]]",
         "entry [1][0] must be a number, got 'x'"),
        ("masses", "[1.0, true]", "must be a non-empty list of numbers"),
        ("stiffness", "[[2.0, -1.0], [2.0]]",
         "must be a non-empty rectangular list of number lists"),
        ("stiffness", "[[2.0, -1.0], 1e5]",
         "must be a non-empty rectangular list of number lists"),
    ], ids=["vector", "matrix", "matrix-other-text", "vector-bool",
            "ragged", "text-row"])
    def test_list_entry_is_named_by_index(self, key, value, error):
        text = ("network:\n  masses: [1.0, 1.0]\n"
                "  stiffness: [[2.0, -1.0], [-1.0, 2.0]]\n")
        old = "[1.0, 1.0]" if key == "masses" else "[[2.0, -1.0], [-1.0, 2.0]]"
        assert errors_of(text.replace(old, value)) == \
            [f"network.{key}: {error}"]

    def test_signed_exponent_is_a_number(self):
        cfg = parse_config(MINIMAL.replace("C: 1.0", "C: 1.0e+300"))
        assert cfg.model.elastic.C == 1e300

    @pytest.mark.parametrize("value", ["1e5x", "e5", ".e5", "'1.5'",
                                       "'1.0e+5'", "1e5.0"])
    def test_other_text_keeps_its_message(self, value):
        text = value.strip("'")
        assert errors_of(MINIMAL.replace("C: 1.0", f"C: {value}")) == [
            f"model.elastic.C: must be a number, got '{text}'"]


def pure_python_dump(raw):
    return yaml.dump(raw, Dumper=yaml.SafeDumper, sort_keys=True,
                     default_flow_style=False)


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                    reason="PyYAML built without libyaml")
class TestLibyamlDumper:
    """``effective_text`` renders with libyaml's emitter; the text is the
    pure-Python emitter's."""

    @pytest.mark.parametrize("text", [
        *[p.read_text() for p in sorted(CONFIGS.glob("*.yaml"))],
        flow_network_text(),
    ], ids=[*[p.stem for p in sorted(CONFIGS.glob("*.yaml"))], "flow100"])
    def test_same_text(self, text):
        cfg = parse_config(text)
        assert config._DUMPER is yaml.CSafeDumper
        assert cfg.effective_text() == pure_python_dump(cfg.raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=RAW_DOCS)
    def test_same_text_for_generated_documents(self, raw):
        assert config.RunConfig(raw=raw).effective_text() == \
            pure_python_dump(raw)

    def test_long_escaped_path_is_not_folded(self):
        # where the emitters differ: PyYAML folds a double-quoted scalar
        # wider than the line, libyaml keeps it on one; both parse back
        cfg = parse_config(MINIMAL + "output: {path: " + "/données" * 20
                           + "/out.csv}\n")
        echo = cfg.effective_text()
        assert echo != pure_python_dump(cfg.raw)
        assert parse_config(echo).raw == cfg.raw


class TestNesting:
    def test_too_deep(self):
        depth = 3000
        errs = errors_of("model: " + "[" * depth + "]" * depth + "\n")
        assert errs == ["invalid YAML: nesting too deep"]

    def test_pure_python_composer_recursion(self, monkeypatch):
        # within the depth limit, but two frames per level exceed the
        # interpreter's recursion limit; plain nesting is built without
        # recursion, so an anchor hands the text to the composer
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
        depth = 600
        assert config._load_yaml("[" * depth + "]" * depth)
        errs = errors_of("model: &a " + "[" * depth + "]" * depth + "\n")
        assert errs == ["invalid YAML: nesting too deep"]


class TestCollectorPause:
    """_load_yaml pauses the cyclic collector while PyYAML builds a
    document, and leaves it on or off as it found it, on success and on
    each ConfigError."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("text, error", [
        (MINIMAL, None),
        ("model: [1, 2\n", "invalid YAML: while parsing"),
        ("model: !!float x\n", "invalid YAML: cannot build a value"),
        ("model: " + "[" * 3000 + "]" * 3000 + "\n",
         "invalid YAML: nesting too deep")],
        ids=["loaded", "invalid", "unbuildable", "too-deep"])
    def test_leaves_the_collector_as_it_found_it(self, collector, text,
                                                 error):
        if error is None:
            assert config._load_yaml(text)["protocol"]["dt"] == 0.1
        else:
            with pytest.raises(ConfigError, match=re.escape(error)):
                config._load_yaml(text)
        assert gc.isenabled() is collector

    def test_a_dense_network_load_runs_no_collection(self):
        # 2 x 10^4 decimals in flow-style matrices: the collector, left on,
        # ran about 89 collections here and found nothing to free
        text = flow_network_text()
        assert gc.isenabled()
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])
        gc.callbacks.append(count)
        try:
            data = config._load_yaml(text)
        finally:
            gc.callbacks.remove(count)
        assert len(data["network"]["stiffness"]) == 100
        assert starts == []


def names(*types):
    return {f.name for cls in types for f in fields(cls)}


NET = "network:\n  masses: [1.0]\n  stiffness: [[1.0]]\n"
MAXWELL = "{kind: maxwell, mu: 1.0, eta: 1.0}"
PRONY = "K: 1.0, amplitudes: [1.0], frequencies: [1.0]"
# values drawn for a field, by its annotation
FIELD_VALUES = {
    "float": st.one_of(st.floats(-10.0, 100.0), st.integers(-5, 100)),
    "bool": st.booleans(),
    "tuple[float, ...]": st.lists(st.floats(0.01, 100.0), min_size=1,
                                  max_size=3, unique=True).map(sorted),
}


def draw_fields(data, cls, require_all=False):
    """Values for the fields of ``cls``; a field with a default is left out
    at random unless ``require_all``."""
    return {f.name: data.draw(FIELD_VALUES[f.type]) for f in fields(cls)
            if require_all or f.default is MISSING or data.draw(st.booleans())}


def built_directly(cls, values):
    try:
        return cls(**values)
    except DomainError:
        return None


class TestSchemaRule:
    """A section's keys are the fields of the type it builds, read by their
    annotations, and the type is built only from fields that read cleanly."""

    @pytest.mark.parametrize("path, text, expected", [
        ("model.elastic", "model:\n  elastic: {kind: linear, k: 1.0, bogus: 1}"
         f"\n  kernel: {MAXWELL}\n",
         {"kind", *names(ELASTIC_TYPES["linear"])}),
        ("model.kernel", "model:\n  kernel: {kind: maxwell, mu: 1.0, eta: 1.0,"
         " bogus: 1}\n", {"kind", *names(KERNEL_TYPES["maxwell"])}),
        ("model.kernel", "model:\n  elastic: {kind: linear, k: 1.0}\n"
         f"  kernel: {FUNG}, bogus: 1}}\n",
         {"kind", "prony_terms", *names(KERNEL_TYPES["fung"])}),
        ("network.kernels[0]", NET + f"  kernels: [{{i: 0, j: 0, {PRONY},"
         " bogus: 1}]\n", {"i", "j", *names(PronySpectrum)}),
        ("network.aero_kernels[0]", NET + f"  aero_kernels: [{{i: 0, j: 0, "
         f"{PRONY}, bogus: 1}}]\n", {"i", "j", *names(PronySpectrum)}),
        ("network.springs[0]", NET + "  springs: [{i: 0, B: 1.0, C: 1.0,"
         " bogus: 1}]\n",
         {"i", "j", "rest_length", "kernel", *names(ExponentialTensileLaw)}),
        ("network.springs[0].kernel", NET + "  springs: [{i: 0, B: 1.0, C: 1.0,"
         f" kernel: {{{PRONY}, bogus: 1}}}}]\n", names(PronySpectrum)),
        ("protocol", f"model:\n  kernel: {MAXWELL}\nprotocol: {{kind: creep,"
         " duration: 1.0, dt: 0.1, bogus: 1}\n",
         {"kind", "duration", "dt", "hold_stress"}),
        ("protocol", f"model:\n  kernel: {MAXWELL}\nprotocol: {{kind: "
         "tensile, duration: 1.0, dt: 0.1, stretch_rate: 0.1, bogus: 1}\n",
         {"kind", "duration", "dt", "stretch_rate"}),
        ("protocol", f"model:\n  kernel: {MAXWELL}\nprotocol: {{kind: "
         "relaxation, duration: 1.0, dt: 0.1, bogus: 1}\n",
         {"kind", "duration", "dt", "hold_strain"}),
        # the ignored max_cycles/settle_time are cyclic's extras
        ("protocol", f"model:\n  kernel: {MAXWELL}\nprotocol: {{kind: cyclic,"
         " amplitude: 0.1, angular_frequency: 1.0, cycles: 1, bogus: 1}\n",
         {"kind", "amplitude", "mean", "angular_frequency", "cycles",
          "samples_per_cycle", "max_cycles", "settle_time"}),
        # with no kind to pick them, every key of every kind
        ("protocol", f"model:\n  kernel: {MAXWELL}\nprotocol: {{bogus: 1}}\n",
         {"max_cycles", "settle_time", *names(ProtocolSpec)}),
    ], ids=["elastic", "kernel", "fung_kernel", "kernels", "aero_kernels",
            "springs", "spring_kernel", "protocol", "protocol_tensile",
            "protocol_relaxation", "protocol_cyclic", "protocol_no_kind"])
    def test_allowed_keys_are_the_fields(self, path, text, expected):
        [err] = [e for e in errors_of(text) if e.startswith(f"{path}.bogus:")]
        assert set(ast.literal_eval(err.split("(allowed: ")[1][:-1])) == \
            expected

    def test_protocol_keys_are_checked_whatever_the_kind(self):
        # with no valid kind to pick them, every field is a key
        errs = errors_of(f"model:\n  kernel: {MAXWELL}\n"
                         "protocol: {kind: bogus, bogus: 1}\n")
        assert errs[0] == ("protocol.kind: must be one of ['creep', "
                           "'cyclic', 'relaxation', 'tensile'], got 'bogus'")
        assert errs[1].startswith("protocol.bogus: unknown key (allowed: ")
        assert len(errs) == 2

    def test_protocol_key_of_another_kind_is_unknown(self):
        errs = errors_of(MINIMAL.replace("hold_strain", "hold_stress"))
        assert errs == ["protocol.hold_stress: unknown key (allowed: "
                        "['dt', 'duration', 'hold_strain', 'kind'])"]

    def test_unread_protocol_fields_keep_their_defaults(self):
        spec = parse_config(MINIMAL).protocol
        assert spec == ProtocolSpec(kind="relaxation", hold_strain=0.1,
                                    duration=1.0, dt=0.1)

    def test_voigt_model_has_one_error_at_its_kernel(self):
        # the Voigt element drives no hereditary integral; kernel_to_prony
        # is the one check that says so
        errs = errors_of("model:\n  elastic: {kind: linear, k: 1.0}\n"
                         "  kernel: {kind: voigt, mu: 1.0, eta: 1.0}\n")
        assert errs == ["model.kernel: the Voigt relaxation has an impulsive "
                        "part and no normalized Prony form; use the element "
                        "equations directly"]

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(ELASTIC_TYPES)), data=st.data())
    def test_elastic_section_builds_its_type(self, kind, data):
        cls = ELASTIC_TYPES[kind]
        values = draw_fields(data, cls)
        expected = built_directly(cls, values)
        if kind == "fung" and expected is not None:
            expected = FungUniaxialLaw(expected)
        v = config._Validator()
        law = config._build_elastic(v, {"kind": kind, **values}, "e")
        assert law == expected
        assert bool(v.errors) == (expected is None)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(KERNEL_TYPES)), data=st.data())
    def test_kernel_section_builds_its_type(self, kind, data):
        cls = KERNEL_TYPES[kind]
        values = draw_fields(data, cls, require_all=True)
        expected = built_directly(cls, values)
        v = config._Validator()
        kernel, _ = config._build_kernel(v, {"kind": kind, **values}, "k")
        assert kernel == expected
        assert bool(v.errors) == (expected is None)

    def test_prony_lists_are_required(self):
        errs = errors_of(f"model:\n  elastic: {{kind: linear, k: 1.0}}\n"
                         "  kernel: {kind: prony, K: 1.0}\n")
        assert errs == ["model.kernel.amplitudes: required key missing",
                        "model.kernel.frequencies: required key missing"]

    @pytest.mark.parametrize("text, error", [
        # a default in place of the bad field would fail the cyclic checks
        (f"model:\n  kernel: {MAXWELL}\nprotocol: {{kind: cyclic, mean: 0.1,"
         " amplitude: x, angular_frequency: 1.0, cycles: 2}\n",
         "protocol.amplitude: must be a number, got 'x'"),
        # ... and a1 = 0 would make the exponent indefinite
        ("model:\n  elastic: {kind: fung, c: 1.0, a1: x, a2: 1.0, a4: 0.5}\n"
         f"  kernel: {MAXWELL}\n", "model.elastic.a1: must be a number, got 'x'"),
    ], ids=["protocol", "fung"])
    def test_bad_field_builds_nothing(self, text, error):
        assert errors_of(text) == [error]

    @pytest.mark.parametrize("key, entry", [
        ("kernels", PRONY), ("aero_kernels", PRONY), ("springs", "B: 1, C: 1")],
        ids=["kernels", "aero_kernels", "springs"])
    def test_both_indices_out_of_range(self, key, entry):
        errs = errors_of(NET + f"  {key}: [{{i: 2, j: 3, {entry}}}]\n")
        assert errs == [f"network.{key}[0].i: index out of range [0, 1)",
                        f"network.{key}[0].j: index out of range [0, 1)"]
