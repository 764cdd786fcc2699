"""The shared spec contract, checked over every spec type that adopts it.

For each :class:`repro.core.spec.FrozenSpec` subclass: a spec survives
a real JSON round trip (``from_dict(json(to_dict(s))) == s``) with an
unchanged fingerprint, and ``from_dict`` refuses an unknown field or a
foreign version with the type's own error.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec
from repro.core.errors import ConfigError, RunnerError
from repro.core.spec import FrozenSpec, canonical_json, check_number, fingerprint_of
from repro.runner import SweepSpec
from repro.serving import DiurnalConfig, RVConfig, ServiceSpec, TrafficConfig
from repro.serving.config import DIST_KINDS
from repro.workload.distributions import DISTRIBUTIONS

positive = st.floats(min_value=1e-3, max_value=1e4,
                     allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**32)
letters = st.sampled_from(sorted(DISTRIBUTIONS))
triples = st.tuples(*[st.floats(0, 100, allow_nan=False)] * 3)

run_specs = st.builds(
    RunSpec,
    provider=st.sampled_from(["azure", "ovhcloud"]),
    mix=st.one_of(letters, triples),
    target_population=st.integers(1, 10_000),
    seed=seeds,
    num_hosts=st.integers(0, 50),
    host_cpus=st.integers(1, 256),
    host_mem_gb=positive,
    policy=st.sampled_from(["progress", "first_fit", "best_fit"]),
    kernel=st.sampled_from(["incremental", "naive", "pruned"]),
    pooling=st.booleans(),
    oversub=st.sampled_from([None, "percentile"]),
    oversub_update_every=positive,
)

service_specs = st.builds(
    ServiceSpec,
    mix=st.one_of(letters, triples),
    rate=positive,
    duration=positive,
    seed=seeds,
    mean_lifetime=positive,
    interarrival_kind=st.sampled_from(DIST_KINDS),
    diurnal_amplitude=st.floats(0.0, 0.99),
    num_hosts=st.integers(0, 50),
    host_cpus=st.integers(1, 256),
    host_mem_gb=positive,
    queue_bound=st.integers(1, 1000),
    timeout_s=positive,
    service_mean=positive,
)

sweep_specs = st.builds(
    SweepSpec,
    providers=st.lists(st.sampled_from(["azure", "ovhcloud"]), min_size=1,
                       max_size=2).map(tuple),
    mixes=st.lists(letters, min_size=1, max_size=4, unique=True).map(tuple),
    seeds=st.one_of(st.none(), st.lists(seeds, min_size=1, max_size=3).map(tuple)),
    root_seed=seeds,
    num_seeds=st.integers(1, 8),
    target_population=st.integers(1, 10_000),
    pooling=st.booleans(),
    machine_cpus=st.integers(1, 256),
    machine_mem_gb=positive,
    shards=st.integers(1, 8),
)

rv_configs = st.one_of(
    st.builds(RVConfig, st.sampled_from([k for k in DIST_KINDS if k != "lognormal"]),
              positive),
    st.builds(RVConfig, st.just("lognormal"), positive,
              st.one_of(st.none(), positive)),
)
diurnal_configs = st.builds(DiurnalConfig, st.floats(0.0, 0.99), positive)
traffic_configs = st.builds(TrafficConfig, rv_configs, rv_configs,
                            st.one_of(st.none(), diurnal_configs))

#: Every adopter of the base, with a strategy and its error type.
SPECS = [
    (RunSpec, run_specs, ConfigError),
    (ServiceSpec, service_specs, ConfigError),
    (SweepSpec, sweep_specs, RunnerError),
    (RVConfig, rv_configs, ConfigError),
    (DiurnalConfig, diurnal_configs, ConfigError),
    (TrafficConfig, traffic_configs, ConfigError),
]


def test_every_adopter_is_listed():
    adopters = {cls for cls, _, _ in SPECS}
    assert all(issubclass(cls, FrozenSpec) for cls in adopters)
    assert len(adopters) == len(SPECS)


@pytest.mark.parametrize(("cls", "specs", "error"), SPECS,
                         ids=[cls.__name__ for cls, _, _ in SPECS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_fingerprint_and_refusals(cls, specs, error, data):
    spec = data.draw(specs)
    payload = json.loads(json.dumps(spec.to_dict()))
    clone = cls.from_dict(payload)
    assert clone == spec
    assert clone.fingerprint() == spec.fingerprint()
    assert canonical_json(clone.to_dict()) == canonical_json(spec.to_dict())

    unknown = data.draw(st.text(min_size=1, max_size=12).filter(
        lambda name: name not in payload))
    with pytest.raises(error, match="unknown"):
        cls.from_dict({**payload, unknown: 0})

    accepted = (cls.SPEC_VERSION, *cls.ACCEPTED_VERSIONS)
    foreign = data.draw(st.integers(-5, 1000).filter(lambda v: v not in accepted))
    with pytest.raises(error):
        cls.from_dict({**payload, "version": foreign})


def test_sweep_spec_still_accepts_v1_payloads():
    v1 = {k: v for k, v in SweepSpec().to_dict().items()
          if k not in ("kernel", "shards", "router")}
    assert SweepSpec.from_dict({**v1, "version": 1}) == SweepSpec()


@pytest.mark.parametrize("payload", [[1, 2], "abc", None, 3])
def test_non_mapping_payloads_are_refused(payload):
    with pytest.raises(RunnerError, match="mapping"):
        SweepSpec.from_dict(payload)


def test_missing_required_fields_are_named():
    with pytest.raises(ConfigError, match=r"needs fields: \['mean'\]"):
        RVConfig.from_dict({"kind": "constant"})


def test_fingerprint_is_the_canonical_digest():
    spec = RunSpec(seed=3)
    assert spec.fingerprint() == fingerprint_of(spec.to_dict())
    assert canonical_json({"b": 1, "a": [1.5]}) == '{"a":[1.5],"b":1}'


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, True, "1.0", None, 0, -1.0]
)
def test_check_number_refuses(value):
    with pytest.raises(ConfigError, match="knob"):
        check_number(value, "knob")


def test_check_number_accepts_and_coerces():
    assert check_number(3, "knob") == 3.0
    assert check_number(0, "knob", positive=False) == 0.0
    with pytest.raises(RunnerError):
        check_number(math.nan, "knob", error=RunnerError)
