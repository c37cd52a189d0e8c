"""Tests of the api facade: registries and the ExperimentConfig tree."""

import json

import pytest

from repro.api import (
    CODES,
    DECODERS,
    NOISE_PRESETS,
    POLICIES,
    CodeConfig,
    DecoderConfig,
    ExecutionConfig,
    ExperimentConfig,
    NoiseConfig,
    PolicyConfig,
    Registry,
    UnknownNameError,
    config_schema,
    register_policy,
)
from repro.api.session import build_code, build_noise, build_policy
from repro.core import POLICY_NAMES
from repro.core.policies import NoLrcPolicy
from repro.noise import paper_noise


# --------------------------------------------------------------------- #
# Registry mechanism
# --------------------------------------------------------------------- #
def test_registries_cover_the_stock_components():
    assert set(CODES.names()) == {"surface", "color", "hgp", "bpc", "toric"}
    assert set(DECODERS.names()) == {"matching", "union_find"}
    assert set(NOISE_PRESETS.names()) == {
        "paper", "ideal", "custom", "drift", "bursts", "floods",
    }
    assert set(POLICIES.names()) == set(POLICY_NAMES)


def test_policy_names_is_derived_from_the_registry():
    assert POLICY_NAMES == tuple(POLICIES.names())


def test_aliases_resolve_to_canonical_entries():
    assert DECODERS.get("union-find").name == "union_find"
    assert DECODERS.get("mwpm").name == "matching"
    assert POLICIES.get("always").name == "always-lrc"
    assert POLICIES.get("GLADIATOR_D").name == "gladiator-d"


def test_unknown_name_error_carries_suggestions_and_listing():
    with pytest.raises(UnknownNameError) as excinfo:
        DECODERS.get("union_fnd")
    message = str(excinfo.value)
    assert "did you mean 'union_find'" in message
    assert "matching" in message  # the full listing rides along
    assert isinstance(excinfo.value, ValueError)  # legacy callers catch ValueError


def test_third_party_registration_via_decorator():
    @register_policy("test-third-party", description="registered by a test")
    class ThirdPartyPolicy(NoLrcPolicy):
        name: str = "test-third-party"

    try:
        from repro.core import make_policy

        assert isinstance(make_policy("test-third-party"), ThirdPartyPolicy)
        assert "test-third-party" in POLICIES.names()
        # Config validation accepts it immediately, with no repro changes.
        ExperimentConfig(policy=PolicyConfig(name="test-third-party")).validate()
    finally:
        POLICIES.unregister("test-third-party")
    assert "test-third-party" not in POLICIES


def test_duplicate_registration_is_rejected():
    registry = Registry("widget")
    registry.add("alpha", object, aliases=("a",))
    with pytest.raises(ValueError):
        registry.add("alpha", object)
    with pytest.raises(ValueError):
        registry.add("beta", object, aliases=("a",))


# --------------------------------------------------------------------- #
# Config round-trip and validation
# --------------------------------------------------------------------- #
def _full_config() -> ExperimentConfig:
    return ExperimentConfig(
        name="round-trip",
        code=CodeConfig(name="color", distance=5),
        noise=NoiseConfig(preset="paper", p=2e-3, leakage_ratio=1.0,
                          overrides={"leakage_mobility": 0.2}),
        policy=PolicyConfig(name="gladiator+m", options={"threshold": 0.05}),
        decoder=DecoderConfig(name="matching"),
        execution=ExecutionConfig(shots=40, rounds=6, seed=3, decoded=True,
                                  leakage_sampling=True, decode_batch_size=16,
                                  window_rounds=4, commit_rounds=2, workers=2),
    )


def test_config_dict_and_json_round_trip_is_identity():
    config = _full_config()
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_json(config.to_json()) == config
    # and through an honest serialise/parse cycle
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_config_file_round_trip(tmp_path):
    config = _full_config()
    path = config.save(tmp_path / "cfg.json")
    assert ExperimentConfig.load(path) == config


def test_default_config_validates():
    ExperimentConfig().validate()


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        ("code.name", "surfac", "did you mean 'surface'"),
        ("decoder.name", "union_fnd", "did you mean 'union_find'"),
        ("policy.name", "gladiatr", "did you mean"),
        ("noise.preset", "papr", "did you mean 'paper'"),
    ],
)
def test_validation_rejects_unknown_names_with_suggestions(path, value, fragment):
    config = ExperimentConfig().override(path, value)
    with pytest.raises(ValueError, match=fragment):
        config.validate()


def test_from_dict_rejects_unknown_fields_with_suggestions():
    with pytest.raises(ValueError, match="did you mean 'distance'"):
        ExperimentConfig.from_dict({"code": {"name": "surface", "distence": 3}})
    with pytest.raises(ValueError, match="unknown experiment config field"):
        ExperimentConfig.from_dict({"codes": {}})


def test_removed_fused_flag_is_an_unknown_field():
    with pytest.raises(ValueError, match="unknown execution config field 'fused'"):
        ExperimentConfig.from_dict({"execution": {"fused": True}})
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig().override("execution.fused", True)


@pytest.mark.parametrize("field", ["lrc_error_factor", "lrc_leakage_factor", "lrc_removal_prob"])
def test_removed_lrc_noise_fields_are_unknown_overrides(field):
    """The LRC rates live on the gadget; a noise override naming the removed
    noise fields fails validation instead of being silently ignored."""
    config = ExperimentConfig.from_dict({"noise": {"overrides": {field: 1.0}}})
    with pytest.raises(ValueError, match=f"unknown noise.overrides field '{field}'"):
        config.validate()


def test_validation_rejects_bad_sections():
    with pytest.raises(ValueError):
        ExperimentConfig(execution=ExecutionConfig(shots=0)).validate()
    with pytest.raises(ValueError):  # windows need decoding
        ExperimentConfig(
            execution=ExecutionConfig(decoded=False, window_rounds=4)
        ).validate()
    with pytest.raises(ValueError):  # options only fit graph-model policies
        ExperimentConfig(
            policy=PolicyConfig(name="eraser", options={"threshold": 0.1})
        ).validate()
    with pytest.raises(ValueError, match="did you mean"):
        ExperimentConfig(
            noise=NoiseConfig(overrides={"leakage_mobilty": 0.3})
        ).validate()


def test_validation_rejects_wrong_field_types_with_field_path():
    with pytest.raises(ValueError, match="execution.shots must be integer"):
        ExperimentConfig().override("execution.shots", "abc").validate()
    with pytest.raises(ValueError, match="code.distance must be integer or null"):
        ExperimentConfig().override("code.distance", 3.5).validate()
    with pytest.raises(ValueError, match="execution.decoded must be boolean"):
        ExperimentConfig().override("execution.decoded", 1).validate()
    with pytest.raises(ValueError, match="noise.overrides must be object"):
        ExperimentConfig().override("noise.overrides", "x").validate()
    # bool must not sneak into integer fields (bool subclasses int)
    with pytest.raises(ValueError, match="execution.window_rounds"):
        ExperimentConfig().override("execution.window_rounds", True).validate()


def test_override_dotted_paths():
    config = ExperimentConfig()
    assert config.override("decoder.name", "union_find").decoder.name == "union_find"
    assert config.override("name", "renamed").name == "renamed"
    with pytest.raises(ValueError, match="unknown"):
        config.override("decoder.nmae", "matching")
    with pytest.raises(ValueError):
        config.override("nonsense.path.here", 1)


def test_digest_and_unit_key_canonicalize_alias_spellings():
    """mwpm/matching, always/always-lrc, Surface/surface: one cache key."""
    from repro.sweeps.units import WorkUnit, canonical_config, unit_key

    aliased = ExperimentConfig.from_dict(
        {"code": {"name": "Surface"}, "decoder": {"name": "mwpm"},
         "policy": {"name": "ALWAYS"}, "execution": {"decoded": False}}
    )
    canonical = ExperimentConfig.from_dict(
        {"code": {"name": "surface"}, "decoder": {"name": "matching"},
         "policy": {"name": "always-lrc"}, "execution": {"decoded": False}}
    )
    assert aliased.digest() == canonical.digest()
    assert unit_key(WorkUnit(canonical_config(aliased))) == unit_key(
        WorkUnit(canonical_config(canonical))
    )


def test_digest_ignores_performance_only_knobs():
    base = _full_config()
    assert base.digest() == base.override("execution.workers", 16).digest()
    assert base.digest() == base.override("name", "other").digest()
    assert base.digest() != base.override("execution.seed", 99).digest()
    assert base.digest() != base.override("code.distance", 3).digest()


def test_decoded_windowed_config_keys_are_pinned():
    """Literal config digest and sweep unit key of a decoded windowed config.

    Sweep caches and durable job stores are addressed by these keys, so a
    change to either value orphans every stored result; such a change must
    come with an ``ENGINE_VERSION`` bump.
    """
    from repro.sweeps.units import WorkUnit, canonical_config, unit_key

    config = _full_config()
    assert config.digest() == (
        "cbebd1d341e45503ee6dba2c056af3745cd5ea626c2bf3e5a6fb068a0a1f6d7d"
    )
    assert unit_key(WorkUnit(canonical_config(config))) == (
        "76aee26889a3559b9d7bf566f316f0b69c5b286f91888d1339c341c4b2feed30"
    )


def test_smoke_preset_unit_key_is_pinned(monkeypatch):
    """Literal key of the first unit of the ``smoke`` sweep preset: an
    undecoded unit whose noise comes from a ``SweepSpec`` grid point."""
    from repro.sweeps.registry import build_sweep
    from repro.sweeps.units import unit_key

    monkeypatch.setenv("REPRO_SCALE", "smoke")
    unit = build_sweep("smoke").units()[0]
    assert unit_key(unit) == (
        "ef3d8060f863fef756e5c33b8bd6cc31ac9467582ed495ec1ea09d97cd0943ca"
    )


def test_policy_options_unit_key_is_pinned():
    """Literal key of an undecoded unit with graph-model options: the key
    digests the full option set, not just the fields the config names."""
    from repro.api.session import Session
    from repro.sweeps.units import unit_key

    config = ExperimentConfig.from_dict(
        {"code": {"name": "surface", "distance": 3},
         "policy": {"name": "gladiator-d+m",
                    "options": {"threshold": 0.2, "include_second_order": False}},
         "execution": {"shots": 20, "rounds": 5, "seed": 9, "decoded": False}}
    )
    (unit,) = Session(config).work_units()
    assert unit_key(unit) == (
        "7e1b459a8d4d942eaa25611683b348fdcef208f9f4d74d9a0717a1817cf74926"
    )


def test_time_structured_noise_unit_key_is_pinned():
    """Literal key of a unit under a time-structured preset: the schedule
    fields of the built noise are part of the key."""
    from repro.api.session import Session
    from repro.sweeps.units import unit_key

    config = ExperimentConfig.from_dict(
        {"code": {"name": "toric", "distance": 3},
         "noise": {"preset": "drift", "p": 2e-3,
                   "overrides": {"leakage_mobility": 0.2}},
         "policy": {"name": "gladiator"},
         "decoder": {"name": "union_find"},
         "execution": {"shots": 300, "rounds": 6, "seed": 4}}
    )
    (unit,) = Session(config).work_units()
    assert unit_key(unit) == (
        "cbc3ca657f374e21070d03c1222d8f4351c05af49fd86a3d1da67903d08f9a7a"
    )


def test_build_helpers_construct_the_configured_components():
    config = _full_config()
    code = build_code(config)
    assert code.name == "color_d5"
    noise = build_noise(config)
    assert noise == paper_noise(p=2e-3, leakage_ratio=1.0).with_(leakage_mobility=0.2)
    policy = build_policy(config)
    assert policy.describe() == "gladiator+M"
    # custom preset reconstructs arbitrary NoiseParams exactly
    from dataclasses import asdict

    exotic = paper_noise(p=3e-3).with_(gate_error_factor=5.0)
    rebuilt = build_noise(NoiseConfig(preset="custom", overrides=asdict(exotic)))
    assert rebuilt == exotic


def test_noise_preset_without_rates_rejects_rates():
    with pytest.raises(ValueError, match="does not take"):
        NoiseConfig(preset="ideal", p=1e-3).validate()
    NoiseConfig(preset="ideal").validate()


# --------------------------------------------------------------------- #
# JSON schema
# --------------------------------------------------------------------- #
def test_config_schema_shape_and_registry_enums():
    schema = config_schema()
    assert schema["title"] == "repro ExperimentConfig"
    sections = schema["properties"]
    assert set(sections) == {"name", "code", "noise", "policy", "decoder", "execution"}
    assert sections["code"]["properties"]["name"]["enum"] == CODES.names()
    assert sections["policy"]["properties"]["name"]["enum"] == POLICIES.names()
    assert sections["decoder"]["properties"]["name"]["enum"] == DECODERS.names()
    assert sections["noise"]["properties"]["preset"]["enum"] == NOISE_PRESETS.names()
    # optional ints carry both types; defaults are stamped
    distance = sections["code"]["properties"]["distance"]
    assert set(distance["type"]) == {"integer", "null"}
    assert sections["execution"]["properties"]["shots"]["default"] == 100
    json.dumps(schema)  # fully serialisable
