"""EngineConfig facade: one keyword-only signature per entry point."""

import pytest

from repro import EngineConfig, OassisEngine
from repro.datasets import running_example


@pytest.fixture(scope="module")
def ontology():
    return running_example.build_ontology()


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.max_values_per_var == 3
        assert config.sample_size == 5

    def test_override_keeps_unset_fields(self):
        config = EngineConfig(max_values_per_var=2)
        bumped = config.override(sample_size=7)
        assert bumped.max_values_per_var == 2
        assert bumped.sample_size == 7
        # None means "keep" — the replay/execute call-sites rely on it
        assert config.override(sample_size=None).sample_size == config.sample_size

    def test_engine_reads_config(self, ontology):
        engine = OassisEngine(ontology, config=EngineConfig(max_values_per_var=2))
        assert engine.max_values_per_var == 2
        assert engine.config.max_values_per_var == 2

    def test_retired_call_shapes_raise(self, ontology):
        """Loose constructor knobs and positional tails are gone."""
        with pytest.raises(TypeError):
            OassisEngine(ontology, max_values_per_var=2)
        with pytest.raises(TypeError):
            OassisEngine(ontology, EngineConfig())
        engine = OassisEngine(ontology)
        query = engine.parse(running_example.FRAGMENT_QUERY)
        with pytest.raises(TypeError):
            engine.queue_manager(query, 2)
        assert engine.queue_manager(query, sample_size=2).aggregator.sample_size == 2
