"""EngineConfig: the single knob surface of the engine facade.

Before the API redesign every :class:`~repro.engine.engine.OassisEngine`
entry point grew its own drifting argument list (``sample_size`` here,
``max_more_facts`` there, ``include_invalid`` in three places).  All
evaluation-policy knobs now live in one frozen dataclass; the engine
methods take keyword-only per-call *overrides* that default to the
configured values.  ``docs/MIGRATION.md`` maps the retired call shapes
onto these.

    from repro import EngineConfig, OassisEngine

    engine = OassisEngine(ontology, config=EngineConfig(max_values_per_var=2))
    result = engine.execute(query, members)            # sample_size from config
    result = engine.execute(query, members, sample_size=7)  # per-call override
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..nlg.templates import DEFAULT_TEMPLATES, QuestionTemplates


@dataclass(frozen=True)
class EngineConfig:
    """Evaluation policy for one :class:`OassisEngine`.

    * ``templates`` — natural-language question templates;
    * ``max_values_per_var`` / ``max_more_facts`` — assignment-space caps
      (lattice width controls);
    * ``sample_size`` — answers the aggregator collects per assignment;
    * ``include_invalid`` — keep invalid MSPs in query results;
    * ``max_total_questions`` — global crowd budget (None = unbounded).
    """

    templates: QuestionTemplates = field(default=DEFAULT_TEMPLATES)
    max_values_per_var: int = 3
    max_more_facts: int = 1
    sample_size: int = 5
    include_invalid: bool = False
    max_total_questions: Optional[int] = None

    def override(self, **changes) -> "EngineConfig":
        """A copy with non-None ``changes`` applied (None = keep current)."""
        effective = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **effective) if effective else self
