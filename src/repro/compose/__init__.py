"""Cross-table composition: join execution, planning, composed answers.

The subsystem that lifts the reproduction past single-table scope
(ROADMAP item 3): one :class:`~repro.dcs.ast.JoinRecords` bridge node in
the DCS tree, executed over a (primary, secondary) table pair by
:class:`ComposedExecutor`, planned lexically by :class:`JoinPlanner`,
verified against the two-table SQL translation
(:func:`repro.sql.check_composed_equivalence`), and surfaced as a
:class:`ComposedAnswer` with cross-shard join provenance through
``ask_any`` → the engine → the v2 wire envelope.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".answer": ["ComposedAnswer", "JoinProvenance"],
        ".compose": ["compose_answer", "compose_pair"],
        ".executor": ["ComposedExecutor", "execute_composed"],
        ".planner": ["JoinPlan", "JoinPlanner", "joinable_columns"],
    },
)

__all__ = [
    "ComposedAnswer",
    "JoinProvenance",
    "ComposedExecutor",
    "execute_composed",
    "JoinPlan",
    "JoinPlanner",
    "joinable_columns",
    "compose_answer",
    "compose_pair",
]
