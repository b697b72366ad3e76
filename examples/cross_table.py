"""Cross-table questions: set routing, composition, the SQL oracle.

Run with::

    python examples/cross_table.py

The script registers two shards that can only answer a question
*together* — a medals fact table and a nation→continent dimension table
— then walks the whole composition pipeline: the router's covering-set
proposals (``ShardRouter.route_sets``), the composed answer with its
cross-shard join provenance on the v2 envelope, and the two-table SQL
translation that gates every composed answer.
"""

from __future__ import annotations

from repro.api import ReproEngine
from repro.dcs import from_sexpr
from repro.sql import check_composed_equivalence, to_sql
from repro.tables import Table

QUESTION = "what is the total for nations in Oceania"


def main() -> None:
    # 1. Two shards; neither alone can answer the question. "Total"
    #    lives in medals, "Oceania" lives only in regions.
    medals = Table(
        columns=["Nation", "Total", "Golds"],
        rows=[
            ["Fiji", "120", "40"],
            ["Samoa", "80", "20"],
            ["Tonga", "95", "30"],
            ["Greece", "210", "60"],
            ["Norway", "300", "90"],
        ],
        name="medals",
    )
    regions = Table(
        columns=["Nation", "Continent"],
        rows=[
            ["Fiji", "Oceania"],
            ["Samoa", "Oceania"],
            ["Tonga", "Oceania"],
            ["Greece", "Europe"],
            ["Norway", "Europe"],
        ],
        name="regions",
    )
    engine = ReproEngine(tables=[medals, regions])

    # 2. The set router: no single shard covers every anchored term, so
    #    it proposes covering *sets*.
    sets = engine.routing_sets(QUESTION)
    print("question      :", QUESTION)
    print("coverable     :", ", ".join(sets.coverable))
    print("single covers :", sets.single_covered)
    for rank, proposal in enumerate(sets.proposals):
        names = " + ".join(ref.name for ref in proposal.refs)
        state = "complete" if proposal.complete else f"missing {proposal.missing}"
        print(f"proposal {rank}    : {names} ({state}, score {proposal.score})")

    # 3. The composed answer, with provenance spanning both shards.
    result = engine.query(QUESTION)
    composed = result.composed
    print()
    print("composed      :", ", ".join(composed.answer))
    print("lambda DCS    :", composed.sexpr)
    print("utterance     :", composed.utterance)
    print(
        "provenance    :",
        f"{composed.primary.name} ⋈ {composed.secondary.name} "
        f"on {composed.left_column} = {composed.right_column}, "
        f"pairs {list(composed.join_pairs)}",
    )

    # 4. The oracle: the same query as a real two-table sqlite JOIN.
    query = from_sexpr(composed.sexpr)
    print()
    print("SQL           :", to_sql(query))
    report = check_composed_equivalence(query, medals, regions)
    print("sqlite agrees :", report.equivalent)


if __name__ == "__main__":
    main()
