"""Workload inputs: generated from the seed, pinned in scale, digested.

Every generator gets the seed and an explicit size, so no environment
knob (``REPRO_BENCH_SCALE``) can resize a workload.  The program under
test receives only what this module builds — tables and the operation
script (reads and edits) — and the committed weights checkpoint.  The
gold labels stay on the benchmark's side for the answer checks.

:func:`input_digest` hashes raw cells, questions, gold labels and the
edit script; ``digests.json`` records it per workload and seed, so a
change in ``repro.dataset`` output fails the run instead of silently
changing the workload.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.dataset import DatasetConfig, build_dataset
from repro.dcs.ast import Query
from repro.dcs.sexpr import to_sexpr
from repro.tables.table import Table
from repro.tables.values import DateValue

WORKLOADS = ("interactive", "live_edits")

#: Zipf exponent of question popularity (weight of rank r is 1 / r**s).
ZIPF_S = 1.1

#: Script length per second of ``--seconds``: the nominal operation rate
#: of each workload on a 2-core host.  The run length is fixed in work,
#: not in time, so the cold/warm mix and the edit count do not move with
#: host speed.
OPS_PER_SECOND = {"interactive": 200, "live_edits": 75}

#: A run is this many rounds, each on its own corpus and its own
#: stand-up, with the script split evenly between them, so corpus
#: content and the host's speed drift average out within a run.  An
#: interactive round must stay long enough for its ~185 pairs to repeat
#: ~94% of the time; the cold reads of live_edits come from its few live
#: tables, so it takes more, shorter rounds.
ROUNDS = {"interactive": 2, "live_edits": 4}

#: Served corpora are seeded below this.  ``weights.json`` was trained on
#: a corpus seeded above it (README.md gives the recipe).  A ``--seed``
#: outside ``[0, MAX_SEED)`` is folded into it by :func:`served_seed`.
MAX_SEED = 10**6

#: Corpus sizes (pinned: no scale knob applies).
INTERACTIVE_TABLES = 24
LIVE_TABLES = 12
QUESTIONS_PER_TABLE = 8

#: live_edits: share of operations that are edits (exactly, at seeded
#: positions), and the edit mix.
#: Round r edits tables r, r + 4 and r + 8 of its 12 (the rest stay
#: static).  ``build_dataset`` gives table i the i-th of its 12 domains,
#: so every run edits one table of each domain, whatever the seed: the
#: cost of the re-cold parses does not hinge on which domains the seed
#: picks.  With all 12 live, a third of the reads are cold and a run of
#: 2400 operations took 60 s.
EDIT_SHARE = 1 / 8
EDIT_MIX = (("cell", 0.70), ("append", 0.15), ("drop", 0.15))
MIN_ROWS = 4

_INTEGER = re.compile(r"^-?\d+$")


@dataclass(frozen=True)
class Read:
    """One question routed to the table named ``target``."""

    question: str
    target: str


@dataclass(frozen=True)
class Edit:
    """Publish ``table`` as version ``version`` of the table named ``target``."""

    target: str
    table: Table
    kind: str
    version: int


Op = Union[Read, Edit]


@dataclass
class Inputs:
    """Everything one run of one workload needs, plus its gold labels."""

    workload: str
    seed: int
    round: int
    tables: List[Table]
    names: List[str]
    ops: List[Op]
    #: (question, table name) -> gold query.
    gold_queries: Dict[Tuple[str, str], Query] = field(default_factory=dict)
    #: digest -> (table name, version, table) for every version in the run.
    versions: Dict[str, Tuple[str, int, Table]] = field(default_factory=dict)

    @property
    def reads(self) -> int:
        return sum(isinstance(op, Read) for op in self.ops)

    @property
    def edits(self) -> int:
        return sum(isinstance(op, Edit) for op in self.ops)


def served_seed(seed: int) -> int:
    """The benchmark seed that any integer ``--seed`` stands for: ``seed mod MAX_SEED``."""
    return seed % MAX_SEED


def workload_seed(workload: str, seed: int, round_index: int) -> int:
    """The generator seed of one round: distinct per workload and round."""
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"--seed must be in [0, {MAX_SEED}), got {seed}")
    rounds = max(ROUNDS.values())
    return (seed * rounds + round_index) * len(WORKLOADS) + WORKLOADS.index(workload)


def round_length(workload: str, seconds: int) -> int:
    return max(1, int(round(OPS_PER_SECOND[workload] * seconds / ROUNDS[workload])))


def build_rounds(workload: str, seed: int, seconds: int) -> List[Inputs]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return [
        _routed(workload, seed, index, workload_seed(workload, seed, index),
                round_length(workload, seconds))
        for index in range(ROUNDS[workload])
    ]


# ---------------------------------------------------------------------------
# popularity
# ---------------------------------------------------------------------------


def zipf_draws(items: Sequence, count: int, rng: random.Random) -> List:
    """``count`` draws from ``items`` with Zipf popularity over a seeded rank order."""
    ranked = list(items)
    rng.shuffle(ranked)
    cumulative = []
    total = 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank**ZIPF_S
        cumulative.append(total)
    return rng.choices(ranked, cum_weights=cumulative, k=count)


def _unique_names(tables: Sequence[Table]) -> List[str]:
    names: List[str] = []
    taken = set()
    for table in tables:
        name, suffix = table.name, 2
        while name in taken:
            name, suffix = f"{table.name} ({suffix})", suffix + 1
        taken.add(name)
        names.append(name)
    return names


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _routed(workload: str, seed: int, round_index: int, generator_seed: int, length: int) -> Inputs:
    num_tables = INTERACTIVE_TABLES if workload == "interactive" else LIVE_TABLES
    dataset = build_dataset(
        DatasetConfig(
            num_tables=num_tables,
            questions_per_table=QUESTIONS_PER_TABLE,
            seed=generator_seed,
        )
    )
    names = _unique_names(dataset.tables)
    name_of = {id(table): name for table, name in zip(dataset.tables, names)}
    gold: Dict[Tuple[str, str], Query] = {}
    for example in dataset.examples:
        gold.setdefault((example.question, name_of[id(example.table)]), example.gold_query)
    inputs = Inputs(
        workload=workload,
        seed=seed,
        round=round_index,
        tables=list(dataset.tables),
        names=names,
        ops=[],
        gold_queries=gold,
        versions={
            table.fingerprint.digest: (name, 0, table)
            for table, name in zip(dataset.tables, names)
        },
    )
    rng = random.Random(generator_seed)
    reads = [Read(question, name) for question, name in gold]
    draws = zipf_draws(reads, length, rng)
    if workload == "interactive":
        inputs.ops = draws
        return inputs
    editor = EditGenerator(inputs, rng)
    edits = set(rng.sample(range(length), round(length * EDIT_SHARE)))
    inputs.ops = [
        editor.next_edit() if position in edits else read
        for position, read in enumerate(draws)
    ]
    return inputs


# ---------------------------------------------------------------------------
# the edit generator (live_edits)
# ---------------------------------------------------------------------------


def raw_rows(table: Table) -> List[List[str]]:
    return [[cell.display() for cell in record.cells] for record in table.records]


def date_columns(table: Table) -> List[str]:
    """Columns whose every cell is a date: rebuilding with them keeps the digest."""
    return [
        column
        for position, column in enumerate(table.columns)
        if table.records
        and all(isinstance(record.cells[position].value, DateValue) for record in table.records)
    ]


class EditGenerator:
    """Cell rewrites, appended rows and dropped rows of the live tables.

    Every edit yields a never-seen version.

    Edits of one table chain: each is generated from the previous version
    in script order, which is the order the single edit thread applies
    them in.  A version whose content was seen before (any table, any
    version) is regenerated, so ``ReproEngine.update`` never receives a
    no-op edit or content that folds into another shard.
    """

    def __init__(self, inputs: Inputs, rng: random.Random) -> None:
        self.inputs = inputs
        self.rng = rng
        self.live = inputs.names[inputs.round::ROUNDS[inputs.workload]]
        self.current = dict(zip(inputs.names, inputs.tables))
        self.version = {name: 0 for name in inputs.names}
        self.dates = {}
        for name, table in self.current.items():
            self.dates[name] = date_columns(table)
            rebuilt = Table(table.columns, raw_rows(table), name=table.name,
                            date_columns=self.dates[name])
            if rebuilt.fingerprint.digest != table.fingerprint.digest:
                raise ValueError(f"table {name!r} does not survive a raw-cell rebuild")

    def next_edit(self) -> Edit:
        rng = self.rng
        name = rng.choice(self.live)
        old = self.current[name]
        kind = rng.choices([kind for kind, _ in EDIT_MIX], weights=[w for _, w in EDIT_MIX])[0]
        if kind == "drop" and old.num_rows <= MIN_ROWS:
            kind = "cell"
        for _ in range(100):
            rows = raw_rows(old)
            getattr(self, f"_{kind}")(rows)
            table = Table(old.columns, rows, name=old.name, date_columns=self.dates[name])
            if table.fingerprint.digest not in self.inputs.versions:
                break
        else:
            raise ValueError(f"no fresh edit of {name!r} after 100 attempts")
        self.version[name] += 1
        self.current[name] = table
        self.inputs.versions[table.fingerprint.digest] = (name, self.version[name], table)
        return Edit(target=name, table=table, kind=kind, version=self.version[name])

    def _bump(self, text: str) -> str:
        return str(int(text) + self.rng.choice((-3, -2, -1, 1, 2, 3)))

    def _cell(self, rows: List[List[str]]) -> None:
        rng = self.rng
        while True:
            row, column = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            text = rows[row][column]
            if _INTEGER.match(text):
                rows[row][column] = self._bump(text)
                return
            others = sorted({other[column] for other in rows} - {text})
            if others:
                rows[row][column] = rng.choice(others)
                return

    def _append(self, rows: List[List[str]]) -> None:
        rng = self.rng
        rows.append([rows[rng.randrange(len(rows))][column] for column in range(len(rows[0]))])
        numeric = [c for c, text in enumerate(rows[-1]) if _INTEGER.match(text)]
        if numeric:
            column = rng.choice(numeric)
            rows[-1][column] = self._bump(rows[-1][column])

    def _drop(self, rows: List[List[str]]) -> None:
        del rows[self.rng.randrange(len(rows))]


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _feed(digest, item) -> None:
    digest.update(json.dumps(item, ensure_ascii=False, sort_keys=True).encode("utf-8"))
    digest.update(b"\n")


def _table_item(name: str, table: Table) -> list:
    return [name, table.columns, date_columns(table), raw_rows(table)]


def input_digest(rounds: Sequence[Inputs]) -> str:
    """SHA-256 over raw cells, questions, gold labels and the edit script of every round."""
    digest = hashlib.sha256()
    for inputs in rounds:
        _feed(digest, [inputs.workload, inputs.seed, inputs.round, len(inputs.ops)])
        for name, table in zip(inputs.names, inputs.tables):
            _feed(digest, _table_item(name, table))
        for (question, name), query in inputs.gold_queries.items():
            _feed(digest, ["gold", question, name, to_sexpr(query)])
        for op in inputs.ops:
            if isinstance(op, Read):
                _feed(digest, ["read", op.question, op.target])
            else:
                _feed(digest, ["edit", op.kind, op.version, _table_item(op.target, op.table)])
    return digest.hexdigest()


def weights_digest(weights: Dict[str, float]) -> str:
    return hashlib.sha256(
        json.dumps(sorted(weights.items()), allow_nan=True).encode("utf-8")
    ).hexdigest()
