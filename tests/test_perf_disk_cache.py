"""Tests for the content-addressed on-disk cache (``repro.perf.diskcache``)
and its wiring into :class:`~repro.parser.candidates.SemanticParser`.

The acceptance contract of ISSUE 2: a warm-start process (fresh parser,
same disk store) produces candidates identical to a cold run — and skips
generation entirely.
"""

from __future__ import annotations

import dataclasses
import pickle

from repro.parser import ParserConfig, SemanticParser
from repro.parser.grammar import CandidateGrammar
from repro.perf import DiskCache
from repro.perf.diskcache import CANDIDATES_NAMESPACE, DISK_CACHE_SCHEMA, TABLES_NAMESPACE
from repro.tables import Table
from repro.tables import index as index_module
from repro.tables import table as table_module
from repro.tables.values import StringValue


def small_table(name: str = "t") -> Table:
    return Table(
        columns=["Year", "Country"],
        rows=[[1896, "Greece"], [1900, "France"], [2004, "Greece"]],
        name=name,
    )


def signature(parse):
    return [(c.sexpr, c.score, c.probability, c.answer) for c in parse.candidates]


class TestDiskCacheStore:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("candidates", ("k",)) is None
        cache.put("candidates", ("k",), {"payload": 1})
        assert cache.get("candidates", ("k",)) == {"payload": 1}
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 1, "writes": 1, "errors": 0}
        assert len(cache) == 1

    def test_layout_is_fanned_out_under_version_root(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put_candidates("ab" * 32, "question", "sig", ())
        entries = list((tmp_path / "v2" / CANDIDATES_NAMESPACE).rglob("*.pkl"))
        assert len(entries) == 1
        # Two-hex fan-out directory between namespace and entry.
        assert len(entries[0].parent.name) == 2

    def test_corrupted_entry_degrades_to_miss_and_is_removed(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("candidates", ("k",), "value")
        path = cache._path("candidates", ("k",))
        path.write_bytes(b"not a pickle")
        assert cache.get("candidates", ("k",)) is None
        assert not path.exists()
        assert cache.stats()["errors"] == 1

    def test_schema_mismatch_degrades_to_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache._path("candidates", ("k",))
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(("some-other-schema", ("k",), "value")))
        assert cache.get("candidates", ("k",)) is None
        assert DISK_CACHE_SCHEMA == "repro-diskcache-v2"

    def test_an_entry_in_the_old_layout_is_a_miss_counted_as_an_error(
        self, tmp_path, monkeypatch
    ):
        """A pickle of the dict-backed cells must never load as a hit.

        The slotted ``Cell`` refuses the dict state an older process
        pickled; the dataclass default would have zipped the dict's keys
        into the fields and served ``Cell(3, 'Nation', 'value')``.
        """

        @dataclasses.dataclass(frozen=True)
        class Cell:  # the layout the v1 store pickled
            row_index: int
            column: str
            value: object

        Cell.__module__, Cell.__qualname__ = table_module.Cell.__module__, "Cell"
        with monkeypatch.context() as patch:
            patch.setattr(table_module, "Cell", Cell)
            old = Cell(3, "Nation", StringValue("Greece"))
            key = ("ab" * 32,)
            blob = pickle.dumps((DISK_CACHE_SCHEMA, key, old), protocol=pickle.HIGHEST_PROTOCOL)
        cache = DiskCache(tmp_path)
        path = cache._path(TABLES_NAMESPACE, key)
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.get(TABLES_NAMESPACE, key) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "writes": 0, "errors": 1}
        assert not path.exists()

    def test_the_v1_root_is_never_read(self, tmp_path):
        cache = DiskCache(tmp_path)
        # Where a v1 store kept this key, with a payload that would hit.
        old = tmp_path / "v1" / cache._path(CANDIDATES_NAMESPACE, ("k",)).relative_to(cache.root)
        old.parent.mkdir(parents=True)
        old.write_bytes(pickle.dumps((DISK_CACHE_SCHEMA, ("k",), "value")))
        assert cache.get(CANDIDATES_NAMESPACE, ("k",)) is None
        assert len(cache) == 0
        assert old.exists()

    def test_shared_root_between_instances(self, tmp_path):
        DiskCache(tmp_path).put("candidates", ("k",), 42)
        assert DiskCache(tmp_path).get("candidates", ("k",)) == 42


class TestParserDiskWiring:
    def test_warm_start_is_identical_to_cold_run(self, tmp_path, monkeypatch):
        """Fresh process simulation: a second parser over the same store
        must produce bit-identical candidates without generating."""
        cold_parser = SemanticParser(config=ParserConfig(disk_cache_dir=str(tmp_path)))
        questions = ["which country hosted in 2004", "what is the highest year"]
        cold = [signature(cold_parser.parse(question, small_table())) for question in questions]

        generate_calls = []
        original_generate = CandidateGrammar.generate
        monkeypatch.setattr(
            CandidateGrammar,
            "generate",
            lambda self, analysis: generate_calls.append(1)
            or original_generate(self, analysis),
        )
        warm_parser = SemanticParser(config=ParserConfig(disk_cache_dir=str(tmp_path)))
        warm = [signature(warm_parser.parse(question, small_table())) for question in questions]

        assert warm == cold
        assert generate_calls == [], "warm start re-ran candidate generation"
        stats = warm_parser.cache_stats()
        assert stats["disk"]["hits"] == len(questions)

    def test_disk_disabled_reports_zero_stats(self):
        parser = SemanticParser()
        assert parser.cache_stats()["disk"] == DiskCache.empty_stats()
        assert "indexes" in parser.cache_stats()

    def test_different_generation_config_never_shares_entries(self, tmp_path):
        loose = ParserConfig(disk_cache_dir=str(tmp_path), drop_empty_answers=False)
        strict = ParserConfig(disk_cache_dir=str(tmp_path))
        assert loose.generation_signature() != strict.generation_signature()
        question = "how many rows have country greece"
        loose_parse = SemanticParser(config=loose).parse(question, small_table())
        strict_parse = SemanticParser(config=strict).parse(question, small_table())
        reference = SemanticParser(config=ParserConfig()).parse(question, small_table())
        assert signature(strict_parse) == signature(reference)
        assert len(loose_parse.candidates) >= len(strict_parse.candidates)

    def test_table_edit_changes_disk_key(self, tmp_path):
        parser = SemanticParser(config=ParserConfig(disk_cache_dir=str(tmp_path)))
        question = "which country hosted in 2004"
        parser.parse(question, small_table())
        edited = Table(
            columns=["Year", "Country"],
            rows=[[1896, "Greece"], [1900, "France"], [2004, "Sweden"]],
        )
        fresh = SemanticParser(config=ParserConfig(disk_cache_dir=str(tmp_path)))
        parse = fresh.parse(question, edited)
        answers = {answer for candidate in parse.candidates for answer in candidate.answer}
        # No stale payload served for the edited content: the host of 2004
        # is now Sweden, and the disk lookup was a miss (different key).
        assert "Sweden" in answers
        assert fresh.cache_stats()["disk"]["hits"] == 0


class TestEvictionHooks:
    """The parser-level evict hook behind catalog shard eviction."""

    def test_evict_table_drops_in_memory_state(self, tmp_path):
        parser = SemanticParser(config=ParserConfig(disk_cache_dir=str(tmp_path)))
        table = small_table()
        parser.parse("which country hosted in 2004", table)
        assert table.fingerprint in parser.generator._per_table
        assert table.fingerprint in index_module._INDEX_REGISTRY
        parser.evict_table(table)
        assert table.fingerprint not in parser.generator._per_table
        assert not parser.generator._candidate_cache.items_for(table.fingerprint.digest)
        assert table.fingerprint not in index_module._INDEX_REGISTRY

    def test_parse_after_evict_is_identical_and_served_from_disk(self, tmp_path):
        parser = SemanticParser(config=ParserConfig(disk_cache_dir=str(tmp_path)))
        table = small_table()
        before = signature(parser.parse("which country hosted in 2004", table))
        parser.evict_table(table)
        disk_hits = parser.generator._disk_cache.hits
        after = signature(parser.parse("which country hosted in 2004", table))
        assert after == before
        assert parser.generator._disk_cache.hits > disk_hits  # candidates came from disk

    def test_evict_without_disk_cache_is_safe(self):
        parser = SemanticParser()
        table = small_table()
        before = signature(parser.parse("which country hosted in 2004", table))
        parser.evict_table(table)
        assert signature(parser.parse("which country hosted in 2004", table)) == before
