"""Differential tests for :class:`repro.parser.CandidateGenerator` sharing.

A parser built on another parser's generator must behave exactly like a
parser with a private generator: the same candidate lists in the same
order, and training on them reaches the same weights bit for bit.
"""

import pytest

from repro.dataset import DatasetConfig, build_dataset
from repro.parser import CandidateGenerator, ParserConfig, SemanticParser, train_parser
from repro.parser.grammar import GenerationConfig


@pytest.fixture(scope="module")
def corpus():
    return build_dataset(DatasetConfig(num_tables=4, questions_per_table=3, seed=29))


def listing(candidates):
    return [
        (candidate.sexpr, candidate.features, candidate.answer)
        for candidate in candidates
    ]


def ranked(parse):
    return [
        (candidate.sexpr, candidate.score, candidate.probability)
        for candidate in parse.candidates
    ]


class TestSharedGenerator:
    def test_shared_lists_equal_private_lists_in_order(self, corpus):
        pairs = [(example.question, example.table) for example in corpus.examples]
        baseline = SemanticParser()
        for question, table in pairs:
            baseline.generate_candidates(question, table)
        shared = SemanticParser(generator=baseline.generator)
        private = SemanticParser()
        for question, table in pairs:
            shared_candidates, _ = shared.generate_candidates(question, table)
            private_candidates, _ = private.generate_candidates(question, table)
            assert listing(shared_candidates) == listing(private_candidates)
        # The shared parser answered every question from the baseline's lists.
        assert shared.cache_stats()["candidates"]["hits"] == len(pairs)

    def test_training_on_a_shared_generator_gives_equal_weights(self, corpus):
        examples = corpus.training_examples(annotated=True)
        baseline = train_parser(examples, epochs=2, use_annotations=False, seed=3)
        shared = train_parser(
            examples, epochs=2, use_annotations=True, seed=5,
            parser=SemanticParser(generator=baseline.generator),
        )
        private = train_parser(examples, epochs=2, use_annotations=True, seed=5)
        assert shared.model.weights
        assert shared.model.weights == private.model.weights
        for example in corpus.examples:
            assert ranked(shared.parse(example.question, example.table)) == ranked(
                private.parse(example.question, example.table)
            )

    def test_a_shared_generator_brings_its_config(self):
        config = ParserConfig(generation=GenerationConfig(enable_difference=False))
        generator = CandidateGenerator(config)
        assert SemanticParser(generator=generator).config is config
        parser = SemanticParser(
            config=ParserConfig(generation=GenerationConfig(enable_difference=False)),
            generator=generator,
        )
        assert parser.generator is generator

    def test_a_conflicting_config_is_rejected(self):
        generator = CandidateGenerator(
            ParserConfig(generation=GenerationConfig(enable_difference=False))
        )
        with pytest.raises(ValueError):
            SemanticParser(config=ParserConfig(), generator=generator)
