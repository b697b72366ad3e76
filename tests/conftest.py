"""Shared fixtures: the paper's running-example tables and small datasets."""

from __future__ import annotations

import pytest

from repro.tables import Table


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: fast, scaled-down sweep of the bench code paths "
        "(parse: all backends, disk cache warm/cold); select with "
        "-m bench_smoke",
    )


@pytest.fixture
def olympics_table() -> Table:
    """The Figure 1 table: Olympic games host cities."""
    return Table(
        columns=["Year", "Country", "City"],
        rows=[
            [1896, "Greece", "Athens"],
            [1900, "France", "Paris"],
            [2004, "Greece", "Athens"],
            [2008, "China", "Beijing"],
            [2012, "UK", "London"],
            [2016, "Brazil", "Rio de Janeiro"],
        ],
        name="olympics",
    )


@pytest.fixture
def medals_table() -> Table:
    """The Figure 6 table: Pacific Games medal tally."""
    return Table(
        columns=["Rank", "Nation", "Gold", "Silver", "Bronze", "Total"],
        rows=[
            [1, "New Caledonia", 120, 107, 61, 288],
            [2, "Tahiti", 60, 42, 42, 144],
            [3, "Papua New Guinea", 48, 25, 48, 121],
            [4, "Fiji", 33, 44, 53, 130],
            [5, "Samoa", 22, 17, 34, 73],
            [6, "Nauru", 8, 10, 10, 28],
            [7, "Tonga", 4, 6, 10, 20],
            [8, "Vanuatu", 3, 5, 8, 16],
        ],
        name="medals",
    )


@pytest.fixture
def roster_table() -> Table:
    """The Figure 4 table: national team appearances."""
    return Table(
        columns=["Name", "Position", "Games", "Club", "Goals"],
        rows=[
            ["Erich Burgener", "GK", 3, "Servette", 0],
            ["Charly In-Albon", "DF", 4, "Grasshoppers", 0],
            ["Andy Egli", "DF", 6, "Grasshoppers", 1],
            ["Marcel Koller", "DF", 2, "Grasshoppers", 0],
            ["Heinz Hermann", "MF", 6, "Grasshoppers", 2],
            ["Lucien Favre", "MF", 5, "Toulouse", 1],
            ["Roger Berbig", "GK", 3, "Grasshoppers", 0],
            ["Rene Botteron", "MF", 1, "FC Nuremburg", 0],
        ],
        name="roster",
    )


@pytest.fixture
def shipwrecks_table() -> Table:
    """The Figure 9 table: Great Lakes shipwrecks."""
    return Table(
        columns=["Ship", "Vessel", "Lake", "Lives lost"],
        rows=[
            ["Argus", "Steamer", "Lake Huron", 25],
            ["Hydrus", "Steamer", "Lake Huron", 28],
            ["Plymouth", "Barge", "Lake Michigan", 7],
            ["Issac M. Scott", "Steamer", "Lake Huron", 28],
            ["Henry B. Smith", "Steamer", "Lake Superior", 23],
            ["Lightship No. 82", "Lightship", "Lake Erie", 6],
            ["Wexford", "Steamer", "Lake Huron", 17],
            ["Leafield", "Steamer", "Lake Superior", 18],
        ],
        name="shipwrecks",
    )


@pytest.fixture
def seasons_table() -> Table:
    """The Figure 8 table: club seasons (USL A-League)."""
    return Table(
        columns=["Year", "League", "Attendance", "Open Cup"],
        rows=[
            [2002, "USL A-League", 6260, "Did not qualify"],
            [2003, "USL A-League", 5871, "Did not qualify"],
            [2004, "USL A-League", 5628, "4th Round"],
            [2005, "USL First Division", 6028, "4th Round"],
            [2006, "USL First Division", 5575, "3rd Round"],
            [2007, "USL First Division", 6851, "2nd Round"],
            [2008, "USL First Division", 8567, "1st Round"],
            [2009, "USL First Division", 9734, "3rd Round"],
        ],
        name="seasons",
        date_columns=[],
    )


@pytest.fixture
def large_table() -> Table:
    """A table large enough to require highlight sampling (Section 5.3)."""
    rows = []
    countries = ["Madagascar", "Burkina Faso", "Kenya", "Ghana", "Togo"]
    for index in range(200):
        rows.append(
            [
                index + 1,
                countries[index % len(countries)],
                1980 + (index % 35),
                round(1.5 + (index % 17) * 0.1, 2),
            ]
        )
    return Table(
        columns=["Row", "Country", "Year", "Growth Rate"],
        rows=rows,
        name="growth",
    )


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small synthetic dataset shared by parser / interface tests."""
    from repro.dataset import DatasetConfig, build_dataset

    return build_dataset(DatasetConfig(num_tables=12, questions_per_table=5, seed=21))


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    from repro.dataset import split_by_tables

    return split_by_tables(tiny_dataset, test_fraction=0.25, seed=2)


@pytest.fixture(scope="session")
def small_trained_parser(tiny_split):
    """A parser trained briefly with weak supervision (session-scoped: reused)."""
    from repro.parser import train_parser

    return train_parser(
        tiny_split.train.training_examples(annotated=False)[:50],
        epochs=2,
        use_annotations=False,
        seed=3,
    )
