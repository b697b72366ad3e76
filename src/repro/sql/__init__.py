"""Lambda DCS → SQL translation (paper Table 10) and a sqlite oracle."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".translate": [
            "INDEX_COLUMN", "SECONDARY_TABLE_NAME", "TABLE_NAME", "SQLQuery",
            "SQLTranslationError", "literal", "quote_identifier", "to_sql",
        ],
        ".sqlite_backend": ["JoinSQLiteBackend", "SQLResult", "SQLiteBackend"],
        ".equivalence": [
            "EquivalenceReport", "check_composed_equivalence", "check_equivalence",
            "check_many",
        ],
    },
)

__all__ = [
    "to_sql",
    "SQLQuery",
    "SQLTranslationError",
    "literal",
    "quote_identifier",
    "TABLE_NAME",
    "SECONDARY_TABLE_NAME",
    "INDEX_COLUMN",
    "SQLiteBackend",
    "JoinSQLiteBackend",
    "SQLResult",
    "check_equivalence",
    "check_composed_equivalence",
    "check_many",
    "EquivalenceReport",
]
