"""Web-table substrate: the data model of Section 3.1 of the paper."""

from .values import (
    DateValue,
    NumberValue,
    StringValue,
    Value,
    parse_date,
    parse_number,
    parse_value,
    values_equal,
)
from .fingerprint import LRUCache, TableFingerprint, fingerprint_table
from .table import Cell, Record, Table, TableError
from .index import (
    ColumnIndex,
    TableIndex,
    clear_index_cache,
    evict_index,
    index_cache_stats,
    table_index,
    update_index,
)
from .diff import TableDiff, diff_tables
from .knowledge_base import KnowledgeBase, Triple
from .catalog import (
    AmbiguousTableError,
    CatalogAnswer,
    CatalogError,
    NameConflictError,
    TableCatalog,
    TableRef,
    UnknownTableError,
)
from .schema import (
    ColumnProfile,
    TableSchema,
    infer_schema,
    profile_column,
)
from .io import (
    load_tables,
    save_tables,
    table_from_csv,
    table_from_json,
    table_from_tsv,
    table_to_csv,
    table_to_json,
)

__all__ = [
    "Value",
    "StringValue",
    "NumberValue",
    "DateValue",
    "parse_value",
    "parse_number",
    "parse_date",
    "values_equal",
    "Cell",
    "Record",
    "Table",
    "TableError",
    "TableFingerprint",
    "fingerprint_table",
    "LRUCache",
    "ColumnIndex",
    "TableIndex",
    "table_index",
    "index_cache_stats",
    "clear_index_cache",
    "evict_index",
    "update_index",
    "TableDiff",
    "diff_tables",
    "KnowledgeBase",
    "Triple",
    "TableCatalog",
    "TableRef",
    "CatalogAnswer",
    "CatalogError",
    "NameConflictError",
    "UnknownTableError",
    "AmbiguousTableError",
    "ColumnProfile",
    "TableSchema",
    "infer_schema",
    "profile_column",
    "table_from_csv",
    "table_from_tsv",
    "table_from_json",
    "table_to_csv",
    "table_to_json",
    "save_tables",
    "load_tables",
]
