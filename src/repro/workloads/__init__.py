"""Workload generation: the synthetic book corpus, staging helpers, and
the hot/cold logical-IO access pattern."""

from repro.workloads.corpus import BookCorpus, BookFile, CorpusSpec, partition_round_robin
from repro.workloads.io_patterns import hot_cold
from repro.workloads.tables import CsvTable, TableSpec

__all__ = [
    "BookCorpus",
    "BookFile",
    "CorpusSpec",
    "CsvTable",
    "hot_cold",
    "partition_round_robin",
    "TableSpec",
]
