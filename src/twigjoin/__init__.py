"""Twig-pattern queries over XML via a path summary and prefix merge
joins on hierarchical node labels.

The pipeline: ingest XML into labeled node events (`document`), build
a PathGuide whose nodes carry sorted extent lists (`path_guide`),
parse and decompose twig queries (`twig`), compile DataTables that
pin down which extents join at which prefix level (`dt`), and execute
the merges with jump-based skipping (`matcher`).  `oracle` holds the
reference engines results are checked against, `index_io` the on-disk
index format, and `cli` the command-line surface.
"""

from .dewey import (
    EPSILON,
    DeweyLabel,
    LabelError,
    child_label,
    compare,
    decode,
    encode,
    format_label,
    parse_label,
)
from .document import GeneratorConfig, IngestError, NodeEvent, generate, ingest
from .dt import DataTable, DTSchema, build_dt_schema, explain
from .index_io import Index, IndexFormatError
from .kernels import get_backend
from .matcher import (
    Cursor,
    MatchTuple,
    NodeList,
    ResultLimitError,
    ResultSet,
    as_node_list,
    evaluate,
    jump,
    match_proc,
)
from .metrics import Metrics
from .oracle import MaterializedDoc, leaf_scan_match, naive_match
from .path_guide import ExtentList, GuideError, PathGuide
from .twig import (
    Decomposition,
    QuerySyntaxError,
    SingleBranchQuery,
    TwigPattern,
    parse,
    print_query,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "DeweyLabel",
    "EPSILON",
    "LabelError",
    "child_label",
    "compare",
    "encode",
    "decode",
    "format_label",
    "parse_label",
    "NodeEvent",
    "IngestError",
    "ingest",
    "GeneratorConfig",
    "generate",
    "PathGuide",
    "ExtentList",
    "GuideError",
    "TwigPattern",
    "QuerySyntaxError",
    "SingleBranchQuery",
    "Decomposition",
    "parse",
    "print_query",
    "split",
    "DataTable",
    "DTSchema",
    "build_dt_schema",
    "explain",
    "Cursor",
    "NodeList",
    "as_node_list",
    "jump",
    "match_proc",
    "MatchTuple",
    "ResultSet",
    "ResultLimitError",
    "evaluate",
    "Metrics",
    "MaterializedDoc",
    "naive_match",
    "leaf_scan_match",
    "Index",
    "IndexFormatError",
    "get_backend",
    "__version__",
]
