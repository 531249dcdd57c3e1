"""catql: functorial data migration.

Schemas are finitely presented categories, instances are set-valued
functors, and data moves along schema mappings by the pullback (delta),
left-pushforward (sigma), and limit (pi) migrations.  On top sit a
select/from/where query layer that desugars to sigma . pi . delta, a
restricted SQL import/export bridge, a small script language, and a CLI
driving a semantic-enrichment pipeline.
"""

from .core import (
    ConstPath,
    DEFAULT_BOUND,
    Mapping,
    Path,
    PathEquation,
    Schema,
    apply_mapping,
    compose_mappings,
    enumerate_morphisms,
    identity_mapping,
    identity_path,
    make_schema,
    normalize_path,
    path_compose,
    paths_equal,
    validate_mapping,
    validate_schema,
)
from .errors import (
    CatqlError,
    DesugarError,
    InconsistencyError,
    LimitExceeded,
    NormalizationInconclusive,
    NotSaturated,
    ParseError,
    SchemaError,
    ScriptError,
    SqlExportError,
    SqlImportError,
    TypecheckError,
    ValidationError,
)
from .instances import (
    Instance,
    LabelledNull,
    disjoint_union,
    empty_instance,
    enumerate_homs,
    eval_path,
    iso_check,
    relationalize,
    union,
    validate_instance,
)
from .migration import delta, pi, sigma
from .parsing import parse_query, parse_script
from .queries import (
    Query,
    compile_query,
    desugar_query,
    eval_query_direct,
    eval_query_via_migration,
    result_schema,
    typecheck_query,
)
from .render import render_instance
from .scenario import (
    ScenarioConfig,
    build_fn,
    closure_auto,
    compose_relations,
    enrich,
    enrich_edge,
    generate_enrichment,
    op_relation,
    relation_from_pairs,
    relation_pairs,
    transitive_closure,
    translate_isa,
)
from .scripts import Environment, format_script, run_script
from .sqlbridge import export_sql, import_sql

__version__ = "0.1.0"
