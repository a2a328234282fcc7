"""The public API surface promised by docs/api.md must exist."""

import importlib

import pytest

SURFACE = {
    "repro": [
        "parse_program", "parse_query", "parse_atom",
        "Program", "Rule", "Query",
        "Atom", "Negation", "Comparison",
        "Variable", "Constant", "Compound",
        "format_program", "format_query", "format_rule",
        "Database", "EvalStats", "evaluate", "evaluate_query",
        "QueryResult",
        "adorn_query", "magic_rewrite", "classical_counting_rewrite",
        "extended_counting_rewrite", "reduce_rewriting", "optimize",
        "run_strategy", "STRATEGIES", "ExecutionResult",
        "OptimizationPlan", "errors",
    ],
    "repro.datalog": [
        "cons", "make_list", "make_tuple", "unify", "substitute",
        "resolve", "check_rule_safety", "check_program_safety",
        "is_safe", "ProgramAnalysis", "pprint",
    ],
    "repro.datalog.validation": [
        "validate_query", "ValidationReport", "MethodVerdict",
    ],
    "repro.engine": [
        "Database", "Relation", "SemiNaiveEngine", "evaluate_program",
        "evaluate_query", "EvalStats", "DerivationTrace",
        "reorder_body", "WILDCARD",
    ],
    "repro.rewriting": [
        "adorn_query", "canonicalize_clique", "magic_rewrite",
        "supplementary_magic_rewrite", "classical_counting_rewrite",
        "encoded_counting_rewrite", "extended_counting_rewrite",
        "reduce_rewriting", "cyclic_counting_program_text",
        "rule_shape", "is_mixed_linear", "is_right_linear_program",
        "is_left_linear_program", "optimize", "choose_method",
    ],
    "repro.exec": [
        "run_strategy", "STRATEGIES", "CountingEngine",
        "MagicCountingEngine", "recurring_nodes",
        "wavefront_counting_table", "tables_equivalent",
    ],
    "repro.graph": [
        "classify_arcs", "node_classes", "is_tree", "is_acyclic",
        "elementary_cycles",
    ],
    "repro.graph.properties": ["strongly_connected_components"],
    "repro.data": ["WORKLOADS", "get_workload", "generators"],
    "repro.bench": [
        "run_matrix", "sweep", "matrix_table", "format_table",
        "speedup", "summarize",
    ],
    "repro.errors": [
        "ReproError", "ParseError", "SafetyError", "AnalysisError",
        "NotStratifiedError", "RewritingError", "NotApplicableError",
        "CountingDivergenceError", "EvaluationError",
    ],
}

EXPECTED_STRATEGIES = {
    "naive", "magic", "sup_magic", "classical_counting",
    "encoded_counting", "extended_counting", "reduced_counting",
    "pointer_counting", "cyclic_counting", "magic_counting",
    "parallel",
}


@pytest.mark.parametrize(
    "module,name",
    [(m, n) for m, names in sorted(SURFACE.items()) for n in names],
)
def test_symbol_exists(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), "%s.%s" % (module, name)


def test_strategy_registry_complete():
    from repro.exec import STRATEGIES

    assert set(STRATEGIES) == EXPECTED_STRATEGIES


def test_api_doc_mentions_every_strategy():
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "api.md")) as handle:
        text = handle.read()
    for name in EXPECTED_STRATEGIES:
        assert name in text, name


def test_all_lists_are_accurate():
    for module in ("repro", "repro.datalog", "repro.engine",
                   "repro.rewriting", "repro.exec", "repro.graph",
                   "repro.data", "repro.bench"):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), "%s.%s" % (module, name)
