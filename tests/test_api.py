import importlib
import importlib.util
import pathlib
import types

import racklab

# everything `from racklab import ...` offers besides the submodules; a name
# added here is public API that users may come to depend on
PUBLIC_NAMES = {
    "AuditFail", "AxiomReport", "CheckParameterError", "CodecParams", "CodecStats",
    "ColoredDigraph", "CorruptStream", "DegreeSplitError",
    "EncodeConsistencyError", "EnumReport", "InconsistentDecode", "InfoTuple",
    "MalformedTableError", "MergeAuditReport", "NotAGroupError", "NotARackError",
    "NotAbelianError", "NotAutomorphismError", "OrderOutOfRange", "OrderTooLarge",
    "OrderTooLargeForHeader", "Rack", "RackParseError", "Residual", "Violation",
    "WSearchResult", "alexander_quandle", "axiom_report", "build_info",
    "canonical_form", "chernoff_check", "component_out_degree_constant",
    "components", "conjugation_quandle",
    "cyclic_group_table", "decode", "degree_split", "dihedral_group_table",
    "dihedral_quandle", "encode", "encode_with_stats", "encoding_stats",
    "enumerate_classes", "enumerate_labeled", "extract_residual", "find_W",
    "format_rack", "greedy_merge_order", "load_rack", "merge_bound_audit",
    "out_degrees", "parse_rack_table", "permutation_rack", "rack_from_table",
    "rack_graph", "random_subset_check", "symmetric_group_table", "to_dot",
    "trivial_rack", "write_witnesses", "zeta_bound_sweep",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(racklab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_traced_layer_functions_exist():
    # perfbench's tracer patches these names; one that is gone breaks --trace 1
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.LAYER_FUNCTIONS:
        owner = importlib.import_module(f"racklab.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, attr)
