"""racklab: finite racks as graphs, a lossless codec, and small-order enumeration."""

from .analysis import (CheckParameterError, DegreeSplitError, WSearchResult,
                       chernoff_check, find_W, random_subset_check, zeta_bound_sweep)
from .codec import (AuditFail, CodecParams, CodecStats, CorruptStream,
                    EncodeConsistencyError, InconsistentDecode, InfoTuple,
                    MergeAuditReport, OrderTooLargeForHeader, Residual, build_info,
                    decode, degree_split, encode, encode_with_stats, encoding_stats,
                    extract_residual, merge_bound_audit)
from .core import (AxiomReport, MalformedTableError, NotAbelianError,
                   NotAGroupError, NotARackError, NotAutomorphismError, Rack,
                   RackParseError, Violation, alexander_quandle, axiom_report,
                   canonical_form, conjugation_quandle, cyclic_group_table,
                   dihedral_group_table, dihedral_quandle, format_rack, load_rack,
                   parse_rack_table, permutation_rack, rack_from_table,
                   symmetric_group_table, trivial_rack)
from .enumeration import (EnumReport, OrderOutOfRange, OrderTooLarge,
                          enumerate_classes, enumerate_labeled, write_witnesses)
from .graph import (ColoredDigraph, component_out_degree_constant, components,
                    greedy_merge_order, out_degrees, rack_graph, to_dot)

__version__ = "0.1.0"
