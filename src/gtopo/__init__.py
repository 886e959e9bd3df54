"""Exact decision procedures and symbolic constructions for separation
properties of generalized topological spaces.

Two halves share one vocabulary.  The finite half (`spaces`, `urysohn`)
represents spaces as bitmask families and decides the separation statements
UL, GUL, TET and GTET exactly through the space's clopen sets (on finite
spaces normality is clopen separation, and continuous fiber structures are
clopen partitions or chains), with ladders, effective witnesses, and chain
families as certificates.  The symbolic half
(`symsets`, `pwmaps`, `expressions`, `realline`) works on the real line
with exact rational endpoints: two ray-generated generalized topologies,
their closure operators, separating ramps, continuity checks against the
interval topology and the ray GT, extensions from closed sets, and a
uniform effective separator with its dyadic ladder.  `cli` fronts both.
"""

from .errors import (ExprError, InputError, NoExtension, PreconditionError,
                     ResourceError)
from .expressions import format_map, format_set, parse_map, parse_set
from .pwmaps import PiecewiseMap, constant_map, make_pwmap
from .realline import (LiftedWitness, OpenTriple, SymbolicLadder,
                       SymbolicWitness, check_continuity_sym, classify,
                       closure_sym, disjoint_open_triple, effective_F,
                       gul_witness, image_and_connectedness, ladder_from_F,
                       product_gul_witness, tietze_extend)
from .spaces import (FiniteGT, GTReport, SeparationProfile, census_count,
                     closure, enumerate_strong_gts, generated_topology,
                     interior, make_space, product, sample_strong_gts,
                     separation_profile, space_to_dict, subspace,
                     validate_gt)
from .symsets import (ALL_REALS, EMPTY_SET, Interval, SymbolicSet, above,
                      below, interval, make_set, point)
from .urysohn import (EffectiveWitness, FiniteFunction, Ladder, PairLadder,
                      UFamily, check_continuity_finite, check_ladder,
                      combine_effective_witnesses, decide_gul_pair,
                      decide_statement, decide_ul_pair, effective_witness,
                      extend_ladder_step, extend_u_family,
                      function_from_ladder, is_u_normal,
                      ladder_from_function, make_function, make_ladder,
                      validate_u_family)

__version__ = "0.1.0"
