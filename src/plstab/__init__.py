"""Exact-arithmetic toolkit for PL group actions on triangulated
1- and 2-manifolds."""

from .circle import (CircleLift, compose_lift, detect_rational_rotation,
                     eval_lift, fixed_set_circle, inverse_lift, iterate_lift,
                     rotation_enclosure)
from .complexes import (Complex, SubComplex, boundary, euler_characteristic,
                        is_arc, is_cycle, link, parse_complex, format_complex,
                        star)
from .errors import (DisconnectedComplex, FixIsEmpty, FixIsEverything,
                     InternalError, InvalidComplex, NonCoplanarOverlap, NondegenerateViolation,
                     NotFixedPoint, OutOfInterval, ParseError, PLError,
                     PointOutsideComplex, RealizationMismatch,
                     SideOutsideInterval, SupportMismatch, UnknownVertex,
                     VertexNotInComplex)
from .fixedlocus import (CanonicalInvariant, FixedLocus, FullerResult,
                         canonical_invariant, fixed_subcomplex, frontier,
                         fuller_search)
from .interval import (PLMap1D, compose1d, derivative_homomorphism_check,
                       eval1d, fixed_set_1d, inverse1d, one_sided_derivative,
                       ray_triviality_certifier)
from .overlay import Overlay, overlay
from .plmap import (PLMap, compose2d, eval2d, identity_map, inverse2d,
                    plmap_from_vertex_images, power)
from .presentation import (AbelianizationReport, Presentation, abelianization,
                           commutator, smith_normal_form, word_ball)
from .stability import (ActionSpec, Certificate, analyze_action,
                        certify_trivial, verify_relators)
from .tangent import (Fan, Germ, RayMap, build_germ, canonical_germ,
                      compose_germs, fan_of_star, germs_equal,
                      is_trivial_on_tangent_sphere, ray_map, refine_fans,
                      tangent_sphere_type)

__version__ = "0.1.0"
