"""Toric b-divisors: exact convex geometry, degrees, Okounkov bodies, ideals."""

from .bdiv import (CartierB, ChernWeilReport, HermBDiv, RatInterval, WeilNefB,
                   bdiv_of_metric, cartier, chern_weil_line, intersect_cartier,
                   intersect_nef, leq, vol, weil)
from .chern import (BundleDecl, GradedElem, SplitToricBundle, chern_from_segre,
                    chern_number, eval_segre_monomial, parse_chern_expr,
                    split_bundle, twist_segre)
from .fans import (Fan, common_refinement, make_fan, product_fan,
                   projective_space_fan, refines, stellar_refine)
from .ideals import (MonomialIdeal, TestIdealQuery, make_ideal,
                     multiplier_ideal_monomial, test_ideal, volume_of_pair)
from .okounkov import (FlagValuation, OkounidenReport, OkounkovBody, flag,
                       okounkov_of_bdiv, okounkov_of_class, partial_okounkov,
                       verify_okouniden)
from .polytopes import (Polytope, canonicalize, from_halfspaces, hausdorff_linf,
                        minkowski_sum, mixed_volume, volume)
from .toric import (ToricDivisor, ToricMetric, divisor, is_big, is_nef, metric,
                    np_mass, polytope_of_divisor, tensor, volume_profile)

__version__ = "0.1.0"
