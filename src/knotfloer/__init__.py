"""Exact computations with involutive bigraded knot complexes over F2[U,V].

The package builds and validates free bigraded chain complexes, computes
their F2[U]-module homology and torsion orders, enumerates almost
involutions, and decides (almost) local-map existence by exhaustive
F2 linear algebra over map spaces that the gradings make finite.
"""

from .cfk import CfkFile, parse_cfk, parse_map_file, render_cfk, render_map_file
from .complexes import Complex, Generator, ValidationReport, dualize, quotient
from .errors import CfkParseError, ResourceError, StructuralError
from .homology import (FUDecomp, HatRanks, UHomology, hfk_hat, hfk_minus,
                       locality_rank, torsion_order)
from .knotlib import build_cable, build_figure_eight, build_unknot
from .localequiv import (LocalCertificate, LocalSearchSpec, NonexistenceToken,
                         SelfLocalFamily, concordance_unknotting_bound,
                         connected_complex, search_local_map,
                         verify_almost_local)
from .morphism import (IotaData, IotaReport, LinMap, MapSpace, chain_defect,
                       derivative_maps, enumerate_almost_iotas, identity_map,
                       is_chain_map, validate_iota)
from .ring import Ideal, Mono
from .tensorsum import (map_tensor, pair_name, product_equivalence,
                        product_iota, tensor, tensor_many)

__version__ = "0.1.0"
