"""Desk-scale workbench for indexed finite inf-semilattices over finite
category windows: structure discovery, relational calculus, completions and
comparison functors, with exhaustive verification throughout.

Importing the package asks numpy's BLAS for one thread: its matrices have at
most a few hundred rows, and idle BLAS threads spin when the CPUs are busy.
`OPENBLAS_NUM_THREADS` and `OMP_NUM_THREADS` default to 1; a value the user
has set is kept.  BLAS reads them when numpy is imported, so the default has
no effect where numpy was imported before this package."""

import os as _os

_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("OMP_NUM_THREADS", "1")

from .errors import (DoctrinesError, FormulaMismatch, MalformedPresentation,
                     ParseError, ResourceCap, WindowClosure)
from .fincat import (FinCat, FunctorData, ProductChoice, ValidationReport,
                     Window, WindowScope, check_equivalence, check_exact,
                     image_factorization, iso_classes, validate_category,
                     validate_products)
from .semilattice import (FinInfSL, MonotoneMap, NoAdjoint, chain, diamond,
                          lattice_from_leq, left_adjoint, powerset)
from .doctrine import DoctrineData, box_product, sub_doctrine, validate_doctrine
from .structure import (ComprehensionTable, ElementaryWitness,
                        ExistentialWitness, check_beck_chevalley,
                        check_delta_product_law, check_frobenius,
                        check_rule_of_choice, comprehension_of,
                        comprehension_table, discover_elementary,
                        discover_existential)
from .allegory import RelArrow, rel_compose, rel_opposite
from .completions import (Caps, build_erp, build_gr, build_qp, build_tp,
                          functor_D, functor_L, transitive_extension)
from .compare import (verify_axc, verify_cthn, verify_converse_axc,
                      verify_fulc, verify_universal)
from .report import Check, Report

__all__ = [name for name in dir() if not name.startswith("_")]
