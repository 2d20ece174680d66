"""uvlab: a desk-scale verification lab for unentangled-proof protocols on
succinctly encoded 3-coloring instances.

Layers, bottom to top:

* :mod:`uvlab.states`   mixed-radix pure states, gates, measurements,
  swap test, trace distance;
* :mod:`uvlab.sgraph`   the small-circuit graph format, its evaluator,
  generator, and the brute-force coloring oracle;
* :mod:`uvlab.provers`  honest and adversarial proof states plus the
  node/color amplitude decomposition;
* :mod:`uvlab.qma2`     the two-proof verifier (equality, consistency,
  uniformity tests) with exact acceptance probabilities;
* :mod:`uvlab.bellqma`  the k-proof measure-first verifier with exact
  uniformity DP and exact/Monte-Carlo consistency;
* :mod:`uvlab.gadgets`  single-qubit unitary angles, magic states, and
  the gadget-based verifier transformation;
* :mod:`uvlab.optimize` the acceptance operator, its spectral norm, and
  the seesaw product-state search;
* :mod:`uvlab.suites`   named property/acceptance checks; :mod:`uvlab.cli`
  the command-line front end; :mod:`uvlab.corpus` bundled instances.
"""

from .bellqma import (BellReport, acceptance, consistency_accept, default_k,
                      uniformity_accept_exact, z_distribution, z_prime_set)
from .errors import (AddressError, BudgetError, CapacityError, ParseError,
                     ShapeMismatchError)
from .gadgets import (GadgetProgram, ZHZHZ, cascade_acceptance,
                      end_to_end_reduction, magic_gadget, magic_state,
                      zhzhz_decompose)
from .optimize import (AcceptanceOperator, SeesawResult,
                       build_acceptance_operator, lopcg_norm,
                       seesaw, spectral_norm)
from .provers import (ProofBatch, ProofDecomposition, ProverStrategy,
                      decompose, honest_proof, near_coloring_proof,
                      proof_shape, random_product_proofs)
from .qma2 import VerdictReport, acceptance_exact, run_sampled, soundness_bound
from .sgraph import (Coloring, ExplicitGraph, SuccinctCircuit,
                     brute_force_3color, encode_explicit, eval_pair, expand,
                     parse_sgc)
from .states import (MeasurementBranch, PureState, RegisterShape, apply_gate,
                     computational_measure, pure_trace_distance, swap_test,
                     tensor, uniformity_measure)

__version__ = "0.1.0"
