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

``import uvlab`` loads none of them: each name below is imported from its
module on first access (PEP 562), so a process pays only for the layers
it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "bellqma": ("BellReport", "acceptance", "consistency_accept", "default_k",
                "uniformity_accept_exact", "z_distribution", "z_prime_set"),
    "errors": ("AddressError", "BudgetError", "CapacityError", "ParseError",
               "ShapeMismatchError"),
    "gadgets": ("GadgetProgram", "ZHZHZ", "cascade_acceptance", "end_to_end_reduction",
                "magic_gadget", "magic_state", "zhzhz_decompose"),
    "optimize": ("AcceptanceOperator", "SeesawResult", "build_acceptance_operator",
                 "seesaw", "spectral_norm"),
    "provers": ("ProofBatch", "ProofDecomposition", "ProverStrategy", "decompose",
                "honest_proof", "near_coloring_proof", "proof_shape",
                "random_product_proofs"),
    "qma2": ("VerdictReport", "acceptance_exact", "run_sampled", "soundness_bound"),
    "sgraph": ("Coloring", "ExplicitGraph", "SuccinctCircuit", "brute_force_3color",
               "encode_explicit", "eval_pair", "expand", "parse_sgc"),
    "states": ("MeasurementBranch", "PureState", "RegisterShape", "apply_gate",
               "computational_measure", "pure_trace_distance", "swap_test", "tensor",
               "uniformity_measure"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value       # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
