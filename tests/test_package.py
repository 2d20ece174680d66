"""The package's lazy exports and the command line's import footprint."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uvlab

# every name ``uvlab`` exported when its ``__init__`` imported each layer
EXPORTED = {
    "bellqma": ["BellReport", "acceptance", "consistency_accept", "default_k",
                "uniformity_accept_exact", "z_distribution", "z_prime_set"],
    "errors": ["AddressError", "BudgetError", "CapacityError", "ParseError",
               "ShapeMismatchError"],
    "gadgets": ["GadgetProgram", "ZHZHZ", "cascade_acceptance", "end_to_end_reduction",
                "magic_gadget", "magic_state", "zhzhz_decompose"],
    "optimize": ["AcceptanceOperator", "SeesawResult", "build_acceptance_operator",
                 "seesaw", "spectral_norm"],
    "provers": ["ProofBatch", "ProofDecomposition", "ProverStrategy", "decompose",
                "honest_proof", "near_coloring_proof", "proof_shape",
                "random_product_proofs"],
    "qma2": ["VerdictReport", "acceptance_exact", "run_sampled", "soundness_bound"],
    "sgraph": ["Coloring", "ExplicitGraph", "SuccinctCircuit", "brute_force_3color",
               "encode_explicit", "eval_pair", "expand", "parse_sgc"],
    "states": ["MeasurementBranch", "PureState", "RegisterShape", "apply_gate",
               "computational_measure", "pure_trace_distance", "swap_test", "tensor",
               "uniformity_measure"],
}
INSTANCE = Path(uvlab.__file__).parent / "instances" / "k3_n2.sgc"


def loaded_after(code: str) -> list[str]:
    """The ``uvlab`` modules a fresh interpreter holds after running ``code``
    (numpy included when loaded), read from ``sys.modules``."""
    probe = (f"import sys\n{code}\n"
             "print(__import__('json').dumps(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith('uvlab'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(uvlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exports_resolve_to_their_modules(module):
    owner = importlib.import_module(f"uvlab.{module}")
    listed = dir(uvlab)
    for name in EXPORTED[module]:
        assert getattr(uvlab, name) is getattr(owner, name)
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        uvlab.no_such_name


def test_import_loads_no_submodule():
    assert loaded_after("import uvlab; uvlab.__version__") == ["uvlab"]


def test_oracle_run_loads_only_its_layers():
    code = ("import contextlib, io\nfrom uvlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['run', '--instance', {str(INSTANCE)!r}, "
            "'--protocol', 'oracle']) == 0")
    assert loaded_after(code) == ["numpy", "uvlab", "uvlab.cli", "uvlab.errors",
                                  "uvlab.sgraph"]


@pytest.mark.parametrize("argv", [["--help"], ["run", "--bogus"]])
def test_help_and_bad_flags_exit_before_numpy(argv):
    code = ("import contextlib, io\nfrom uvlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        cli.main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass")
    assert loaded_after(code) == ["uvlab", "uvlab.cli", "uvlab.errors"]
