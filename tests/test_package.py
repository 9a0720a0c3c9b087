"""The package namespace: each module's ``__all__`` is its public API, and
every name in it has a caller in the package."""

import ast
import functools
from pathlib import Path

import zczseq
from zczseq import cli, construction, correlation, gbf, qscdma

MODULES = {"gbf": gbf, "correlation": correlation, "construction": construction, "qscdma": qscdma}

# Public names that only callers outside the package use: the certificate
# API of the README, layer 1 of the construction, and the writer of the
# text format that ``construct --f`` reads.  ``verify_zcz`` and
# ``verify_inter_zccz`` stay in the package for good: they are the reference
# that ``test_certify_family_matches_separate_certificates`` holds
# ``certify_family`` to, and the benchmark client traces them by name.
UNCALLED_ALLOWED = {"verify_zcz", "verify_inter_zccz", "verify_ccc", "format_gbf_text"}

# Names that left the package for ``tests/conftest.py``, where the tests
# read them as oracles.
MOVED_NAMES = {
    "noiseless_statistics",
    "find_interference_witness",
    "InterferenceWitness",
    "theoretical_bpsk_ber",
    "binvec",
    "quadratic_graph",
    "QuadraticGraph",
    "code_accf",
    "build_seed_function",
}
MOVED_METHODS = {
    (gbf.GeneralizedBooleanFunction, "evaluate"),
    (gbf.GeneralizedBooleanFunction, "degree"),
    (gbf.GeneralizedBooleanFunction, "zero"),
    (correlation.SpectrumTable, "value"),
}


def uncalled_exports(sources: dict[str, str]) -> set[str]:
    """The names of the literal ``__all__`` lists in ``sources`` (module
    name -> source text) that no code in them loads, as a name or an
    attribute, outside the name's own top-level definition."""
    exported, loaded = set(), set()
    for text in sources.values():
        for node in ast.parse(text).body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                exported |= set(ast.literal_eval(node.value))
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    loaded.add(name)
    return exported - loaded


def test_package_exports_every_module_api_and_the_modules():
    names = {name for module in MODULES.values() for name in module.__all__}
    assert sorted(zczseq.__all__) == sorted(names | set(MODULES))
    for module in MODULES.values():
        assert all(getattr(zczseq, name) is getattr(module, name) for name in module.__all__)


def test_every_public_name_has_a_caller_in_the_package():
    src = Path(zczseq.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(src.glob("*.py"))}
    assert uncalled_exports(sources) <= UNCALLED_ALLOWED
    assert UNCALLED_ALLOWED <= {name for module in MODULES.values() for name in module.__all__}
    assert not any(hasattr(zczseq, name) for name in MOVED_NAMES)
    assert not any(hasattr(cls, name) for cls, name in MOVED_METHODS)


def test_uncalled_export_scanner_flags_a_public_def_until_it_has_a_caller():
    lib = (
        "__all__ = ['used', 'dead']\n"
        "def used():\n    return 1\n"
        "def dead():\n    return dead()\n"  # its own recursion is no caller
    )
    app = "from lib import used\n\ndef main():\n    return used()\n"
    assert uncalled_exports({"lib": lib, "app": app}) == {"dead"}
    app += "\ndef other():\n    return lib.dead()\n"
    assert uncalled_exports({"lib": lib, "app": app}) == set()


def traced_attributes(source: str) -> list[tuple[str, str]]:
    """The (owner, attribute) pairs of the ``TRACED_FUNCTIONS`` and
    ``TRACED_METHODS`` tables in a benchmark client's source, read without
    importing it: owner is a dotted name such as ``correlation`` or
    ``gbf.GeneralizedBooleanFunction``."""
    pairs = []
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and [getattr(t, "id", None) for t in node.targets] in (["TRACED_FUNCTIONS"],
                                                                       ["TRACED_METHODS"])):
            for row in node.value.elts:
                owner, attr = row.elts[:2]
                pairs.append((ast.unparse(owner), ast.literal_eval(attr)))
    return pairs


def missing_traced_attributes(source: str) -> list[str]:
    """The ``owner.attribute`` names of ``traced_attributes(source)`` that
    the package does not define as callables."""
    namespace = {"cli": cli, **MODULES}
    missing = []
    for owner, attr in traced_attributes(source):
        first, *rest = owner.split(".")
        obj = functools.reduce(getattr, rest, namespace.get(first))
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{owner}.{attr}")
    return missing


def test_every_attribute_the_benchmark_traces_exists():
    # a rename fails here rather than only inside the traced benchmark run
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text()
    pairs = traced_attributes(source)
    assert ("construction", "check_chunk_decomposition") in pairs
    assert ("gbf.GeneralizedBooleanFunction", "truth_table") in pairs
    assert missing_traced_attributes(source) == []
    # negative control: a table row naming a function that is gone
    renamed = source.replace('"check_chunk_decomposition",', '"check_chunk_decompositions",', 1)
    assert missing_traced_attributes(renamed) == ["construction.check_chunk_decompositions"]
