"""Module boundaries: no package module reads another one's underscore names."""

import ast
from pathlib import Path

import scusum

SOURCES = Path(scusum.__file__).parent

# Reads that are allowed, as "module._name" of the module read from. Each needs
# a reason that outlives the read, and a read that is gone drops its entry.
ALLOWED = {
    # perfbench wraps every public function of a layer in a span, and its
    # test_instrumented_traces_nested_calls_and_restores_bindings pins the
    # exact span list of detector.statistic_trace: a public count_true in
    # _kernels would add a span to that list
    "_kernels._count_true",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """The "module._name" reads of other package modules' underscore names in one source file."""
    modules = {p.stem for p in SOURCES.glob("*.py")} - {"__init__"}
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> package module, from `from . import module [as name]`
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif node.module is not None and _private(alias.name):
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            reads.append(f"{aliases[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_underscore_names():
    reads = [(path.stem, read) for path in sorted(SOURCES.glob("*.py")) for read in private_reads(path)]
    assert [(module, read) for module, read in reads if read not in ALLOWED] == []
    assert {read for _, read in reads} == ALLOWED  # no stale entry


def test_the_check_sees_both_forms_of_read(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import _kernels, fields as f\nfrom .fields import _block_rows, PairBatch\n"
                    "from . import __version__\n_kernels._lockstep(f._row_blocks, _kernels.chain_steps)\n")
    assert sorted(private_reads(path)) == ["_kernels._lockstep", "fields._block_rows",
                                           "fields._row_blocks"]
