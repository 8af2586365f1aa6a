"""The runtime stays numpy-only: every module of the package imports only
numpy, the standard library and the package itself."""
import ast
import sys
from pathlib import Path

import quadfeat

ALLOWED = {"numpy", "__future__"} | set(sys.stdlib_module_names)


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_imports_only_numpy_and_the_standard_library():
    modules = sorted(Path(quadfeat.__file__).parent.glob("*.py"))
    assert {"__init__.py", "featuremaps.py", "cli.py"} <= {p.name for p in modules}
    outside = {path.name: sorted({name for name in _absolute_imports(path)
                                  if name.partition(".")[0] not in ALLOWED})
               for path in modules}
    assert not {name: found for name, found in outside.items() if found}
