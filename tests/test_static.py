"""Static checks on the package source."""

import ast
from pathlib import Path

import ecopool

SRC = Path(ecopool.__file__).parent


def test_src_imports_are_used():
    # __init__ imports to re-export; a line marked `# noqa: F401` imports
    # for another module's sake.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []
