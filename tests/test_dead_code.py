"""Every private module-level function or class of the package is read.

A stand-in for a linter's dead-code rule, next to ``test_imports.py``'s
unused-import rule: a private (``_name``) definition at module level must be
read somewhere in ``src/fcarray`` outside its own definition, as a name or an
attribute, so code that loses its last caller goes with it.
"""

import ast

from test_imports import PACKAGE

SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of the modules
    ``sources`` (file name -> source) that no other statement reads."""
    defined, reads = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, stmt.name)
                if _private(stmt.name):
                    defined.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, owner))
    return [f"{module}: {name}" for module, name in defined
            if not any(read == name and owner != (module, name) for read, owner in reads)]


def test_private_definitions_are_read():
    assert unread_private_definitions(SOURCES) == []


def test_an_unread_private_definition_is_reported():
    sources = {
        "a.py": ("def _used():\n    return 1\n\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
                 "class _Unused:\n    pass\n\n\n"
                 "def public():\n    return _used()\n"),
        "b.py": "def _by_attribute():\n    pass\n",
        "c.py": "import b\n\nvalue = b._by_attribute\n",
    }
    assert unread_private_definitions(sources) == ["a.py: _recursive", "a.py: _Unused"]
