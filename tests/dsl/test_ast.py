"""AST traversal: ``children()`` reads a per-class cache of field names."""

import dataclasses

import pytest

from repro.dsl import ast
from repro.dsl.ast import Name, Node, Number

NODE_CLASSES = sorted(
    (
        cls
        for cls in vars(ast).values()
        if isinstance(cls, type) and issubclass(cls, Node) and cls is not Node
    ),
    key=lambda cls: cls.__name__,
)


def _reference_children(node):
    """``children()`` as it was before the cache: ``fields()`` on every visit."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            yield from (item for item in value if isinstance(item, Node))


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_children_order_is_field_declaration_order(cls):
    # Every field filled with something a child could be: a node, a list of
    # nodes, and -- for the str/number fields -- a node where none belongs,
    # so a field the cache dropped or reordered would show.
    values = {}
    for index, f in enumerate(dataclasses.fields(cls)):
        marker = Name(id=f"{f.name}{index}")
        values[f.name] = [marker, Number(index)] if index % 2 else marker
    node = cls(**values)
    children = list(node.children())
    assert children == list(_reference_children(node))
    assert len(children) >= len(values)


def test_node_classes_cover_the_language():
    assert {"Program", "If", "ForRange", "While", "Call", "Ternary"} <= {
        cls.__name__ for cls in NODE_CLASSES
    }
