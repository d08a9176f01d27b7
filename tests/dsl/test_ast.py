"""AST traversal: ``children()`` reads a per-class tuple of child-bearing fields."""

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
    """``children()`` as it was before the per-class tuples: ``fields()`` and
    an ``isinstance`` test of every value on every visit."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            yield from (item for item in value if isinstance(item, Node))


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_children_order_is_field_declaration_order(cls):
    # Every constructor field filled with what its annotation declares -- a
    # node, a list of nodes, or a plain value -- each node distinct, so a
    # child-bearing field the per-class tuple dropped, reordered or took for
    # plain would show.
    values = {}
    child_fields = 0
    for index, f in enumerate(f for f in dataclasses.fields(cls) if f.init):
        marker = Name(id=f"{f.name}{index}")
        if f.type in ("List[Expr]", "List[Stmt]"):
            values[f.name] = [marker, Number(index)]
        elif f.type in ("Expr", "Stmt", "Name"):
            values[f.name] = marker
        else:
            assert f.type in ("str", "List[str]", "Union[int, float]"), f.type
            values[f.name] = f"{f.name}{index}"
            continue
        child_fields += 1
    node = cls(**values)
    children = list(node.children())
    assert children == list(_reference_children(node))
    assert len(children) >= child_fields
    assert not hasattr(node, "__dict__")


def test_node_classes_cover_the_language():
    assert {"Program", "If", "ForRange", "While", "Call", "Ternary"} <= {
        cls.__name__ for cls in NODE_CLASSES
    }
