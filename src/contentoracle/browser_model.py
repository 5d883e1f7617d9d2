"""Data-driven decision trees for browser content handling, plus a
differential runner that enumerates a finite request grid and reports every
point where two models disagree.

Tree text format: one node per line, two-space indentation, yes-branch
first. ``? <field> <op> [<value>]`` is a predicate, ``! <Action>`` a leaf,
``#`` starts a comment line. Supported ops:

    present            optional type field has a value
    is <literal>       equals a boolean, disposition, or family/subtype
    agrees <field>     both type fields present and equal on family/subtype
    in <a/b,c/d,...>   type field is one of the listed family/subtype pairs
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import Iterable, Union

from .config import read_data_file
from .errors import MalformedMime, MalformedTree
from .mime_db import MimeType, data_lines, parse_mime_type
from .view_registry import BOOLEAN, Field, from_obj


class Action(Enum):
    RENDER = "Render"
    DOWNLOAD = "Download"
    PROMPT_DOC_TYPE = "PromptDocType"
    PROMPT_MIME = "PromptMime"
    OPEN_WITH_APP = "OpenWithApp"
    AUTO_OPEN = "AutoOpen"


class Disposition(Enum):
    NONE = "none"
    INLINE = "inline"
    ATTACHMENT = "attachment"


class RequestContext(namedtuple(
        "RequestContext", "sniffed_mime extension_mime content_type content_disposition "
        "nosniff auto_download auto_open",
        defaults=(None, None, None, Disposition.NONE, False, False, False))):
    """The input tuple a browser sees when deciding what to do with a payload:
    three optional :class:`MimeType` fields, a :class:`Disposition` and
    three flags (:data:`MIME_FIELDS`, :data:`BOOL_FIELDS`)."""

    __slots__ = ()


#: The fields of a :class:`RequestContext` by type, as trees and ``--ctx`` name them.
MIME_FIELDS = ("sniffed_mime", "extension_mime", "content_type")
BOOL_FIELDS = ("nosniff", "auto_download", "auto_open")
FIELDS = RequestContext._fields

#: A predicate's literal, parsed when the tree is loaded (:func:`_parse_predicate`).
PredicateValue = Union[None, str, bool, Disposition, frozenset[tuple[str, str]]]


class Leaf(namedtuple("Leaf", "action")):
    """A tree's end: the :class:`Action` taken."""

    __slots__ = ()


class Predicate(namedtuple("Predicate", "field op value yes no")):
    """A test of one context field by ``op`` against a :data:`PredicateValue`;
    ``yes`` and ``no`` are the :class:`Predicate` or :class:`Leaf` it leads to."""

    __slots__ = ()


class DecisionTree(namedtuple("DecisionTree", "name root")):
    """A named model: its root, a :class:`Predicate` or a :class:`Leaf`."""

    __slots__ = ()


def _effective(ctx: RequestContext, field: str):
    # nosniff suppresses sniffing: predicates see the sniffed type as absent.
    if field == "sniffed_mime" and ctx.nosniff:
        return None
    return getattr(ctx, field)


def _eval(node: Predicate, ctx: RequestContext) -> bool:
    value = _effective(ctx, node.field)
    if node.op == "present":
        return value is not None
    if node.op == "agrees":
        other = _effective(ctx, node.value)
        return value is not None and other is not None and value.key == other.key
    if isinstance(node.value, frozenset):  # "in", or "is" on a type field
        return value is not None and value.key in node.value
    return value is node.value  # "is" on a boolean or the disposition


def run(tree: DecisionTree, ctx: RequestContext) -> Action:
    """Walk the tree to its leaf action; total for every context."""
    node = tree.root
    while isinstance(node, Predicate):
        node = node.yes if _eval(node, ctx) else node.no
    return node.action


def _parse_predicate(field: str, op: str, value: str, line_no: int) -> PredicateValue:
    """Validate a predicate; return its literal: ``None`` for ``present``, the
    other field for ``agrees``, the set of (family, subtype) keys for ``in``
    and for ``is`` on a type field, else a bool or a :class:`Disposition`."""
    def bad(msg: str) -> MalformedTree:
        return MalformedTree(f"line {line_no}: {msg}")

    if field not in FIELDS:
        raise bad(f"unknown field {field!r}")
    if op in ("present", "in") and field not in MIME_FIELDS:
        raise bad(f"{op!r} only applies to type fields, not {field!r}")
    if op == "present":
        if value:
            raise bad("'present' takes no value")
        return None
    if op == "is":
        if field in BOOL_FIELDS:
            if value not in ("true", "false"):
                raise bad(f"boolean literal expected, got {value!r}")
            return value == "true"
        if field == "content_disposition":
            if value not in [d.value for d in Disposition]:
                raise bad(f"unknown disposition {value!r}")
            return Disposition(value)
        literals = [value]
    elif op == "agrees":
        if field not in MIME_FIELDS or value not in MIME_FIELDS:
            raise bad("'agrees' compares two type fields")
        return value
    elif op == "in":
        if not value:
            raise bad("'in' needs a non-empty list")
        literals = value.split(",")
    else:
        raise bad(f"unknown op {op!r}")
    try:
        return frozenset(parse_mime_type(literal).key for literal in literals)
    except MalformedMime as exc:
        raise bad(str(exc)) from None


def load_tree(source: str, name: str = "tree") -> DecisionTree:
    """Parse and validate a tree description.

    Validation guarantees totality: every predicate has both branches (yes
    listed first), every path ends at a leaf, and predicates reference only
    request-context fields.
    """
    items: list[tuple[int, int, str]] = []  # (line_no, depth, body)
    for line_no, raw in data_lines(source):
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2 != 0:
            raise MalformedTree(f"line {line_no}: indentation must be a multiple of two spaces")
        items.append((line_no, indent // 2, stripped.rstrip()))
    if not items:
        raise MalformedTree("empty tree description")

    def build(index: int, depth: int) -> tuple[Union[Predicate, Leaf], int]:
        line_no, d, body = items[index]
        if d != depth:
            raise MalformedTree(f"line {line_no}: expected depth {depth}, found {d}")
        if body.startswith("!"):
            token = body[1:].strip()
            try:
                action = Action(token)
            except ValueError:
                raise MalformedTree(f"line {line_no}: unknown action {token!r}") from None
            return Leaf(action), index + 1
        if not body.startswith("?"):
            raise MalformedTree(f"line {line_no}: node must start with '?' or '!'")
        parts = body[1:].split(None, 2)
        if len(parts) < 2:
            raise MalformedTree(f"line {line_no}: predicate needs a field and an op")
        field, op = parts[0], parts[1]
        value = _parse_predicate(field, op, parts[2] if len(parts) == 3 else "", line_no)
        if index + 1 >= len(items) or items[index + 1][1] != depth + 1:
            raise MalformedTree(f"line {line_no}: predicate is missing its yes-branch")
        yes, nxt = build(index + 1, depth + 1)
        if nxt >= len(items) or items[nxt][1] != depth + 1:
            raise MalformedTree(f"line {line_no}: predicate is missing its no-branch")
        no, nxt = build(nxt, depth + 1)
        return Predicate(field, op, value, yes, no), nxt

    root, consumed = build(0, 0)
    if consumed != len(items):
        line_no = items[consumed][0]
        raise MalformedTree(f"line {line_no}: unexpected extra node after the tree root")
    return DecisionTree(name=name, root=root)


#: Default enumeration panel: five representative types plus "absent".
DEFAULT_MIME_PANEL: tuple[MimeType | None, ...] = (
    MimeType("application", "pdf"),
    MimeType("text", "html"),
    MimeType("text", "javascript"),
    MimeType("image", "gif"),
    MimeType("application", "zip"),
    None,
)


def enumerate_grid() -> list[RequestContext]:
    """Cartesian product over the finite field alphabets, in field order
    (~5k points for the default six-type panel)."""
    mimes, flags = DEFAULT_MIME_PANEL, (False, True)
    return [RequestContext(*point)
            for point in itertools.product(mimes, mimes, mimes, Disposition, flags, flags, flags)]


def context_to_obj(ctx: RequestContext) -> dict:
    """``ctx`` as a JSON object: as ``browser diff`` prints it and
    ``browser run --ctx`` reads it (:func:`context_from_obj`)."""
    obj = ctx._asdict()
    for key in MIME_FIELDS:
        if obj[key] is not None:
            obj[key] = obj[key].format()
    obj["content_disposition"] = ctx.content_disposition.value
    return obj


#: A request context's fields as ``--ctx`` takes them, in field order; an
#: absent one, or a null or empty type, takes its default.
_CONTEXT_FIELDS = {
    **dict.fromkeys(MIME_FIELDS, Field(
        "a media type string or null", lambda v: v is None or type(v) is str,
        lambda v: parse_mime_type(v) if v else None, required=False)),
    "content_disposition": Field(
        "one of " + ", ".join(d.value for d in Disposition),
        lambda v: v in [d.value for d in Disposition], Disposition, required=False),
    **dict.fromkeys(BOOL_FIELDS, BOOLEAN._replace(required=False)),
}


def context_from_obj(obj) -> RequestContext:
    """The request context a decoded JSON object names, absent keys at their
    defaults; ``ValueError`` for anything else, naming the first fault."""
    values = zip(_CONTEXT_FIELDS, from_obj(_CONTEXT_FIELDS, obj))
    return RequestContext(**{key: value for key, value in values if value is not None})


def load_model(name: str, models_dir: Path) -> DecisionTree:
    """The tree at path ``name`` if it contains ``/``, else ``<models_dir>/<name>.tree``,
    so a file in the working directory never shadows a bundled model."""
    path = Path(name) if "/" in name else models_dir / f"{name}.tree"
    if not path.is_file():
        raise FileNotFoundError(f"model not found: {name}")
    return read_data_file(path, lambda source: load_tree(source, name=path.stem))


def context_sort_key(ctx: RequestContext):
    def mk(m: MimeType | None) -> str:
        return m.format() if m is not None else ""

    return (
        mk(ctx.sniffed_mime), mk(ctx.extension_mime), mk(ctx.content_type),
        ctx.content_disposition.value, ctx.nosniff, ctx.auto_download, ctx.auto_open,
    )


def differential(
    a: DecisionTree,
    b: DecisionTree,
    grid: Iterable[RequestContext],
) -> list[tuple[RequestContext, Action, Action]]:
    """Exactly the grid points where the two models act differently,
    sorted so the report is order-independent of the enumeration."""
    diverging = [
        (ctx, act_a, act_b)
        for ctx in grid
        for act_a, act_b in [(run(a, ctx), run(b, ctx))]
        if act_a != act_b
    ]
    diverging.sort(key=lambda item: context_sort_key(item[0]))
    return diverging
