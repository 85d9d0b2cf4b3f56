"""One walker that checks parsed JSON against type annotations.

``typed(hint, value, where, error)`` returns ``value``, as ``json.load``
gives it, built to ``hint``: a dataclass from an object with every field, a
``TypedDict`` from an object with its required keys and any optional ones,
and ``list[X]`` and ``dict[str, X]`` item by item (a bare ``list`` or
``dict`` takes any). ``float`` takes an integer too, but not the NaN and
infinities that ``json.load`` reads from the non-standard ``NaN`` and
``Infinity`` tokens; no number takes a boolean. A union takes a scalar
(null included) that any alternative takes, and a list or an object by its
alternative of that kind. A mismatch raises
``error`` naming the JSON path, e.g.
``basis.column_plans.num.steps[1].payload.train_std``.

Each annotation is compiled once into a checking function; a path is
written out only when an error names it, and a list of scalars is checked
in one pass. Annotations are read as the classes hold them, so a module
that defines a checked class does not postpone its annotations.
"""

from __future__ import annotations

import dataclasses
import math
import reprlib
import types
from functools import lru_cache
from typing import Literal, Union, get_args, get_origin, is_typeddict

_SCALARS = {str: (str,), bool: (bool,), int: (int,), float: (int, float),
            type(None): (type(None),)}
_WORDS = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
          list: "a list", type(None): "null"}


def typed(hint, value, where, error: type[Exception]):
    """``value`` checked against ``hint`` and built; a mismatch raises ``error``.

    ``where`` is the value's JSON path, or a (parent's ``where``, key) pair.
    """
    return _checker(hint)(value, where, error)


def _alternatives(hint) -> tuple:
    return get_args(hint) if get_origin(hint) in (Union, types.UnionType) else (hint,)


def _finite(value) -> bool:
    return type(value) is not float or math.isfinite(value)


@lru_cache(maxsize=None)
def _scalars(hint) -> tuple[frozenset, frozenset]:
    """(types, Literal values): a scalar fits ``hint`` when its type is one of the
    types, or when it is a string among the values."""
    kinds = [_SCALARS.get(alt, ()) for alt in _alternatives(hint)]
    values = [get_args(alt) for alt in _alternatives(hint) if get_origin(alt) is Literal]
    return frozenset().union(*kinds), frozenset().union(*values)


@lru_cache(maxsize=None)  # one entry per annotation the program declares
def _checker(hint):
    """check(value, where, error) -> the value built, for ``hint``."""
    kinds, values = _scalars(hint)
    walks = {}  # JSON container type -> walk of the alternative that takes it
    for alt in reversed(_alternatives(hint)):
        origin = get_origin(alt) or alt
        if origin is list:
            walks[list] = _list_walk(get_args(alt))
        elif origin is dict or dataclasses.is_dataclass(origin) or is_typeddict(origin):
            walks[dict] = _object_walk(alt)

    def check(value, where, error):
        if type(value) in kinds and _finite(value) or type(value) is str and value in values:
            return value
        walk = walks.get(type(value))
        if walk is None:
            raise error(f"{_path(where)}: expected {_describe(hint)}, "
                        f"got {reprlib.repr(value)}")
        return walk(value, where, error)
    return check


def _list_walk(args: tuple):
    if not args:
        return lambda value, where, error: value
    item, item_kinds = _checker(args[0]), _scalars(args[0])[0]

    def walk(value, where, error):
        if item_kinds.issuperset(map(type, value)) and all(map(_finite, value)):
            return value
        return [item(v, (where, i), error) for i, v in enumerate(value)]
    return walk


def _object_walk(hint):
    """Objects as a dict[str, X], a dataclass (every field required) or a TypedDict."""
    origin, args = get_origin(hint) or hint, get_args(hint)
    if origin is dict:
        if not args:
            return lambda value, where, error: value
        item = _checker(args[1])
        return lambda value, where, error: {key: item(v, (where, key), error)
                                            for key, v in value.items()}
    if dataclasses.is_dataclass(hint):
        hints = {f.name: f.type for f in dataclasses.fields(hint)}
    else:
        hints = hint.__annotations__
    allowed = frozenset(hints)
    required = hint.__required_keys__ if is_typeddict(hint) else allowed
    items = {key: _checker(item) for key, item in hints.items()}
    kinds = {key: _scalars(item)[0] for key, item in hints.items()}
    build = hint if dataclasses.is_dataclass(hint) else None

    def walk(value, where, error):
        if not required <= value.keys() <= allowed:
            unknown = sorted(value.keys() - allowed)
            missing = [key for key in hints if key in required and key not in value]
            raise error(f"{_path(where)}: " + (f"unknown keys {unknown}" if unknown
                                               else f"missing keys {missing}"))
        built = {key: v if type(v) in kinds[key] and _finite(v)
                 else items[key](v, (where, key), error) for key, v in value.items()}
        return build(**built) if build else built
    return walk


def _path(where) -> str:
    if isinstance(where, str):
        return where
    parent, key = where
    return _path(parent) + (f"[{key}]" if isinstance(key, int) else f".{key}")


def _describe(hint) -> str:
    origin, args = get_origin(hint) or hint, get_args(hint)
    if origin is Literal:
        return "one of " + ", ".join(map(repr, args))
    if origin in (Union, types.UnionType):
        return " or ".join(map(_describe, args))
    return _WORDS.get(origin, "an object")


def json_fields(obj) -> dict:
    """A dataclass's fields by name, as ``json.dumps``'s ``default``: the JSON that
    ``dataclasses.asdict`` gives, without its deep copy of every value."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
