"""Rule ``drift`` — wire codecs and the problem registry stay in sync.

Two codecs can silently fall out of step with the dataclasses they
serialise: :func:`repro.service.wire.solution_to_wire` /
``solution_from_wire`` (hand-written per-kind branches) and the
registry's capability declarations.  A field added to a solution
dataclass but not its codec branch travels the shard wire as silence
and resurfaces as a wrong answer on another host.  This rule checks:

* **statically** (works on fixture files too): for every ``kind`` the
  encoder's dict-literal keys (plus conditional ``out["k"] = ...``
  additions) must equal the decoder's constructor keyword names, less
  those *bound* from its second argument (``platform=spec.platform``),
  and every kind must appear on both sides;
* **dynamically** (only when the real ``repro/service/wire.py`` is in
  the checked set): the per-kind key set plus the bound keywords must
  equal the solution dataclass's field set, every spec dataclass
  declaring a ``problem`` must be registered with an example factory,
  and role fields (``_SOURCE_FIELD``/``_TARGETS_FIELD``) must name real
  fields.  (``register()`` derives ``warm_resolve`` from the bound
  ``WarmModel``, so the two cannot disagree.)

The dynamic twin — actually encoding/decoding every registered spec
and solution — lives in ``tests/test_wire_roundtrip.py``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Checker, Finding, ModuleInfo, register_checker

_REAL_WIRE_SUFFIX = "repro/service/wire.py"


class _EncoderBranch:
    def __init__(self, kind: str, cls_name: Optional[str], line: int) -> None:
        self.kind = kind
        self.cls_name = cls_name
        self.line = line
        self.keys: Set[str] = set()
        self.optional_keys: Set[str] = set()
        self.delegated = False


class _DecoderBranch:
    def __init__(self, kind: str, line: int) -> None:
        self.kind = kind
        self.line = line
        self.cls_name: Optional[str] = None
        self.kwargs: Set[str] = set()
        self.bound: Set[str] = set()
        self.delegated = False


def _isinstance_class(test: ast.AST) -> Optional[str]:
    if (isinstance(test, ast.Call) and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance" and len(test.args) == 2
            and isinstance(test.args[1], ast.Name)):
        return test.args[1].id
    return None


def _kind_compare(test: ast.AST) -> Optional[str]:
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.left, ast.Name)
            and test.left.id == "kind"
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and isinstance(test.comparators[0].value, str)):
        return test.comparators[0].value
    return None


def _dict_branch(dict_node: ast.Dict) -> Tuple[Optional[str], Set[str], bool]:
    """(kind, non-kind literal keys, has-**-delegation)."""
    kind = None
    keys: Set[str] = set()
    delegated = False
    for key_node, value_node in zip(dict_node.keys, dict_node.values):
        if key_node is None:
            delegated = True
            continue
        if not (isinstance(key_node, ast.Constant)
                and isinstance(key_node.value, str)):
            continue
        if key_node.value == "kind":
            if (isinstance(value_node, ast.Constant)
                    and isinstance(value_node.value, str)):
                kind = value_node.value
            continue
        keys.add(key_node.value)
    return kind, keys, delegated


def _parse_encoder(func: ast.FunctionDef) -> List[_EncoderBranch]:
    branches: List[_EncoderBranch] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        cls_name = _isinstance_class(node.test)
        if cls_name is None:
            continue
        # direct `return {...}` or `out = {...}` + `out["k"] = ...` +
        # `return out`
        dict_node: Optional[ast.Dict] = None
        out_name: Optional[str] = None
        for stmt in node.body:
            if (isinstance(stmt, ast.Return)
                    and isinstance(stmt.value, ast.Dict)):
                dict_node = stmt.value
                break
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Dict)):
                dict_node = stmt.value
                out_name = stmt.targets[0].id
                break
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and isinstance(stmt.value, ast.Dict)):
                dict_node = stmt.value
                out_name = stmt.target.id
                break
        if dict_node is None:
            continue
        kind, keys, delegated = _dict_branch(dict_node)
        if kind is None:
            continue
        branch = _EncoderBranch(kind, cls_name, node.lineno)
        branch.keys = keys
        branch.delegated = delegated
        if out_name is not None:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Subscript)
                        and isinstance(sub.targets[0].value, ast.Name)
                        and sub.targets[0].value.id == out_name
                        and isinstance(sub.targets[0].slice, ast.Constant)
                        and isinstance(sub.targets[0].slice.value, str)):
                    branch.optional_keys.add(sub.targets[0].slice.value)
        branches.append(branch)
    return branches


def _parse_decoder(func: ast.FunctionDef) -> List[_DecoderBranch]:
    spec_args = {arg.arg for arg in func.args.args[1:]}
    branches: List[_DecoderBranch] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        kind = _kind_compare(node.test)
        if kind is None:
            continue
        branch = _DecoderBranch(kind, node.lineno)
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Return)
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Name)):
                name = sub.value.func.id
                kwargs = {kw.arg for kw in sub.value.keywords
                          if kw.arg is not None}
                if kwargs and name[:1].isupper():
                    branch.cls_name = name
                    branch.bound = {kw.arg for kw in sub.value.keywords
                                    if kw.arg in kwargs and any(
                                        isinstance(n, ast.Name)
                                        and n.id in spec_args
                                        for n in ast.walk(kw.value))}
                    branch.kwargs = kwargs - branch.bound
                else:
                    branch.delegated = True
                break
        if branch.cls_name is not None or branch.delegated:
            branches.append(branch)
    return branches


@register_checker
class DriftChecker(Checker):
    rule = "drift"
    description = (
        "solution wire codec branches must agree with each other and "
        "with the dataclass field sets; registry capabilities must be "
        "coherent (specs registered with examples, role fields exist)"
    )

    def __init__(self) -> None:
        self._saw_real_wire = False
        self._real_encoder: List[_EncoderBranch] = []
        self._real_decoder: List[_DecoderBranch] = []
        self._real_path = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        return ("/" + module.display_path).endswith(
            "/" + _REAL_WIRE_SUFFIX) or module.scoped(self.rule)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        encoder: List[_EncoderBranch] = []
        decoder: List[_DecoderBranch] = []
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef):
                if node.name == "solution_to_wire":
                    encoder = _parse_encoder(node)
                elif node.name == "solution_from_wire":
                    decoder = _parse_decoder(node)
        if ("/" + module.display_path).endswith("/" + _REAL_WIRE_SUFFIX):
            self._saw_real_wire = True
            self._real_encoder = encoder
            self._real_decoder = decoder
            self._real_path = module.display_path
        yield from self._static_cross_check(module.display_path,
                                            encoder, decoder)

    def _static_cross_check(
        self, path: str,
        encoder: List[_EncoderBranch], decoder: List[_DecoderBranch],
    ) -> Iterator[Finding]:
        enc = {b.kind: b for b in encoder}
        dec = {b.kind: b for b in decoder}
        for kind in sorted(set(enc) - set(dec)):
            yield Finding(self.rule, path, enc[kind].line, 0,
                          f"solution kind {kind!r} is encoded but has no "
                          f"decoder branch in solution_from_wire")
        for kind in sorted(set(dec) - set(enc)):
            yield Finding(self.rule, path, dec[kind].line, 0,
                          f"solution kind {kind!r} is decoded but has no "
                          f"encoder branch in solution_to_wire")
        for kind in sorted(set(enc) & set(dec)):
            e, d = enc[kind], dec[kind]
            if e.delegated or d.delegated:
                if e.delegated != d.delegated:
                    yield Finding(
                        self.rule, path, e.line, 0,
                        f"solution kind {kind!r}: one side delegates to a "
                        f"helper codec, the other spells fields — keep "
                        f"both sides symmetric")
                continue
            enc_keys = e.keys | e.optional_keys
            missing = sorted(enc_keys - d.kwargs)
            extra = sorted(d.kwargs - enc_keys)
            if missing or extra:
                detail = []
                if missing:
                    detail.append(f"encoded but not decoded: "
                                  f"{', '.join(missing)}")
                if extra:
                    detail.append(f"decoded but never encoded: "
                                  f"{', '.join(extra)}")
                yield Finding(
                    self.rule, path, d.line, 0,
                    f"solution kind {kind!r} codec drift — "
                    + "; ".join(detail))

    # ------------------------------------------------------------------
    # dynamic repo-level checks (real wire.py only)
    # ------------------------------------------------------------------
    def finalize(self) -> Iterator[Finding]:
        if not self._saw_real_wire:
            return
        try:
            import repro.problems.catalog  # noqa: F401 — registrations
            import repro.problems.specs as specs_mod
            import repro.service.wire as wire_mod
            from repro.problems.registry import (registered_problems,
                                                 resolve)
        except Exception as exc:  # pragma: no cover — import env broken
            yield Finding(
                self.rule, self._real_path, 1, 0,
                f"cannot import repro for registry drift checks: {exc}")
            return

        # encoder/decoder field sets vs the solution dataclasses
        dec = {b.kind: b for b in self._real_decoder if b.cls_name}
        for branch in self._real_encoder:
            if branch.delegated:
                continue
            twin = dec.get(branch.kind, _DecoderBranch(branch.kind, 0))
            cls_name = branch.cls_name or twin.cls_name
            cls = getattr(wire_mod, cls_name, None) if cls_name else None
            if cls is None or not dataclasses.is_dataclass(cls):
                yield Finding(
                    self.rule, self._real_path, branch.line, 0,
                    f"solution kind {branch.kind!r}: cannot resolve "
                    f"dataclass {cls_name!r} in repro.service.wire")
                continue
            field_names = {f.name for f in dataclasses.fields(cls)}
            wire_keys = branch.keys | branch.optional_keys | twin.bound
            missing = sorted(field_names - wire_keys)
            extra = sorted(wire_keys - field_names)
            if missing or extra:
                detail = []
                if missing:
                    detail.append(f"dataclass fields never encoded: "
                                  f"{', '.join(missing)}")
                if extra:
                    detail.append(f"wire keys with no dataclass field: "
                                  f"{', '.join(extra)}")
                yield Finding(
                    self.rule, self._real_path, branch.line, 0,
                    f"solution kind {branch.kind!r} vs {cls_name}: "
                    + "; ".join(detail))

        # registry coherence
        registered_specs = set()
        for problem in registered_problems():
            entry = resolve(problem)
            registered_specs.add(entry.spec_type)
            if entry.example is None:
                yield Finding(
                    self.rule, self._real_path, 1, 0,
                    f"problem {problem!r} registers no example factory "
                    f"(the registry --check gate cannot exercise it)")
            spec_type = entry.spec_type
            names = {f.name for f in dataclasses.fields(spec_type)}
            for role_attr in ("_SOURCE_FIELD", "_TARGETS_FIELD"):
                role = getattr(spec_type, role_attr, None)
                if role is not None and role not in names:
                    yield Finding(
                        self.rule, self._real_path, 1, 0,
                        f"spec {spec_type.__name__}: {role_attr}="
                        f"{role!r} names no dataclass field")

        # every spec dataclass declaring a problem must be registered
        base = specs_mod.ProblemSpec
        for name in dir(specs_mod):
            obj = getattr(specs_mod, name)
            if (isinstance(obj, type) and issubclass(obj, base)
                    and obj is not base and getattr(obj, "problem", "")
                    and obj not in registered_specs):
                yield Finding(
                    self.rule, self._real_path, 1, 0,
                    f"spec {obj.__name__} (problem "
                    f"{obj.problem!r}) is defined but never registered")
