"""String-spec registry: build any guessing strategy from a config string.

Spec grammar (URL-query flavored, config/CLI/service friendly)::

    family[:variant][?key=value&key=value...]
    family(inner-spec)[?key=value&key=value...]     -- wrapper families

    passflow:dynamic+gs?alpha=1&sigma=0.12
    passflow:static?temperature=0.75
    passflow:conditional?template=love**
    markov:3
    pcfg
    rules?wordlist=300
    passgan?iterations=300
    cwae
    policy(passflow:dynamic)?min_len=8&classes=lud
    mangle(markov:3)?rules=leet,append_year&variants=2

Wrapper families (the scenario layer, :mod:`repro.scenarios`) take the
spec they wrap in parentheses instead of a variant; the inner spec is any
spec of this grammar, wrappers included, and is canonicalized
recursively.  Literal ``(``/``)`` inside parameter values are
percent-escaped like the other structural characters.

``build(spec, ...)`` resolves the family against the registry and hands the
parsed spec plus a :class:`BuildResources` bundle (trained model, training
corpus, alphabet) to the family's factory.  Factories validate parameters
strictly -- unknown keys raise :class:`SpecError` -- and attach the
canonical spec string to the strategy so ``build(s).describe()`` round-trips.

Families self-register at import time via the :func:`register` decorator
(see :mod:`repro.strategies.passflow` and
:mod:`repro.strategies.baselines`), mirroring the config-driven-builder
idiom of FAB-JAX's ``FlowDistConfig`` recipes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.strategies.base import GuessingStrategy

ParamValue = Any  # int | float | bool | str


class SpecError(ValueError):
    """Malformed spec string, unknown family, or unusable resources."""


# ----------------------------------------------------------------------
# spec parsing / formatting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySpec:
    """A parsed strategy spec; equality gives round-trip semantics."""

    family: str
    variant: Optional[str] = None
    params: Tuple[Tuple[str, ParamValue], ...] = ()
    #: For wrapper specs (``policy(markov:3)``): the canonicalized inner
    #: spec string.  ``None`` for plain specs; mutually exclusive with
    #: ``variant``.
    inner: Optional[str] = None

    @property
    def param_dict(self) -> Dict[str, ParamValue]:
        return dict(self.params)

    def canonical(self) -> str:
        """Re-emit the canonical string form (sorted parameter keys)."""
        return format_spec(self.family, self.variant, self.param_dict, self.inner)


def _parse_value(text: str) -> ParamValue:
    """Coerce a query value to int/float only when the text round-trips.

    Lossy coercions stay strings so e.g. ``template=007`` is not mangled
    to ``7``; numeric-typed factory parameters recover the number through
    their ``cast`` at build time (``float("1e4")`` still works).
    """
    try:
        as_int = int(text)
        if str(as_int) == text:
            return as_int
    except ValueError:
        pass
    try:
        as_float = float(text)
        if np.isfinite(as_float) and repr(as_float) == text:
            return as_float
    except ValueError:
        pass
    return text


#: Characters with structural meaning inside a query or a wrapper form;
#: percent-escaped in string values so e.g. a conditional template
#: containing ``&`` (or a denylist pattern containing ``(``) survives.
_ESCAPES = {"%": "%25", "&": "%26", "=": "%3D", "(": "%28", ")": "%29"}


def _escape_text(text: str) -> str:
    for char, escape in _ESCAPES.items():
        text = text.replace(char, escape)
    return text


def _unescape_text(text: str) -> str:
    for char, escape in reversed(_ESCAPES.items()):
        text = text.replace(escape, char)
    return text


def _format_value(value: ParamValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return _escape_text(value)
    return str(value)


def parse_bool(value: ParamValue) -> bool:
    """Cast helper for boolean spec parameters (``gs=true``)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ValueError(f"expected true/false, got {value!r}")


def _parse_query(query: str, spec: str) -> Dict[str, ParamValue]:
    """Parse a ``k=v&...`` query tail into a parameter dict."""
    params: Dict[str, ParamValue] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SpecError(f"malformed parameter {pair!r} in spec {spec!r}")
        if key in params:
            raise SpecError(f"duplicate parameter {key!r} in spec {spec!r}")
        parsed_value = _parse_value(value.strip())
        if isinstance(parsed_value, str):
            parsed_value = _unescape_text(parsed_value)
        params[key] = parsed_value
    return params


def parse_spec(spec: str) -> StrategySpec:
    """Parse ``family[:variant][?k=v&...]`` or the wrapper form
    ``family(inner)[?k=v&...]`` into a :class:`StrategySpec`."""
    if not isinstance(spec, str) or not spec.strip():
        raise SpecError("spec must be a non-empty string")
    spec = spec.strip()
    paren = spec.find("(")
    question = spec.find("?")
    inner: Optional[str] = None
    variant: Optional[str] = None
    if paren != -1 and (question == -1 or paren < question):
        # wrapper form: the opening paren appears before any query
        depth = 0
        close = -1
        for pos in range(paren, len(spec)):
            if spec[pos] == "(":
                depth += 1
            elif spec[pos] == ")":
                depth -= 1
                if depth == 0:
                    close = pos
                    break
        if close == -1:
            raise SpecError(f"unbalanced parentheses in spec {spec!r}")
        family = spec[:paren].strip().lower()
        if not family:
            raise SpecError(f"spec {spec!r} has no strategy family")
        if ":" in family:
            raise SpecError(
                f"wrapper spec {spec!r} cannot take a variant; use ?key=value "
                "parameters"
            )
        raw_inner = spec[paren + 1 : close].strip()
        if not raw_inner:
            raise SpecError(f"wrapper spec {spec!r} has an empty inner spec")
        inner = parse_spec(raw_inner).canonical()
        rest = spec[close + 1 :]
        if rest and not rest.startswith("?"):
            raise SpecError(
                f"unexpected text {rest!r} after the wrapped spec in {spec!r}"
            )
        query = rest[1:]
    else:
        head, _, query = spec.partition("?")
        family, _, variant_text = head.partition(":")
        family = family.strip().lower()
        if not family:
            raise SpecError(f"spec {spec!r} has no strategy family")
        variant = variant_text.strip() or None
    params = _parse_query(query, spec) if query else {}
    return StrategySpec(
        family=family,
        variant=variant,
        params=tuple(sorted(params.items())),
        inner=inner,
    )


def format_spec(
    family: str,
    variant: Optional[str] = None,
    params: Optional[Mapping[str, ParamValue]] = None,
    inner: Optional[str] = None,
) -> str:
    """The canonical string form of a spec (sorted parameter keys)."""
    if inner is not None and variant:
        raise SpecError("a wrapper spec cannot carry a variant")
    out = family
    if inner is not None:
        out += f"({inner})"
    elif variant:
        out += f":{variant}"
    if params:
        query = "&".join(
            f"{key}={_format_value(value)}" for key, value in sorted(params.items())
        )
        if query:
            out += f"?{query}"
    return out


def unwrap_spec(spec) -> StrategySpec:
    """The innermost (non-wrapper) spec of a possibly-wrapped spec.

    ``unwrap_spec("policy(mangle(passflow:static))?min_len=8")`` resolves
    to the parsed ``passflow:static`` spec -- what callers inspect to
    decide which trained artifact a spec ultimately needs.
    """
    parsed = spec if isinstance(spec, StrategySpec) else parse_spec(spec)
    while parsed.inner is not None:
        parsed = parse_spec(parsed.inner)
    return parsed


# ----------------------------------------------------------------------
# build resources
# ----------------------------------------------------------------------
@dataclass
class BuildResources:
    """What a factory may draw on to construct a strategy.

    ``model`` is the family's primary artifact: a trained
    :class:`~repro.core.model.PassFlow` for ``passflow`` specs, a fitted
    baseline instance for baseline specs (factories ignore models of the
    wrong type, so callers can pass whatever they have).  ``corpus`` lets
    count-based baselines fit themselves on demand; ``alphabet`` pins the
    symbol set when a neural baseline must train from scratch.
    """

    model: Any = None
    corpus: Optional[Sequence[str]] = None
    alphabet: Any = None


class ParamReader:
    """Strict parameter consumption for factories: typo-proof specs."""

    def __init__(self, spec: StrategySpec) -> None:
        self.spec = spec
        self._pending = spec.param_dict
        self.used: Dict[str, ParamValue] = {}

    def take(self, name: str, default: ParamValue = None, cast: Optional[Callable] = None):
        if name not in self._pending:
            return default
        value = self._pending.pop(name)
        if cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"parameter {name}={value!r} in spec "
                    f"{self.spec.canonical()!r}: {exc}"
                ) from None
        self.used[name] = value
        return value

    def finish(self) -> None:
        if self._pending:
            unknown = ", ".join(sorted(self._pending))
            raise SpecError(
                f"unknown parameter(s) {unknown} for strategy family "
                f"{self.spec.family!r}"
            )

    def canonical(self) -> str:
        """Canonical spec covering exactly the parameters consumed."""
        return format_spec(
            self.spec.family, self.spec.variant, self.used, self.spec.inner
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
StrategyFactory = Callable[[StrategySpec, BuildResources], GuessingStrategy]

_REGISTRY: Dict[str, Tuple[StrategyFactory, str, str]] = {}


def register(family: str, summary: str = "", bankable: str = "no"):
    """Class/function decorator registering a strategy factory.

    ``bankable`` is a one-line note on whether the family's specs are
    deterministic-replayable (``bank build``-able): samplers whose stream
    is a pure function of ``(spec, seed, budget)``.  Shown by
    ``repro strategies --bankable``.
    """

    def decorator(factory: StrategyFactory) -> StrategyFactory:
        key = family.lower()
        if key in _REGISTRY:
            raise ValueError(f"strategy family {family!r} already registered")
        _REGISTRY[key] = (
            factory,
            summary or (factory.__doc__ or "").strip(),
            bankable,
        )
        return factory

    return decorator


def available_strategies() -> Dict[str, str]:
    """Mapping of registered family -> one-line summary."""
    return {family: summary for family, (_, summary, _) in sorted(_REGISTRY.items())}


def strategy_catalog() -> Dict[str, Tuple[str, str]]:
    """Mapping of registered family -> ``(summary, bankable note)``."""
    return {
        family: (summary, bankable)
        for family, (_, summary, bankable) in sorted(_REGISTRY.items())
    }


def build(
    spec: str,
    model: Any = None,
    corpus: Optional[Sequence[str]] = None,
    alphabet: Any = None,
) -> GuessingStrategy:
    """Construct the strategy a spec string describes.

    >>> build("passflow:dynamic+gs?alpha=1&sigma=0.12", model=passflow)
    >>> build("markov:3", corpus=train_passwords)
    """
    parsed = spec if isinstance(spec, StrategySpec) else parse_spec(spec)
    entry = _REGISTRY.get(parsed.family)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        raise SpecError(f"unknown strategy family {parsed.family!r} (known: {known})")
    factory = entry[0]
    resources = BuildResources(model=model, corpus=corpus, alphabet=alphabet)
    return factory(parsed, resources)
