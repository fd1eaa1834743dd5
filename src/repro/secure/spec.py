"""Picklable engine factories: a design class plus constructor kwargs."""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Dict, List, Optional, Type

from repro.mem.traffic import TrafficCounter
from repro.secure.engine import PartitionEngine

if TYPE_CHECKING:
    from repro.secure.stages import Stage


class EngineSpec:
    """A picklable engine factory: a design class plus constructor kwargs.

    Parallel replay ships factories into worker processes; lambdas
    cannot cross that boundary, specs can. Calling a spec builds one
    partition's engine exactly like the closures it replaces.
    """

    __slots__ = ("engine_cls", "kwargs")

    def __init__(self, engine_cls: Type[PartitionEngine], **kwargs) -> None:
        self.engine_cls = engine_cls
        self.kwargs = kwargs

    def __call__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
    ) -> PartitionEngine:
        return self.engine_cls(
            partition_id, data_sectors, traffic, **self.kwargs
        )

    def __repr__(self) -> str:
        kwargs = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.kwargs.items())
        )
        suffix = f", {kwargs}" if kwargs else ""
        return f"EngineSpec({self.engine_cls.__name__}{suffix})"

    def bound_kwargs(self) -> Dict[str, object]:
        """The kwargs bound over the constructor, defaults applied."""
        signature = inspect.signature(self.engine_cls)
        bound = signature.bind(None, None, None, **self.kwargs)
        bound.apply_defaults()
        items: Dict[str, object] = {}
        # The first three arguments are the per-partition factory call.
        for name, value in list(bound.arguments.items())[3:]:
            if signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
                items.update(value)
            else:
                items[name] = value
        return items

    def stages(self) -> "Optional[List[Stage]]":
        """The keyed stages this design replays as in a matrix, or None
        to replay it whole (:meth:`PartitionEngine.replay_stages`)."""
        return self.engine_cls.replay_stages(self)

    def identity(self) -> str:
        """Canonical name of the engine configuration this spec builds.

        The class (by import path) plus :meth:`bound_kwargs`, so specs
        that differ only in spelling out a default (``plutus`` and
        ``plutus:vcache-256``) share one identity and one replay. Values
        compare by ``repr``, which is structural for the config
        dataclasses. Two *different* classes never share an identity,
        however similar their traffic.
        """
        cls = self.engine_cls
        args = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.bound_kwargs().items())
        )
        return f"{cls.__module__}.{cls.__qualname__}({args})"
