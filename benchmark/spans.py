"""In-memory span tracer for the traced benchmark run.

The solver binds its collaborators with ``from ... import``, so a span has to
wrap the attribute that the *calling* module resolves at call time: patching
``qcbp.embedding.embed`` would record nothing, because ``qcbp.pricing`` holds
its own reference. `TARGETS` lists those call sites; `Tracer` patches them on
entry and puts every original back on exit, even when the run raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index into Tracer.spans
    solve: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _note_audit(info: dict, args: tuple, result) -> None:
    info["exact"] = bool(result.is_exact_ud)


def _note_evolve(info: dict, args: tuple, result) -> None:
    reg, pulse, cfg = args[:3]
    info["n"] = reg.n
    info["amp_steps"] = (1 << reg.n) * max(1, round(pulse.duration / cfg.dt))


def _note_sample_columns(info: dict, args: tuple, result) -> None:
    info["columns"] = len(result[0])


def _note_run_hcg(info: dict, args: tuple, result) -> None:
    info["iterations"] = result.iterations
    info["certified"] = bool(result.certified)


# (calling module, attribute in it, span name, note on the call's result).
# `PricingEngine.sample_columns` is patched on the class, so every engine the
# solver creates is traced.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("qcbp.pricing", "embed", "embedding.embed", None),
    ("qcbp.pricing", "audit", "embedding.audit", _note_audit),
    ("qcbp.pricing", "build_adiabatic_pulse", "emulator.build_adiabatic_pulse", None),
    ("qcbp.pricing", "evolve", "emulator.evolve", _note_evolve),
    ("qcbp.pricing", "sample", "emulator.sample", None),
    ("qcbp.pricing", "PricingEngine.sample_columns", "pricing.sample_columns", _note_sample_columns),
    ("qcbp.hcg", "exact_mwis", "pricing.exact_mwis", None),
    ("qcbp.hcg", "solve_rmp", "rmp.solve_rmp", None),
    ("qcbp.bnp", "run_hcg", "hcg.run_hcg", _note_run_hcg),
    ("qcbp.bnp", "spectral_lb", "bounds.spectral_lb", None),
    ("qcbp.bnp", "primal_heuristic", "bnp.primal_heuristic", None),
    ("qcbp.bnp", "branch", "bnp.branch", None),
)


class Tracer:
    """Records nested spans with parent links and a solve id, in memory."""

    def __init__(self, targets=TARGETS, clock: Callable[[], float] = time.perf_counter) -> None:
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.solve: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, self.clock(), parent=self._stack[-1] if self._stack else None,
                      solve=self.solve)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def _wrap(self, original: Callable, name: str, note: Callable | None) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if note is not None:
                    note(record.info, args, result)
                return result
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module, dotted, name, note in self.targets:
                *owner_path, attr = dotted.split(".")
                owner = functools.reduce(getattr, owner_path, importlib.import_module(module))
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, note))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], results: list, setup_repeats: int) -> dict[str, float]:
    """Per-layer totals over one traced pass; `results` are the returned
    `SolveResult`s. Set-up spans are averaged over the set-up repeats."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, key: str = "seconds") -> float:
        if key == "self":
            return sum(selfs[i] for i in by_name.get(name, ()))
        if key == "seconds":
            return sum(spans[i].seconds for i in by_name.get(name, ()))
        return sum(spans[i].info[key] for i in by_name.get(name, ()))

    sampled = by_name.get("pricing.sample_columns", [])
    evolving = {spans[i].parent for i in by_name.get("emulator.evolve", ())}
    sweep = total("bnp.solve_qcbp")
    m = {
        "embedding.embed.calls": calls("embedding.embed"),
        "embedding.embed.s": total("embedding.embed"),
        "embedding.audit.s": total("embedding.audit"),
        "embedding.embed.exact_rate": _ratio(total("embedding.audit", "exact"), calls("embedding.audit")),
        "emulator.evolve.calls": calls("emulator.evolve"),
        "emulator.evolve.s": total("emulator.evolve"),
        "emulator.evolve.amp_steps": total("emulator.evolve", "amp_steps"),
        "emulator.sample.s": total("emulator.sample"),
        "emulator.build_adiabatic_pulse.s": total("emulator.build_adiabatic_pulse"),
        "pricing.sample_columns.calls": len(sampled),
        "pricing.sample_columns.self_s": total("pricing.sample_columns", "self"),
        "pricing.cache_hit_rate": _ratio(sum(i not in evolving for i in sampled), len(sampled)),
        "pricing.improving_per_call": _ratio(total("pricing.sample_columns", "columns"), len(sampled)),
        "pricing.shots_per_solve": _ratio(sum(r.stats.shots_total for r in results), len(results)),
        "pricing.exact_mwis.calls": calls("pricing.exact_mwis"),
        "pricing.exact_mwis.s": total("pricing.exact_mwis"),
        "hcg.run_hcg.calls": calls("hcg.run_hcg"),
        "hcg.run_hcg.self_s": total("hcg.run_hcg", "self"),
        "hcg.iterations_per_call": _ratio(total("hcg.run_hcg", "iterations"), calls("hcg.run_hcg")),
        "hcg.certified_rate": _ratio(total("hcg.run_hcg", "certified"), calls("hcg.run_hcg")),
        "rmp.solve_rmp.calls": calls("rmp.solve_rmp"),
        "rmp.solve_rmp.s": total("rmp.solve_rmp"),
        "bounds.spectral_lb.calls": calls("bounds.spectral_lb"),
        "bounds.spectral_lb.s": total("bounds.spectral_lb"),
        "bnp.primal_heuristic.calls": calls("bnp.primal_heuristic"),
        "bnp.primal_heuristic.s": total("bnp.primal_heuristic"),
        "bnp.branch.calls": calls("bnp.branch"),
        "bnp.branch.s": total("bnp.branch"),
        "bnp.solve_qcbp.self_s": total("bnp.solve_qcbp", "self"),
        "bnp.nodes_generated": sum(r.stats.nodes_generated for r in results),
        "bnp.nodes_explored": sum(r.stats.nodes_explored for r in results),
        "bnp.nodes_pruned": sum(r.stats.nodes_pruned for r in results),
        "chromatic.exact_coloring.s": total("chromatic.exact_coloring") / setup_repeats,
        "bench.generate_dataset.s": total("bench.generate_dataset") / setup_repeats,
        "trace.sweep_s": sweep,
        "trace.layer_share": _ratio(sweep - total("bnp.solve_qcbp", "self"), sweep),
    }
    return {k: float(v) for k, v in m.items()}
