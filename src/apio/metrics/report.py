"""Metric report container and JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class MetricReport:
    metric_name: str
    aggregate: float
    per_sample: tuple
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "metric": self.metric_name,
            "aggregate": self.aggregate,
            "n": self.n_samples,
            "per_sample": [list(s) if isinstance(s, tuple) else s for s in self.per_sample],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def mean_report(metric_name: str, per_sample: list[float]) -> MetricReport:
    n = len(per_sample)
    aggregate = sum(per_sample) / n if n else 0.0
    return MetricReport(metric_name, aggregate, tuple(per_sample), n)
