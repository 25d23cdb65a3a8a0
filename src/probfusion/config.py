"""Pipeline configuration loading."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .aoi import EnlargeRatios
from .classes import CLASSES
from .cluster import ClusteringConfig
from .errors import ConfigError, check_number
from .ground import RansacPlaneConfig
from .io import read_json_object
from .metrics import GuaranteeConfig, ToleranceConfig
from .shape import ShapeFilterConfig
from .smoother import SmootherConfig


# The ratios of a class that neither its own entry nor "default" sets.
# EnlargeRatios is frozen, so one instance serves every lookup.
_DEFAULT_RATIOS = EnlargeRatios()

# The config sections that each configure one stage, with their classes.
STAGES = (("ransac_ground", RansacPlaneConfig),
          ("clustering", ClusteringConfig),
          ("shape_filter", ShapeFilterConfig),
          ("smoother", SmootherConfig),
          ("tolerance", ToleranceConfig),
          ("guarantee", GuaranteeConfig))


@dataclass
class PipelineConfig:
    calibration_path: Path
    benchmark_registry_path: Optional[Path] = None
    ransac_ground: RansacPlaneConfig = field(default_factory=RansacPlaneConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    enlarge_ratios: dict = field(default_factory=dict)
    shape_filter: ShapeFilterConfig = field(default_factory=ShapeFilterConfig)
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    tolerance: ToleranceConfig = field(default_factory=ToleranceConfig)
    guarantee: GuaranteeConfig = field(default_factory=GuaranteeConfig)
    target_object_ids: Optional[list] = None  # None = aggregate all objects
    rng_seed: int = 0  # seeds ground RANSAC, K-Means and the smoother

    def ratios_for(self, class_label: str) -> EnlargeRatios:
        ratios = self.enlarge_ratios
        if class_label in ratios:
            return ratios[class_label]
        return ratios.get("default", _DEFAULT_RATIOS)


def load_pipeline_config(path) -> PipelineConfig:
    """Load a JSON pipeline config; relative paths resolve next to it."""
    path = Path(path)
    try:
        raw = read_json_object(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    unknown = sorted(raw.keys() - {key for key, _ in STAGES} - {
        "calibration", "benchmark_registry", "rng_seed", "target_object_ids",
        "enlarge_ratios"})
    if unknown:
        raise ConfigError(f"invalid config {path}: unknown key {unknown[0]!r}")
    base = path.parent

    def resolve(key):
        value = raw.get(key)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"invalid config {path}: {key} must be a "
                              f"path string, got {value!r}")
        p = Path(value)
        return p if p.is_absolute() else base / p

    calib_path = resolve("calibration")
    if calib_path is None:
        raise ConfigError("config must name a calibration file")
    if not calib_path.exists():
        raise ConfigError(f"calibration file {calib_path} does not exist")
    registry = resolve("benchmark_registry")
    if registry is not None and not registry.exists():
        raise ConfigError(f"benchmark registry {registry} does not exist")

    def build(key, cls, value):
        """cls(**value); a bad value is a ConfigError that names key."""
        try:
            return cls(**value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config {path}: {key}: {exc}") from exc

    stages = {key: build(key, cls, raw.get(key, {})) for key, cls in STAGES}
    ratios = raw.get("enlarge_ratios", {})
    if not isinstance(ratios, dict):
        raise ConfigError(f"invalid config {path}: enlarge_ratios must map "
                          "class labels to ratios")
    unknown = sorted(ratios.keys() - {"default", *CLASSES})
    if unknown:
        raise ConfigError(f"invalid config {path}: unknown key "
                          f"'enlarge_ratios.{unknown[0]}', not default or "
                          f"one of {', '.join(CLASSES)}")
    seed = raw.get("rng_seed", 0)
    targets = raw.get("target_object_ids")
    try:
        check_number("rng_seed", seed, integer=True, at_least=0)
        if not isinstance(targets, (list, type(None))):
            raise ValueError("target_object_ids must be a list of "
                             f"integers, got {targets!r}")
        for i, target in enumerate(targets or ()):
            check_number(f"target_object_ids[{i}]", target, integer=True)
    except ValueError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from None

    return PipelineConfig(
        calibration_path=calib_path,
        benchmark_registry_path=registry,
        enlarge_ratios={label: build(f"enlarge_ratios.{label}",
                                     EnlargeRatios, vals)
                        for label, vals in ratios.items()},
        target_object_ids=targets,
        rng_seed=seed,
        **stages,
    )


def write_pipeline_config(path, *, calibration="calibration.json",
                          benchmark_registry=None, **overrides) -> None:
    """Write a config JSON with the library defaults plus overrides."""
    payload = {"calibration": str(calibration), "rng_seed": 0,
               **{key: {} for key, _ in STAGES}}
    if benchmark_registry is not None:
        payload["benchmark_registry"] = str(benchmark_registry)
    payload.update(overrides)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
