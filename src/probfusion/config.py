"""Pipeline configuration loading."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .aoi import EnlargeRatios
from .cluster import ClusteringConfig
from .errors import ConfigError
from .ground import RansacPlaneConfig
from .metrics import GuaranteeConfig, ToleranceConfig
from .shape import ShapeFilterConfig
from .smoother import SmootherConfig


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
    enlarge_ratios: dict = field(
        default_factory=lambda: {"default": EnlargeRatios()})
    shape_filter: ShapeFilterConfig = field(default_factory=ShapeFilterConfig)
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    tolerance: ToleranceConfig = field(default_factory=ToleranceConfig)
    guarantee: GuaranteeConfig = field(default_factory=GuaranteeConfig)
    target_object_ids: Optional[list] = None  # None = aggregate all objects
    rng_seed: int = 0  # seeds ground RANSAC, K-Means and the smoother
    output_dir: Optional[Path] = None

    def ratios_for(self, class_label: str) -> EnlargeRatios:
        return self.enlarge_ratios.get(class_label,
                                       self.enlarge_ratios.get(
                                           "default", EnlargeRatios()))


def load_pipeline_config(path) -> PipelineConfig:
    """Load a JSON pipeline config; relative paths resolve next to it."""
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"invalid config {path}: not a JSON object")
    base = path.parent

    def resolve(key):
        value = raw.get(key)
        if value is None:
            return None
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
    ratios = raw.get("enlarge_ratios", {"default": {}})
    if not isinstance(ratios, dict):
        raise ConfigError(f"invalid config {path}: enlarge_ratios must map "
                          "class labels to ratios")
    seed = raw.get("rng_seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"invalid config {path}: rng_seed must be a "
                          f"non-negative integer, got {seed!r}")

    cfg = PipelineConfig(
        calibration_path=calib_path,
        benchmark_registry_path=registry,
        enlarge_ratios={label: build(f"enlarge_ratios.{label}",
                                     EnlargeRatios, vals)
                        for label, vals in ratios.items()},
        target_object_ids=raw.get("target_object_ids"),
        rng_seed=seed,
        output_dir=resolve("output_dir"),
        **stages,
    )
    if "default" not in cfg.enlarge_ratios:
        cfg.enlarge_ratios["default"] = EnlargeRatios()
    return cfg


def write_pipeline_config(path, *, calibration="calibration.json",
                          benchmark_registry=None, **overrides) -> None:
    """Write a config JSON with the library defaults plus overrides."""
    payload = {"calibration": str(calibration), "rng_seed": 0,
               "enlarge_ratios": {"default": asdict(EnlargeRatios())},
               **{key: {} for key, _ in STAGES}}
    if benchmark_registry is not None:
        payload["benchmark_registry"] = str(benchmark_registry)
    payload.update(overrides)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
