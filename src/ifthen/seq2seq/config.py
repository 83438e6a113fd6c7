"""Model variants and hyperparameter configuration."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from ifthen.taxonomy import CausalCategory, Dimension, Subject, Volition, classify_dimension


class ModelVariant(str, Enum):
    """Encoder-sharing configurations."""

    Single9 = "single9"
    EventInvolEvent = "event-invol"
    EventPersonXY = "event-personxy"
    EventPrePost = "event-prepost"


# The taxonomy axis each shared variant splits the dimensions on, and the
# encoder id of each axis value. Checkpoints name tensors by these ids; a
# value without an id (the stative xAttr under event-prepost) is not modeled.
_SHARED_ENCODERS = {
    ModelVariant.EventInvolEvent: (
        "volition", {Volition.Voluntary: "voluntary", Volition.Involuntary: "involuntary"}),
    ModelVariant.EventPersonXY: ("subject", {Subject.Agent: "agent", Subject.Theme: "theme"}),
    ModelVariant.EventPrePost: (
        "causal_category", {CausalCategory.Cause: "pre", CausalCategory.Effect: "post"}),
}


def encoder_grouping(variant: ModelVariant) -> dict[Dimension, str]:
    """Map each in-scope dimension to its encoder id.

    The single-task setup trains one encoder per dimension; the multitask
    setups share one encoder per value of a taxonomy axis.
    """
    if variant is ModelVariant.Single9:
        return {d: f"enc:{d.value}" for d in Dimension}
    axis, ids = _SHARED_ENCODERS[variant]
    values = {d: getattr(classify_dimension(d), axis) for d in Dimension}
    return {d: ids[v] for d, v in values.items() if v in ids}


# The least value of each bounded ModelConfig field (enc_hidden is split
# into two equal halves, so 2); a float field must also be finite.
FIELD_MINIMUMS = {"embed_dim": 1, "enc_hidden": 2, "dec_hidden": 1, "max_decode_len": 1,
                  "learning_rate": 0.0, "batch_size": 1, "epochs": 1, "seed": 0,
                  "clip_norm": 0.0, "min_count": 1}


@dataclass(frozen=True)
class ModelConfig:
    variant: ModelVariant = ModelVariant.Single9
    embed_dim: int = 64
    enc_hidden: int = 64
    dec_hidden: int = 64
    max_decode_len: int = 20
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    clip_norm: float = 5.0
    min_count: int = 1
    early_stop_loss: float | None = None

    def __post_init__(self) -> None:
        for name, minimum in FIELD_MINIMUMS.items():
            value = getattr(self, name)
            if not minimum <= value < math.inf:
                raise ValueError(f"{name} must be finite and at least {minimum}, got {value}")
        if self.enc_hidden % 2 != 0:
            raise ValueError("enc_hidden must be even (bidirectional halves)")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["variant"] = self.variant.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        for name, value in d.items():
            # A value must have its field's type; ints pass for floats.
            default = cls.__dataclass_fields__[name].default
            if name == "variant":
                allowed = str
            elif default is None:
                allowed = (int, float, type(None))
            elif isinstance(default, float):
                allowed = (int, float)
            else:
                allowed = type(default)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"config value {name}={value!r} has the wrong type")
        if "variant" in d:
            d["variant"] = ModelVariant(d["variant"])
        return cls(**d)
