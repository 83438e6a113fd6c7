"""Model variants and hyperparameter configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum


class ModelVariant(str, Enum):
    """Encoder-sharing configurations."""

    Single9 = "single9"
    EventInvolEvent = "event-invol"
    EventPersonXY = "event-personxy"
    EventPrePost = "event-prepost"


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
        if self.enc_hidden % 2 != 0:
            raise ValueError("enc_hidden must be even (bidirectional halves)")
        for name in ("embed_dim", "enc_hidden", "dec_hidden", "max_decode_len",
                     "batch_size", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

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
