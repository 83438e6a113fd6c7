"""Which dimensions share an encoder under each model variant."""

from __future__ import annotations

from ifthen.seq2seq.config import ModelVariant
from ifthen.taxonomy import Dimension

_VOLUNTARY = (Dimension.xIntent, Dimension.xNeed, Dimension.xWant, Dimension.oWant)
_INVOLUNTARY = (
    Dimension.xAttr,
    Dimension.xEffect,
    Dimension.xReact,
    Dimension.oEffect,
    Dimension.oReact,
)
_AGENT = (
    Dimension.xIntent,
    Dimension.xNeed,
    Dimension.xAttr,
    Dimension.xEffect,
    Dimension.xReact,
    Dimension.xWant,
)
_THEME = (Dimension.oEffect, Dimension.oReact, Dimension.oWant)
_PRE = (Dimension.xNeed, Dimension.xIntent)
_POST = (
    Dimension.xWant,
    Dimension.xEffect,
    Dimension.xReact,
    Dimension.oWant,
    Dimension.oEffect,
    Dimension.oReact,
)


def encoder_grouping(variant: ModelVariant) -> dict[Dimension, str]:
    """Map each in-scope dimension to its encoder id.

    The single-task setup trains one encoder per dimension; the multitask
    setups share one encoder per dimension family. The cause/effect
    variant omits xAttr entirely.
    """
    if variant is ModelVariant.Single9:
        return {d: f"enc:{d.value}" for d in Dimension}
    if variant is ModelVariant.EventInvolEvent:
        return {
            **{d: "voluntary" for d in _VOLUNTARY},
            **{d: "involuntary" for d in _INVOLUNTARY},
        }
    if variant is ModelVariant.EventPersonXY:
        return {**{d: "agent" for d in _AGENT}, **{d: "theme" for d in _THEME}}
    # ModelVariant.EventPrePost
    return {**{d: "pre" for d in _PRE}, **{d: "post" for d in _POST}}
