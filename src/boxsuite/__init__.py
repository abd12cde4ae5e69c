"""Cost-optimal shipping-box suite recommendation.

Decides which p boxes to stock so that a historical set of shipments ships as
cheaply as possible: 3D orthogonal-packing feasibility per shipment/box pair,
then a p-median solve over the resulting cost matrix, with support for locked
boxes and height-oriented / bottom-resting packing constraints.
"""
from boxsuite.model import (
    BoxSet,
    CandidateBox,
    Carton,
    Dims3,
    Shipment,
    liquid_volume,
    load_boxes,
    load_shipments,
    sort3,
)

__all__ = [
    "BoxSet",
    "CandidateBox",
    "Carton",
    "Dims3",
    "Shipment",
    "liquid_volume",
    "load_boxes",
    "load_shipments",
    "sort3",
]

__version__ = "0.1.0"
