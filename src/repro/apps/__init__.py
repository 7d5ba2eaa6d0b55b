"""Applications: ping-pong, NPB BT, traffic, RPC offload."""

from .pingpong import DEFAULT_SIZES, PingPongPoint, run_pingpong
from .rpc import (
    RpcCompletion,
    RpcDispatcher,
    RpcParams,
    RpcReport,
    SerializationCache,
    install_rpc,
    run_rpc,
)
from .traffic import TrafficStats, render_traffic, traffic_matrix, traffic_stats

__all__ = [
    "DEFAULT_SIZES",
    "PingPongPoint",
    "RpcCompletion",
    "RpcDispatcher",
    "RpcParams",
    "RpcReport",
    "SerializationCache",
    "install_rpc",
    "run_rpc",
    "TrafficStats",
    "render_traffic",
    "run_pingpong",
    "traffic_matrix",
    "traffic_stats",
]
