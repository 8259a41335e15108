"""AOP machinery: join points, pointcuts and the weaver."""

from repro.core.weaver.joinpoint import JoinPoint, MethodDescriptor
from repro.core.weaver.pointcut import Pointcut, call, implements
from repro.core.weaver.weaver import WeaveRecord, Weaver, is_woven, original_function
from repro.core.weaver.registry import default_weaver, unweave, unweave_all, weave, woven_aspects

__all__ = [
    "JoinPoint",
    "MethodDescriptor",
    "Pointcut",
    "call",
    "implements",
    "Weaver",
    "WeaveRecord",
    "is_woven",
    "original_function",
    "default_weaver",
    "weave",
    "unweave",
    "unweave_all",
    "woven_aspects",
]
