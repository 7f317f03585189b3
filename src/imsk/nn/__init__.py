from . import checkpoint, layers, optim, tensor
from .tensor import Parameter, Tensor

__all__ = ["tensor", "layers", "optim", "checkpoint", "Tensor", "Parameter"]
