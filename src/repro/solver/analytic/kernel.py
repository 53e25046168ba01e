"""The spectral Green's-function kernel and its content-hash cache.

For each lateral spatial mode ``m`` of the image-extended grid
(:mod:`repro.solver.analytic.images`), the layered slab reduces to a
tiny ``L x L`` vertical-chain system

``M(m) = diag(g_x lam_x + g_y lam_y + b_mean + rim/n) + tridiag(-g_v)``

whose inverse columns are the discrete Green's function: the spectral
temperature response at every layer to unit power injected at one
layer.  All modes are solved in one batched ``numpy.linalg.solve``
over a ``(n_modes, L, L)`` stack; the uniform mode additionally
carries the rim Schur complement (see
:mod:`repro.solver.analytic.stack`).

Kernels are cached process-wide under the stack's content-hash
fingerprint — the same discipline as the LU cache of
:mod:`repro.solver.steady` — so sweeps over power maps, flow
directions, or triage screens of one package pay the build once.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ... import obs
from ...errors import SolverError
from .images import neumann_eigenvalues
from .stack import SlabStack

_KERNEL_BUILDS = obs.metrics().counter("solver.analytic.kernel_builds")
_KERNEL_CACHE_HITS = obs.metrics().counter("solver.analytic.kernel_cache_hits")

#: Bounded process-wide kernel cache (LRU), keyed on stack fingerprint.
_CACHE: "OrderedDict[str, SpectralKernel]" = OrderedDict()
_CACHE_MAX = 32


class SpectralKernel:
    """Per-mode Green's-function responses for one slab stack.

    Stores, for every lateral mode, the response of *all* layers to
    unit injection at each of the stack's
    :attr:`~repro.solver.analytic.stack.SlabStack.injection_indices`.
    The chain matrices are real symmetric, so the stored responses are
    real and reciprocity (``K[a, b] == K[b, a]``) holds by
    construction.
    """

    def __init__(self, stack: SlabStack) -> None:
        self.stack = stack
        self.fingerprint = stack.kernel_fingerprint
        n_layers = stack.n_layers
        n_modes_y, n_modes_x = 2 * stack.ny, stack.nx + 1
        lam_x = neumann_eigenvalues(stack.nx, n_modes_x)
        lam_y = neumann_eigenvalues(stack.ny, n_modes_y)

        chain = np.zeros((n_modes_y, n_modes_x, n_layers, n_layers))
        for i, layer in enumerate(stack.layers):
            diagonal = layer.ambient_mean + stack.rim_load[i] / stack.n_cells
            chain[..., i, i] = (
                diagonal
                + layer.g_lateral_x * lam_x[np.newaxis, :]
                + layer.g_lateral_y * lam_y[:, np.newaxis]
            )
        for i, g in enumerate(stack.g_vertical):
            chain[..., i, i] += g
            chain[..., i + 1, i + 1] += g
            chain[..., i, i + 1] = -g
            chain[..., i + 1, i] = -g
        if stack.rim_schur is not None:
            # The Schur complement of the (near-isothermal) rim loads
            # only the spatially uniform mode; every other mode sees
            # the rim as the diagonal load applied above.
            chain[0, 0] += stack.rim_schur / stack.n_cells

        injection = stack.injection_indices
        unit = np.zeros((n_layers, len(injection)))
        for column, layer_index in enumerate(injection):
            unit[layer_index, column] = 1.0
        rhs = np.broadcast_to(
            unit, (n_modes_y * n_modes_x, n_layers, len(injection))
        )
        try:
            solved = np.linalg.solve(
                chain.reshape(-1, n_layers, n_layers), np.ascontiguousarray(rhs)
            )
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"analytic kernel build failed (singular chain): {exc}"
            ) from exc
        #: ``(2 ny, nx + 1, L, n_injection)`` real responses.  Frozen:
        #: kernels are shared process-wide through the LRU cache, and
        #: :meth:`response` hands out views of this array — an in-place
        #: write would corrupt every later solve on this stack.
        self._response = solved.reshape(
            n_modes_y, n_modes_x, n_layers, len(injection)
        )
        self._response.setflags(write=False)
        self._column = {layer: k for k, layer in enumerate(injection)}

    def response(self, out_layer: int, in_layer: int) -> np.ndarray:
        """Per-mode response at ``out_layer`` to injection at ``in_layer``.

        ``in_layer`` must be one of the stack's injection indices;
        output layers are unrestricted.  Shape ``(2 ny, nx + 1)``.
        The returned view aliases the cached kernel and is read-only;
        ``.copy()`` it before mutating.
        """
        try:
            column = self._column[in_layer]
        except KeyError:
            raise SolverError(
                f"kernel stores no injection column for layer {in_layer}; "
                f"available: {sorted(self._column)}"
            ) from None
        return self._response[:, :, out_layer, column]


def get_kernel(stack: SlabStack) -> SpectralKernel:
    """The cached spectral kernel for a stack (build on first use)."""
    fingerprint = stack.kernel_fingerprint
    cached = _CACHE.get(fingerprint)
    if cached is not None:
        _CACHE.move_to_end(fingerprint)
        _KERNEL_CACHE_HITS.inc()
        return cached
    with obs.span("solver.analytic.kernel", nx=stack.nx, ny=stack.ny,
                  n_layers=stack.n_layers):
        kernel = SpectralKernel(stack)
    _KERNEL_BUILDS.inc()
    _CACHE[fingerprint] = kernel
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)
    return kernel


def kernel_cache_clear() -> None:
    """Drop every cached kernel (tests and memory-pressure hooks)."""
    _CACHE.clear()
