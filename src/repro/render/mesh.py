"""Procedural 3D meshes.

:func:`generate_mesh` builds a deterministic procedural mesh (a
displaced icosphere-style lattice) whose packed form — a 40-byte header,
then the vertex and triangle arrays — is about a requested size.  The
renderer reads a mesh's triangle count; the cost model prices a model by
its catalog size (``RenderingConfig.catalog_sizes_kb``), not by a mesh.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Packed header bytes the size target counts: magic (4), version (4),
#: vertex count (8), triangle count (8), payload md5 (16).
_HEADER_BYTES = 40

#: Bytes per vertex: position (3f) + normal (3f) + uv (2f).
VERTEX_BYTES = 8 * 4
#: Bytes per triangle: three uint32 indices.
TRIANGLE_BYTES = 3 * 4


@dataclasses.dataclass
class MeshModel:
    """An in-memory mesh: the 'loaded data' the edge caches.

    Attributes:
        model_id: Stable identifier within the model catalog.
        vertices: (N, 8) float32 — position, normal, uv interleaved.
        triangles: (M, 3) uint32 indices.
    """

    model_id: int
    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 8:
            raise ValueError("vertices must have shape (N, 8)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (M, 3)")
        if self.triangles.size and int(self.triangles.max()) >= len(self.vertices):
            raise ValueError("triangle index out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


#: Parsed-form expansion factor: deserialized engine-ready geometry
#: (de-indexed attribute streams, alignment, acceleration structures) is
#: about 2.5x the packed file — why a cache hit on 'loaded data' still
#: moves real bytes in Figure 2b.
LOADED_EXPANSION = 2.5


def generate_mesh(model_id: int, target_file_kb: float,
                  seed: int = 0) -> MeshModel:
    """Build a deterministic procedural mesh whose packed form (header
    plus arrays) is ~``target_file_kb``.

    The mesh is a displaced UV-sphere lattice: realistic vertex/triangle
    ratios (roughly 2 triangles per vertex) at any size, fully determined
    by (model_id, target size, seed).
    """
    if target_file_kb <= 0:
        raise ValueError("target_file_kb must be > 0")
    target_bytes = target_file_kb * 1024
    # n vertices from: header + n*VERTEX + 2n*TRIANGLE ~= target.
    n_vertices = max(12, int((target_bytes - _HEADER_BYTES)
                             / (VERTEX_BYTES + 2 * TRIANGLE_BYTES)))
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, model_id, n_vertices])))

    # Lattice on a sphere with radial displacement: looks organic enough
    # and is cheap at any size.
    rows = max(3, int(np.sqrt(n_vertices / 2)))
    cols = max(3, int(np.ceil(n_vertices / rows)))
    n_vertices = rows * cols
    theta = np.linspace(0.1, np.pi - 0.1, rows)
    phi = np.linspace(0.0, 2 * np.pi, cols, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    radius = 1.0 + 0.15 * rng.standard_normal((rows, cols))
    x = (radius * np.sin(tt) * np.cos(pp)).ravel()
    y = (radius * np.sin(tt) * np.sin(pp)).ravel()
    z = (radius * np.cos(tt)).ravel()
    positions = np.stack([x, y, z], axis=1)
    norms = np.linalg.norm(positions, axis=1, keepdims=True)
    normals = positions / np.maximum(norms, 1e-12)
    uv = np.stack([pp.ravel() / (2 * np.pi), tt.ravel() / np.pi], axis=1)
    vertices = np.concatenate([positions, normals, uv],
                              axis=1).astype(np.float32)

    # Two triangles per lattice quad (wrapping in phi).
    quads = []
    for r in range(rows - 1):
        for c in range(cols):
            a = r * cols + c
            b = r * cols + (c + 1) % cols
            d = (r + 1) * cols + c
            e = (r + 1) * cols + (c + 1) % cols
            quads.append((a, b, d))
            quads.append((b, e, d))
    triangles = np.asarray(quads, dtype=np.uint32)
    return MeshModel(model_id=model_id, vertices=vertices, triangles=triangles)
