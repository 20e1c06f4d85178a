"""Rendering substrate: meshes, loading pipeline, draw timing, panoramas.

The paper's second and third workloads are 3D rendering (load a model,
draw it) and VR panorama streaming (crop a panoramic frame to the user's
viewport).  This package provides both, with the cost structure that
Figure 2b measures:

* :mod:`~repro.render.mesh` — a procedural mesh generator: real
  geometry of about a requested file size.
* :mod:`~repro.render.loader` — the three-stage load pipeline
  (fetch -> parse -> GPU upload) whose *parse* stage is what the edge
  cache of loaded data eliminates.
* :mod:`~repro.render.renderer` — a fill-rate/triangle-rate draw-time
  model.
* :mod:`~repro.render.panorama` — equirectangular panoramic frames plus
  viewport cropping, the cloud-VR representation of FlashBack/Furion.
"""

from repro.render.loader import GpuProfile, LoadCost, ModelLoader
from repro.render.mesh import MeshModel, generate_mesh
from repro.render.panorama import Panorama, PanoramaGrid, Viewport
from repro.render.renderer import RenderProfile, Renderer

__all__ = [
    "Renderer",
    "generate_mesh",
]
