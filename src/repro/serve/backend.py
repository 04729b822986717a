"""The backend contract behind the serve front-end, and its in-process form.

:class:`~repro.serve.server.AnnotationServer` owns everything request-shaped
(admission, deadlines, micro-batching, bisection) and hands the model work to
one backend.  A backend is anything with this surface (:class:`ServeBackend`):

* ``start()`` / ``close()`` — acquire and release whatever runs the model;
* ``concurrency`` — how many merged micro-batches may run at once;
* ``annotate(sources)`` — one merged source map in, the wire-neutral payload
  ``{"files": [[name, [suggestion payloads]], ...], "skipped": [...],
  "reused_files": n}`` out;
* ``adapt(type_name, sources)`` → ``(added_markers, markers)``;
* ``reload(model_dir)`` → ``(markers, previous_markers)``;
* ``describe()`` — pipeline facts for ``ping`` (``markers``, ``dim``, ...);
* ``stats()`` — extra keys for the ``stats`` op.

Two implementations exist: :class:`InProcessBackend` (one pipeline in this
process) and :class:`~repro.serve.workers.WorkerPool` (N worker processes,
each of which runs an :class:`InProcessBackend` of its own).  The server calls
``adapt`` and ``reload`` only once every dispatched micro-batch finished, so
a backend never sees a type-map change overlap an annotation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Protocol, Union

from repro.core.pipeline import TypilusPipeline
from repro.engine.annotator import AnnotatorConfig, ProjectAnnotator, suggestion_to_payload


class ServeBackend(Protocol):
    """What :class:`~repro.serve.server.AnnotationServer` needs from a backend."""

    concurrency: int

    def start(self) -> "ServeBackend": ...
    def close(self) -> None: ...
    def annotate(self, sources: dict[str, str]) -> dict: ...
    def adapt(self, type_name: str, sources: dict[str, str]) -> tuple[int, int]: ...
    def reload(self, model_dir: Union[str, Path]) -> tuple[int, int]: ...
    def describe(self) -> dict: ...
    def stats(self) -> dict: ...


class InProcessBackend:
    """One pipeline and one :class:`ProjectAnnotator` in the calling process.

    ``concurrency`` is 1: the annotator is not re-entrant, so the server runs
    one micro-batch at a time, exactly like a one-shot annotation run.
    Reload is two-phase so a worker process can take part in a fleet-wide
    commit: :meth:`prepare_reload` loads the new pipeline next to the live
    one, :meth:`commit_reload` swaps it in and :meth:`abort_reload` drops it.
    """

    concurrency = 1

    def __init__(
        self,
        pipeline: TypilusPipeline,
        annotator_config: Optional[AnnotatorConfig] = None,
        mmap_typespace: Optional[bool] = None,
    ) -> None:
        self.pipeline = pipeline
        self.annotator_config = annotator_config or AnnotatorConfig()
        self.annotator = ProjectAnnotator(pipeline, self.annotator_config)
        self._mmap_typespace = mmap_typespace
        self._staged: Optional[TypilusPipeline] = None

    def start(self) -> "InProcessBackend":
        return self

    def close(self) -> None:
        self._staged = None

    def annotate(self, sources: dict[str, str]) -> dict:
        report = self.annotator.annotate_sources(sources)
        return {
            "files": [
                [file_report.filename, [suggestion_to_payload(s) for s in file_report.suggestions]]
                for file_report in report.files
            ],
            "skipped": list(report.skipped_files),
            "reused_files": report.reused_files,
        }

    def adapt(self, type_name: str, sources: dict[str, str]) -> tuple[int, int]:
        added = self.pipeline.adapt_with_sources(type_name, sources, provenance="serve:adapt")
        return added, len(self.pipeline.type_space)

    def reload(self, model_dir: Union[str, Path]) -> tuple[int, int]:
        self.prepare_reload(model_dir)
        return self.commit_reload()

    def prepare_reload(self, model_dir: Union[str, Path]) -> int:
        """Load ``model_dir`` next to the live pipeline; returns its marker count."""
        self._staged = TypilusPipeline.load(model_dir, mmap_typespace=self._mmap_typespace)
        return len(self._staged.type_space)

    def commit_reload(self) -> tuple[int, int]:
        """Swap the prepared pipeline in; returns ``(markers, previous_markers)``."""
        if self._staged is None:
            raise RuntimeError("no staged pipeline to commit")
        previous_markers = len(self.pipeline.type_space)
        self.pipeline, self._staged = self._staged, None
        self.annotator = ProjectAnnotator(self.pipeline, self.annotator_config)
        return len(self.pipeline.type_space), previous_markers

    def abort_reload(self) -> None:
        self._staged = None

    def describe(self) -> dict:
        space = self.pipeline.type_space
        return {
            "markers": len(space),
            "dim": space.dim,
            "approximate_index": space.approximate_index,
            "index_kind": space.index_kind,
            "dtype": str(space.dtype),
        }

    def stats(self) -> dict:
        return {}
