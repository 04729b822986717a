"""Serve a trained pipeline as a long-lived annotation daemon.

The ROADMAP's north star is a deployed service: a model loaded once,
answering annotation traffic from many clients.  This example runs that
whole story in one process:

1. train a pipeline and persist it with ``TypilusPipeline.save``;
2. start :class:`repro.serve.AnnotationServer` on a Unix socket — the
   daemon a deployment would run via ``python -m repro.cli serve``;
3. fire **concurrent** annotation requests from several client threads;
   the daemon coalesces whatever arrives within its batching window into
   one micro-batch through the engine's batched suggestion path, so the
   clients share a single embedding pass (the printed stats show how many
   requests were merged);
4. adapt the type map *while the daemon is running*: an ``adapt`` request
   with examples of a new type extends the columnar TypeSpace and its
   index in place — no rebuild, no restart, no retraining (Sec. 4.2's
   open vocabulary, now at serving time);
5. overload a capacity-2 daemon on purpose: sheds come back as
   ``overloaded`` errors with a retry hint, and clients armed with a
   :class:`repro.serve.RetryPolicy` back off and win through;
6. hot-reload the daemon onto the originally saved model directory,
   undoing the adaptation without dropping a single request;
7. shut the daemon down cleanly over the same protocol.
"""

import tempfile
import threading
from pathlib import Path

from repro.core import EncoderConfig, LossKind, TrainingConfig, TypilusPipeline
from repro.corpus import CorpusSynthesizer, DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.engine import AnnotatorConfig
from repro.serve import (
    AnnotationClient,
    AnnotationServer,
    InProcessBackend,
    RetryPolicy,
    ServeConfig,
    ServeError,
)

#: Annotated examples of a project-specific type the model never saw in
#: training; the running daemon learns it from these via one ``adapt`` call.
ADAPTATION_EXAMPLE = '''
def parse_invoice(payload: InvoiceRecord) -> InvoiceRecord:
    return payload


def archive_invoice(record: InvoiceRecord) -> InvoiceRecord:
    return record
'''


def main() -> None:
    print("training Typilus ...")
    dataset = TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=40, seed=23),
        DatasetConfig(rarity_threshold=12),
    )
    pipeline = TypilusPipeline.fit(
        dataset,
        EncoderConfig(family="graph", hidden_dim=32, gnn_steps=3),
        loss_kind=LossKind.TYPILUS,
        training_config=TrainingConfig(epochs=5, graphs_per_batch=8),
    )

    with tempfile.TemporaryDirectory() as workdir:
        model_dir = Path(workdir) / "model"
        pipeline.save(model_dir)
        served = TypilusPipeline.load(model_dir)  # what the daemon would load

        socket_path = Path(workdir) / "typilus.sock"
        server = AnnotationServer(
            InProcessBackend(served, AnnotatorConfig(use_type_checker=False)),
            socket_path,
            serve_config=ServeConfig(batch_window_seconds=0.1),
        ).start()
        print(f"daemon listening on {socket_path}")

        try:
            client = AnnotationClient(socket_path)
            info = client.wait_until_ready()
            print(f"ready: {info['markers']} markers, dim {info['dim']}")

            # A handful of "users" annotating different files at the same time.
            projects = [
                {entry.filename: entry.source}
                for entry in CorpusSynthesizer(SynthesisConfig(num_files=4, seed=777)).generate()
            ]
            reports = [None] * len(projects)

            def annotate(position: int) -> None:
                reports[position] = client.annotate_sources(projects[position])

            threads = [
                threading.Thread(target=annotate, args=(position,)) for position in range(len(projects))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for report in reports:
                for file_report in report.files:
                    print(
                        f"  {file_report.filename}: {file_report.num_suggested}/{file_report.num_symbols} "
                        "symbols suggested"
                    )
            stats = client.stats()
            print(
                f"micro-batching: {stats['annotate_requests']} requests answered in "
                f"{stats['micro_batches']} batch(es), largest batch {stats['largest_batch']}"
            )

            # Serving-time adaptation: teach the live daemon a brand-new type.
            before = client.ping()["markers"]
            adapted = client.adapt("InvoiceRecord", {"invoices.py": ADAPTATION_EXAMPLE})
            print(
                f"adapted: +{adapted['added_markers']} markers for 'InvoiceRecord' "
                f"({before} -> {adapted['markers']}) without a restart"
            )

            # Hot reload: swap back to the pipeline as originally saved on
            # disk — the adaptation above is undone, no request is dropped.
            print(f"state before reload: {client.ping()['state']}")
            reloaded = client.reload(model_dir)
            print(
                f"hot-reloaded from {model_dir}: {reloaded['previous_markers']} -> "
                f"{reloaded['markers']} markers (state {client.ping()['state']})"
            )

            client.shutdown()
            print("daemon stopped")
        finally:
            server.close()

        # -- overload on purpose -------------------------------------------------------
        # A capacity-2 daemon floods immediately: sheds are explicit errors
        # with a retry hint, and a RetryPolicy client backs off and recovers.
        overload_socket = Path(workdir) / "overload.sock"
        server = AnnotationServer(
            InProcessBackend(TypilusPipeline.load(model_dir), AnnotatorConfig(use_type_checker=False)),
            overload_socket,
            serve_config=ServeConfig(
                batch_window_seconds=0.3, max_batch_requests=1, max_queue_depth=2
            ),
        ).start()
        try:
            AnnotationClient(overload_socket).wait_until_ready()
            outcomes: list[str] = []

            def flood(position: int) -> None:
                try:
                    AnnotationClient(overload_socket).annotate_sources(projects[position % len(projects)])
                    outcomes.append("ok")
                except ServeError as error:
                    outcomes.append(error.kind)
                    if error.kind == "overloaded":
                        print(f"  shed with hint: retry in {error.retry_after_seconds}s")

            flooders = [threading.Thread(target=flood, args=(position,)) for position in range(8)]
            for thread in flooders:
                thread.start()
            for thread in flooders:
                thread.join()
            stats = AnnotationClient(overload_socket).stats()
            print(
                f"flooded 8 requests at capacity 2: {outcomes.count('ok')} completed, "
                f"{stats['shed_requests']} shed"
            )

            patient = AnnotationClient(
                overload_socket,
                retry_policy=RetryPolicy(max_attempts=8, base_delay_seconds=0.05),
            )
            patient.annotate_sources(projects[0])
            print("a RetryPolicy client backed off and got its answer")
            AnnotationClient(overload_socket).shutdown()
        finally:
            server.close()


if __name__ == "__main__":
    main()
