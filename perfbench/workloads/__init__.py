"""The five closed-loop workloads, by name."""

from perfbench.workloads.batch import BatchWorkload
from perfbench.workloads.compile import CompileWorkload
from perfbench.workloads.dispatch import DispatchWorkload
from perfbench.workloads.ingest import IngestWorkload
from perfbench.workloads.kernels import KernelsWorkload

WORKLOADS = {
    "compile": CompileWorkload,
    "dispatch": DispatchWorkload,
    "kernels": KernelsWorkload,
    "ingest": IngestWorkload,
    "batch": BatchWorkload,
}
