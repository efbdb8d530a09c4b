"""Table I: residual error of PolyBench kernels across precisions.

Reproduces the paper's Table I rows (gemm, 3mm, covariance, gramschmidt)
for IEEE 32, IEEE 64, 128-bit and 512-bit significands over the five
dataset classes.  Residuals are computed against a 700-bit reference run
with exact high-precision arithmetic, so values as small as 1e-600 are
representable (the paper reports "< 1e-600" cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..bigfloat import BigFloat, log10_magnitude, to_str
from ..workloads.polybench import DATASET_ORDER, KERNELS, TABLE1_KERNELS
from .harness import residual_error, run_kernel

REFERENCE_TYPE = "vpfloat<mpfr, 16, 700>"

ROW_TYPES = (
    ("IEEE 32", "float"),
    ("IEEE 64", "double"),
    ("128 bits", "vpfloat<mpfr, 16, 128>"),
    ("512 bits", "vpfloat<mpfr, 16, 512>"),
)


@dataclass
class Table1Cell:
    kernel: str
    row: str
    dataset: str
    n: int
    residual: BigFloat

    @property
    def display(self) -> str:
        if self.residual.is_nan():
            return "nan (unstable)"
        if self.residual.is_zero() or \
                log10_magnitude(self.residual) < -600:
            return "< 1e-600"
        return to_str(self.residual, 2)


def _cell_group(kernel: str, dataset: str, max_steps: int,
                engine=None, validate: bool = False) -> List[Table1Cell]:
    """All four rows of one (kernel, dataset) column.

    This is the parallel engine's unit of work: the 700-bit reference
    run is shared by the column's rows, so sharding below this
    granularity would recompute it."""
    n = KERNELS[kernel].size_for(dataset)
    reference = run_kernel(kernel, REFERENCE_TYPE, n,
                           backend="none", max_steps=max_steps,
                           engine=engine, validate=validate)
    cells: List[Table1Cell] = []
    for row_name, ftype in ROW_TYPES:
        outcome = run_kernel(kernel, ftype, n, backend="none",
                             max_steps=max_steps, engine=engine,
                             validate=validate)
        residual = residual_error(outcome.outputs, reference.outputs)
        cells.append(Table1Cell(kernel, row_name, dataset, n, residual))
    return cells


def run_table1(kernels: Sequence[str] = TABLE1_KERNELS,
               datasets: Sequence[str] = DATASET_ORDER,
               max_steps: int = 2_000_000_000, jobs: int = 1,
               cache_dir=None, compile_cache: bool = True,
               engine=None, validate: bool = False) -> List[Table1Cell]:
    from .parallel import parallel_map

    tasks = [(kernel, dataset, max_steps, engine, validate)
             for kernel in kernels for dataset in datasets]
    groups = parallel_map(_cell_group, tasks, jobs=jobs,
                          cache_dir=cache_dir,
                          compile_cache=compile_cache)
    return [cell for group in groups for cell in group]


def format_table1(cells: List[Table1Cell]) -> str:
    kernels = []
    for cell in cells:
        if cell.kernel not in kernels:
            kernels.append(cell.kernel)
    datasets = []
    for cell in cells:
        if cell.dataset not in datasets:
            datasets.append(cell.dataset)
    lines = ["Table I -- residual error vs 700-bit reference", ""]
    header = f"{'kernel':<13}{'type':<10}" + "".join(
        f"{d:>14}" for d in datasets)
    lines.append(header)
    lines.append("-" * len(header))
    for kernel in kernels:
        for row_name, _ in ROW_TYPES:
            row_cells = {
                c.dataset: c for c in cells
                if c.kernel == kernel and c.row == row_name
            }
            lines.append(
                f"{kernel:<13}{row_name:<10}" + "".join(
                    f"{row_cells[d].display:>14}" if d in row_cells else
                    f"{'-':>14}" for d in datasets)
            )
    return "\n".join(lines)


def main(jobs: int = 1, cache_dir=None, compile_cache: bool = True,
         kernels: Sequence[str] = TABLE1_KERNELS,
         datasets: Sequence[str] = DATASET_ORDER, engine=None,
         validate: bool = False) -> str:
    text = format_table1(run_table1(kernels=kernels, datasets=datasets,
                                    jobs=jobs, cache_dir=cache_dir,
                                    compile_cache=compile_cache,
                                    engine=engine, validate=validate))
    print(text)
    return text
