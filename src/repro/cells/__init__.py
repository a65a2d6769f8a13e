"""Functional cells: the fine-grained computing primitives of XPro.

Section 2.2/3.1 decomposes the generic classification into *functional
cells* — independent asynchronous micro-computing units, each with a private
specialised ALU (S-ALU), buffer and clock, woken by data arrival and
power-gated when idle.  This package models them:

- :mod:`repro.cells.cell` -- the cell dataclass: op counts, ALU mode,
  input/output ports, and an executable compute function.
- :mod:`repro.cells.topology` -- the dataflow DAG of cells (the paper's
  "functional cell topology graph", Fig. 6b).
- :mod:`repro.cells.library` -- constructors for every module family (the 8
  statistical features, DWT levels, SVM members, score fusion), the
  Var-cell-reuse rule (Fig. 5) and the per-module ALU-mode characterisation
  (Fig. 4).
"""

from repro.cells.cell import CellFamily, FunctionalCell, OutputPort, PortRef, SOURCE_CELL
from repro.cells.library import (
    FIG4_MODULES,
    characterize_all_modules,
    choose_alu_mode,
    dwt_op_counts,
    make_dwt_cell,
    make_feature_cell,
    make_fusion_cell,
    make_svm_cell,
)
from repro.cells.render import render_cut_summary, render_topology
from repro.cells.validate import LintFinding, lint_topology
from repro.cells.topology import CellTopology

__all__ = [
    "CellFamily",
    "CellTopology",
    "LintFinding",
    "lint_topology",
    "render_cut_summary",
    "render_topology",
    "FIG4_MODULES",
    "FunctionalCell",
    "OutputPort",
    "PortRef",
    "SOURCE_CELL",
    "characterize_all_modules",
    "choose_alu_mode",
    "dwt_op_counts",
    "make_dwt_cell",
    "make_feature_cell",
    "make_fusion_cell",
    "make_svm_cell",
]
