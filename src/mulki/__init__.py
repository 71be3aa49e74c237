"""Continual learning for a toy two-tower image/text model.

The training loop distils each new student against two frozen teachers
(the initial model and the previous task's model), keeps class
prototypes aligned with the text tower, and averages weight-space
checkpoints so the published model per task is an ensemble rather than
the last iterate. Everything runs on a small numpy autodiff core; no
GPU framework is involved.
"""

__version__ = "0.1.0"
