"""Exception types shared across the package."""


class StripLiftError(Exception):
    """Base class for all striplift errors."""


class SchemaError(StripLiftError):
    """A document violates the file schema.  Message names the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.message = message
        self.field = field


class EvaluationError(StripLiftError):
    """A function produced a non-finite value during numerical evaluation."""

    def __init__(self, message, t=None, stage=None):
        parts = [message]
        if t is not None:
            parts.append(f"at t={t!r}")
        if stage is not None:
            parts.append(f"(stage {stage})")
        super().__init__(" ".join(parts))
        self.t = t
        self.stage = stage


class DegenerateBasisError(StripLiftError):
    """A 2x2 basis fell below the scale-free degeneracy threshold."""

    def __init__(self, det, threshold, location=None):
        where = "" if location is None else f" at {location}"
        super().__init__(
            f"degenerate basis{where}: |det|={abs(det):.3e} <= threshold {threshold:.3e}"
        )
        self.det = det
        self.threshold = threshold
        self.location = location


class DivergenceError(StripLiftError):
    """The stress march left the admissible range (blow-up guard)."""


class GridAlignmentError(StripLiftError):
    """A parameter value that must coincide with a grid node does not."""


class NotSelfStressedError(StripLiftError):
    """A stress failed the self-stress residual gate.  Carries the report."""

    def __init__(self, report, tolerance):
        super().__init__(
            f"stress is not a self-stress: normalized residual max "
            f"{report.max_normalized:.3e} exceeds tolerance {tolerance:.3e} "
            f"at (i={report.argmax[0]}, t={report.argmax[1]:.6g})"
        )
        self.report = report
        self.tolerance = tolerance


class NotConjugateError(StripLiftError):
    """A surface failed the developability check.  Carries the worst defect."""

    def __init__(self, worst_defect, tolerance, location=None):
        where = "" if location is None else f" at {location}"
        super().__init__(
            f"surface is not conjugate{where}: developability defect "
            f"{worst_defect:.3e} exceeds tolerance {tolerance:.3e}"
        )
        self.worst_defect = worst_defect
        self.tolerance = tolerance
        self.location = location
