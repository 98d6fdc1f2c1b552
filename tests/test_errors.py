"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.GeometryError,
            errors.DimensionalityError,
            errors.MotionError,
            errors.StorageError,
            errors.PageOverflowError,
            errors.PageNotFoundError,
            errors.TransientIOError,
            errors.CorruptPageError,
            errors.RecoveryError,
            errors.IndexStructureError,
            errors.QueryError,
            errors.TrajectoryError,
            errors.SessionError,
            errors.WorkloadError,
            errors.ServerError,
            errors.AdmissionError,
            errors.AnalysisError,
            errors.LintConfigError,
            errors.SanitizerError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_dimensionality_is_geometry(self):
        assert issubclass(errors.DimensionalityError, errors.GeometryError)

    def test_page_errors_are_storage(self):
        assert issubclass(errors.PageOverflowError, errors.StorageError)
        assert issubclass(errors.PageNotFoundError, errors.StorageError)

    def test_fault_errors_are_storage(self):
        assert issubclass(errors.TransientIOError, errors.StorageError)
        assert issubclass(errors.CorruptPageError, errors.StorageError)
        assert issubclass(errors.RecoveryError, errors.StorageError)

    def test_trajectory_is_query(self):
        assert issubclass(errors.TrajectoryError, errors.QueryError)

    def test_index_error_does_not_shadow_builtin(self):
        assert errors.IndexStructureError is not IndexError
        assert not issubclass(errors.IndexStructureError, IndexError)

    def test_analysis_errors_are_analysis(self):
        assert issubclass(errors.LintConfigError, errors.AnalysisError)
        assert issubclass(errors.SanitizerError, errors.AnalysisError)

    def test_catching_repro_error_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.WorkloadError("boom")


class TestRemovedAlias:
    def test_old_name_is_gone(self):
        with pytest.raises(AttributeError):
            errors.IndexError_

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            errors.NoSuchError_
