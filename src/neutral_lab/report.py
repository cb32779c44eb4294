"""One JSON-ready form for every report dataclass."""

import dataclasses

OMIT = {"as_dict": False}  # field metadata that leaves the field out of as_dict()


def _plain(value):
    """Nested dataclasses recurse, tuples and lists become lists, dict keys str."""
    if dataclasses.is_dataclass(value):
        return {
            "lambda" if f.name == "lam" else f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("as_dict", True)
        }
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


class Report:
    """Base of the report dataclasses: as_dict() mirrors the fields."""

    def as_dict(self) -> dict:
        return _plain(self)
