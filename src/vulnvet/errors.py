class VetError(Exception):
    """Base class for workspace-level tool errors."""


class ManifestError(VetError):
    pass


class MissingDependency(VetError):
    def __init__(self, name, version):
        super().__init__("dependency %s:%s not found in the library store" % (name, version))
        self.name = name
        self.version = version


class UnknownLibrary(VetError):
    pass


class UnknownArchive(VetError):
    pass


class DuplicateVuln(VetError):
    pass


class EmptyChangeSet(VetError):
    pass


class EmptyRange(VetError):
    pass


class MalformedArtifact(VetError):
    pass


class MalformedRecord(VetError):
    """A knowledge-base document that does not hold what its format requires."""


class NoTestsMatched(VetError):
    pass


class MalformedTraceLine(VetError):
    pass


class EmptyConstructSet(VetError):
    pass


class NoCandidates(VetError):
    pass
