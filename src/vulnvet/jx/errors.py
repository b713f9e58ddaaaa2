class JxError(Exception):
    """Base class for frontend errors."""


class ParseError(JxError):
    def __init__(self, message: str, line: int, col: int, origin: str = "<source>"):
        super().__init__("%s:%d:%d: %s" % (origin, line, col, message))
        self.line = line
        self.col = col
        self.origin = origin

