"""The unit of linter output: one finding at one source location."""


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule", "path", "line", "col", "message", "snippet")

    def __init__(self, rule, path, line, col, message, snippet=""):
        self.rule = rule
        self.path = path
        self.line = int(line)
        self.col = int(col)
        self.message = message
        self.snippet = snippet

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __repr__(self):
        return "Finding({} {}:{}:{})".format(self.rule, self.path, self.line, self.col)

