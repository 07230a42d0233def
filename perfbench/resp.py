"""The benchmark's own RESP2 encoder and reply reader.

Kept apart from ``repro.kvstore.resp`` on purpose: replies are checked
against the benchmark's model, so decoding them with the program's own
parser would let a symmetric parse/encode fault pass unseen.
"""

from __future__ import annotations


class Status(str):
    """A ``+...`` simple-string reply."""


class Error(str):
    """A ``-...`` error reply."""


def command(*args: bytes) -> bytes:
    """One RESP array of bulk strings."""
    parts = [b"*%d\r\n" % len(args)]
    for arg in args:
        parts.append(b"$%d\r\n%s\r\n" % (len(arg), arg))
    return b"".join(parts)


def bulk(value: bytes | None) -> bytes:
    """The encoded reply a GET of ``value`` must produce."""
    if value is None:
        return b"$-1\r\n"
    return b"$%d\r\n%s\r\n" % (len(value), value)


OK = b"+OK\r\n"


class ProtocolDesync(Exception):
    """The reply stream cannot be parsed: replies and requests desynced."""


class ReplyReader:
    """Incremental reader: feed bytes, take parsed replies.

    Keeps its position across feeds, so a reply split over many
    ``recv`` calls is parsed once, not once per call.
    """

    def __init__(self) -> None:
        self.buf = bytearray()
        self.pos = 0
        self.replies: list = []

    def feed(self, data: bytes) -> None:
        self.buf += data

    def parse(self, want: int) -> bool:
        """Parse until ``want`` replies are held; False if more bytes needed."""
        replies = self.replies
        while len(replies) < want:
            parsed = self._one(self.pos)
            if parsed is None:
                return False
            value, self.pos = parsed
            replies.append(value)
        return True

    def take(self) -> list:
        """Hand over parsed replies; drop their bytes from the buffer."""
        out = self.replies
        self.replies = []
        del self.buf[:self.pos]
        self.pos = 0
        return out

    @property
    def leftover(self) -> int:
        """Unparsed bytes held (non-zero after a batch means desync)."""
        return len(self.buf) - self.pos

    def _one(self, pos: int):
        buf = self.buf
        if pos >= len(buf):
            return None
        eol = buf.find(b"\r\n", pos)
        if eol < 0:
            return None
        kind = buf[pos]
        if kind == 36:  # $
            length = int(buf[pos + 1:eol])
            if length < 0:
                return None, eol + 2
            end = eol + 2 + length
            if end + 2 > len(buf):
                return None
            return bytes(buf[eol + 2:end]), end + 2
        if kind == 43:  # +
            return Status(buf[pos + 1:eol].decode()), eol + 2
        if kind == 45:  # -
            return Error(buf[pos + 1:eol].decode()), eol + 2
        if kind == 58:  # :
            return int(buf[pos + 1:eol]), eol + 2
        if kind == 42:  # *
            count = int(buf[pos + 1:eol])
            items = []
            pos = eol + 2
            for __ in range(max(count, 0)):
                parsed = self._one(pos)
                if parsed is None:
                    return None
                item, pos = parsed
                items.append(item)
            return (items if count >= 0 else None), pos
        raise ProtocolDesync(f"unexpected reply type byte {kind!r}")
