"""The markup scanner against an ``html.parser`` oracle.

``ReferenceExtractor`` is the ``HTMLParser`` subclass that ``extract_page``
was built on before the scanner: on markup where the two tokenizers agree
(every generated world, the golden page and a seeded random grammar of
well-formed markup), ``extract_page`` must give exactly its result. Where
they disagree by design (malformed markup, see the ``htmltext`` docstring),
the expected values are written out. Mutated bodies may not raise at all.
"""
import random
import time
from html.parser import HTMLParser

import pytest

from blogwatch import feeds
from blogwatch.feeds import decode_feed_bytes, parse_rss
from blogwatch.harness import generate_world, mixed_200_spec
from blogwatch.htmltext import (_BLOCK_TAGS, _DATE_PATTERNS, _HEADING_TAGS, _SKIP_TAGS,
                                WINDOW, Document, LinkContext, _rss_alternate,
                                extract_page, find_feed_url)
from blogwatch.urlnorm import resolve_url

from test_feeds import reference_feed_url

BASE = "http://blog.example/"


class ReferenceExtractor(HTMLParser):
    """The oracle: ``extract_page`` on the stdlib ``HTMLParser``."""

    def __init__(self, base_url: str):
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.words = []
        self.lines = []
        self.anchors = []
        self._open_anchors = []
        self._skip = 0
        self._heading_buf = None
        self.has_feed_link = False
        self.dated_headings = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip += 1
            return
        attrs = dict(attrs)
        if tag == "link":
            if not self.has_feed_link and _rss_alternate(attrs, self.base_url):
                self.has_feed_link = True
        elif tag == "a":
            self._open_anchors.append([attrs.get("href"), len(self.words)])
        elif tag in _HEADING_TAGS:
            self._heading_buf = []
            if tag == "time" and attrs.get("datetime"):
                self.dated_headings += 1
                self._heading_buf = None
        if tag in _BLOCK_TAGS:
            self._mark_line()

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            if self._skip:
                self._skip -= 1
            return
        if tag == "a" and self._open_anchors:
            href, start = self._open_anchors.pop()
            self.anchors.append((href, start, len(self.words)))
        elif tag in _HEADING_TAGS and self._heading_buf is not None:
            if _DATE_PATTERNS.search(" ".join(self._heading_buf)):
                self.dated_headings += 1
            self._heading_buf = None
        if tag in _BLOCK_TAGS:
            self._mark_line()

    def handle_data(self, data):
        if self._skip:
            return
        chunk = data.split()
        if self._heading_buf is not None:
            self._heading_buf.extend(chunk)
        self.words.extend(chunk)

    def _mark_line(self):
        if not self.lines or self.lines[-1] != len(self.words):
            self.lines.append(len(self.words))

    def result(self) -> Document:
        pieces = []
        breaks = set(self.lines)
        for i, word in enumerate(self.words):
            if i in breaks and pieces:
                pieces.append("\n")
            elif pieces:
                pieces.append(" ")
            pieces.append(word)
        links = []
        for href, start, end in self.anchors:
            if not href:
                continue
            try:
                target = resolve_url(self.base_url, href)
            except ValueError:
                continue
            before = self.words[max(0, start - WINDOW):start]
            after = self.words[end:end + WINDOW]
            links.append(LinkContext(
                target=target,
                anchor_text=" ".join(self.words[start:end]),
                context_window=" ".join(before + after),
            ))
        return Document(self.base_url, "".join(pieces), tuple(links), self.has_feed_link,
                        self.dated_headings)


def reference_extract_page(html: str, base_url: str) -> Document:
    parser = ReferenceExtractor(base_url)
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        pass  # HTMLParser is lenient; what it already read is kept
    return parser.result()


def assert_parity(html, base):
    assert extract_page(html, base) == reference_extract_page(html, base), html


# ----------------------------------------------------------------------
# generated worlds and the golden page

@pytest.fixture(scope="module")
def world_documents():
    """``(kind, html, base)`` for every page, home page and item
    description of the mixed-200 worlds of seeds 7 to 11."""
    docs = []

    def recorded(html, base):
        docs.append(("description", html, base))
        return extract_page(html, base)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feeds, "extract_page", recorded)
        for seed in range(7, 12):
            world = generate_world(mixed_200_spec(seed))
            for url, (content_type, body) in world.sites.items():
                if content_type == "text/html":
                    kind = "home" if url in world.site_labels else "page"
                    docs.append((kind, body.decode("utf-8"), url))
                elif content_type == "application/rss+xml":
                    parse_rss(decode_feed_bytes(body), url)
    return docs


def test_world_documents_extract_as_the_reference(world_documents):
    kinds = {}
    for kind, html, base in world_documents:
        assert_parity(html, base)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) > 500, kinds


def test_world_home_pages_discover_as_the_reference(world_documents):
    found = 0
    for kind, html, base in world_documents:
        if kind == "home":
            url = find_feed_url(html, base)
            assert url == reference_feed_url(html, base)
            found += url is not None
    assert found > 500


def test_golden_page_extracts_as_the_reference(fixtures_dir):
    html = (fixtures_dir / "page_golden.html").read_text(encoding="utf-8")
    assert_parity(html, "http://golden.example/")


# ----------------------------------------------------------------------
# a seeded grammar of well-formed markup

TAG_NAMES = ["p", "div", "br", "li", "ul", "a", "a", "a", "h1", "h3", "time", "span",
             "b", "title", "link", "hr", "P", "A", "Div", "LINK", "Time", "H2"]
ATTR_NAMES = ["href", "href", "rel", "type", "datetime", "class", "HREF", "data-x", "Rel"]
ATTR_VALUES = ["/a", "http://other.example/x", "x/y", "../up", "", "#frag", "/a?b=1&amp;c=2",
               "alternate", "application/rss+xml", "APPLICATION/RDF+XML", "2011-03-07",
               "mailto:x@y", "http://bad host/", "ftp://blog.example/f", "q&lt;r"]
WORDS = ["flood", "Warning", "river", "naïve", "Straße", "2011-03-07", "mar", "5,", "2011",
         "x.y", "end.", "a&amp;b", "&lt;tag&gt;", "&#39;q&#39;", "&#x41;", "&eacute;t&eacute;",
         "AT&T", "&amp", "&", "< ", "<3", ">", "a<=b", "&nbsp;", "İstanbul"]
SPACES = [" ", " ", " ", "\n", "\t", "  ", " \n "]
RAW_TEXT = ["var a = 1;", "if (a < b) { c(); }", "'<p>'", "</b>", "<a href=/s>x</a>",
            "<!-- x -->", "&amp;", " "]


def _attribute(rng) -> str:
    name = rng.choice(ATTR_NAMES)
    style = rng.randrange(4)
    if style == 0:
        return name
    value = rng.choice(ATTR_VALUES)
    eq = rng.choice(["=", "=", " = ", "= "])
    if style == 3:
        return name + eq + ("".join(c for c in value if c not in " \"'=<>`") or "v")
    quote, other = ('"', "'") if style == 1 else ("'", '"')
    # a quoted value may hold ">" and the other quote
    return name + eq + quote + value + rng.choice(["", ">", other]) + quote


def _start_tag(rng) -> str:
    out = "<" + rng.choice(TAG_NAMES)
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        # a quoted value needs no separator before the next attribute
        quoted = out.endswith(("'", '"'))
        out += rng.choice(["", " ", "\n"] if quoted else [" ", "  ", "\n", "\t"])
        out += _attribute(rng)
    # "<a href=x/>": both read "x/" as the value and the tag as a start tag
    return out + rng.choice([">", ">", ">", "/>", " />", " >"])


def _token(rng) -> str:
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(SPACES).join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))
    if roll < 0.60:
        return _start_tag(rng)
    if roll < 0.80:
        return f"</{rng.choice(TAG_NAMES)}{rng.choice(['', '', ' '])}>"
    if roll < 0.84:
        return rng.choice(["<!-- a comment -->", "<!---->", "<!DOCTYPE html>",
                           '<?xml version="1.0"?>', "<!-- <a href=/c>c</a> -->"])
    if roll < 0.90:
        raw = rng.choice(["script", "style", "SCRIPT", "Style"])
        body = "".join(rng.choice(RAW_TEXT) for _ in range(rng.randint(0, 4)))
        return f"<{raw}{rng.choice(['', ' type=x'])}>{body}</{raw.lower()}{rng.choice(['', ' '])}>"
    if roll < 0.95:
        return rng.choice(SPACES)
    return f'<a href="/n{rng.randrange(5)}">' + rng.choice(WORDS) + "</a>"


def random_markup(rng) -> str:
    return "".join(_token(rng) for _ in range(rng.randint(0, 40)))


def test_random_markup_extracts_as_the_reference():
    rng = random.Random(20111)
    links = 0
    for _ in range(3000):
        html = random_markup(rng)
        assert_parity(html, BASE)
        links += len(extract_page(html, BASE).links)
    assert links > 3000


def test_random_markup_discovers_as_the_reference():
    rng = random.Random(20112)
    found = 0
    for _ in range(3000):
        html = "".join(rng.choice([random_markup(rng), _start_tag(rng),
                                   '<link rel="alternate" type="application/rss+xml" href="/f">'])
                       for _ in range(3))
        url = find_feed_url(html, BASE)
        assert url == reference_feed_url(html, BASE), html
        found += url is not None
    assert found > 300


# ----------------------------------------------------------------------
# malformed markup: where the scanner follows the WHATWG tokenizer

@pytest.mark.parametrize("html, text, targets", [
    # an unterminated comment runs to the end (html.parser 3.11 gives
    # "kept\n< !-- never closed text" and the link)
    ("<p>kept</p><!-- never closed <a href='/x'>text</a>", "kept", []),
    # an unclosed script runs to the end
    ("<p>before</p><script>var a = '<a href=/x>x</a>';", "before", []),
    # "</ " opens a bogus comment, not an end tag (html.parser 3.11 breaks
    # the line at "</ p>" and closes the anchor at "</ a>")
    ("<p>one</ p>two <a href=/x>link</ a> tail", "one two link tail", []),
    ("<p>one</ junk>two</p>", "one two", []),
    # a bare value takes the "/": a start tag, not a self-closing one
    ("see <a href=x/>this</a> now", "see this now", [BASE + "x/"]),
    ('see <a href="x"/>this</a> now', "see this now", [BASE + "x"]),
    # a tag cut off by the end of the document is dropped with the rest
    ('<p>kept</p><a href="/x">text</a><a href="/y', "kept\ntext", [BASE + "x"]),
    ("<p>kept</p><div class=x", "kept", []),
    ("<p>kept</p><!DOCTYPE", "kept", []),
    ("<p>kept</p><!", "kept", []),
    # a comment ends at "-->" or "--!>" only; "<!-->" is empty
    ("a<!-- x -- >b-->c", "a c", []),
    ("a<!-- x --!>b", "a b", []),
    ("a<!-->b", "a b", []),
    ("a<!--->b", "a b", []),
    # "</>" is skipped; a lone "<" is a word of its own
    ("a</>b", "a b", []),
    ("a < b <3 c</", "a < b < 3 c < /", []),
    # a quoted value may hold ">", also in an end tag; the URL encodes it
    ('<a href="/q>r">in</a title=">">out', "in out", [BASE + "q%3Er"]),
    # CDATA is a bogus comment up to the first ">"
    ("a<![CDATA[ x > y ]]>b", "a y ]]>b", []),
    # raw text ends at "</script" before whitespace, "/" or ">"
    ("<script>x</scripty>y</script >z", "z", []),
    ("<STYLE>p{}</style\n>z", "z", []),
    ("<script/>after", "after", []),
    ("<scripts>abc</scripts>", "abc", []),
])
def test_malformed_markup(html, text, targets):
    page = extract_page(html, BASE)
    assert page.text == text
    assert [link.target for link in page.links] == targets


def test_attributes_are_quote_aware_and_last_wins():
    html = ("<LINK REL=Alternate TYPE='application/rss+xml' href=\"/a\" HREF='/b' "
            "title=\"x>y\">")
    assert find_feed_url(html, BASE) == BASE + "b"
    assert find_feed_url('<link rel=alternate type="application/rss+xml"href="/c">',
                         BASE) == BASE + "c"


def test_long_malformed_tags_scan_in_linear_time():
    """No input makes the pattern backtrack into a tag's attributes."""
    cases = ["<a " + "b" * 200_000,
             "<script " + "a=b " * 50_000 + "/",
             "<a " + 'x="' * 50_000,
             "<!--" + "-" * 200_000,
             "<p " + "/ " * 100_000 + ">" + "w " * 1000]
    for html in cases:
        start = time.perf_counter()
        extract_page(html, BASE)
        find_feed_url(html, BASE)
        assert time.perf_counter() - start < 5.0


# ----------------------------------------------------------------------
# mutated bodies

_STRUCTURAL = "<>/!?-=\"' \n&#;abpsx"


def mutate(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 6)):
        char = rng.choice(_STRUCTURAL) if rng.random() < 0.7 else chr(rng.randrange(0x3000))
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(rng.randrange(len(chars) + 1), char)
        elif op == 1:
            chars[rng.randrange(len(chars))] = char
        else:
            del chars[rng.randrange(len(chars))]
    return "".join(chars)


def test_mutated_documents_never_raise(world_documents):
    """``extract_page`` and ``find_feed_url`` declare no error: on any text
    they return a well-formed result."""
    rng = random.Random(20113)
    sample = rng.sample(world_documents, 1500)
    for kind, html, base in sample:
        mutated = mutate(html, rng)
        page = extract_page(mutated, base)
        assert all(line and line == " ".join(line.split()) for line in page.text.split("\n")) \
            or page.text == ""
        assert all(link.target.startswith(("http://", "https://")) for link in page.links)
        url = find_feed_url(mutated, base)
        assert url is None or url.startswith(("http://", "https://"))
