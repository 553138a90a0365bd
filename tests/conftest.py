import io
import warnings
import xml.etree.ElementTree as ET
from contextlib import suppress

# When a @given test fails, Hypothesis's pytest plugin imports this module to write a
# failure patch. Its libcst import warns DeprecationWarning, which filterwarnings = error
# raises inside the plugin's hook: pytest stops with INTERNALERROR and runs no later test.
# Imported once here with that warning ignored, the module is cached, so the hook's import
# warns nothing. Without libcst the import fails, and the plugin skips the patch.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_text(fig) -> str:
    """The SVG document of a figure, as Figure.write writes it."""
    buf = io.StringIO()
    fig.write(buf)
    return buf.getvalue()


def svg_root(fig):
    return ET.fromstring(svg_text(fig))


def find_all(fig, tag, cls=None):
    """All elements of an SVG tag, optionally filtered by class attribute."""
    out = []
    for el in svg_root(fig).iter(SVG_NS + tag):
        if cls is None or el.get("class") == cls:
            out.append(el)
    return out


def polygon_points(el):
    return [tuple(float(v) for v in pair.split(","))
            for pair in el.get("points").split()]


def point_in_polygon(x, y, poly):
    """Ray-casting point-in-polygon test."""
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xcross:
                inside = not inside
    return inside
