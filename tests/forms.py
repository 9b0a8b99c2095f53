"""Exact sparse trilinear forms for the tensor tests.

A form is a dict of nonzero Fraction coefficients over three labeled
variable domains. The matrix multiplication form <l,m,n>, the structural
form of a configuration's adjacency algebra, Kronecker products, direct
sums and support comparison are written straight from their definitions,
so the tests can state the paper's tensor identities (for example
<2,1,1> x <1,2,1> ~ <2,2,1>, and that the structural support is the
triangle relation) without the embedded product. is_triangle reads the
triangle relation off the intersection numbers."""

from fractions import Fraction


class SparseTensor:
    """A trilinear form over three finite labeled variable domains.
    Coefficients are nonzero rationals; zero terms are never stored."""

    def __init__(self, x_domain, y_domain, z_domain, coeffs):
        self.x_domain = tuple(x_domain)
        self.y_domain = tuple(y_domain)
        self.z_domain = tuple(z_domain)
        xs, ys, zs = set(self.x_domain), set(self.y_domain), set(self.z_domain)
        if len(xs) < len(self.x_domain) or len(ys) < len(self.y_domain) or len(
            zs
        ) < len(self.z_domain):
            raise ValueError("duplicate variable labels in a domain")
        clean = {}
        for key, val in coeffs.items():
            xi, yi, zi = key
            if xi not in xs or yi not in ys or zi not in zs:
                raise ValueError("coefficient key %r outside domains" % (key,))
            val = Fraction(val)
            if val:
                clean[(xi, yi, zi)] = val
        self.coeffs = clean

    def support(self):
        return frozenset(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.x_domain == other.x_domain
            and self.y_domain == other.y_domain
            and self.z_domain == other.z_domain
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return "<tensor %dx%dx%d, %d terms>" % (
            len(self.x_domain),
            len(self.y_domain),
            len(self.z_domain),
            len(self.coeffs),
        )


def matmul_tensor(l, m, n):
    """The matrix multiplication form <l,m,n>: sum over x_(a,b) y_(b,c)
    z_(c,a), all coefficients 1."""
    if l < 1 or m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    xd = [(a, b) for a in range(l) for b in range(m)]
    yd = [(b, c) for b in range(m) for c in range(n)]
    zd = [(c, a) for c in range(n) for a in range(l)]
    coeffs = {
        ((a, b), (b, c), (c, a)): Fraction(1)
        for a in range(l)
        for b in range(m)
        for c in range(n)
    }
    return SparseTensor(xd, yd, zd, coeffs)


def structural_tensor(config):
    """Multiplication form of the adjacency algebra in the starred
    convention: coefficient of (i, j, k) is p^{k*}_{i,j}. Its support is
    exactly the triangle relation of the configuration."""
    t = config.intersection()
    dom = range(config.rank)
    coeffs = {}
    for i, j, k, p in t.iter_nonzero():
        coeffs[(i, j, t.star(k))] = Fraction(p)
    return SparseTensor(dom, dom, dom, coeffs)


def tensor_product(t1, t2):
    """Kronecker product; variable labels become pairs."""
    xd = [(u, v) for u in t1.x_domain for v in t2.x_domain]
    yd = [(u, v) for u in t1.y_domain for v in t2.y_domain]
    zd = [(u, v) for u in t1.z_domain for v in t2.z_domain]
    coeffs = {}
    for (x1, y1, z1), c1 in t1.coeffs.items():
        for (x2, y2, z2), c2 in t2.coeffs.items():
            coeffs[((x1, x2), (y1, y2), (z1, z2))] = c1 * c2
    return SparseTensor(xd, yd, zd, coeffs)


def direct_sum(t1, t2):
    """Disjoint union of variables; labels are tagged to remove overlap."""
    xd = [(0, u) for u in t1.x_domain] + [(1, u) for u in t2.x_domain]
    yd = [(0, u) for u in t1.y_domain] + [(1, u) for u in t2.y_domain]
    zd = [(0, u) for u in t1.z_domain] + [(1, u) for u in t2.z_domain]
    coeffs = {}
    for tag, t in ((0, t1), (1, t2)):
        for (x, y, z), c in t.coeffs.items():
            coeffs[((tag, x), (tag, y), (tag, z))] = c
    return SparseTensor(xd, yd, zd, coeffs)


def support_equal(t1, t2):
    return t1.support() == t2.support()


def is_triangle(config, i, j, k):
    """Classes (i, j, k) form a triangle: there are points x, y, z with
    (x,y) in R_i, (y,z) in R_j, (z,x) in R_k. Equivalent to p^{k*}_{i,j} > 0."""
    t = config.intersection()
    return t.slice(i, j).get(t.star(k), 0) > 0
