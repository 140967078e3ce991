"""Reference helpers the tests share."""


def poly_mul(a: list, b: list) -> list:
    """Product of dense polynomials by convolution, trailing zeros
    trimmed; int lists stay int."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out
