"""The quadrature route to the limit law, kept as the test oracle.

``levy_exponent`` integrates the jump-measure exponent numerically and
``charfn_stable`` evaluates the stable characteristic function in closed
form; ``m1lab.stable.stable_params`` maps a triple to the parameters of
the second, and the tests (criterion 5 of ``test_acceptance.py`` and
``test_stable.py``) compare the two routes.  No verb of m1lab evaluates
either, so they left the package, copied unchanged.
"""

import math

import numpy as np

from m1lab.stable import StableError


class QuadratureError(StableError):
    pass


def levy_exponent(z, triple):
    """log E[exp(i z V(1))] by quadrature of the jump-measure integral.

    V has characteristic triple (0, nu1, gamma1): the exponent is
    i*gamma1*z + integral of (e^{izx} - 1 - izx 1{|x|<=1}) nu1(dx),
    nu1(dx) = theta*alpha*(c+ 1_{x>0} + c- 1_{x<0}) |x|^{-alpha-1} dx.
    Split at |x| = 1; the oscillatory tails use weighted quadrature and the
    constant tail integrates to 1/alpha in closed form.
    """
    if z == 0.0:
        return 0.0 + 0.0j
    a = triple.alpha
    w = abs(float(z))
    ap = triple.theta * a * triple.c_plus
    am = triple.theta * a * triple.c_minus

    def _quad(f, lo, hi, **kw):
        import warnings

        from scipy import integrate

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(
                f, lo, hi, limit=800, epsabs=1e-11, epsrel=1e-11, **kw
            )
        if err > 1e-6 * (1.0 + abs(val)):
            raise QuadratureError(
                f"quadrature residual {err:.2e} exceeds tolerance at z={z}"
            )
        return val

    i1c = _quad(lambda x: (math.cos(w * x) - 1.0) * x ** (-a - 1.0), 0.0, 1.0)
    i1s = _quad(lambda x: (math.sin(w * x) - w * x) * x ** (-a - 1.0), 0.0, 1.0)
    i2c = _quad(lambda x: x ** (-a - 1.0), 1.0, np.inf, weight="cos", wvar=w)
    i2s = _quad(lambda x: x ** (-a - 1.0), 1.0, np.inf, weight="sin", wvar=w)
    re = (ap + am) * (i1c + i2c - 1.0 / a)
    im = math.copysign(1.0, z) * (ap - am) * (i1s + i2s) + triple.gamma1 * z
    return complex(re, im)


def charfn_stable(z, params):
    """Characteristic function of the stable law, exact closed form."""
    z_arr = np.asarray(z, dtype=float)
    az = np.abs(z_arr)
    sgn = np.sign(z_arr)
    a = params.alpha
    if a == 1.0:
        with np.errstate(divide="ignore"):
            logs = np.where(az > 0.0, np.log(np.where(az > 0.0, az, 1.0)), 0.0)
        inner = 1.0 + 1j * params.beta * (2.0 / math.pi) * sgn * logs
    else:
        inner = 1.0 - 1j * params.beta * sgn * math.tan(math.pi * a / 2.0)
    out = np.exp(1j * params.tau * z_arr - params.c * az**a * inner)
    return out if z_arr.ndim else complex(out)
