"""The mbedTLS-style GCD victim, in eight library "versions".

The paper evaluates NightVision against ``mbedtls_mpi_gcd`` (§7.2) and
fingerprints it across mbedTLS versions 2.5–3.1 (§7.3, Fig. 13 left).
Its finding: the *source* of GCD is identical across 2.5–2.15, changes
at 2.16, and changes again for 3.x — fingerprint similarity follows
that block structure.  We reproduce the setup with three genuinely
different source implementations mapped onto eight version labels.

All variants compute the same function (binary GCD over *nonzero*
operands — RSA keygen never passes zero, and mbedTLS guards it
upstream of the binary loop) and contain the same *secret*: a
balanced branch, taken iff ``TA >= TB``, evaluated once per loop
iteration.  The optional ``yield`` after the branch body
is the §7.2 preemption point (victims built for enclave fingerprinting
omit it).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import CompileError
from ..lang import ast as A
from ..lang.parser import parse_module
from .bignum import BIGNUM_SOURCE

#: the version labels evaluated in Fig. 13 (left)
GCD_VERSIONS: Tuple[str, ...] = (
    "2.5", "2.7", "2.12", "2.15", "2.16", "2.24", "3.0", "3.1",
)

#: versions sharing identical GCD source (the paper's observation)
VERSION_GROUPS: Dict[str, Tuple[str, ...]] = {
    "classic": ("2.5", "2.7", "2.12", "2.15"),
    "v216": ("2.16", "2.24"),
    "v3": ("3.0", "3.1"),
}


def _group_of(version: str) -> str:
    for group, members in VERSION_GROUPS.items():
        if version in members:
            return group
    raise CompileError(f"unknown mbedTLS version {version!r}")


# --------------------------------------------------------------------
# variant sources ({yield} is replaced by "yield;" or "")
# --------------------------------------------------------------------
_GCD_CLASSIC = """
# mbedtls_mpi_gcd, versions 2.5 - 2.15 (classic binary GCD)
func mpi_gcd(g, ta, tb, n) {
  count = 0;
  while (bn_is_even(ta) & bn_is_even(tb)) {
    bn_shr1(ta, n);
    bn_shr1(tb, n);
    count = count + 1;
  }
  while (bn_is_zero(ta, n) == 0) {
    while (bn_is_even(ta)) { bn_shr1(ta, n); }
    while (bn_is_even(tb)) { bn_shr1(tb, n); }
    if (bn_cmp(ta, tb, n) != 2) {
      # TA >= TB : the balanced secret branch (then arm)
      bn_sub(ta, ta, tb, n);
      bn_shr1(ta, n);
    } else {
      bn_sub(tb, tb, ta, n);
      bn_shr1(tb, n);
    }
    {yield}
  }
  bn_copy(g, tb, n);
  while (count != 0) {
    bn_shl1(g, n);
    count = count - 1;
  }
  return 0;
}
"""

_GCD_V216 = """
# mbedtls_mpi_gcd, versions 2.16+ (restructured: helper-based odd
# reduction and pointer swap instead of two symmetric arms)
func bn_make_odd(a, n) {
  shifts = 0;
  while (bn_is_even(a)) {
    bn_shr1(a, n);
    shifts = shifts + 1;
  }
  return shifts;
}

func mpi_gcd(g, ta, tb, n) {
  count = 0;
  while (bn_is_even(ta) & bn_is_even(tb)) {
    bn_shr1(ta, n);
    bn_shr1(tb, n);
    count = count + 1;
  }
  while (bn_is_zero(ta, n) == 0) {
    bn_make_odd(ta, n);
    bn_make_odd(tb, n);
    if (bn_cmp(ta, tb, n) == 2) {
      # TA < TB : swap the operand pointers (else arm of the secret)
      tmp = ta;
      ta = tb;
      tb = tmp;
    } else {
      # TA >= TB : keep order (then arm)
      tmp = tb;
      tb = tb;
      ta = ta;
    }
    bn_sub(ta, ta, tb, n);
    bn_shr1(ta, n);
    {yield}
  }
  bn_copy(g, tb, n);
  while (count != 0) {
    bn_shl1(g, n);
    count = count - 1;
  }
  return 0;
}
"""

_GCD_V3 = """
# mbedtls_mpi_gcd, versions 3.x (single helper doing reduce+select,
# flattened main loop)
func bn_reduce_step(ta, tb, n) {
  # one Stein reduction step; returns 1 when the then arm executed
  c = bn_cmp(ta, tb, n);
  r = 0;
  if (c != 2) {
    bn_sub(ta, ta, tb, n);
    bn_shr1(ta, n);
    r = 1;
  } else {
    bn_sub(tb, tb, ta, n);
    bn_shr1(tb, n);
  }
  return r;
}

func mpi_gcd(g, ta, tb, n) {
  count = 0;
  while (bn_is_even(ta) & bn_is_even(tb)) {
    bn_shr1(ta, n);
    bn_shr1(tb, n);
    count = count + 1;
  }
  while (bn_is_zero(ta, n) == 0) {
    while (bn_is_even(ta)) { bn_shr1(ta, n); }
    while (bn_is_even(tb)) { bn_shr1(tb, n); }
    bn_reduce_step(ta, tb, n);
    {yield}
  }
  bn_copy(g, tb, n);
  while (count != 0) {
    bn_shl1(g, n);
    count = count - 1;
  }
  return 0;
}
"""

_SOURCES_BY_GROUP = {
    "classic": _GCD_CLASSIC,
    "v216": _GCD_V216,
    "v3": _GCD_V3,
}


def gcd_source(version: str = "3.0", *, with_yield: bool = False) -> str:
    """Full DSL source (bignum library + GCD) for one mbedTLS version."""
    body = _SOURCES_BY_GROUP[_group_of(version)]
    yield_stmt = "yield;" if with_yield else ""
    return BIGNUM_SOURCE + body.replace("{yield}", yield_stmt)


def gcd_module(version: str = "3.0", *,
               with_yield: bool = False) -> A.Module:
    """Parsed module for one version."""
    return parse_module(gcd_source(version, with_yield=with_yield))


def secret_branch_function(version: str) -> str:
    """Name of the function containing the balanced secret branch."""
    return "bn_reduce_step" if _group_of(version) == "v3" else "mpi_gcd"


def then_arm_means_ta_ge_tb(version: str) -> bool:
    """Does the *then* arm of the secret branch correspond to the
    ``TA >= TB`` direction?  True for the classic and 3.x sources;
    the 2.16 rewrite tests ``TA < TB`` (pointer swap), inverting the
    mapping.  The attacker reads this off the public binary."""
    return _group_of(version) != "v216"
