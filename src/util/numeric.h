// Numeric helpers: root finding, quadratic solving, clamping, tolerant
// comparisons. Used by the electrical solver and the Lagrangian policy
// allocators.
#ifndef SRC_UTIL_NUMERIC_H_
#define SRC_UTIL_NUMERIC_H_

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/util/status.h"

namespace sdb {

// Approximate equality with combined absolute/relative tolerance.
bool AlmostEqual(double a, double b, double abs_tol = 1e-9, double rel_tol = 1e-9);

// Clamps x into [lo, hi]; aborts if lo > hi. Inline: called on the
// per-cell-step hot path (src/chem/soa_kernel.h).
inline double Clamp(double x, double lo, double hi) {
  SDB_CHECK(lo <= hi);
  return std::min(std::max(x, lo), hi);
}

// Linear interpolation: a + t * (b - a).
inline double Lerp(double a, double b, double t) { return a + t * (b - a); }

// Solutions of a*x^2 + b*x + c = 0.
struct QuadraticRoots {
  int count = 0;  // 0, 1, or 2 real roots.
  double lo = 0.0;
  double hi = 0.0;
};

// Solves the quadratic; handles the degenerate linear case (a == 0). Roots
// are ordered lo <= hi. Inline: this sits on the per-cell-step hot path of
// the chem kernel (src/chem/soa_kernel.h).
inline QuadraticRoots SolveQuadratic(double a, double b, double c) {
  QuadraticRoots roots;
  if (a == 0.0) {
    if (b == 0.0) {
      return roots;  // Constant equation: no roots (or all x; callers treat as none).
    }
    roots.count = 1;
    roots.lo = roots.hi = -c / b;
    return roots;
  }
  double disc = b * b - 4.0 * a * c;
  if (disc < 0.0) {
    return roots;
  }
  if (disc == 0.0) {
    roots.count = 1;
    roots.lo = roots.hi = -b / (2.0 * a);
    return roots;
  }
  // Numerically stable form: compute the larger-magnitude root first.
  double sq = std::sqrt(disc);
  double q = -0.5 * (b + std::copysign(sq, b));
  double r1 = q / a;
  double r2 = (q != 0.0) ? c / q : -b / a - r1;
  roots.count = 2;
  roots.lo = std::min(r1, r2);
  roots.hi = std::max(r1, r2);
  return roots;
}

// Finds x in [lo, hi] with f(x) == 0 by bisection. Requires f(lo) and f(hi)
// to bracket the root (opposite signs or one endpoint exactly zero).
StatusOr<double> Bisect(const std::function<double(double)>& f, double lo, double hi,
                        double tol = 1e-10, int max_iters = 200);

// Finds the x in [lo, hi] where the monotone non-decreasing function g
// first reaches `target`, by bisection on g(x) - target.
StatusOr<double> SolveMonotone(const std::function<double(double)>& g, double target, double lo,
                               double hi, double tol = 1e-10, int max_iters = 200);

// Trapezoidal integration of f over [lo, hi] with n >= 1 panels.
double IntegrateTrapezoid(const std::function<double(double)>& f, double lo, double hi, int n);

}  // namespace sdb

#endif  // SRC_UTIL_NUMERIC_H_
