package tensor

import "math"

// ApproxEq reports whether a and b lie within tol of each other. It is
// the tolerance comparison the floateq analyzer (internal/lint) points
// code at instead of exact ==/!= between computed floating-point values.
func ApproxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}
